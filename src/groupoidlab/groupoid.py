"""Groupoid construction: parameter pairs, level taxonomy, Cayley tables.

A groupoid is either *spec-backed* (carrier + shape + parameter pair, with the
star product computed on demand) or *table-backed* (an explicit Cayley table
over opaque labels, e.g. parsed back from a serialized table).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .carrier import Carrier, CarrierError, Value
from .shape import (
    DEFAULT_SPACE_CAP,
    Element,
    Shape,
    TooLarge,
    element_space,
    format_element,
    star,
    zero_element,
)

DEFAULT_TABLE_CAP = 256


class BudgetExceeded(RuntimeError):
    """A requested computation exceeds its configured budget or cap."""


class Level(Enum):
    """Parameter-pair taxonomy; higher-precedence cases are listed last."""

    ONE = "one"      # distinct single-coefficient primes, unit gcd
    TWO = "two"      # unit gcd, distinct, not both prime
    THREE = "three"  # non-unit gcd
    FOUR = "four"    # t = u
    FIVE = "five"    # exactly one of t, u is zero


def classify_level(carrier: Carrier, t: Value, u: Value) -> Level:
    tz = carrier.param_is_zero(t)
    uz = carrier.param_is_zero(u)
    if tz and uz:
        raise CarrierError("parameter pair (0, 0) does not define a groupoid")
    if tz != uz:
        return Level.FIVE
    if t == u:
        return Level.FOUR
    if not carrier.coprimality_class(t, u).is_unit:
        return Level.THREE
    if carrier.param_is_single_prime(t) and carrier.param_is_single_prime(u):
        return Level.ONE
    return Level.TWO


@dataclass(frozen=True)
class GroupoidSpec:
    """Recipe for a star groupoid: carrier, shape, and embedded parameters.

    ``t_indeterminate`` / ``u_indeterminate`` record whether the parameters
    were given as I-multiples (the embedded value alone cannot always tell).
    """

    carrier: Carrier
    shape: Shape
    t: Value
    u: Value
    t_indeterminate: bool = False
    u_indeterminate: bool = False

    def __post_init__(self) -> None:
        if self.carrier.param_is_zero(self.t) and self.carrier.param_is_zero(self.u):
            raise CarrierError("parameter pair (0, 0) does not define a groupoid")

    @property
    def level(self) -> Level:
        return classify_level(self.carrier, self.t, self.u)

    def param_text(self) -> str:
        from .carrier import IntervalOf, PureNeutrosophic

        base = self.carrier
        while isinstance(base, IntervalOf):
            base = base.inner

        def one(v: Value, ind: bool) -> str:
            # over a pure-I carrier, plain k and kI act identically; keep the
            # spelling the pair was given with
            if isinstance(base, PureNeutrosophic) and not ind:
                return str(v)
            return base.format_value(v)

        return f"({one(self.t, self.t_indeterminate)},{one(self.u, self.u_indeterminate)})"


def build(
    carrier: Carrier,
    shape: Shape,
    t: Value,
    u: Value,
    *,
    t_indeterminate: bool = False,
    u_indeterminate: bool = False,
    space_cap: int = DEFAULT_SPACE_CAP,
) -> "Groupoid":
    spec = GroupoidSpec(
        carrier,
        shape,
        carrier.reduce(t),
        carrier.reduce(u),
        t_indeterminate,
        u_indeterminate,
    )
    return Groupoid(spec=spec, space_cap=space_cap)


class Groupoid:
    """A finite (or too-large-to-enumerate) magma with a star or table product."""

    def __init__(
        self,
        spec: GroupoidSpec | None = None,
        *,
        labels: Sequence[str] | None = None,
        table: Sequence[Sequence[int]] | None = None,
        space_cap: int = DEFAULT_SPACE_CAP,
    ) -> None:
        if (spec is None) == (labels is None):
            raise CarrierError("provide either a spec or labels+table")
        self.spec = spec
        self._space_cap = space_cap
        self._elements: list[Element] | None = None
        self._labels: list[str] | None = list(labels) if labels is not None else None
        self._index: dict | None = None
        self._table: list[list[int]] | None = (
            [list(row) for row in table] if table is not None else None
        )
        # values other layers derive from the table, which never mutates
        self._memo: dict = {}
        if spec is not None:
            self._space = element_space(spec.carrier, spec.shape, cap=space_cap)
        else:
            self._space = None
            n = len(self._labels)
            if len(set(self._labels)) != n:
                raise CarrierError("table labels must be distinct")
            if len(self._table) != n or any(len(row) != n for row in self._table):
                raise CarrierError("table must be square and match the label count")
            for i, row in enumerate(self._table):
                for j, cell in enumerate(row):
                    if not (0 <= cell < n):
                        raise CarrierError(
                            f"cell ({i},{j}) leaves the element set: index {cell}"
                        )

    # -- size and elements ------------------------------------------------

    @property
    def order(self) -> int | TooLarge:
        if self.spec is None:
            return len(self._labels)
        return self._space.count

    def _require_enumerable(self) -> None:
        if isinstance(self.order, TooLarge):
            raise BudgetExceeded("element space exceeds the enumeration cap")

    def elements(self) -> list[Element]:
        """Canonical element order: carrier order, extended entry-lexicographically."""
        if self.spec is None:
            raise CarrierError("table-backed groupoid has labels, not elements")
        self._require_enumerable()
        if self._elements is None:
            self._elements = list(iter(self._space))
        return self._elements

    def labels(self) -> list[str]:
        if self._labels is None:
            sp = self.spec
            self._labels = [
                format_element(sp.carrier, sp.shape, e) for e in self.elements()
            ]
        return self._labels

    def element_index(self, e: Element) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements())}
        return self._index[e]

    def zero_index(self) -> int | None:
        """Index of the all-zero element; None for table-backed groupoids."""
        if self.spec is None:
            return None
        return self.element_index(zero_element(self.spec.carrier, self.spec.shape))

    # -- products ----------------------------------------------------------

    def star(self, x: Element, y: Element) -> Element:
        if self.spec is None:
            raise CarrierError("table-backed groupoid multiplies indices, not elements")
        sp = self.spec
        return star(sp.carrier, sp.shape, sp.t, sp.u, x, y)

    def star_idx(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        els = self.elements()
        return self.element_index(self.star(els[i], els[j]))

    def index_table(self, cap: int | None = None) -> list[list[int]]:
        """The full index Cayley table (cached). Refuses orders above cap."""
        if self._table is None:
            n = self.order
            if isinstance(n, TooLarge) or (cap is not None and n > cap):
                raise BudgetExceeded(f"order {n} exceeds the table cap")
            els = self.elements()
            idx = {e: i for i, e in enumerate(els)}
            self._table = [
                [idx[self.star(a, b)] for b in els] for a in els
            ]
        elif cap is not None and len(self._table) > cap:
            raise BudgetExceeded(f"order {len(self._table)} exceeds the table cap")
        return self._table

    # -- convenience --------------------------------------------------------

    @property
    def level(self) -> Level | None:
        return self.spec.level if self.spec is not None else None

    def describe(self) -> str:
        if self.spec is not None:
            sp = self.spec
            return (
                f"carrier {sp.carrier.token()} shape {sp.shape.token()} "
                f"pair {sp.param_text()} level {sp.level.value}"
            )
        return f"table-backed groupoid of order {len(self._labels)}"


# -- Cayley tables ----------------------------------------------------------


@dataclass(frozen=True)
class CayleyTable:
    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]  # rows of element indices

    def to_tsv(self) -> str:
        lines = ["\t".join(self.labels)]
        for row in self.rows:
            lines.append("\t".join(self.labels[c] for c in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"labels": list(self.labels), "table": [list(r) for r in self.rows]},
            separators=(",", ":"),
        )

    @classmethod
    def from_tsv(cls, text: str) -> "CayleyTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise CarrierError("empty table text")
        labels = tuple(lines[0].split("\t"))
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise CarrierError("table labels must be distinct")
        rows = []
        for r, line in enumerate(lines[1:]):
            cells = line.split("\t")
            if len(cells) != len(labels):
                raise CarrierError(f"row {r} has {len(cells)} cells, expected {len(labels)}")
            row = []
            for c, cell in enumerate(cells):
                if cell not in index:
                    raise CarrierError(f"cell ({r},{c}) leaves the element set: {cell!r}")
                row.append(index[cell])
            rows.append(tuple(row))
        if len(rows) != len(labels):
            raise CarrierError(f"expected {len(labels)} rows, got {len(rows)}")
        return cls(labels=labels, rows=tuple(rows))

    @classmethod
    def from_json(cls, text: str) -> "CayleyTable":
        data = json.loads(text)
        labels = tuple(str(x) for x in data["labels"])
        rows = tuple(tuple(int(c) for c in row) for row in data["table"])
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise CarrierError("table must be square and match the label count")
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if not (0 <= cell < n):
                    raise CarrierError(f"cell ({i},{j}) leaves the element set: index {cell}")
        return cls(labels=labels, rows=rows)


def cayley_table(g: Groupoid, cap: int = DEFAULT_TABLE_CAP) -> CayleyTable:
    n = g.order
    if isinstance(n, TooLarge) or n > cap:
        raise BudgetExceeded(f"order {n} exceeds the Cayley table cap {cap}")
    return CayleyTable(
        labels=tuple(g.labels()),
        rows=tuple(tuple(row) for row in g.index_table()),
    )


def from_table(labels: Sequence[str], rows: Sequence[Sequence[int | str]]) -> Groupoid:
    """Build a table-backed groupoid; cells may be indices or labels.

    A cell that is not a known label / in-range index raises with the
    offending (row, col) position.
    """
    labs = [str(x) for x in labels]
    index = {lab: i for i, lab in enumerate(labs)}
    if len(index) != len(labs):
        raise CarrierError("table labels must be distinct")
    out: list[list[int]] = []
    for i, row in enumerate(rows):
        cells: list[int] = []
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                if cell not in index:
                    raise CarrierError(f"cell ({i},{j}) leaves the element set: {cell!r}")
                cells.append(index[cell])
            else:
                if not (0 <= int(cell) < len(labs)):
                    raise CarrierError(f"cell ({i},{j}) leaves the element set: index {cell}")
                cells.append(int(cell))
        out.append(cells)
    return Groupoid(labels=labs, table=out)
