"""Groupoid construction: parameter pairs, level taxonomy, Cayley tables.

A groupoid is either *spec-backed* (carrier + shape + parameter pair) or
*table-backed* (an explicit Cayley table over opaque labels, e.g. parsed back
from a serialized table). Its order is exact at any size: q^k for a spec with
k entries over q carrier values, the label count for a table.
``Groupoid.enumerable`` tests that order against the enumeration cap
(``DEFAULT_SPACE_CAP``, 10^6 elements), and ``enumerable_order`` refuses a
spec's order past it, before or without a groupoid: past it no element,
label or table is listed, while sampled checks and spot products still work. A spec compiles
once, through ``compile_product``, to an int32 Cayley table array that every
engine reads; a table-backed groupoid holds its validated rows as that array.
``compile_tables`` compiles the tables of a sweep's members together, one
call per group of members that share a carrier and shape; a single groupoid
is a sweep of one. The full table is refused before allocation when its n²
cells exceed the work budget (``GGL_BUDGET``).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .carrier import Carrier, CarrierError, Value
from .shape import (
    Element,
    Shape,
    compile_product,
    format_element,
    star,
)

DEFAULT_SPACE_CAP = 10**6
DEFAULT_TABLE_CAP = 256
DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "GGL_BUDGET"
# the one block size: cells per compile group of a sweep's tables, per block
# of an exhaustive scan, draws per sampled chunk, translate-set cells per block
# of normality rows and pairs per block of a pair count; one order-343 plane
# fits, with a 1 MB intp index
_CHUNK_CELLS = 1 << 17


class BudgetExceeded(RuntimeError):
    """A requested computation exceeds its configured budget or cap."""


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise BudgetExceeded(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")


def check_budget(cap: str, formula: str, work: int, unit: str = "") -> None:
    """Refuse, before it starts, work whose up-front estimate exceeds the budget."""
    budget = default_budget()
    if work > budget:
        raise BudgetExceeded(
            f"{cap} cap exceeded: estimate {formula} = {work}{unit}, "
            f"budget is {budget} (set {BUDGET_ENV_VAR} to raise it)"
        )


class Level(Enum):
    """Parameter-pair taxonomy; higher-precedence cases are listed last. ONE
    and TWO together are the pairs ``count_class(c, "level_one_pairs")`` counts."""

    ONE = "one"      # distinct single-coefficient primes, unit gcd
    TWO = "two"      # unit gcd, distinct, not both prime
    THREE = "three"  # non-unit gcd
    FOUR = "four"    # t = u
    FIVE = "five"    # exactly one of t, u is zero


def classify_level(carrier: Carrier, t: Value, u: Value) -> Level:
    t, u = carrier.reduce(t), carrier.reduce(u)
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


def enumerable_order(carrier: Carrier, shape: Shape) -> int:
    """The order q^k of the elements of shape over carrier, refused when it is
    past the enumeration cap."""
    q, k = carrier.size(), shape.entry_count()
    if q**k > DEFAULT_SPACE_CAP:
        raise BudgetExceeded(
            f"enumeration cap exceeded: estimate {q}^{k} = {q**k} elements, cap is {DEFAULT_SPACE_CAP}"
        )
    return q**k


def build(
    carrier: Carrier,
    shape: Shape,
    t: Value,
    u: Value,
    *,
    t_indeterminate: bool = False,
    u_indeterminate: bool = False,
) -> "Groupoid":
    spec = GroupoidSpec(
        carrier,
        shape,
        carrier.reduce(t),
        carrier.reduce(u),
        t_indeterminate,
        u_indeterminate,
    )
    return Groupoid(spec=spec)


class Groupoid:
    """A finite magma with a star or table product; its order may be past
    the enumeration cap."""

    def __init__(
        self,
        spec: GroupoidSpec | None = None,
        *,
        labels: Sequence[str] | None = None,
        table: Sequence[Sequence[int | str]] | None = None,
    ) -> None:
        if (spec is None) == (labels is None):
            raise CarrierError("provide either a spec or labels+table")
        self.spec = spec
        # values derived from the product, which never changes: the elements,
        # labels and index, the table array and its list view, and other
        # layers' results
        self._memo: dict = {}
        if spec is not None:
            self.order = spec.carrier.size() ** spec.shape.entry_count()
        else:
            self.order = len(labels)
            self._memo["labels"] = list(labels)
            self._memo["table"] = _validated_table(labels, table)

    def cached(self, key: str, compute: Callable[[], object]):
        """The value stored under key in this groupoid's memo, computed once."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- size and elements ------------------------------------------------

    @property
    def enumerable(self) -> bool:
        """Whether elements, labels and tables may be listed: always for a
        table, and for a spec while its order is within the enumeration cap."""
        return self.spec is None or self.order <= DEFAULT_SPACE_CAP

    def _require_enumerable(self) -> int:
        """The order, refused when the element space is past the enumeration cap."""
        return self.order if self.spec is None else enumerable_order(self.spec.carrier, self.spec.shape)

    def elements(self) -> list[Element]:
        """Canonical element order: carrier order, extended entry-lexicographically."""
        if self.spec is None:
            raise CarrierError("table-backed groupoid has labels, not elements")
        self._require_enumerable()
        sp = self.spec
        return self.cached(
            "elements",
            lambda: list(itertools.product(sp.carrier.enumerate_values(), repeat=sp.shape.entry_count())),
        )

    def labels(self) -> list[str]:
        sp = self.spec
        return self.cached(
            "labels", lambda: [format_element(sp.carrier, sp.shape, e) for e in self.elements()]
        )

    def element_index(self, e: Element) -> int:
        index = self.cached("index", lambda: {e: i for i, e in enumerate(self.elements())})
        try:
            return index[e]
        except KeyError:
            raise CarrierError(f"not an element of this groupoid: {e!r}") from None

    def zero_index(self) -> int | None:
        """Index of the all-zero element: 0, as every carrier lists zero first; None for a table."""
        if self.spec is None:
            return None
        self._require_enumerable()
        return 0

    # -- products ----------------------------------------------------------

    def star(self, x: Element, y: Element) -> Element:
        if self.spec is None:
            raise CarrierError("table-backed groupoid multiplies indices, not elements")
        sp = self.spec
        return star(sp.carrier, sp.shape, sp.t, sp.u, x, y)

    def products(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Indices of x*y for broadcastable arrays of element indices; reads
        the table when it is explicit and never builds it otherwise."""
        if self.spec is None:
            return self._memo["table"][X, Y]
        sp = self.spec
        return compile_product(sp.carrier, sp.shape, [sp.t], [sp.u])(np.asarray(X)[None], np.asarray(Y)[None])[0]

    def table_array(self) -> np.ndarray:
        """The Cayley table as an int32 array, compiled once; read it, never
        write it. Refused before allocation when n² exceeds the work budget."""
        if "table" not in self._memo:
            compile_tables([self])
        return self._memo["table"]

    def index_table(self) -> list[list[int]]:
        """``table_array`` as lists of element indices, cached."""
        return self.cached("rows", lambda: self.table_array().tolist())

    # -- convenience --------------------------------------------------------

    @property
    def level(self) -> Level | None:
        return self.spec.level if self.spec is not None else None


def sweep_products(
    carrier: Carrier, shape: Shape, ts: Sequence[Value], us: Sequence[Value], cells: int
) -> Iterator[tuple[slice, Callable]]:
    """The members of a parameter sweep (``ts[p], us[p]`` for member p) in
    blocks of at most _CHUNK_CELLS // cells of them (at least one), so a
    product over ``cells`` cells per member stays within one chunk; each block
    is its slice of the sweep with its one ``compile_product``."""
    size = max(1, _CHUNK_CELLS // cells)
    for p0 in range(0, len(ts), size):
        yield slice(p0, p0 + size), compile_product(carrier, shape, ts[p0 : p0 + size], us[p0 : p0 + size])


def compile_tables(groupoids: Sequence[Groupoid]) -> list[np.ndarray]:
    """The groupoids' Cayley tables, compiling those they do not hold yet.

    Members that share a carrier and shape are a sweep, compiled one
    ``sweep_products`` block at a time, at most _CHUNK_CELLS cells per block
    (one member when its table alone is larger), so the arrays of one call do
    not grow with the number of members. Each member keeps its table, a view
    of its block's stack, in its memo. Every member's n² is refused against
    the work budget, as ``table_array`` does, before anything is compiled.
    """
    sweeps: dict = {}
    for g in groupoids:
        if "table" not in g._memo:  # spec-backed
            g._require_enumerable()
            check_budget("Cayley table", f"{g.order}^2", g.order**2, " cells")
            sweeps.setdefault((g.spec.carrier, g.spec.shape), []).append(g)
    for (carrier, shape), members in sweeps.items():
        X = np.arange(members[0].order)
        ts, us = [g.spec.t for g in members], [g.spec.u for g in members]
        for block, product in sweep_products(carrier, shape, ts, us, len(X) ** 2):
            for g, table in zip(members[block], product(X[None, :, None], X[None, None, :])):
                g._memo["table"] = table
    return [g._memo["table"] for g in groupoids]


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
        rows = _validated_table(labels, [line.split("\t") for line in lines[1:]])
        return cls(labels=labels, rows=tuple(map(tuple, rows.tolist())))

    @classmethod
    def from_json(cls, text: str) -> "CayleyTable":
        try:
            data = json.loads(text)
        except ValueError as e:
            raise CarrierError(f"table JSON does not parse: {e}") from None
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("labels", "table")):
            raise CarrierError('a table document is an object with a "labels" list and a "table" list')
        labels = tuple(data["labels"])
        for label in labels:
            if not isinstance(label, str):
                raise CarrierError(f"table label {label!r} is not a string")
        rows = _validated_table(labels, data["table"])
        return cls(labels=labels, rows=tuple(map(tuple, rows.tolist())))


def cayley_table(g: Groupoid, cap: int = DEFAULT_TABLE_CAP) -> CayleyTable:
    n = g._require_enumerable()
    if n > cap:
        raise BudgetExceeded(f"order {n} exceeds the Cayley table cap {cap}")
    return CayleyTable(
        labels=tuple(g.labels()),
        rows=tuple(map(tuple, g.table_array().tolist())),
    )


def from_table(labels: Sequence[str], rows: Sequence[Sequence[int | str]]) -> Groupoid:
    """Build a table-backed groupoid; cells may be indices or labels.

    A cell that is not a known label / in-range index raises with the
    offending (row, col) position.
    """
    return Groupoid(labels=[str(x) for x in labels], table=rows)


def _validated_table(labels: Sequence[str], rows: Sequence[Sequence[int | str]]) -> np.ndarray:
    """The validated n×n int32 table of element indices, n >= 1; cells may be
    labels or integer indices (not bools), and the first bad cell in row-major
    order is named."""
    n = len(labels)
    if not n:
        raise CarrierError("a table needs at least one label")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != n:
        raise CarrierError("table labels must be distinct")
    rows = list(rows)
    if len(rows) != n or any(not isinstance(row, (list, tuple, np.ndarray)) or len(row) != n for row in rows):
        raise CarrierError("table must be square and match the label count")

    def cell_index(i: int, j: int, c) -> int:  # read in row-major order
        if isinstance(c, str) and c in index:
            return index[c]
        integer = isinstance(c, (int, np.integer)) and not isinstance(c, bool)
        if integer and 0 <= c < n:
            return int(c)
        if not (integer or isinstance(c, str)):
            raise CarrierError(f"cell ({i},{j}) is neither a label nor an index: {c!r}")
        raise CarrierError(f"cell ({i},{j}) leaves the element set: {f'index {c}' if integer else repr(c)}")

    return np.array([[cell_index(i, j, c) for j, c in enumerate(row)] for i, row in enumerate(rows)], dtype=np.int32)
