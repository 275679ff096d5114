"""Element shapes over a carrier and the parameterised star product.

An element is always a flat tuple of carrier values:

* ``Scalar``                -- one entry,
* ``Matrix(rows, cols)``    -- rows*cols entries, row-major,
* ``Poly(max_deg, kind)``   -- max_deg+1 coefficient entries c0..c_max_deg
                               (fixed length; missing high coefficients are 0).

The star product x*y depends on the shape's product kind:

* entrywise (scalar, matrix, entrywise/convolution-at-degree-0 polynomials):
      (x*y)_e = t·x_e + u·y_e
* shuffle polynomials (degree d), which ignore (t, u):
      x*y = (x_0·y_1, x_1·y_2, ..., x_{d-1}·y_d, x_d)
* convolution polynomials:
      (x*y)_k = sum over i+j=k of (t·x_i + u·y_j),
  colliding exponents are summed and exponents above max_deg are dropped.

``star`` multiplies two elements cell by cell with the carrier's per-value
arithmetic; it is the oracle for ``compile_product``, which multiplies whole
arrays of element indices with the carrier's arithmetic on arrays of value
indices and is what every Cayley table is built from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .carrier import Carrier, CarrierError, Value

Element = tuple  # tuple[Value, ...]


class ProductKind(Enum):
    ENTRYWISE = "entrywise"
    SHUFFLE = "shuffle"
    CONVOLUTION = "conv"


class Shape:
    """Base interface for element shapes."""

    def entry_count(self) -> int:
        raise NotImplementedError

    def token(self) -> str:
        raise NotImplementedError

    def is_entrywise(self) -> bool:
        """True when star acts independently on entries, so the product
        mirrors the scalar groupoid entry for entry and identities may be
        decided on the scalar shadow; shuffle and genuine convolution
        products mix entries across positions."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.token()


@dataclass(frozen=True)
class Scalar(Shape):
    def entry_count(self) -> int:
        return 1

    def token(self) -> str:
        return "scalar"

    def is_entrywise(self) -> bool:
        return True


@dataclass(frozen=True)
class Matrix(Shape):
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise CarrierError("matrix dimensions must be positive")

    def entry_count(self) -> int:
        return self.rows * self.cols

    def token(self) -> str:
        return f"mat:{self.rows}x{self.cols}"

    def is_entrywise(self) -> bool:
        return True


@dataclass(frozen=True)
class Poly(Shape):
    max_deg: int
    kind: ProductKind = ProductKind.ENTRYWISE

    def __post_init__(self) -> None:
        if self.max_deg < 0:
            raise CarrierError("polynomial degree bound must be >= 0")
        if self.kind is ProductKind.SHUFFLE and self.max_deg < 1:
            raise CarrierError("shuffle product needs degree bound >= 1")

    def entry_count(self) -> int:
        return self.max_deg + 1

    def token(self) -> str:
        return f"poly:{self.max_deg}:{self.kind.value}"

    def is_entrywise(self) -> bool:
        return self.kind is ProductKind.ENTRYWISE or (
            self.kind is ProductKind.CONVOLUTION and self.max_deg == 0
        )


def star(carrier: Carrier, shape: Shape, t: Value, u: Value, x: Element, y: Element) -> Element:
    """The two-parameter product of elements x and y."""
    k = shape.entry_count()
    if len(x) != k or len(y) != k:
        raise CarrierError(f"elements must have {k} entries")
    if isinstance(shape, Poly) and shape.kind is ProductKind.SHUFFLE:
        d = shape.max_deg
        out = [carrier.mul(x[i], y[i + 1]) for i in range(d)]
        out.append(x[d])
        return tuple(out)
    if isinstance(shape, Poly) and shape.kind is ProductKind.CONVOLUTION:
        d = shape.max_deg
        acc = [carrier.zero()] * (d + 1)
        for i in range(d + 1):
            for j in range(d + 1):
                k_exp = i + j
                if k_exp > d:
                    continue
                term = carrier.add(carrier.mul(t, x[i]), carrier.mul(u, y[j]))
                acc[k_exp] = carrier.add(acc[k_exp], term)
        return tuple(acc)
    return tuple(
        carrier.add(carrier.mul(t, xi), carrier.mul(u, yi)) for xi, yi in zip(x, y)
    )


def compile_product(
    carrier: Carrier, shape: Shape, ts: Sequence[Value], us: Sequence[Value]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The star products of a sweep as one vectorised function of
    element-index arrays, one (t, u) pair per member: ``ts[p], us[p]`` for
    member p. A single groupoid is a sweep of one.

    The operands carry the member axis in front, of length P = len(ts) or 1,
    and have the same number of axes; the parameters broadcast on that axis,
    so member p's x*y is ``product(X, Y)[p]``. An operand whose member axis
    has length 1 is shared by every member, and a product of products keeps
    one member per row: ``product(product(X, Y), Z)[p]`` is (x*y)*z in member
    p alone. A shuffle product ignores (t, u) but still gives one result per
    member.

    Digit e of an index (base q = carrier size, most significant first) is the
    value index of entry e, in ``Groupoid.elements`` order. Every output digit is
    the carrier's array arithmetic on the input digits: idx(t·v + u·w) at
    (x_e, y_e) for entrywise shapes and at the prefix sums (P_e(x), P_e(y)),
    P_e = x_0 + ... + x_e, for convolution, since (x*y)_e = t·P_e(x) + u·P_e(y);
    idx(v·w) at (x_e, y_{e+1}) for shuffle, whose last digit is x_d. Digits
    accumulate in place in one array of the carrier's index dtype (int32 up
    to q = 46341), so the cost follows the cells read: x*x computes only its
    n products, and a few reads of a large carrier only those few.

    The per-digit product is exposed as ``product.digits(xs, ys)``: x and y
    given as k arrays of value indices (entry 0 first), x*y returned the same
    way, the member axis leading each array as it leads the operands. It never
    forms an element index, so it multiplies elements of spaces past the
    enumeration cap.
    """
    q, k = carrier.size(), shape.entry_count()
    t, u = (np.array([carrier.index_of(v) for v in p], dtype=np.int64) for p in (ts, us))
    add, mul = carrier.add_indices, carrier.mul_indices

    def prefix_sums(ds: Sequence[np.ndarray]) -> list[np.ndarray]:
        out = [ds[0]]
        for d in ds[1:]:
            out.append(add(out[-1], d))
        return out

    kind = ProductKind.ENTRYWISE if shape.is_entrywise() else shape.kind

    def digits(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        """The digits of x*y, one at a time, so a caller holds one at once."""
        axes = (1,) * (max(np.ndim(d) for d in (*xs, *ys)) - 1)  # the operands' axes after the member axis
        tp, up = t.reshape(-1, *axes), u.reshape(-1, *axes)
        if kind is ProductKind.SHUFFLE:  # the same digits for every member
            ds = itertools.chain((mul(xs[e], ys[e + 1]) for e in range(k - 1)), xs[-1:])
            shaped = ((d, np.broadcast_shapes(tp.shape, d.shape)) for d in ds)
            if len(t) == 1:  # a writeable view, so product accumulates into it uncopied
                return (d.reshape(s) for d, s in shaped)
            return (np.broadcast_to(d, s) for d, s in shaped)
        if kind is ProductKind.CONVOLUTION:
            xs, ys = prefix_sums(xs), prefix_sums(ys)
        return (add(mul(tp, a), mul(up, b)) for a, b in zip(xs, ys))

    def entries(X: np.ndarray) -> list[np.ndarray]:
        return [X // q ** (k - 1 - e) % q for e in range(k)]

    def product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        ds = digits(entries(X), entries(Y))
        out = next(ds)  # a fresh array of the full broadcast shape
        if not out.flags.writeable:  # a shuffle digit broadcast over several members
            out = out.copy()
        for d in ds:
            out *= q
            out += d
        return out

    product.digits = lambda xs, ys: list(digits(xs, ys))
    return product


def element_is_zero(carrier: Carrier, e: Element) -> bool:
    return all(carrier.is_zero(v) for v in e)


def element_is_pure_indeterminate(carrier: Carrier, e: Element) -> bool:
    """Nonzero, and every nonzero entry is supported on the I component."""
    if element_is_zero(carrier, e):
        return False
    return all(carrier.is_zero(v) or carrier.is_pure_indeterminate(v) for v in e)


def element_has_indeterminate(carrier: Carrier, e: Element) -> bool:
    return any(carrier.has_i_part(v) for v in e)


# -- element text -------------------------------------------------------


def format_element(carrier: Carrier, shape: Shape, e: Element) -> str:
    if isinstance(shape, Scalar):
        return carrier.format_value(e[0])
    if isinstance(shape, Matrix):
        rows = []
        for r in range(shape.rows):
            row = e[r * shape.cols : (r + 1) * shape.cols]
            rows.append("[" + ",".join(carrier.format_value(v) for v in row) + "]")
        return "[" + ";".join(rows) + "]"
    return "poly[" + ",".join(carrier.format_value(v) for v in e) + "]"


def _split_top_level(s: str, sep: str) -> list[str]:
    """Split on sep at bracket depth zero (entries may contain brackets)."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise CarrierError(f"unbalanced brackets in {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise CarrierError(f"unbalanced brackets in {s!r}")
    parts.append("".join(cur))
    return parts


def parse_element(carrier: Carrier, shape: Shape, s: str) -> Element:
    s = s.strip()
    if isinstance(shape, Scalar):
        return (carrier.parse_value(s),)
    if isinstance(shape, Matrix):
        if not (s.startswith("[") and s.endswith("]")):
            raise CarrierError(f"matrix text must be [...;...]: {s!r}")
        row_texts = _split_top_level(s[1:-1], ";")
        if len(row_texts) != shape.rows:
            raise CarrierError(f"expected {shape.rows} rows, got {len(row_texts)}")
        entries: list[Value] = []
        for rt in row_texts:
            rt = rt.strip()
            if not (rt.startswith("[") and rt.endswith("]")):
                raise CarrierError(f"matrix row must be [...]: {rt!r}")
            cells = _split_top_level(rt[1:-1], ",")
            if len(cells) != shape.cols:
                raise CarrierError(f"expected {shape.cols} columns, got {len(cells)}")
            entries.extend(carrier.parse_value(c) for c in cells)
        return tuple(entries)
    if not (s.startswith("poly[") and s.endswith("]")):
        raise CarrierError(f"polynomial text must be poly[...]: {s!r}")
    cells = _split_top_level(s[5:-1], ",")
    if len(cells) != shape.entry_count():
        raise CarrierError(f"expected {shape.entry_count()} coefficients, got {len(cells)}")
    return tuple(carrier.parse_value(c) for c in cells)


def parse_shape(token: str) -> Shape:
    """Parse a shape grammar token: scalar, mat:RxC, poly:D:KIND."""
    token = token.strip()
    if token == "scalar":
        return Scalar()
    if token.startswith("mat:"):
        dims = token[4:].split("x")
        if len(dims) != 2 or not all(d.isdigit() for d in dims):
            raise CarrierError(f"bad matrix shape token: {token!r}")
        return Matrix(int(dims[0]), int(dims[1]))
    if token.startswith("poly:"):
        parts = token.split(":")
        if len(parts) != 3 or not parts[1].isdigit():
            raise CarrierError(f"bad polynomial shape token: {token!r}")
        kinds = {k.value: k for k in ProductKind}
        if parts[2] not in kinds:
            raise CarrierError(f"unknown polynomial product kind: {parts[2]!r}")
        return Poly(int(parts[1]), kinds[parts[2]])
    raise CarrierError(f"unknown shape token: {token!r}")
