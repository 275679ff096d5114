"""Identity checking: exhaustive, lifted, and sampled modes, plus closed forms.

Each identity is a fixed pair of expression trees over variables ``x``, ``y``,
``z`` and the binary product ``*``. The same trees drive four evaluators:

* an exhaustive scan over all assignments, vectorised over one groupoid's
  Cayley table array (one-variable laws multiply the index vector by itself
  instead, so they need no table); the same scan, with the domain set to a
  subset's indices, decides identities on subsets for ``structure``. It
  fixes the slowest variable (z, or y for two-variable laws) and evaluates
  one (y, x) plane at a time, cut into blocks of y rows when a plane exceeds
  _CHUNK_CELLS cells and taken several at once when planes are small.
  Products without the slowest variable, such as ``x*y``, are computed once
  per scan over the whole domain, kept as intp and sliced per block. Every
  other product is one of four reads (``_PlaneScan``): a flat index V·n + P
  into the table or its transpose; one row of either, when an operand has one
  value over the block; rows of a table K[w, x] of a product F(x, W) of x
  and one x-free subterm W, read at W's values (K is the table or its
  transpose for x*W and W*x over every element, and a scan tabulates it once
  for the others whose W holds both y and z, such as Moufang's
  ``(x*(y*z))*x``); or, in a whole-domain scan of at least two full blocks,
  a per-plane table K[h, v] of a product of z, one hoisted product H and at
  most one bare variable v, such as Bol's ``((x*y)*z)*y``, built once per
  plane from whole rows and read at the index H·n + v, built once per scan
  (Light's associativity test compares such tables, (x*a)*y against
  x*(a*y), one element a at a time);
* an axis evaluator for sweeps of spec parameters, and the public sweep
  entry: ``linear_failures`` gives the exhaustive scan's first failures over
  the whole carrier, for every parameter pair of a sweep, from one row per
  variable (that variable on the axis ``arange(order)``, the others at the
  zero element), since every product but the shuffle is additive. It reads
  the parameter arrays through ``compile_product`` and builds no groupoid
  and no table. One private evaluator, ``_linear_mismatches``, computes
  those rows for a tuple of laws at once, each shared subterm once a block;
  ``linear_failures`` reads one law's witnesses off it, and the theorem
  checks read only whether all of their laws hold;
* a lifted check for entrywise shapes, whose laws hold as on the scalar
  shadow: the shadow's ``linear_failures`` verdict, lifted to the diagonal;
* a seeded random sampler for spaces too large to enumerate. It draws trials
  in chunks that double up to about _CHUNK_CELLS draws and multiplies each
  chunk at once through the compiled per-digit product, which never forms an
  element index, so it works past the enumeration cap. The draws are those of
  ``random.Random(seed).randrange``, reproduced in bulk from 32-bit words of
  ``getrandbits`` (see ``_Draws``).

A route is taken when its engine admits the groupoid, which means its work
estimate fits ``GGL_BUDGET`` and what it enumerates fits the enumeration
cap; an engine that does not admit one refuses before any work, with
``CarrierError`` or ``BudgetExceeded``. A scan of m elements (a whole
groupoid or a subset) estimates m^vars evaluations, a sample
trials·vars·entries draws and a lifted check vars·q (q carrier values; it
refuses a table and a shape that mixes entries). The explicit modes, AUTO and
``cross_validate`` read one table of routes, ``_ROUTES``, each in its order.

Assignments are scanned with the FIRST variable varying fastest (x innermost,
then y, then z); a failure witness is minimal under that order, so exhaustive
reruns always reproduce the same witness regardless of internal blocking.
Sampled draws follow ``random.Random(seed).randrange`` in a fixed order
(trial, then variable, then entry) and the witness is the first failing trial
in that order, so ``(trials, seed)`` reproduce a sampled verdict and witness.

The closed forms are one table, ``CLOSED_FORMS``: each names the laws it
predicts, the residues (n, t, u) it applies to and its prediction there.
``closed_form`` reads a prediction from it, ``applicable_closed_forms`` filters
it for one groupoid and law, and the theorem checks take their laws from it.
The forms are scalar claims, so they apply only to shapes that multiply
entrywise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .carrier import Carrier, CarrierError, Value, is_prime
from .groupoid import (
    _CHUNK_CELLS,
    BudgetExceeded,
    Groupoid,
    check_budget,
    enumerable_order,
    sweep_products,
)
from .shape import Element, Poly, ProductKind, Scalar, Shape, format_element

DEFAULT_TRIALS = 10**4

Node = Any  # str variable or ("*", Node, Node)


class IdentityId(Enum):
    IDEMPOTENT = "idempotent"
    COMMUTATIVE = "commutative"
    ASSOCIATIVE = "associative"
    LEFT_ALTERNATIVE = "left-alternative"
    RIGHT_ALTERNATIVE = "right-alternative"
    P_IDENTITY = "p-identity"
    MOUFANG = "moufang"
    BOL = "bol"


M = lambda a, b: ("*", a, b)  # noqa: E731 - tree shorthand

TEMPLATES: dict[IdentityId, tuple[Node, Node, tuple[str, ...]]] = {
    IdentityId.IDEMPOTENT: (M("x", "x"), "x", ("x",)),
    IdentityId.COMMUTATIVE: (M("x", "y"), M("y", "x"), ("x", "y")),
    IdentityId.ASSOCIATIVE: (M(M("x", "y"), "z"), M("x", M("y", "z")), ("x", "y", "z")),
    IdentityId.LEFT_ALTERNATIVE: (M(M("x", "x"), "y"), M("x", M("x", "y")), ("x", "y")),
    IdentityId.RIGHT_ALTERNATIVE: (M(M("x", "y"), "y"), M("x", M("y", "y")), ("x", "y")),
    IdentityId.P_IDENTITY: (M(M("x", "y"), "x"), M("x", M("y", "x")), ("x", "y")),
    IdentityId.MOUFANG: (
        M(M("x", "y"), M("z", "x")),
        M(M("x", M("y", "z")), "x"),
        ("x", "y", "z"),
    ),
    IdentityId.BOL: (
        M(M(M("x", "y"), "z"), "y"),
        M("x", M(M("y", "z"), "y")),
        ("x", "y", "z"),
    ),
}
_ALTERNATIVE = (IdentityId.LEFT_ALTERNATIVE, IdentityId.RIGHT_ALTERNATIVE)


class CheckMode(Enum):
    AUTO = "auto"
    EXHAUSTIVE = "exhaustive"
    LIFTED = "lifted"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class IdentityVerdict:
    identity: str
    method: str  # exhaustive | lifted | sampled
    status: str  # holds | fails | sampled_no_counterexample
    witness: tuple[Element, ...] | None = None
    witness_labels: tuple[str, ...] | None = None
    trials: int | None = None
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    def to_json(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "method": self.method,
            "status": self.status,
        }
        if self.witness_labels is not None:
            out["witness"] = list(self.witness_labels)
        if self.trials is not None:
            out["trials"] = self.trials
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def eval_tree(node: Node, env: dict, prod) -> Any:
    """Evaluate a template tree; prod multiplies two evaluated operands. env
    holds the variables' values, and each subterm evaluated is stored in it,
    so a subterm that recurs, on one side or both, is computed once."""
    if node not in env:
        _, a, b = node
        env[node] = prod(eval_tree(a, env, prod), eval_tree(b, env, prod))
    return env[node]


# -- exhaustive ---------------------------------------------------------------


def _element_at(g: Groupoid, i: int) -> Element | int:
    """The element at index i: its base-q digits (most significant first) are
    the value indices of its entries, as in ``Groupoid.elements`` order. A
    table-backed groupoid's elements are its indices."""
    if g.spec is None:
        return i
    carrier, k = g.spec.carrier, g.spec.shape.entry_count()
    q = carrier.size()
    return tuple(carrier.value_at(i // q ** (k - 1 - e) % q) for e in range(k))


def _witness_verdict(
    g: Groupoid, identity: IdentityId, method: str, witness: tuple, trials: int | None = None, seed: int | None = None
) -> IdentityVerdict:
    """The failing verdict of every engine, with the witness elements (indices
    for a table-backed groupoid) labelled; trials and seed are a sample's."""
    if g.spec is None:
        labels = tuple(g.labels()[i] for i in witness)
    else:
        labels = tuple(format_element(g.spec.carrier, g.spec.shape, e) for e in witness)
    return IdentityVerdict(
        identity=identity.value, method=method, status="fails",
        witness=witness, witness_labels=labels, trials=trials, seed=seed,
    )


def _deps(node: Node, deps: dict) -> frozenset:
    """The variables under node, recorded in deps for node and its subterms."""
    found = frozenset((node,)) if isinstance(node, str) else _deps(node[1], deps) | _deps(node[2], deps)
    deps[node] = found
    return found


def _hoisted(node: Node, slow: str, skip: Sequence = ()) -> list:
    """The largest products under node that do not involve the slowest
    variable, outside the subterms in skip."""
    if isinstance(node, str) or node in skip:
        return []
    if slow not in _DEPS[node]:
        return [node]
    return _hoisted(node[1], slow, skip) + _hoisted(node[2], slow, skip)


def _plane_axes(node: Node, hoisted: list) -> list | None:
    """The axes of node's per-plane table, innermost first, when node is
    F(A, W) with A a hoisted product or a bare variable (an axis) and W z or
    again such a product; None otherwise. Its table at z is then the rows of
    the table (W*A) or its transpose (A*W) at W's values over W's axes."""
    if node == "z":
        return []
    if "z" not in _DEPS[node]:
        return None
    _, a, b = node
    w, axis = (a, b) if "z" in _DEPS[a] else (b, a)
    inner = _plane_axes(w, hoisted)
    if inner is None or "z" in _DEPS[axis] or not (isinstance(axis, str) or axis in hoisted):
        return None
    return inner + [axis]


def _plane_reads(node: Node, hoisted: list) -> dict:
    """The largest products under node that hold z and reach x and y only
    through one hoisted product H and at most one bare variable v, each with
    its axes: a whole-domain scan reads such a product from its table over
    (H, v) or (v, H) at one z, tabulated once per plane."""
    if isinstance(node, str):
        return {}
    axes = _plane_axes(node, hoisted)
    if axes is not None and len(axes) <= 2 and sum(a in hoisted for a in axes) == 1:
        return {node: axes}
    return _plane_reads(node[1], hoisted) | _plane_reads(node[2], hoisted)


def _x_free(node: Node) -> set:
    """The largest subterms of node that do not involve x."""
    if "x" not in _DEPS[node]:
        return {node}
    return set() if isinstance(node, str) else _x_free(node[1]) | _x_free(node[2])


def _tabulated(node: Node) -> list:
    """The largest products under node of the form F(x, W) whose W holds both
    y and z: the subterms a scan reads as rows of a table tabulated once. W
    takes at most n values over the m² (z, y) of a scan, so the n·m cells of
    the table replace m³ cells of reads. A W of one variable takes only m
    values, and its table would save nothing."""
    if isinstance(node, str):
        return []
    if node in _W and _DEPS[_W[node]] == {"y", "z"}:
        return [node]
    return _tabulated(node[1]) + _tabulated(node[2])


_DEPS: dict = {}
for _lhs, _rhs, _ in TEMPLATES.values():
    _deps(_lhs, _DEPS)
    _deps(_rhs, _DEPS)
# per product F(x, W) of x and one x-free subterm W (which may occur more than once), that W
_W = {
    node: next(iter(free))
    for node in _DEPS
    if not isinstance(node, str) and "x" in _DEPS[node] and len(free := _x_free(node)) == 1
}
# x*W and W*x: over every element, their K[w, x] is the table's transpose (x on the left) or the table itself
_TABLE_ROWS = {node for node, w in _W.items() if node in (("*", "x", w), ("*", w, "x"))}
# per identity, the products a scan computes once, and those it tabulates
_HOISTED = {i: _hoisted(lhs, v[-1]) + _hoisted(rhs, v[-1]) for i, (lhs, rhs, v) in TEMPLATES.items()}
_TABULATED = {i: _tabulated(lhs) + _tabulated(rhs) for i, (lhs, rhs, _) in TEMPLATES.items()}
# per identity, the products a whole-domain scan reads from per-plane tables, and
# the hoisted products its blocks still read outside them
_PLANE_READS = {
    i: _plane_reads(lhs, _HOISTED[i]) | _plane_reads(rhs, _HOISTED[i]) for i, (lhs, rhs, _) in TEMPLATES.items()
}
_PLANE_HOISTED = {
    i: _hoisted(lhs, v[-1], _PLANE_READS[i]) + _hoisted(rhs, v[-1], _PLANE_READS[i])
    for i, (lhs, rhs, v) in TEMPLATES.items()
}


class _PlaneScan:
    """table[A, B] for the operands of one exhaustive scan of one table over a
    domain.

    Operands broadcast over a block laid out (z, y, x): x spans the domain on
    the last axis, y the block's rows and z its planes. A plane is an operand
    that depends on both x and y. Each product is one of four reads:

    * rows of a table K: a product F(x, W) of x and one x-free subterm W has
      K[w, x] = F(x, w), so it copies the rows of K at W's values. For x*W and
      W*x over every element, K is the table's transpose or the table itself.
      A scan tabulates K once (``tabulate``) for the largest such products
      whose W holds both y and z (``_TABULATED``), such as Moufang's
      ``(x*(y*z))*x``; their subterms are then never read per block.
    * one row: when an operand has one value over the block, such as z in a
      block of one plane, one take reads the other operand's cells from that
      row of the table (or of its transpose, when the value is on the right).
    * flat index: otherwise the flat table at V·n + P, or its transpose when
      V is on the right, with V the operand of fewer cells. The index is
      intp, since take is slow on int32; the products a scan computes once
      (``_HOISTED``) are kept as intp, so a plane read through them adds in
      intp without a cast. Tables stay int32.
    * per-plane table: a whole-domain scan of at least two full blocks reads
      each ``_PLANE_READS`` product S (it holds z and reaches x and y only
      through one hoisted product H and at most one bare variable v) as
      K.ravel().take(index). K[h, v] is S with H at every element h, built
      once per plane (``plane_table``, stacked when a block holds several)
      from z out by copying whole rows of the table or its transpose, and
      shared by the plane's row blocks: Bol's ``((x*y)*z)*y`` is K[h, y] =
      table[table_t[z]], Moufang's ``(x*y)*(z*x)`` K[x, h] =
      table_t[table[z]]. The intp index p·n² + H·n + v (or v·n + H) over the
      block's planes p is built once per scan, and H is then dropped unless a
      block reads it elsewhere. A scan of fewer full blocks would build about
      as much index as the flat read and the tables on top, so it reads as
      above.

    A read of a block lands in an array kept per product and shape (``kept``),
    the same one in every block: planes that are allocated and freed block by
    block go back to the system with each block and come back one page fault
    per page. A tabulated K is evaluated on 2-D operands, so the kept arrays
    that hold it are never a block's; ``_scan`` drops the set-up's kept
    arrays before the first block.
    """

    def __init__(self, table: np.ndarray, domain: np.ndarray) -> None:
        self.n = len(table)
        self.table, self.table_t = table, np.ascontiguousarray(table.T)
        self.flat, self.flat_t = self.table.ravel(), self.table_t.ravel()
        self.domain = domain
        self.spare: dict = {}  # the arrays of kept()
        self.rows: dict = {}  # per product read as rows, its table K
        if len(domain) == self.n:  # a sorted domain of n distinct indices is arange(n)
            self.rows = {node: self.table_t if node[1] == "x" else self.table for node in _TABLE_ROWS}

    def kept(self, key, shape: tuple, dtype) -> np.ndarray:
        """The array of this shape that key writes into, the same in every block."""
        if (key, shape) not in self.spare:
            self.spare[key, shape] = np.empty(shape, dtype)
        return self.spare[key, shape]

    def tabulate(self, node: Node) -> np.ndarray:
        """K[w, x] = node at W = w, over every element w and the domain's x:
        n·m cells, within the n² of the table."""
        _, a, b = node
        values = {"x": self.domain[None, :], _W[node]: np.arange(self.n)[:, None]}
        return self.product(node, self.value(a, values), self.value(b, values))

    def plane_table(self, node: Node, zs: np.ndarray) -> np.ndarray:
        """K[p, ...] of a ``_PLANE_READS`` product at z = zs[p], each axis over
        every element: from z out, the rows of the table (W*A) or of its
        transpose (A*W) at W's values, so each read copies whole rows."""
        reads = []
        while node != "z":
            _, a, b = node
            left = "z" in _DEPS[a]
            reads.append((node, self.table if left else self.table_t))
            node = a if left else b
        K = zs
        for node, T in reversed(reads):
            K = T.take(K, axis=0, out=self.kept(("plane", node), K.shape + T.shape[1:], T.dtype), mode="clip")
        return K

    def product(self, node: Node, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """node = A * B by a one-row or a flat read; mode="clip" lets take
        write into a kept array, and never clips: every index read is a cell
        of the table."""
        if A.size == 1 or B.size == 1:
            row, index = (self.table[A.item()], B) if A.size == 1 else (self.table_t[B.item()], A)
            return row.take(index, out=self.kept(node, index.shape, row.dtype), mode="clip")
        flat = self.flat
        if A.size > B.size:  # A*B is B*A in the transpose
            flat, A, B = self.flat_t, B, A
        shape = np.broadcast_shapes(A.shape, B.shape)
        index = np.add(np.multiply(A, self.n, dtype=np.intp), B, out=self.kept("index", shape, np.intp))
        return flat.take(index, out=self.kept(node, shape, flat.dtype), mode="clip")

    def value(self, node: Node, values: dict) -> np.ndarray:
        """node over the block, or over the whole domain when there is none;
        values holds the variables and the subterms computed so far, cut to
        the block. Not ``eval_tree``: a read here depends on the block (kept
        arrays, one-row reads) and on the tabulated rows."""
        if node not in values:
            K = self.rows.get(node)
            if K is not None:
                at = self.value(_W[node], values)[..., 0]
                values[node] = K.take(at, axis=0, out=self.kept(node, at.shape + K.shape[1:], K.dtype), mode="clip")
            else:
                _, a, b = node
                values[node] = self.product(node, self.value(a, values), self.value(b, values))
        return values[node]


def _scan(table: np.ndarray, identity: IdentityId, domain: np.ndarray) -> tuple[int, ...] | None:
    """``first_failure`` of a groupoid given by its table, for a law of two or
    three variables over a non-empty domain. It tabulates the rows its
    ``_TABULATED`` products read (``_PlaneScan``); the products without the
    slowest variable are computed once, as intp. A whole-domain scan of at
    least two full blocks builds the index of its ``_PLANE_READS`` from them
    once, and their tables once per plane."""
    lhs_t, rhs_t, vars_ = TEMPLATES[identity]
    domain = domain.astype(np.intp, copy=False)
    m, three = len(domain), len(vars_) == 3
    rows = min(m, max(1, _CHUNK_CELLS // m))  # y rows per block
    planes = min(m, max(1, _CHUNK_CELLS // (m * m))) if three and rows == m else 1
    scan = _PlaneScan(table, domain)
    scan.rows.update((node, scan.tabulate(node)) for node in _TABULATED[identity] if node not in scan.rows)
    whole = {v: domain.reshape(shape) for v, shape in zip(vars_, ((1, 1, m), (1, m, 1), (m, 1, 1)))}
    hoisted = {node: scan.value(node, dict(whole)).astype(np.intp) for node in _HOISTED[identity]}
    index = {}  # per plane read, its intp index into the stacked tables of a block's planes
    if m == scan.n and 2 * planes <= m:
        at = {**whole, **hoisted}
        for node, axes in _PLANE_READS[identity].items():
            index[node] = np.arange(planes, dtype=np.intp).reshape(planes, 1, 1)
            for axis in axes:
                index[node] = index[node] * scan.n + at[axis]
        hoisted = {node: hoisted[node] for node in _PLANE_HOISTED[identity]}
    scan.spare.clear()  # the set-up's reads, which no block writes into

    for z0 in range(0, m if three else 1, planes):
        tables = {node: scan.plane_table(node, domain[z0 : z0 + planes]) for node in index}
        for y0 in range(0, m, rows):
            cut = {
                "x": ...,
                "y": (..., slice(y0, y0 + rows), slice(None)),
                "z": (slice(z0, z0 + planes), slice(None), slice(None)),
            }
            values = {v: d[cut[v]] for v, d in whole.items()}
            values.update((node, h[cut["y"]] if "y" in _DEPS[node] else h) for node, h in hoisted.items())
            for node, K in tables.items():
                idx = index[node][: len(K), y0 : y0 + rows]
                values[node] = K.ravel().take(idx, out=scan.kept(node, idx.shape, K.dtype), mode="clip")
            mism = scan.value(lhs_t, values) != scan.value(rhs_t, values)
            if mism.any():
                i = int(mism.argmax())
                ys = min(rows, m - y0)
                at = (i % m, y0 + i // m % ys, z0 + i // (ys * m))
                return tuple(int(domain[j]) for j in at[: len(vars_)])
    return None


def first_failure(g: Groupoid, identity: IdentityId, domain: np.ndarray) -> tuple[int, ...] | None:
    """The first assignment of elements of ``domain`` (sorted, distinct
    indices; x fastest, then y, then z) at which the identity's two sides
    differ in g, or None when it holds there. An empty domain holds every law;
    an index outside [0, order), and a domain with repeats or out of order,
    raise ``IndexError``.

    One-variable laws square the domain vector through ``Groupoid.products``,
    so they need no table. The others read g's table through ``_PlaneScan``
    one block at a time: the (y, x) plane of each value of the slowest
    variable, split into blocks of y rows when it exceeds _CHUNK_CELLS cells,
    or several whole planes when they fit. Products without the slowest
    variable are computed once, over the whole domain, as intp, and cut to
    each block; every other product is a flat-index, one-row,
    tabulated-rows or (whole domain, at least two full blocks) per-plane
    table read.

    The m^vars evaluations (m = len(domain)) are refused against the work
    budget before the table is compiled."""
    lhs_t, rhs_t, vars_ = TEMPLATES[identity]
    domain = np.asarray(domain)
    m, nvars = len(domain), len(vars_)
    check_budget("exhaustive check", f"{m}^{nvars}", m**nvars, " evaluations")
    if not m:
        return None
    if domain.min() < 0 or domain.max() >= g.order:
        raise IndexError(f"domain indices must lie in [0, {g.order})")
    if (domain[1:] <= domain[:-1]).any():  # a scan of n indices reads them as the whole carrier
        raise IndexError("domain indices must be sorted and distinct")
    if nvars == 1:
        env = {"x": domain}
        mism = eval_tree(lhs_t, env, g.products) != eval_tree(rhs_t, env, g.products)
        return (int(domain[mism.argmax()]),) if mism.any() else None
    return _scan(g.table_array(), identity, domain)


def _exhaustive(g: Groupoid, identity: IdentityId) -> IdentityVerdict:
    """g's exhaustive verdict: ``first_failure`` over every element, its
    witness labelled. An order past the enumeration cap is refused before
    the m^vars evaluations are checked against the budget."""
    found = first_failure(g, identity, np.arange(g._require_enumerable()))
    if found is None:
        return IdentityVerdict(identity=identity.value, method="exhaustive", status="holds")
    return _witness_verdict(g, identity, "exhaustive", tuple(_element_at(g, i) for i in found))


# -- linear -------------------------------------------------------------------


def _linear_mismatches(
    carrier: Carrier, shape: Shape, ts: Sequence[Value], us: Sequence[Value], laws: tuple[IdentityId, ...]
) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """The linear evaluator: for each block of the sweep whose member p has
    the parameters ``ts[p], us[p]``, its slice and, per law, mism[p, v, i]:
    whether the law's sides differ in member p with its variable v at element
    i and the others at element 0. All of the laws are evaluated on the rows
    of the law of most variables through one ``compile_product`` per block,
    each template node once, so a subterm such as x*y is computed once a
    block. ``linear_failures``' refusals come first, in its order, the budget
    checked for each law in the order given."""
    if len(ts) != len(us):
        raise CarrierError(f"linear verdicts need one u per t, got {len(ts)} t and {len(us)} u")
    zeros = {p for p in {*ts, *us} if carrier.param_is_zero(p)}  # each distinct parameter tested once
    if zeros and any(t in zeros and u in zeros for t, u in zip(ts, us)):
        raise CarrierError("parameter pair (0, 0) does not define a groupoid")
    if isinstance(shape, Poly) and shape.kind is ProductKind.SHUFFLE:
        raise CarrierError(f"linear verdicts need an additive product; shape {shape.token()} is a shuffle")
    templates = [TEMPLATES[law] for law in laws]
    order = enumerable_order(carrier, shape)
    for _, _, vars_ in templates:
        check_budget("linear check", f"{len(vars_)}*{order}", len(vars_) * order, " evaluations")
    names = max((vars_ for _, _, vars_ in templates), key=len)  # every law's variables are a prefix of x, y, z
    rows = np.zeros((len(names), 1, len(names), order), dtype=np.intp)  # variable v's value on each row
    for v in range(len(names)):
        rows[v, 0, v] = np.arange(order)
    for block, prod in sweep_products(carrier, shape, ts, us, len(names) * order):
        values = dict(zip(names, rows))
        yield block, [
            (eval_tree(lhs, values, prod) != eval_tree(rhs, values, prod))[:, : len(vars_)]
            for lhs, rhs, vars_ in templates
        ]


def _first_failures(mism: np.ndarray) -> list[tuple[int, ...] | None]:
    """Each member's first failure off one law's ``_linear_mismatches``: the
    least mismatch on the first row that has one, as an assignment."""
    members, nvars, order = mism.shape
    mism = mism.reshape(members, -1)  # per member, its rows one after another
    zeros = (0,) * nvars
    rows_at = np.divmod(mism.argmax(axis=1), order)
    return [
        zeros[:v] + (at,) + zeros[v + 1 :] if fails else None
        for fails, v, at in zip(mism.any(axis=1).tolist(), *(a.tolist() for a in rows_at))
    ]


def linear_failures(
    carrier: Carrier, shape: Shape, ts: Sequence[Value], us: Sequence[Value], identity: IdentityId
) -> list[tuple[int, ...] | None]:
    """Each member's ``first_failure(g, identity, arange(order))`` in the
    sweep whose member p has the parameters ``ts[p], us[p]``, for a shape that
    is not a shuffle, read from vars·order evaluations per member with no
    table.

    Every such product is additive, x*y = T·x + U·y with T and U linear, and
    element index 0 is the zero element, so lhs − rhs is A·x + B·y + C·z. The
    exhaustive scan (z slowest) therefore first fails at (least x with A·x ≠ 0,
    0, 0) when A ≠ 0; otherwise at (0, least y with B·y ≠ 0, 0), and likewise
    for z. So the assignments are one row per variable in template order, that
    variable on the axis arange(order) and the others at the zero element,
    evaluated by ``_linear_mismatches``, the evaluator the theorem checks
    share; a member's first failure is the least mismatch on the first row
    that has one.

    Refusals come before any work: ``CarrierError`` for parameter lists of
    different lengths, a pair (0, 0) and a shuffle shape, whose product is not
    additive, and ``BudgetExceeded`` for an order past the enumeration cap or
    vars·order evaluations past the work budget."""
    found: list[tuple[int, ...] | None] = []
    for _, [mism] in _linear_mismatches(carrier, shape, ts, us, (identity,)):
        found += _first_failures(mism)
    return found


# -- lifted -------------------------------------------------------------------


def _lifted(g: Groupoid, identity: IdentityId) -> IdentityVerdict:
    """The scalar shadow's linear verdict, its witness (v,) lifted to (v, ..., v)."""
    sp = g.spec
    if sp is None:
        raise CarrierError("lifted mode needs a spec-backed groupoid")
    if not sp.shape.is_entrywise():
        raise CarrierError("shape is not liftable: product mixes entries across positions")
    [found] = linear_failures(sp.carrier, Scalar(), [sp.t], [sp.u], identity)
    if found is None:
        return IdentityVerdict(identity=identity.value, method="lifted", status="holds")
    k = sp.shape.entry_count()
    return _witness_verdict(g, identity, "lifted", tuple((sp.carrier.value_at(i),) * k for i in found))


# -- sampled ------------------------------------------------------------------


class _Draws:
    """``random.Random(seed).randrange(size)``, drawn in bulk: the same values
    in the same order as one call per draw.

    randrange(size) takes k = size.bit_length() bits from getrandbits(k) and
    draws again while they read size or more. getrandbits(k) is the top k bits
    of one 32-bit word when k <= 32; for 32 < k <= 64 it is one whole word
    under the top k - 32 bits of the next. Words pulled in bulk, least
    significant first, by getrandbits(32 * count) give the same candidates;
    the rejected ones are dropped, and the draws a chunk does not use wait in
    a buffer for the next. Every carrier size is below 2**63, so a draw takes
    one word, or two once size >= 2**32.
    """

    def __init__(self, seed: int, size: int) -> None:
        self.rng = random.Random(seed)
        self.size = size
        self.bits = size.bit_length()
        self.words = 1 if self.bits <= 32 else 2
        self.buffer = np.empty(0, dtype=np.int64)

    def take(self, count: int) -> np.ndarray:
        """The next count draws."""
        while len(self.buffer) < count:
            # a candidate is kept with probability size / 2**bits, at least 1/2
            wanted = (count - len(self.buffer) << self.bits) // self.size + 16
            n = self.words * wanted
            words = np.frombuffer(self.rng.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")
            words = words.astype(np.uint64)
            if self.words == 1:
                fresh = words >> (32 - self.bits)
            else:
                fresh = words[0::2] | words[1::2] >> (64 - self.bits) << 32
            self.buffer = np.concatenate([self.buffer, fresh[fresh < self.size].astype(np.int64)])
        out, self.buffer = self.buffer[:count], self.buffer[count:]
        return out


def _entries(g: Groupoid) -> int:
    """Entries per element: the shape's, or 1 for a table-backed groupoid."""
    return 1 if g.spec is None else g.spec.shape.entry_count()


def _draw_width(g: Groupoid, identity: IdentityId, trials: int) -> int:
    """Draws per trial (vars·entries), once a sample's trials·width draws fit the budget."""
    width = len(TEMPLATES[identity][2]) * _entries(g)
    check_budget("sampled check", f"{trials}*{width}", trials * width, " draws")
    return width


def _sampled(g: Groupoid, identity: IdentityId, trials: int, seed: int) -> IdentityVerdict:
    """Draw every entry of every variable of every trial, in that nesting, as
    ``random.Random(seed).randrange`` would, and multiply whole chunks of
    trials at once. Chunks start at one trial and double up to about
    _CHUNK_CELLS draws, so an early counterexample costs few draws; the first
    failing trial in draw order is the witness. Spec-backed elements travel as
    k arrays of value indices through the per-digit product of g's sweep of
    one, table-backed ones as indices through ``Groupoid.products``. The
    draws are refused against the work budget before the product compiles."""
    lhs_t, rhs_t, vars_ = TEMPLATES[identity]
    width, k = _draw_width(g, identity, trials), _entries(g)
    if g.spec is not None:
        carrier = g.spec.carrier
        size = carrier.size()
        [(_, product)] = sweep_products(carrier, g.spec.shape, [g.spec.t], [g.spec.u], 1)
        prod = product.digits
        element = lambda ds: tuple(map(carrier.value_at, ds))  # noqa: E731
    else:
        size = len(g.labels())
        prod = lambda xs, ys: [g.products(xs[0], ys[0])]  # noqa: E731
        element = lambda ds: ds[0]  # noqa: E731

    draws = _Draws(seed, size)
    cap = max(1, _CHUNK_CELLS // width)
    done, chunk = 0, 1
    while done < trials:
        c = min(chunk, cap, trials - done)
        drawn = draws.take(c * width).reshape(c, len(vars_), k)
        env = {v: list(drawn[:, p, :].T[:, None]) for p, v in enumerate(vars_)}  # digits of (1, c): one member
        lhs, rhs = eval_tree(lhs_t, env, prod), eval_tree(rhs_t, env, prod)
        mism = np.zeros(c, dtype=bool)
        for a, b in zip(lhs, rhs):
            mism |= (a != b)[0]
        if mism.any():
            witness = tuple(element(ds) for ds in drawn[int(np.argmax(mism))].tolist())
            return _witness_verdict(g, identity, "sampled", witness, trials, seed)
        done += c
        chunk *= 2
    return IdentityVerdict(
        identity=identity.value, method="sampled", status="sampled_no_counterexample",
        trials=trials, seed=seed,
    )


# -- entry point --------------------------------------------------------------


# each explicit mode's engine, called as engine(g, identity, trials, seed)
_ROUTES: dict[CheckMode, Callable[[Groupoid, IdentityId, int, int], IdentityVerdict]] = {
    CheckMode.EXHAUSTIVE: lambda g, identity, trials, seed: _exhaustive(g, identity),
    CheckMode.LIFTED: lambda g, identity, trials, seed: _lifted(g, identity),
    CheckMode.SAMPLED: _sampled,
}


def _admitted(
    routes: Sequence[CheckMode], g: Groupoid, identity: IdentityId, trials: int, seed: int
) -> Iterator[IdentityVerdict]:
    """The verdicts of the routes that admit g, in order; the last route's
    refusal is raised. A route that does not admit g refuses before any work,
    so passing it over wastes nothing."""
    for mode in routes:
        try:
            yield _ROUTES[mode](g, identity, trials, seed)
        except (CarrierError, BudgetExceeded):
            if mode is routes[-1]:
                raise


def _require_trials(trials: int, seed: int) -> None:
    """Refuse a sample that ``(trials, seed)`` would not reproduce: both must
    be integers (a bool is not one), and trials at least 1."""
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise CarrierError(f"sampling needs an integer {name}, got {value!r}")
    if trials < 1:
        raise CarrierError(f"sampling needs at least one trial, got {trials}")


def check_identity(
    g: Groupoid,
    identity: IdentityId,
    mode: CheckMode = CheckMode.AUTO,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> IdentityVerdict:
    """The identity's verdict on g by one route. An explicit mode runs its
    engine, and its refusal is the answer. AUTO takes the first route that
    admits g in the order lifted (an entrywise shape of several entries over
    at most 10⁶ values), exhaustive, sampled; ``cross_validate`` has the
    other order. (trials, seed) are a sample's, checked in every mode."""
    if not isinstance(mode, CheckMode):
        raise CarrierError(f"mode must be a CheckMode ({', '.join(m.name for m in CheckMode)}), got {mode!r}")
    _require_trials(trials, seed)
    if mode is not CheckMode.AUTO:
        return _ROUTES[mode](g, identity, trials, seed)
    lifted = (CheckMode.LIFTED,) if _entries(g) > 1 else ()
    return next(_admitted((*lifted, CheckMode.EXHAUSTIVE, CheckMode.SAMPLED), g, identity, trials, seed))


def check_alternative(
    g: Groupoid,
    mode: CheckMode = CheckMode.AUTO,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> tuple[IdentityVerdict, IdentityVerdict, IdentityVerdict]:
    """Both alternative laws and their combined verdict: the deciding law's
    verdict, named "alternative". The first failing law decides; when none
    fails, left decides if both hold, and otherwise the law that did not."""
    left, right = (check_identity(g, law, mode, trials=trials, seed=seed) for law in _ALTERNATIVE)
    deciding = next((v for v in (left, right) if v.fails), None) or next((v for v in (left, right) if not v.holds), left)
    combined = replace(deciding, identity="alternative")
    return combined, left, right


# -- closed forms -------------------------------------------------------------


class ClosedForm(NamedTuple):
    """An arithmetic claim on the residues (n, t, u) of a scalar pair: on the
    pairs it ``applies`` to, each of its ``laws`` holds exactly when it
    ``predicts`` so. Both predicates take t and u reduced mod n."""

    laws: tuple[IdentityId, ...]
    applies: Callable[[int, int, int], bool]
    predicts: Callable[[int, int, int], bool]


def _one_sided(n: int, t: int, u: int) -> bool:
    return (t == 0) != (u == 0)


CLOSED_FORMS: dict[str, ClosedForm] = {
    "idempotent-iff": ClosedForm((IdentityId.IDEMPOTENT,), lambda n, t, u: True, lambda n, t, u: (t + u) % n == 1),
    "semigroup-iff": ClosedForm(
        (IdentityId.ASSOCIATIVE,), lambda n, t, u: True, lambda n, t, u: t * t % n == t and u * u % n == u
    ),
    "alternative-iff": ClosedForm(  # equal pairs over a composite modulus
        _ALTERNATIVE, lambda n, t, u: t == u and not (n < 4 or is_prime(n)), lambda n, t, u: t == u and t * t % n == t
    ),
    "equal-pair-p": ClosedForm((IdentityId.P_IDENTITY,), lambda n, t, u: t == u, lambda n, t, u: t == u),
    "type3-p-alt-iff": ClosedForm(  # the one nonzero coefficient is idempotent
        (IdentityId.P_IDENTITY, *_ALTERNATIVE),
        _one_sided,
        lambda n, t, u: _one_sided(n, t, u) and (t or u) ** 2 % n == (t or u),
    ),
}


def closed_form(name: str, n: int, t: int, u: int) -> bool:
    """The prediction of the closed form ``name`` at (n, t mod n, u mod n)."""
    if name not in CLOSED_FORMS:
        raise CarrierError(f"unknown closed form: {name!r}")
    return CLOSED_FORMS[name].predicts(n, t % n, u % n)


def applicable_closed_forms(g: Groupoid, identity: IdentityId) -> dict[str, bool]:
    """The predictions of the closed forms for this identity that apply to g,
    in table order. The forms are scalar claims, so g needs a shape that
    multiplies entrywise and parameters that act exactly like residues:
    plain and pure carriers always, mixed carriers only when neither
    parameter has an I component."""
    sp = g.spec
    if sp is None or not sp.shape.is_entrywise():
        return {}
    n, t, u = sp.carrier.n, sp.carrier.residue(sp.t), sp.carrier.residue(sp.u)
    if t is None or u is None:
        return {}
    t, u = t % n, u % n
    return {
        name: form.predicts(n, t, u)
        for name, form in CLOSED_FORMS.items()
        if identity in form.laws and form.applies(n, t, u)
    }


# -- cross validation ---------------------------------------------------------


@dataclass
class ConsistencyReport:
    identity: str
    verdicts: list[IdentityVerdict] = field(default_factory=list)
    closed_forms: dict[str, dict] = field(default_factory=dict)
    agreement: bool = True
    disagreements: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "verdicts": [v.to_json() for v in self.verdicts],
            "closed_forms": self.closed_forms,
            "agreement": self.agreement,
            "disagreements": list(self.disagreements),
        }


def cross_validate(
    g: Groupoid,
    identity: IdentityId,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> ConsistencyReport:
    """Run every route that admits g and compare answers; disagreement is
    data. The sample is admitted first, then the routes that admit g run in
    the order exhaustive, lifted (more than one entry per element), sampled."""
    _require_trials(trials, seed)
    _draw_width(g, identity, trials)
    lifted = (CheckMode.LIFTED,) if _entries(g) > 1 else ()
    verdicts = list(_admitted((CheckMode.EXHAUSTIVE, *lifted, CheckMode.SAMPLED), g, identity, trials, seed))
    report = ConsistencyReport(identity=identity.value, verdicts=verdicts)

    hard = {v.status for v in verdicts if v.status in ("holds", "fails")}
    if len(hard) > 1:
        report.agreement = False
        report.disagreements.append("methods disagree: " + ", ".join(f"{v.method}={v.status}" for v in verdicts))
    if verdicts[-1].status == "sampled_no_counterexample" and "fails" in hard:  # the sample is last
        report.disagreements.append(
            "sampling found no counterexample but an exact method failed; "
            "sampling alone would have been misleading"
        )

    decided = "fails" not in hard if hard else None
    for name, predicted in applicable_closed_forms(g, identity).items():
        agrees = None if decided is None else predicted == decided
        report.closed_forms[name] = {"predicted": predicted, "agrees": agrees}
        if agrees is False:
            report.agreement = False
            report.disagreements.append(
                f"closed form {name} predicts {predicted} but checks observed {decided}"
            )
    return report
