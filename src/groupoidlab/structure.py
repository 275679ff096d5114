"""Subset structure: subgroupoids, ideals, normality, simplicity, Smarandache.

Subsets are handled as bitmasks over the groupoid's canonical element order
(bit i = element i). Enumerations scan masks by increasing cardinality and
then ascending mask value, so every reported witness is the first one under
that fixed order and reruns are reproducible.

The power-set sweeps are numpy arrays indexed by mask: ``need[m]`` is the
bitmask (``uint32`` up to order 32, else ``uint64``) of every product the
subset ``m`` must contain, filled in blocks by highest set bit with
OR-over-subsets transforms, and ``m`` is closed (or absorbing) iff
``need[m] & ~m == 0``. Their cost, ``n*2^n``, is checked against the work
budget (``GGL_BUDGET``, ``groupoid.check_budget``) before anything is
allocated, as are the ``n^3`` work of whole-groupoid normality and the
``n(n-1)/2`` pair closures of up to ``n^2`` table reads each of the
generated-closure route, before the table is built. That route closes boolean
membership vectors semi-naively, and normality compares membership matrices
(row ``r`` marks the set of values in row ``r``). A test on a subset of m
elements scans m^vars assignments, refused as the identity engine refuses it.
The route is chosen by cost, in one place: ``enumerate_subgroupoids`` takes
the power set when its ``n*2^n`` estimate fits the budget and the generated
closures otherwise, and ``is_simple`` and ``analyze`` work on whatever list it
returns. The other power-set entry points have no second route and are
refused by the budget alone.

Power-set results hold the qualifying masks, sorted by (popcount, mask), not
handles: ``EnumerationResult.subsets`` and ``IdealSets.left``/``right``/
``two_sided`` are :class:`MaskedSubsets`, read-only sequences that expose the
array as ``.masks`` and build a :class:`SubsetHandle` (labels read from the
groupoid, which the result keeps alive) only when an item is read. They
iterate, index, slice, compare and hash like the tuple of their handles, so a
caller that only counts subsets or compares two results never builds one.

Every check reads the groupoid's Cayley table array
(``Groupoid.table_array``); identities on a subset, semigroup associativity
included, go through the exhaustive engine's evaluator with its domain set to
the subset (a closed singleton {x} is a semigroup without a scan: x*x = x).
Tables never mutate, so what this module derives from a table is
kept in that groupoid's memo (``Groupoid.cached``, freed with it): the sorted
closed masks, the sorted left and right absorbing masks and the generated
closures. ``analyze`` therefore enumerates once and checks normality in one
pass over that list, not once per question.

Conventions (documented once here, used consistently):

* subgroupoid: nonempty proper closed subset (singletons allowed);
* left ideal P: closed and P*G ⊆ P; right ideal: closed and G*P ⊆ P;
* normal subgroupoid V: closed proper subset whose left and right translate
  sets agree for every element of the carrier (aV = Va as sets for all a in
  G, not just a in V).  Coset-product equations such as (Vx)y = V(xy) are
  deliberately NOT part of the test: translations here are generally
  non-injective, so those products collapse to sets of different sizes even
  on the families that motivate the concept, and requiring them would reject
  the canonical frozen witness {0,2,4,6} in the order-8 pair (2,6).  Size
  >= 2 is required to count against simplicity (singletons and the full set
  are trivial);
* Smarandache witness: a proper closed subset that is a semigroup and
  contains a nonzero element (the zero singleton is too degenerate to count;
  nonzero singletons do count). Identity-bearing witnesses additionally
  require size >= 2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .carrier import CarrierError
from .groupoid import Groupoid, check_budget, default_budget
from .identities import (
    CheckMode,
    IdentityId,
    IdentityVerdict,
    check_identity,
    first_failure,
)
from .shape import Element, element_is_pure_indeterminate, element_has_indeterminate

_NORMAL_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True, order=True)
class SubsetHandle:
    indices: tuple[int, ...]
    labels: tuple[str, ...] = field(compare=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << i
        return m

    def to_json(self) -> list[str]:
        return list(self.labels)


class MaskedSubsets(Sequence[SubsetHandle]):
    """Subsets of one groupoid held as a mask array in (popcount, mask) order;
    the handle of a mask is built when it is read. Compares and hashes as the
    tuple of its handles, and a slice is that tuple's slice."""

    __slots__ = ("masks", "_g")

    def __init__(self, g: Groupoid, masks: np.ndarray) -> None:
        self._g = g
        self.masks = masks.view()
        self.masks.flags.writeable = False

    def _handle(self, mask: int) -> SubsetHandle:
        labels = self._g.labels()
        idx = tuple(i for i in range(len(labels)) if mask >> i & 1)
        return SubsetHandle(indices=idx, labels=tuple(labels[i] for i in idx))

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._handle, self.masks[i].tolist()))
        return self._handle(int(self.masks[operator.index(i)]))

    def __iter__(self) -> Iterator[SubsetHandle]:
        return map(self._handle, self.masks.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, MaskedSubsets):
            return np.array_equal(self.masks, other.masks)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def subset_handle(g: Groupoid, subset: Iterable) -> SubsetHandle:
    """Normalise a subset given as indices (Python or numpy integers), labels, or elements."""
    labels = g.labels()
    pos = {lab: i for i, lab in enumerate(labels)}
    out: set[int] = set()
    for item in subset:
        if isinstance(item, bool):
            raise CarrierError("subset items must be indices, labels, or elements")
        if isinstance(item, (int, np.integer)):
            if not 0 <= item < len(labels):
                raise CarrierError(f"index out of range: {item}")
            out.add(int(item))
        elif isinstance(item, str):
            if item not in pos:
                raise CarrierError(f"unknown element label: {item!r}")
            out.add(pos[item])
        else:
            out.add(g.element_index(item))
    idx = tuple(sorted(out))
    return SubsetHandle(indices=idx, labels=tuple(labels[i] for i in idx))


# -- bitmask machinery --------------------------------------------------------


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _powerset_order(g: Groupoid, what: str) -> int:
    """The order, once the n*2^n work estimate of the power-set sweep fits."""
    n = g._require_enumerable()
    check_budget(f"{what}: power-set work", f"{n}*2^{n}", n << n)
    return n


def _closure_order(g: Groupoid, what: str) -> int:
    """The order, once the work estimate of the generated closures fits: one
    closure per pair of generators, each reading up to n^2 table cells."""
    n = g._require_enumerable()
    check_budget(
        f"{what}: generated-closure work", f"{n}*{n - 1}/2 pairs * {n}^2 reads", n * (n - 1) // 2 * n * n
    )
    return n


def _bits(tab: np.ndarray) -> np.ndarray:
    """1 << tab, as uint32 up to order 32 and uint64 above."""
    dtype = np.uint32 if len(tab) <= 32 else np.uint64
    return np.left_shift(dtype(1), tab.astype(dtype))


def _uncovered_free(need: np.ndarray) -> np.ndarray:
    """flags[m]: the product mask need[m] has no bit outside m."""
    return (need & ~np.arange(len(need), dtype=need.dtype)) == 0


def _closed_flags(tab: np.ndarray) -> np.ndarray:
    """closed[m] for every mask, built in blocks by highest set bit k:
    need[2^k + r] = need[r] | bit(T[k][k]) | cross_k[r], where cross_k is the
    OR-over-subsets of bit(T[k][w]) | bit(T[w][k]) for w < k."""
    n = len(tab)
    bit = _bits(tab)
    need = np.zeros(1 << n, dtype=bit.dtype)
    cross = np.zeros(1 << max(n - 1, 0), dtype=bit.dtype)
    for k in range(n):
        c = bit[k, :k] | bit[:k, k]
        for w in range(k):
            np.bitwise_or(cross[: 1 << w], c[w], out=cross[1 << w : 2 << w])
        block = need[1 << k : 2 << k]
        np.bitwise_or(need[: 1 << k], bit[k, k], out=block)
        block |= cross[: 1 << k]
    return _uncovered_free(need)


def _absorb_flags(tab: np.ndarray, side: str) -> np.ndarray:
    """absorb[m]: every product of a subset member with any element stays inside.

    side "left": subset member on the left (P*G); "right": member on the right.
    need is the OR-over-subsets of the members' row (or column) masks.
    """
    n = len(tab)
    bit = _bits(tab if side == "left" else tab.T)
    member = np.bitwise_or.reduce(bit, axis=1)
    need = np.zeros(1 << n, dtype=bit.dtype)
    for v in range(n):
        np.bitwise_or(need[: 1 << v], member[v], out=need[1 << v : 2 << v])
    return _uncovered_free(need)


def _proper_masks_sorted(flags: np.ndarray) -> np.ndarray:
    """Nonempty proper masks whose flag is set, by (popcount, mask)."""
    masks = np.flatnonzero(flags[1:-1]) + 1
    count = np.zeros(len(masks), dtype=np.int64)
    rest = masks.copy()
    while rest.any():
        count += _POPCOUNT8[rest & 0xFF]
        rest >>= 8
    return masks[np.argsort(count, kind="stable")]


def _closed_masks(g: Groupoid) -> np.ndarray:
    return g.cached("closed", lambda: _proper_masks_sorted(_closed_flags(g.table_array())))


def _absorb_masks(g: Groupoid, side: str) -> np.ndarray:
    return g.cached(side, lambda: _proper_masks_sorted(_absorb_flags(g.table_array(), side)))


def _close(tab: np.ndarray, member: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Close a membership vector in place, semi-naively: every product of two
    members outside the frontier must already be a member."""
    n = len(member)
    size = int(member.sum())
    while frontier.size and size < n:
        s = np.flatnonzero(member)
        prods = np.concatenate((tab[np.ix_(s, frontier)].ravel(), tab[np.ix_(frontier, s)].ravel()))
        frontier = np.unique(prods[~member[prods]])
        member[frontier] = True
        size += frontier.size
    return member


def _generated_closures(tab: np.ndarray) -> list[tuple[int, ...]]:
    """Proper closures of every 1- and 2-element generating set, by (size, indices).

    Singletons are closed first. A pair {i, j} with j in cl(i) closes to cl(i)
    (likewise the other way round); any other pair closes cl(i) | cl(j)."""
    n = len(tab)
    single = np.zeros((n, n), dtype=bool)
    for i in range(n):
        single[i, i] = True
        _close(tab, single[i], np.array([i]))
    found = {tuple(np.flatnonzero(row).tolist()) for row in single if not row.all()}
    for i, j in np.argwhere(np.triu(~single & ~single.T, 1)).tolist():
        member = _close(tab, single[i] | single[j], np.flatnonzero(single[j] & ~single[i]))
        if not member.all():
            found.add(tuple(np.flatnonzero(member).tolist()))
    return sorted(found, key=lambda t: (len(t), t))


def _member(n: int, idx: Sequence[int]) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[list(idx)] = True
    return out


def _is_closed(tab: np.ndarray, idx: Sequence[int]) -> bool:
    dom = np.asarray(idx)
    return bool(_member(len(tab), idx)[tab[dom[:, None], dom]].all())


def _is_semigroup(g: Groupoid, idx: Sequence[int]) -> bool:
    """Whether a closed subset is associative. A closed singleton {x} needs no
    scan: x*x = x, so both sides of the associative law are x."""
    return len(idx) == 1 or first_failure(g, IdentityId.ASSOCIATIVE, np.asarray(idx)) is None


def _row_sets(vals: np.ndarray, n: int) -> np.ndarray:
    """Membership matrix: out[r, c] is True iff c occurs in row r of vals."""
    out = np.zeros((len(vals), n), dtype=bool)
    out[np.arange(len(vals))[:, None], vals] = True
    return out


def _normal_flags(tab: np.ndarray, members: np.ndarray) -> np.ndarray:
    """normal[r]: aV = Va as sets for every a in the carrier (see module doc),
    where V is row r of a boolean membership matrix."""
    k, n = members.shape
    r, v = np.nonzero(members)
    a = np.arange(n)
    left = np.zeros((k, n, n), dtype=bool)  # left[r, a] marks a*V
    right = np.zeros((k, n, n), dtype=bool)  # right[r, a] marks V*a
    left[r[:, None], a, tab[:, v].T] = True
    right[r[:, None], a, tab[v, :]] = True
    return (left == right).all(axis=(1, 2))


def _normal_rows(tab: np.ndarray, members: np.ndarray) -> Iterator[int]:
    """The rows of a membership matrix that are normal, ascending; checked in
    chunks of about _NORMAL_CHUNK_CELLS translate-set cells."""
    n = len(tab)
    step = max(1, _NORMAL_CHUNK_CELLS // (n * n))
    for lo in range(0, len(members), step):
        yield from (lo + np.flatnonzero(_normal_flags(tab, members[lo : lo + step]))).tolist()


def _normal_subsets(g: Groupoid, subsets: Sequence[SubsetHandle]) -> Iterator[SubsetHandle]:
    """The normal subsets of two or more members, in the given order and lazily.
    Membership rows come from a MaskedSubsets' mask array, so no handle is
    built for a subset that is not normal, or else from handle indices."""
    n = g.order
    if isinstance(subsets, MaskedSubsets):
        keep = np.flatnonzero(subsets.masks & (subsets.masks - 1))
        as_bytes = subsets.masks[keep].astype("<u8").view(np.uint8).reshape(-1, 8)
        members = np.unpackbits(as_bytes, axis=1, count=n, bitorder="little").view(bool)
    else:
        keep = [r for r, h in enumerate(subsets) if h.size >= 2]
        members = np.zeros((len(keep), n), dtype=bool)
        for row, r in zip(members, keep):
            row[list(subsets[r].indices)] = True
    return (subsets[keep[r]] for r in _normal_rows(g.table_array(), members))


def identity_holds_on_subset(g: Groupoid, subset: Iterable, identity: IdentityId) -> bool:
    """Evaluate one identity with all variables restricted to the subset."""
    handle = subset if isinstance(subset, SubsetHandle) else subset_handle(g, subset)
    return first_failure(g, identity, np.asarray(handle.indices, dtype=np.intp)) is None


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class SubsetClassification:
    handle: SubsetHandle
    closed: bool
    subgroupoid: bool
    left_ideal: bool
    right_ideal: bool
    two_sided_ideal: bool
    semigroup: bool
    normal_subgroupoid: bool
    pure_neutrosophic: bool
    pseudo: bool

    def to_json(self) -> dict:
        return {
            "subset": self.handle.to_json(),
            "closed": self.closed,
            "subgroupoid": self.subgroupoid,
            "left_ideal": self.left_ideal,
            "right_ideal": self.right_ideal,
            "two_sided_ideal": self.two_sided_ideal,
            "semigroup": self.semigroup,
            "normal_subgroupoid": self.normal_subgroupoid,
            "pure_neutrosophic": self.pure_neutrosophic,
            "pseudo": self.pseudo,
        }


def classify_subset(g: Groupoid, subset: Iterable) -> SubsetClassification:
    """Every property of one subset; the semigroup test scans the subset's
    m^3 triples when it is closed, refused as ``first_failures`` refuses it."""
    handle = subset if isinstance(subset, SubsetHandle) else subset_handle(g, subset)
    idx = handle.indices
    if not idx:
        raise CarrierError("subset must be nonempty")
    tab = g.table_array()
    inside = _member(len(tab), idx)
    dom = list(idx)

    closed = _is_closed(tab, idx)
    proper = len(idx) < len(tab)
    left = proper and bool(inside[tab[dom, :]].all())
    right = proper and bool(inside[tab[:, dom]].all())
    semigroup = closed and _is_semigroup(g, idx)
    normal = closed and proper and bool(_normal_flags(tab, inside[None])[0])

    pure = False
    pseudo = False
    if g.spec is not None and g.spec.carrier.has_indeterminate:
        els = g.elements()
        carrier = g.spec.carrier
        members = [els[i] for i in idx]
        pure = all(
            element_is_pure_indeterminate(carrier, e) or all(carrier.is_zero(v) for v in e)
            for e in members
        )
        pseudo = closed and not any(element_has_indeterminate(carrier, e) for e in members)

    return SubsetClassification(
        handle=handle,
        closed=closed,
        subgroupoid=closed and proper,
        left_ideal=left,
        right_ideal=right,
        two_sided_ideal=left and right,
        semigroup=semigroup,
        normal_subgroupoid=normal,
        pure_neutrosophic=pure,
        pseudo=pseudo,
    )


# -- enumeration --------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    subsets: Sequence[SubsetHandle]  # MaskedSubsets on the power-set route, else a tuple
    strategy: str  # power-set | generated-closure
    complete: bool

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "complete": self.complete,
            "subsets": [h.to_json() for h in self.subsets],
        }


def enumerate_subgroupoids(g: Groupoid) -> EnumerationResult:
    """The one place a route is chosen, by cost. When the power set's n*2^n
    estimate fits the budget, every nonempty proper closed subset (power-set
    route, complete); otherwise the closures of all generating sets of size
    <= 2 (generated-closure route, refused by its own estimate: every 1- and
    2-generated subgroupoid, but not a complete list)."""
    n = g._require_enumerable()
    if n << n <= default_budget():
        return EnumerationResult(
            subsets=MaskedSubsets(g, _closed_masks(g)), strategy="power-set", complete=True
        )
    _closure_order(g, "generated-closure enumeration")
    labels = g.labels()
    closures = g.cached("closures", lambda: _generated_closures(g.table_array()))
    handles = tuple(
        SubsetHandle(indices=idx, labels=tuple(labels[i] for i in idx)) for idx in closures
    )
    return EnumerationResult(subsets=handles, strategy="generated-closure", complete=False)


@dataclass(frozen=True)
class IdealSets:
    left: MaskedSubsets
    right: MaskedSubsets
    two_sided: MaskedSubsets

    def to_json(self) -> dict:
        return {
            "left": [h.to_json() for h in self.left],
            "right": [h.to_json() for h in self.right],
            "two_sided": [h.to_json() for h in self.two_sided],
        }


def enumerate_ideals(g: Groupoid) -> IdealSets:
    """All left/right/two-sided ideals (proper nonempty absorbing subsets)."""
    _powerset_order(g, "ideal enumeration")
    left = _absorb_masks(g, "left")
    right = _absorb_masks(g, "right")
    two = left[np.isin(left, right)]
    return IdealSets(
        left=MaskedSubsets(g, left), right=MaskedSubsets(g, right), two_sided=MaskedSubsets(g, two)
    )


# -- simplicity and normality -------------------------------------------------


@dataclass(frozen=True)
class SimpleVerdict:
    simple: bool
    witness: SubsetHandle | None
    complete: bool

    def to_json(self) -> dict:
        return {
            "simple": self.simple,
            "witness": self.witness.to_json() if self.witness else None,
            "complete": self.complete,
        }


def find_normal_subgroupoids(g: Groupoid) -> list[SubsetHandle]:
    """Proper normal subgroupoids of size >= 2, in canonical subset order, from
    the power set's closed masks (refused when their n*2^n sweep does not fit)."""
    _powerset_order(g, "normal subgroupoid search")
    return list(_normal_subsets(g, MaskedSubsets(g, _closed_masks(g))))


def is_simple(g: Groupoid) -> SimpleVerdict:
    """No proper normal subgroupoid of size >= 2 among the subgroupoids that
    ``enumerate_subgroupoids`` lists; a witness is a proof either way, but a
    clean result from the generated-closure route is flagged as incomplete."""
    subs = enumerate_subgroupoids(g)
    return _simplicity(subs, next(_normal_subsets(g, subs.subsets), None))


def _simplicity(subs: EnumerationResult, witness: SubsetHandle | None) -> SimpleVerdict:
    """A normal witness disproves simplicity on either route; its absence proves
    it only when the enumeration is complete."""
    return SimpleVerdict(
        simple=witness is None, witness=witness, complete=subs.complete or witness is not None
    )


def _normality_order(g: Groupoid) -> int:
    """The order, once the n^3 work of whole-groupoid normality fits."""
    what = "normal groupoid check"
    n = g._require_enumerable()
    check_budget(f"{what}: normality work", f"{n}^3", n**3)
    return n


def is_normal_groupoid(g: Groupoid) -> bool:
    """The whole groupoid satisfies the normality laws over all of G."""
    n = _normality_order(g)
    tab = g.table_array()
    rows = _row_sets(tab, n)  # rows[a] = a*G
    cols = _row_sets(tab.T, n)  # cols[a] = G*a
    if not np.array_equal(rows, cols):
        return False
    for x in range(n):
        # (Gx)y = G(xy) for every y, then y(xG) = (yx)G for every y
        if not np.array_equal(_row_sets(tab[tab[:, x], :].T, n), cols[tab[x, :]]):
            return False
        if not np.array_equal(_row_sets(tab[:, tab[x, :]], n), rows[tab[:, x]]):
            return False
    return True


# -- Smarandache --------------------------------------------------------------


@dataclass(frozen=True)
class SmarandacheVerdict:
    status: str  # s_groupoid | strong_holds | holds_on_semigroup_witness |
    #              s_groupoid_only | not_smarandache
    s_witness: SubsetHandle | None = None
    identity_witness: SubsetHandle | None = None
    identity_verdict: IdentityVerdict | None = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        out["s_witness"] = self.s_witness.to_json() if self.s_witness else None
        if self.identity_verdict is not None:
            out["identity"] = self.identity_verdict.to_json()
            out["identity_witness"] = (
                self.identity_witness.to_json() if self.identity_witness else None
            )
        return out


def _semigroup_witnesses(g: Groupoid, closed: Iterable[SubsetHandle]) -> Iterator[SubsetHandle]:
    """The closed subsets that are semigroups, other than the zero singleton."""
    zero = (g.zero_index(),)  # (None,) for table-backed groupoids, never a subset
    return (h for h in closed if h.indices != zero and _is_semigroup(g, h.indices))


def smarandache(g: Groupoid, identity: IdentityId | None = None) -> SmarandacheVerdict:
    """Smarandache detection, optionally relative to an identity.

    Without an identity: is there a proper closed semigroup subset with a
    nonzero element? With one: strong_holds when the identity holds on all of
    G and G has such a witness; holds_on_semigroup_witness when the identity
    fails globally but holds on some witness of size >= 2; s_groupoid_only
    when only the bare witness exists; not_smarandache otherwise.
    """
    _powerset_order(g, "Smarandache analysis")
    closed = MaskedSubsets(g, _closed_masks(g))
    s_handle = next(_semigroup_witnesses(g, closed), None)

    if identity is None:
        status = "s_groupoid" if s_handle else "not_smarandache"
        return SmarandacheVerdict(status=status, s_witness=s_handle)

    verdict = check_identity(g, identity, CheckMode.EXHAUSTIVE)
    if s_handle is None:
        return SmarandacheVerdict(
            status="not_smarandache", s_witness=None, identity_verdict=verdict
        )
    if verdict.holds:
        return SmarandacheVerdict(
            status="strong_holds", s_witness=s_handle, identity_verdict=verdict
        )
    for h in _semigroup_witnesses(g, closed):
        if h.size >= 2 and first_failure(g, identity, np.asarray(h.indices)) is None:
            return SmarandacheVerdict(
                status="holds_on_semigroup_witness",
                s_witness=s_handle,
                identity_witness=h,
                identity_verdict=verdict,
            )
    return SmarandacheVerdict(
        status="s_groupoid_only", s_witness=s_handle, identity_verdict=verdict
    )


# -- conjugacy and homomorphisms ----------------------------------------------


@dataclass(frozen=True)
class ConjugacyVerdict:
    conjugate: bool
    witness_label: str | None
    side: str | None  # left: H = x*K, right: H = K*x
    disjoint: bool

    def to_json(self) -> dict:
        return {
            "conjugate": self.conjugate,
            "witness": self.witness_label,
            "side": self.side,
            "disjoint": self.disjoint,
        }


def are_conjugate(g: Groupoid, h: Iterable, k: Iterable) -> ConjugacyVerdict:
    """Is H = x*K or H = K*x for some x? Disjointness is the stated
    precondition; a violation is flagged but the search still runs."""
    hh = subset_handle(g, h) if not isinstance(h, SubsetHandle) else h
    kk = subset_handle(g, k) if not isinstance(k, SubsetHandle) else k
    tab = g.table_array()
    n = len(tab)
    disjoint = not set(hh.indices) & set(kk.indices)
    target = _member(n, hh.indices)
    k = list(kk.indices)
    left = (_row_sets(tab[:, k], n) == target).all(axis=1)  # left[x]: x*K = H
    right = (_row_sets(tab[k, :].T, n) == target).all(axis=1)  # right[x]: K*x = H
    hits = np.flatnonzero(left | right)
    if not hits.size:
        return ConjugacyVerdict(False, None, None, disjoint)
    x = int(hits[0])
    return ConjugacyVerdict(True, g.labels()[x], "left" if left[x] else "right", disjoint)


@dataclass(frozen=True)
class HomomorphismVerdict:
    valid: bool
    star_respected: bool
    indeterminate_preserved: bool | None  # None when not applicable
    failure: str | None

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "star_respected": self.star_respected,
            "indeterminate_preserved": self.indeterminate_preserved,
            "failure": self.failure,
        }


def check_homomorphism(
    g: Groupoid,
    h: Groupoid,
    mapping: Sequence[int] | Callable[[Element], Element],
) -> HomomorphismVerdict:
    """Does the map respect star, and (for carriers with an indeterminate)
    send pure-I elements to pure-I elements?"""
    tab, htab = g.table_array(), h.table_array()
    if callable(mapping):
        if g.spec is None or h.spec is None:
            raise CarrierError("element-level mappings need spec-backed groupoids")
        phi = [h.element_index(mapping(e)) for e in g.elements()]
    else:
        phi = [int(i) for i in mapping]
        if len(phi) != len(tab) or any(not 0 <= i < len(htab) for i in phi):
            raise CarrierError("index mapping must cover the domain and land in the codomain")

    img = np.array(phi, dtype=np.intp)
    bad = np.argwhere(img[tab] != htab[img[:, None], img])
    if len(bad):
        i, j = bad[0].tolist()  # the first failure in row-major order
        fail = f"star not respected at ({g.labels()[i]}, {g.labels()[j]})"
        return HomomorphismVerdict(False, False, None, fail)

    ind_ok: bool | None = None
    if (
        g.spec is not None
        and h.spec is not None
        and g.spec.carrier.has_indeterminate
    ):
        ind_ok = True
        hc = h.spec.carrier
        for i, e in enumerate(g.elements()):
            if element_is_pure_indeterminate(g.spec.carrier, e):
                img = h.elements()[phi[i]]
                if not (hc.has_indeterminate and element_is_pure_indeterminate(hc, img)):
                    fail = f"indeterminate element {g.labels()[i]} maps to {h.labels()[phi[i]]}"
                    return HomomorphismVerdict(False, True, False, fail)
    return HomomorphismVerdict(True, True, ind_ok, None)


# -- the assembled report ------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    order: int
    subgroupoids: EnumerationResult
    ideals: IdealSets | None
    normal: tuple[SubsetHandle, ...]
    simple: SimpleVerdict
    normal_groupoid: bool
    smarandache_verdict: SmarandacheVerdict
    complete: bool

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "subgroupoids": self.subgroupoids.to_json(),
            "ideals": self.ideals.to_json() if self.ideals else None,
            "normal": [h.to_json() for h in self.normal],
            "simple": self.simple.to_json(),
            "normal_groupoid": self.normal_groupoid,
            "smarandache": self.smarandache_verdict.to_json(),
            "complete": self.complete,
        }


def analyze(g: Groupoid) -> StructureReport:
    """Full structural survey of one ``enumerate_subgroupoids`` list; ideals
    and completeness only when that list is complete (the power-set route)."""
    order = _normality_order(g)  # refuse now, not after the subset work
    subs = enumerate_subgroupoids(g)
    ideals = enumerate_ideals(g) if subs.complete else None
    normal = tuple(_normal_subsets(g, subs.subsets))
    sm_witness = next(_semigroup_witnesses(g, subs.subsets), None)
    return StructureReport(
        order=order,
        subgroupoids=subs,
        ideals=ideals,
        normal=normal,
        simple=_simplicity(subs, normal[0] if normal else None),
        normal_groupoid=is_normal_groupoid(g),
        smarandache_verdict=SmarandacheVerdict(
            status="s_groupoid" if sm_witness else "not_smarandache", s_witness=sm_witness
        ),
        complete=subs.complete,
    )
