"""Subset structure: subgroupoids, ideals, normality, simplicity, Smarandache.

Subsets are handled as bitmasks over the groupoid's canonical element order
(bit i = element i). Every list of subsets, on either route, is in one order:
by size, then by mask value. So every reported witness is the first one under
that fixed order, reruns are reproducible, and the generated closures list
their subgroupoids in the order the power set lists them.

The power-set sweeps are numpy arrays indexed by mask on their last axis:
``need[..., m]`` is the bitmask, in the narrowest word that holds n bits
(``uint8`` up to order 8, ``uint16`` up to 16, ``uint32`` up to 32, else
``uint64``), of every product the subset ``m`` must contain, filled by the
OR-over-subsets ``_subset_or``, and ``m`` is closed iff
``need[..., m] & ~m == 0``, tested in place on ``need``. Leading axes are
members: ``_closed_flags`` takes one table or a stack of tables of one order,
one row of flags per table, so a sweep of parameter pairs runs the recurrence
once per block of members. Its cost, ``n*2^n`` per table, is checked against
the work budget (``GGL_BUDGET``, ``groupoid.check_budget``) before anything
is allocated, as are the ``n^3`` work of whole-groupoid normality and the
``n(n-1)/2`` pair closures of up to ``n^2`` table reads each of the
generated-closure route, before the table is built. ``enumerate_ideals`` runs
no flag sweep of its own: an ideal is closed (P*P within P*G within P), so
``_absorbing_rows`` keeps the closed masks whose absorb need, one
``_subset_or`` of the members' row (left) or column (right) masks, stays
inside them. The generated-closure route closes boolean membership vectors
semi-naively, marking each step's products in a boolean vector. Normality
compares translate sets (boolean rows marking a*V and V*a), a block of sets V
of about _CHUNK_CELLS cells at a time; whole-groupoid normality translates
each distinct set xG once, so its work is (distinct sets)*n^2 within the n^3
bound, and compares the coset laws for every x as set ids. A test on a subset
of m elements scans m^vars assignments, refused as the identity engine refuses
it.
The route is chosen by cost, in one place, ``_powerset_route``:
``enumerate_subgroupoids`` takes the power set when its ``n*2^n`` estimate
fits the budget and the generated closures otherwise, and ``is_simple``,
``analyze`` and ``smarandache`` work on whatever list it returns. Only
``enumerate_ideals`` and ``find_normal_subgroupoids`` are power-set-only,
refused by the budget alone.

Every subset list, on either route, is a :class:`MaskedSubsets`
(``EnumerationResult.subsets``, ``IdealSets.left``/``right``/``two_sided``):
read-only packed membership rows, ``.rows``, of ceil(n/8) bytes, bit i of row
r (little bit order) set when element i is in subset r, so no list is bounded
by the width of one integer mask. ``sizes`` counts each row's members,
``members()`` unpacks the rows to a boolean matrix, which normality and
``to_json``'s label lists read, and a :class:`SubsetHandle` (labels read from
the groupoid, which the result keeps alive) is built only when an item is
read. The lists iterate, index, slice, compare and hash like the tuple of
their handles, so a caller that only counts subsets or compares two results
never builds one.

Every check reads the groupoid's Cayley table array
(``Groupoid.table_array``); identities on a subset, semigroup associativity
included, go through the exhaustive engine's evaluator with its domain set to
the subset (a closed singleton {x} is a semigroup without a scan: x*x = x).
A check that reads the table refuses it before its subset argument is
resolved, and index items resolve without listing the groupoid's labels.
Tables never mutate, so what this module derives from a table is kept in that
groupoid's memo (``Groupoid.cached``, freed with it): the rows of the closed
subsets, the rows of the left, right and two-sided ideals (one entry) and the
rows of the generated closures. ``analyze`` therefore enumerates once and
checks normality in one pass over that list, not once per question.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .carrier import CarrierError
from .groupoid import _CHUNK_CELLS, BudgetExceeded, Groupoid, check_budget
from .identities import (
    TEMPLATES,
    CheckMode,
    IdentityId,
    IdentityVerdict,
    check_identity,
    first_failure,
)
from .shape import Element, element_is_pure_indeterminate, element_has_indeterminate


@dataclass(frozen=True, order=True)
class SubsetHandle:
    indices: tuple[int, ...]
    labels: tuple[str, ...] = field(compare=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    def to_json(self) -> list[str]:
        return list(self.labels)


def _handle_of(g: Groupoid, idx: Sequence[int]) -> SubsetHandle:
    """The handle of sorted, distinct element indices, labels read from g."""
    labels = g.labels()
    return SubsetHandle(indices=tuple(idx), labels=tuple(labels[i] for i in idx))


class MaskedSubsets(Sequence[SubsetHandle]):
    """Subsets of one groupoid as packed membership rows in (size, mask) order:
    bit i of row r (little bit order) is set when element i is in subset r, in
    ceil(n/8) bytes a row. A row's handle is built when it is read. Compares and
    hashes as the tuple of its handles, and a slice is that tuple's slice."""

    __slots__ = ("rows", "_g")

    def __init__(self, g: Groupoid, rows: np.ndarray) -> None:
        self._g = g
        self.rows = rows.view()
        self.rows.flags.writeable = False

    @property
    def sizes(self) -> np.ndarray:
        """The number of members of each subset."""
        return _sizes(self.rows)

    def members(self) -> np.ndarray:
        """The boolean membership matrix: members()[r, i] when element i is in subset r."""
        return np.unpackbits(self.rows, axis=1, count=self._g.order, bitorder="little").view(bool)

    def _handle(self, mask: int) -> SubsetHandle:
        return _handle_of(self._g, [i for i in range(self._g.order) if mask >> i & 1])

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._handle, _row_masks(self.rows[i])))
        return self._handle(int.from_bytes(self.rows[operator.index(i)].tobytes(), "little"))

    def __iter__(self) -> Iterator[SubsetHandle]:
        return map(self._handle, _row_masks(self.rows))

    def __eq__(self, other) -> bool:
        if isinstance(other, MaskedSubsets):
            return list(_row_masks(self.rows)) == list(_row_masks(other.rows))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def to_json(self) -> list[list[str]]:
        """The label list of each subset, read from the membership rows with no
        handle built."""
        return _label_lists(self._g, self.members())


def _label_lists(g: Groupoid, members: np.ndarray) -> list[list[str]]:
    """The label list of each row of a boolean membership matrix, read a block
    of about _CHUNK_CELLS cells at a time."""
    labels = np.array(g.labels(), dtype=object)
    out: list[list[str]] = []
    for block in _blocks(len(members), g.order):
        flat = labels[np.nonzero(members[block])[1]].tolist()
        ends = np.cumsum(members[block].sum(axis=1)).tolist()
        out += [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]
    return out


def _subset_indices(g: Groupoid, subset: Iterable) -> list[int]:
    """The sorted, distinct indices of a subset given as a handle, indices
    (Python or numpy integers), labels, or elements. The labels are listed only
    when an item is a label."""
    if isinstance(subset, SubsetHandle):
        return list(subset.indices)
    n = g._require_enumerable()
    items = list(subset)
    pos = {lab: i for i, lab in enumerate(g.labels())} if any(isinstance(x, str) for x in items) else {}
    out: set[int] = set()
    for item in items:
        if isinstance(item, bool):
            raise CarrierError("subset items must be indices, labels, or elements")
        if isinstance(item, (int, np.integer)):
            if not 0 <= item < n:
                raise CarrierError(f"index out of range: {item}")
            out.add(int(item))
        elif isinstance(item, str):
            if item not in pos:
                raise CarrierError(f"unknown element label: {item!r}")
            out.add(pos[item])
        else:
            out.add(g.element_index(item))
    return sorted(out)


def subset_handle(g: Groupoid, subset: Iterable) -> SubsetHandle:
    """Normalise a subset given as indices (Python or numpy integers), labels, or elements."""
    return _handle_of(g, _subset_indices(g, subset))


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


def _word(n: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned word that holds n bits: uint8 up to order 8,
    uint16 up to 16, uint32 up to 32, else uint64."""
    for word in (np.uint8, np.uint16, np.uint32):
        if n <= np.iinfo(word).bits:
            return word
    return np.uint64


def _bits(tab: np.ndarray) -> np.ndarray:
    """1 << tab, in the narrowest word that holds the order (the last axis)."""
    word = _word(tab.shape[-1])
    return np.left_shift(word(1), tab.astype(word))


def _subset_or(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., m] = out[..., 0] | values[..., w] for every bit w of m, each
    m < 2^k for k values per member, filled in place by highest set bit:
    out[..., 2^w + r] = out[..., r] | values[..., w]. Leading axes are members."""
    for w in range(values.shape[-1]):
        np.bitwise_or(out[..., : 1 << w], values[..., w, None], out=out[..., 1 << w : 2 << w])
    return out


def _closed_flags(tabs: np.ndarray) -> np.ndarray:
    """closed[..., m] for every mask, for one (n, n) table (flags of shape
    (2^n,)) or each table of a (k, n, n) stack (flags of shape (k, 2^n)),
    built in blocks by highest set bit k:
    need[2^k + r] = need[r] | bit(T[k][k]) | cross_k[r], where cross_k is the
    OR-over-subsets of bit(T[k][w]) | bit(T[w][k]) for w < k."""
    n = tabs.shape[-1]
    bit = _bits(tabs)
    need = np.zeros((*tabs.shape[:-2], 1 << n), dtype=bit.dtype)
    cross = np.zeros((*tabs.shape[:-2], 1 << max(n - 1, 0)), dtype=bit.dtype)
    for k in range(n):
        _subset_or(bit[..., k, :k] | bit[..., :k, k], cross)
        block = need[..., 1 << k : 2 << k]
        np.bitwise_or(need[..., : 1 << k], bit[..., k, k, None], out=block)
        block |= cross[..., : 1 << k]
    outside = np.arange(1 << n, dtype=need.dtype)
    need &= np.invert(outside, out=outside)  # in place: no second word array of need's shape
    return need == 0


def _sizes(rows: np.ndarray) -> np.ndarray:
    """The number of set bits of each packed row, read one byte column at a time."""
    return sum(_POPCOUNT8[col] for col in rows.T)


def _row_masks(rows: np.ndarray) -> Iterator[int]:
    """The mask of each packed row, as an int of any width, decoded as it is read."""
    data, width = rows.tobytes(), rows.shape[-1]
    return (int.from_bytes(data[lo : lo + width], "little") for lo in range(0, len(data), width))


def _proper_rows(flags: np.ndarray) -> np.ndarray:
    """The packed rows of the nonempty proper masks whose flag is set, by
    (size, mask), for flags over the 2^n masks: each mask's low ceil(n/8) bytes."""
    masks = (np.flatnonzero(flags[1:-1]) + 1).astype("<i8", copy=False)
    rows = masks.view(np.uint8).reshape(-1, 8)[:, : (len(flags).bit_length() + 6) // 8]
    return rows[np.argsort(_sizes(rows), kind="stable")]


def _closed_rows(g: Groupoid) -> np.ndarray:
    return g.cached("closed", lambda: _proper_rows(_closed_flags(g.table_array())))


def _close(tab: np.ndarray, member: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Close a membership vector in place, semi-naively: every product of two
    members outside the frontier must already be a member. Each step marks the
    frontier's products in a boolean vector, so the new frontier comes out
    distinct and ascending."""
    n = len(member)
    size = int(member.sum())
    new = np.empty(n, dtype=bool)
    while frontier.size and size < n:
        s = np.flatnonzero(member)
        new[:] = False
        new[tab[s[:, None], frontier]] = True
        new[tab[frontier[:, None], s]] = True
        new &= ~member
        frontier = np.flatnonzero(new)
        member[frontier] = True
        size += frontier.size
    return member


def _generated_closures(tab: np.ndarray) -> np.ndarray:
    """Packed rows of the proper closures of every 1- and 2-element generating
    set, by (size, mask): at one size, the larger mask holds the highest index where they differ.

    Singletons are closed first. A pair {i, j} with j in cl(i) closes to cl(i)
    (likewise the other way round); any other pair closes cl(i) | cl(j)."""
    n = len(tab)
    single = np.zeros((n, n), dtype=bool)
    for i in range(n):
        single[i, i] = True
        _close(tab, single[i], np.array([i]))
    found = list(single)
    for i, j in np.argwhere(np.triu(~single & ~single.T, 1)).tolist():
        found.append(_close(tab, single[i] | single[j], np.flatnonzero(single[j] & ~single[i])))
    members = np.array(found)
    rows = np.unique(np.packbits(members[~members.all(axis=1)], axis=1, bitorder="little"), axis=0)
    return rows[np.lexsort((*rows.T, _sizes(rows)))]  # by size, then bytes from the most significant


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


def _translates(tab: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The translate sets of each set V, a row of a boolean membership matrix:
    left[r, a] marks a*V and right[r, a] marks V*a, for V row r."""
    k, n = members.shape
    r, v = np.nonzero(members)
    a = np.arange(n)
    left, right = np.zeros((2, k, n, n), dtype=bool)
    left[r[:, None], a, tab[:, v].T] = True
    right[r[:, None], a, tab[v, :]] = True
    return left, right


def _blocks(count: int, cells: int) -> Iterator[slice]:
    """Slices of count rows of the given cells each, about _CHUNK_CELLS cells a slice."""
    step = max(1, _CHUNK_CELLS // cells)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _set_ids(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, ids) for packed set rows: equal rows share an id, and first[i] is
    the first row with id i. Each row is read as one void item, so a
    one-dimensional unique sorts them: np.unique(axis=0) sorts the same rows
    through a structured view at several times the cost, and returns its
    inverse in different shapes across numpy versions."""
    items = np.ascontiguousarray(packed).view(f"V{packed.shape[1]}").ravel()
    return np.unique(items, return_index=True, return_inverse=True)[1:]


def _normal_flags(tab: np.ndarray, members: np.ndarray) -> np.ndarray:
    """normal[r]: aV = Va as sets for every a in the carrier (see module doc),
    where V is row r of a boolean membership matrix."""
    left, right = _translates(tab, members)
    return (left == right).all(axis=(1, 2))


def _normal_rows(tab: np.ndarray, members: np.ndarray) -> Iterator[int]:
    """The rows of a membership matrix that are normal, ascending; checked in
    blocks of about _CHUNK_CELLS translate-set cells."""
    for block in _blocks(len(members), len(tab) ** 2):
        yield from (block.start + np.flatnonzero(_normal_flags(tab, members[block]))).tolist()


def _normal_subsets(g: Groupoid, subsets: MaskedSubsets) -> Iterator[SubsetHandle]:
    """The normal subsets of two or more members, in the given order and
    lazily: no handle is built for a subset that is not normal."""
    lo = int(np.searchsorted(subsets.sizes, 2))  # rows are by size: the singletons come first
    return (subsets[lo + r] for r in _normal_rows(g.table_array(), subsets.members()[lo:]))


def identity_holds_on_subset(g: Groupoid, subset: Iterable, identity: IdentityId) -> bool:
    """Evaluate one identity with all variables restricted to the subset. A law
    of two or three variables reads the table, refused before the subset is
    resolved."""
    if len(TEMPLATES[identity][2]) > 1:
        g.table_array()
    return first_failure(g, identity, np.asarray(_subset_indices(g, subset), dtype=np.intp)) is None


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
    m^3 triples when it is closed, refused as ``first_failure`` refuses it. The
    table is refused before the subset is resolved."""
    tab = g.table_array()
    handle = subset if isinstance(subset, SubsetHandle) else subset_handle(g, subset)
    idx = handle.indices
    if not idx:
        raise CarrierError("subset must be nonempty")
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
    subsets: MaskedSubsets
    strategy: str  # power-set | generated-closure
    complete: bool

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "complete": self.complete,
            "subsets": self.subsets.to_json(),
        }


def _powerset_route(g: Groupoid) -> bool:
    """The one place a route is chosen, by cost: whether the power set's n*2^n
    estimate fits the budget. When it does not, the generated closures' own
    estimate must fit, or this refuses."""
    g._require_enumerable()  # past the cap there is no route, so this refusal stands
    try:
        _powerset_order(g, "subgroupoid enumeration")
    except BudgetExceeded:  # its one cause left: the power set's work is past the budget
        _closure_order(g, "generated-closure enumeration")
        return False
    return True


def enumerate_subgroupoids(g: Groupoid) -> EnumerationResult:
    """On the power-set route, every nonempty proper closed subset (complete);
    otherwise the closures of all generating sets of size <= 2
    (generated-closure route: every 1- and 2-generated subgroupoid, but not a
    complete list). ``_powerset_route`` chooses."""
    if not _powerset_route(g):
        rows = g.cached("closures", lambda: _generated_closures(g.table_array()))
        return EnumerationResult(subsets=MaskedSubsets(g, rows), strategy="generated-closure", complete=False)
    return EnumerationResult(subsets=MaskedSubsets(g, _closed_rows(g)), strategy="power-set", complete=True)


@dataclass(frozen=True)
class IdealSets:
    left: MaskedSubsets
    right: MaskedSubsets
    two_sided: MaskedSubsets

    def to_json(self) -> dict:
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "two_sided": self.two_sided.to_json(),
        }


def _absorbing_rows(tab: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The left, right and two-sided ideals among closed subsets given as packed
    rows, in their order: the rows whose need, one ``_subset_or`` of the members'
    row masks (left, P*G) or column masks (right, G*P), read at the rows' masks
    alone a block of rows at a time, stays inside them."""
    bit = _bits(tab)
    need = np.zeros(1 << len(tab), dtype=bit.dtype)  # need[0] stays 0, so each side refills the rest
    flags = np.zeros((2, len(rows)), dtype=bool)
    for side, axis in enumerate((-1, -2)):
        _subset_or(np.bitwise_or.reduce(bit, axis=axis), need)
        for block in _blocks(len(rows), 8):  # 8 bytes a row's mask
            masks = rows[block, -1].astype(np.intp)  # each row's mask, read from its top byte down
            for col in rows[block, -2::-1].T:
                masks <<= 8
                masks |= col
            flags[side, block] = need[masks] & ~masks.astype(bit.dtype) == 0
    left, right = flags
    return rows[left], rows[right], rows[left & right]


def enumerate_ideals(g: Groupoid) -> IdealSets:
    """All left/right/two-sided ideals (proper nonempty absorbing subsets). An
    ideal is closed (P*P within P*G within P), so the ideals are the closed
    subsets that absorb, and filtering the closed rows keeps their order."""
    _powerset_order(g, "ideal enumeration")
    sides = g.cached("ideals", lambda: _absorbing_rows(g.table_array(), _closed_rows(g)))
    return IdealSets(*(MaskedSubsets(g, rows) for rows in sides))


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
    return list(_normal_subsets(g, MaskedSubsets(g, _closed_rows(g))))


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
    """aG = Ga for every a, then (Gx)y = G(xy) and y(xG) = (yx)G for every x
    and y: with aG = Ga, xG is Gx, so both read the translates of the sets xG.
    Each distinct set xG is translated once, a block of sets at a time; the
    translates and the sets aG get ids in one namespace, and the laws are
    compared as ids for every x, since x*y differs between x of one set."""
    n = _normality_order(g)
    tab = g.table_array()
    rows, cols = (side[0] for side in _translates(tab, np.ones((1, n), dtype=bool)))
    if not np.array_equal(rows, cols):  # rows[a] = aG, cols[a] = Ga
        return False
    packed = np.packbits(rows, axis=1)
    first, cls = _set_ids(packed)
    sets = rows[first]  # set c is xG for every x of class c = cls[x]
    lefts, rights = [], []
    for block in _blocks(len(sets), n * n):
        left, right = _translates(tab, sets[block])  # left[c, y] = y(xG), right[c, y] = (xG)y
        lefts.append(np.packbits(left, axis=2).reshape(-1, packed.shape[1]))
        rights.append(np.packbits(right, axis=2).reshape(-1, packed.shape[1]))
    ids = _set_ids(np.concatenate([packed, *lefts, *rights]))[1]
    row_id, left_id, right_id = ids[:n], *ids[n:].reshape(2, len(sets), n)
    return np.array_equal(right_id[cls], row_id[tab]) and np.array_equal(left_id[cls], row_id[tab.T])


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


def _s_groupoid(g: Groupoid, closed: Iterable[SubsetHandle]) -> SmarandacheVerdict:
    """The bare verdict: s_groupoid with the first semigroup witness among the
    closed subsets, or not_smarandache when there is none."""
    witness = next(_semigroup_witnesses(g, closed), None)
    return SmarandacheVerdict(status="s_groupoid" if witness else "not_smarandache", s_witness=witness)


def smarandache(g: Groupoid, identity: IdentityId | None = None) -> SmarandacheVerdict:
    """Smarandache detection, optionally relative to an identity.

    Without an identity: is there a proper closed semigroup subset with a
    nonzero element? With one: strong_holds when the identity holds on all of
    G and G has such a witness; holds_on_semigroup_witness when the identity
    fails globally but holds on some witness of size >= 2; s_groupoid_only
    when only the bare witness exists; not_smarandache otherwise.

    The closed subsets are ``enumerate_subgroupoids``' list, on either route.
    A closed subset of a semigroup is a semigroup on which every law of the
    whole holds, so the first witness is the closure of any one of its
    nonzero elements, and the first law-bearing one of any two of its
    elements: the generated closures list both, in power-set order.
    """
    _powerset_route(g)  # the route's refusal, then the law's scan, then the list
    verdict = None if identity is None else check_identity(g, identity, CheckMode.EXHAUSTIVE)
    closed = enumerate_subgroupoids(g).subsets
    bare = _s_groupoid(g, closed)
    if verdict is None:
        return bare
    if bare.s_witness is None:
        return replace(bare, identity_verdict=verdict)
    if verdict.holds:
        return replace(bare, status="strong_holds", identity_verdict=verdict)
    witness = next(
        (
            h for h in _semigroup_witnesses(g, closed)
            if h.size >= 2 and first_failure(g, identity, np.asarray(h.indices)) is None
        ),
        None,
    )
    status = "holds_on_semigroup_witness" if witness else "s_groupoid_only"
    return replace(bare, status=status, identity_witness=witness, identity_verdict=verdict)


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
    tab = g.table_array()  # refused before the subsets are resolved
    hh, kk = _subset_indices(g, h), _subset_indices(g, k)
    n = len(tab)
    disjoint = not set(hh) & set(kk)
    target = _member(n, hh)
    left, right = ((side[0] == target).all(axis=1) for side in _translates(tab, _member(n, kk)[None]))
    hits = np.flatnonzero(left | right)  # left[x]: x*K = H, right[x]: K*x = H
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
        phi = list(mapping)
        for i in phi:  # as a table cell, an index is an integer and not a bool
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise CarrierError(f"index mapping entries must be integer indices, got {i!r}")
        phi = [int(i) for i in phi]
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
    return StructureReport(
        order=order,
        subgroupoids=subs,
        ideals=ideals,
        normal=normal,
        simple=_simplicity(subs, normal[0] if normal else None),
        normal_groupoid=is_normal_groupoid(g),
        smarandache_verdict=_s_groupoid(g, subs.subsets),
        complete=subs.complete,
    )
