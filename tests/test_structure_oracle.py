"""Differential tests: the numpy subset layer against the plain-Python oracles.

The oracles below are the pure-Python forms of the subset machinery: the
per-mask product-set recurrences, the set/frontier generated-closure loop,
the set-based normality checks and the per-subset closure, absorption,
associativity and identity loops. The library computes the same answers with
numpy bitmask transforms, membership matrices and the identity engine's
template evaluator; these tests pin the two together on random tables (small
image sets, so many subsets are closed) and on the affine families.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import (
    IdentityId,
    IntervalOf,
    Modular,
    PureNeutrosophic,
    Scalar,
    analyze,
    build,
    enumerate_subgroupoids,
    from_table,
    is_normal_groupoid,
)
from groupoidlab import structure
from groupoidlab.identities import TEMPLATES, eval_tree


# -- oracles ---------------------------------------------------------------------


def closed_flags_oracle(table, n):
    """closed[m] for every mask, via an incremental product-set recurrence."""
    size = 1 << n
    need = [0] * size
    closed = [False] * size
    for m in range(1, size):
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        acc = need[rest] | (1 << table[v][v])
        w_m = rest
        while w_m:
            wl = w_m & -w_m
            w = wl.bit_length() - 1
            acc |= (1 << table[v][w]) | (1 << table[w][v])
            w_m ^= wl
        need[m] = acc
        closed[m] = (acc & ~m) == 0
    return closed


def absorb_flags_oracle(table, n, side):
    """absorb[m]: every product of a subset member with any element stays inside."""
    size = 1 << n
    member_mask = [0] * n
    for v in range(n):
        acc = 0
        for x in range(n):
            acc |= 1 << (table[v][x] if side == "left" else table[x][v])
        member_mask[v] = acc
    need = [0] * size
    flags = [False] * size
    for m in range(1, size):
        low = m & -m
        v = low.bit_length() - 1
        need[m] = need[m ^ low] | member_mask[v]
        flags[m] = (need[m] & ~m) == 0
    return flags


def frontier_closures_oracle(table):
    """Proper closures of all 1- and 2-element generating sets, by (size, indices)."""
    n = len(table)
    found = set()
    gens = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    for gen in gens:
        s = set(gen)
        frontier = list(gen)
        while frontier:
            nxt = []
            for a in list(s):
                for b in frontier:
                    for c in (table[a][b], table[b][a]):
                        if c not in s:
                            s.add(c)
                            nxt.append(c)
            for a in frontier:
                for b in frontier:
                    c = table[a][b]
                    if c not in s:
                        s.add(c)
                        nxt.append(c)
            frontier = nxt
        if len(s) < n:
            found.add(tuple(sorted(s)))
    return sorted(found, key=lambda t: (len(t), t))


def subset_normal_oracle(table, idx):
    for a in range(len(table)):
        if {table[a][v] for v in idx} != {table[v][a] for v in idx}:
            return False
    return True


def is_normal_groupoid_oracle(table):
    n = len(table)
    everything = range(n)
    for a in everything:
        if {table[a][v] for v in everything} != {table[v][a] for v in everything}:
            return False
    for x in everything:
        for y in everything:
            xy = table[x][y]
            if {table[table[v][x]][y] for v in everything} != {table[v][xy] for v in everything}:
                return False
            yx = table[y][x]
            if {table[y][table[x][v]] for v in everything} != {table[yx][v] for v in everything}:
                return False
    return True


def subset_identity_oracle(table, idx, identity):
    """The identity with every variable ranging over the subset."""
    lhs, rhs, vars_ = TEMPLATES[identity]
    prod = lambda a, b: table[a][b]  # noqa: E731
    for assign in itertools.product(idx, repeat=len(vars_)):
        env = dict(zip(vars_, assign))
        if eval_tree(lhs, env, prod) != eval_tree(rhs, env, prod):
            return False
    return True


def classify_oracle(table, idx):
    """(closed, left ideal, right ideal, semigroup) by set membership."""
    n, s = len(table), set(idx)
    closed = all(table[a][b] in s for a in idx for b in idx)
    proper = len(idx) < n
    left = proper and all(table[a][x] in s for a in idx for x in range(n))
    right = proper and all(table[x][a] in s for a in idx for x in range(n))
    semigroup = closed and subset_identity_oracle(table, idx, IdentityId.ASSOCIATIVE)
    return closed, left, right, semigroup


# -- random tables ------------------------------------------------------------------


@st.composite
def small_image_tables(draw, max_order=12):
    """A random n x n table whose cells take only a few distinct values."""
    n = draw(st.integers(1, max_order))
    image = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.sampled_from(image), min_size=n * n, max_size=n * n))
    return [cells[i * n : (i + 1) * n] for i in range(n)]


def affine_tables(max_order):
    for n in range(2, max_order + 1):
        for t in range(n):
            for u in range(n):
                if t or u:
                    yield n, t, u, build(Modular(n), Scalar(), t, u).index_table()


# -- flag recurrences -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_image_tables())
def test_closed_flags_match_the_recurrence_oracle(table):
    n = len(table)
    got = structure._closed_flags(np.asarray(table))
    want = closed_flags_oracle(table, n)
    assert got.tolist()[1 : (1 << n) - 1] == want[1 : (1 << n) - 1]


@settings(max_examples=80, deadline=None)
@given(small_image_tables(), st.sampled_from(["left", "right"]))
def test_absorb_flags_match_the_recurrence_oracle(table, side):
    n = len(table)
    got = structure._absorb_flags(np.asarray(table), side)
    want = absorb_flags_oracle(table, n, side)
    assert got.tolist()[1 : (1 << n) - 1] == want[1 : (1 << n) - 1]


@settings(max_examples=40, deadline=None)
@given(small_image_tables())
def test_sorted_masks_follow_popcount_then_value(table):
    n = len(table)
    flags = closed_flags_oracle(table, n)
    want = sorted(
        (m for m in range(1, (1 << n) - 1) if flags[m]), key=lambda m: (bin(m).count("1"), m)
    )
    got = structure._proper_masks_sorted(np.array(flags)).tolist()
    assert got == want


# -- generated closure --------------------------------------------------------------------


CLOSURE_CASES = [
    (Modular(7), 3, 4),
    (Modular(12), 2, 6),
    (Modular(24), 5, 7),
    (Modular(30), 6, 10),
    (Modular(40), 3, 7),
    (Modular(40), 4, 10),
    (PureNeutrosophic(9), 3, 6),
    (PureNeutrosophic(22), 5, 3),
    (IntervalOf(Modular(8)), 2, 6),
    (IntervalOf(Modular(21)), 4, 2),
]


@pytest.mark.parametrize(
    "carrier,t,u", CLOSURE_CASES, ids=[f"{c.token()}-{t},{u}" for c, t, u in CLOSURE_CASES]
)
def test_generated_closure_matches_the_frontier_oracle(carrier, t, u):
    g = build(carrier, Scalar(), t, u)
    table = g.index_table()
    want = frontier_closures_oracle(table)
    assert structure._generated_closures(np.asarray(table)) == want
    enum = enumerate_subgroupoids(g, "generated-closure")
    assert [h.indices for h in enum.subsets] == want


@settings(max_examples=40, deadline=None)
@given(small_image_tables())
def test_generated_closure_matches_the_oracle_on_random_tables(table):
    assert structure._generated_closures(np.asarray(table)) == frontier_closures_oracle(table)


# -- normality ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_image_tables(), st.data())
def test_subset_normality_matches_the_set_oracle(table, data):
    n = len(table)
    subsets = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, unique=True), min_size=1, max_size=8)
    )
    members = np.zeros((len(subsets), n), dtype=bool)
    for r, idx in enumerate(subsets):
        members[r, idx] = True
    got = structure._normal_flags(np.asarray(table), members).tolist()
    assert got == [subset_normal_oracle(table, idx) for idx in subsets]


@pytest.mark.parametrize("chunk_cells", [1, 100, 1 << 20])
def test_normal_rows_match_the_set_oracle_on_affine_tables(monkeypatch, chunk_cells):
    monkeypatch.setattr(structure, "_NORMAL_CHUNK_CELLS", chunk_cells)
    for n, t, u, table in affine_tables(6):
        subsets = [[i for i in range(n) if m >> i & 1] for m in range(1, 1 << n)]
        members = np.array([[i in idx for i in range(n)] for idx in subsets])
        want = [r for r, idx in enumerate(subsets) if subset_normal_oracle(table, idx)]
        assert list(structure._normal_rows(np.asarray(table), members)) == want, (n, t, u)


@settings(max_examples=80, deadline=None)
@given(small_image_tables())
def test_normal_groupoid_matches_the_set_oracle_on_random_tables(table):
    g = from_table([str(i) for i in range(len(table))], table)
    assert is_normal_groupoid(g) == is_normal_groupoid_oracle(table)


def test_each_coset_law_can_fail_alone():
    # row and column sets agree and (Gx)y = G(xy) holds, but y(xG) = (yx)G fails;
    # the transpose fails the other law alone
    table = [[0, 0, 1], [1, 1, 0], [0, 0, 1]]
    for t in (table, [list(col) for col in zip(*table)]):
        assert is_normal_groupoid_oracle(t) is False
        assert is_normal_groupoid(from_table(["a", "b", "c"], t)) is False


def test_normal_groupoid_matches_the_set_oracle_on_affine_tables():
    verdicts = []
    for n, t, u, table in affine_tables(12):
        got = is_normal_groupoid(from_table([str(i) for i in range(n)], table))
        assert got == is_normal_groupoid_oracle(table), (n, t, u)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


# -- per-subset checks ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_image_tables(), st.data())
def test_subset_classification_matches_the_set_oracle(table, data):
    n = len(table)
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    g = from_table([str(i) for i in range(n)], table)
    c = structure.classify_subset(g, idx)
    assert (c.closed, c.left_ideal, c.right_ideal, c.semigroup) == classify_oracle(table, idx)


@settings(max_examples=80, deadline=None)
@given(small_image_tables(), st.data(), st.sampled_from(list(IdentityId)))
def test_identity_on_subset_matches_the_loop_oracle(table, data, identity):
    n = len(table)
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    g = from_table([str(i) for i in range(n)], table)
    assert structure.identity_holds_on_subset(g, idx, identity) == subset_identity_oracle(table, idx, identity)


def conjugacy_oracle(table, h, k):
    """(x, side) for the first x with x*K = H (left, checked first) or K*x = H."""
    for x in range(len(table)):
        if {table[x][e] for e in k} == set(h):
            return x, "left"
        if {table[e][x] for e in k} == set(h):
            return x, "right"
    return None, None


@settings(max_examples=80, deadline=None)
@given(small_image_tables(), st.data())
def test_conjugacy_matches_the_set_oracle(table, data):
    n = len(table)
    h, k = (data.draw(st.lists(st.integers(0, n - 1), unique=True)) for _ in range(2))
    g = from_table([str(i) for i in range(n)], table)
    v = structure.are_conjugate(g, h, k)
    x, side = conjugacy_oracle(table, h, k)
    assert (v.conjugate, v.witness_label, v.side) == (x is not None, None if x is None else str(x), side)


# -- compute once -------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(structure, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, name, counted)
    return calls


@pytest.mark.parametrize("n,t,u", [(12, 5, 7), (20, 3, 7), (53, 2, 5)])
def test_analyze_computes_flags_and_closures_once(monkeypatch, n, t, u):
    closed = _count_calls(monkeypatch, "_closed_flags")
    left_right = _count_calls(monkeypatch, "_absorb_flags")
    closures = _count_calls(monkeypatch, "_generated_closures")
    g = build(Modular(n), Scalar(), t, u)
    analyze(g)
    analyze(g)
    if n <= 20:
        assert (len(closed), len(left_right), len(closures)) == (1, 2, 0)
    else:
        assert (len(closed), len(left_right), len(closures)) == (0, 0, 1)
