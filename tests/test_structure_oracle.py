"""Differential tests: the numpy subset layer against the plain-Python oracles.

The oracles below are the pure-Python forms of the subset machinery: the
per-mask product-set recurrences, the set/frontier generated-closure loop,
the set-based normality checks and the per-subset closure, absorption,
associativity and identity loops. The library computes the same answers with
numpy bitmask transforms, membership matrices and the identity engine's
template evaluator; these tests pin the two together on random tables (small
image sets, so many subsets are closed) and on the affine families.
"""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import (
    EnumerationResult,
    IdealSets,
    IdentityId,
    IntervalOf,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    Scalar,
    SubsetHandle,
    analyze,
    build,
    enumerate_ideals,
    enumerate_subgroupoids,
    find_normal_subgroupoids,
    from_table,
    is_normal_groupoid,
    is_simple,
    smarandache,
)
from groupoidlab import groupoid, structure, theorems
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


def sorted_masks_oracle(flags, n):
    """Nonempty proper masks whose flag is set, by (popcount, mask)."""
    masks = [m for m in range(1, (1 << n) - 1) if flags[m]]
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def row_masks(rows):
    """Each packed membership row as its mask: bit i of the row, in little bit order."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def row_subsets(rows, n):
    """Each packed membership row as the sorted tuple of its elements."""
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in row_masks(rows)]


def frontier_closures_oracle(table):
    """Proper closures of all 1- and 2-element generating sets, by (size, mask)."""
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
    return sorted(found, key=lambda t: (len(t), sum(1 << i for i in t)))


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
def small_image_tables(draw, max_order=12, min_order=1):
    """A random n x n table whose cells take only a few distinct values."""
    n = draw(st.integers(min_order, max_order))
    image = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.sampled_from(image), min_size=n * n, max_size=n * n))
    return [cells[i * n : (i + 1) * n] for i in range(n)]


@st.composite
def small_image_stacks(draw, max_order=10):
    """One to four such tables of one order."""
    n = draw(st.integers(1, max_order))
    return [draw(small_image_tables(max_order=n, min_order=n)) for _ in range(draw(st.integers(1, 4)))]


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
@given(small_image_stacks())
def test_stacked_closed_flags_equal_the_per_table_flags(tables):
    got = structure._closed_flags(np.asarray(tables))
    assert got.shape == (len(tables), 1 << len(tables[0]))
    for row, table in zip(got, tables):
        assert np.array_equal(row, structure._closed_flags(np.asarray(table)))


WORD_TABLES = {
    "x*y=y": lambda n: [list(range(n))] * n,
    "x*y=x": lambda n: [[x] * n for x in range(n)],
    "affine(2,n-1)": lambda n: build(Modular(n), Scalar(), 2, n - 1).index_table(),
    "x*y=max(x,y)": lambda n: [[max(x, y) for y in range(n)] for x in range(n)],
}


@pytest.mark.parametrize("kind", list(WORD_TABLES))
@pytest.mark.parametrize("n,word", [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32)])
def test_flags_match_the_oracles_at_the_word_boundaries(n, word, kind):
    """Each order takes the narrowest word that holds it; a word one bit too
    narrow drops the top element's bit, and x*y = y would then read as a left
    ideal (or x*y = x as a right one) on sets that miss it. The ideals' rows
    are decoded to masks of one, two and, at order 17, three bytes; max's
    ideals, the sets {k, ..., n-1}, would be lost to bytes read out of order."""
    table = WORD_TABLES[kind](n)
    tab = np.asarray(table)
    assert structure._bits(tab).dtype == word
    proper = slice(1, (1 << n) - 1)
    assert structure._closed_flags(tab).tolist()[proper] == closed_flags_oracle(table, n)[proper]
    ideals = enumerate_ideals(table_groupoid(table)())
    got = tuple(row_masks(getattr(ideals, side).rows) for side in ("left", "right", "two_sided"))
    assert got == ideal_masks_oracle(table)


# -- ideals read off the closed masks ------------------------------------------------------


def ideal_masks_oracle(table):
    """The left, right and two-sided ideal masks by (size, mask), from the absorb
    recurrences over every mask."""
    n = len(table)
    left, right = (absorb_flags_oracle(table, n, side) for side in ("left", "right"))
    both = [a and b for a, b in zip(left, right)]
    return tuple(sorted_masks_oracle(flags, n) for flags in (left, right, both))


def assert_ideals_match_the_absorb_oracle(make, table):
    """enumerate_ideals' rows, in order, are the oracle's masks, and a standalone
    call on a fresh groupoid equals the ideals analyze reports."""
    ideals = enumerate_ideals(make())
    got = tuple(row_masks(getattr(ideals, side).rows) for side in ("left", "right", "two_sided"))
    assert got == ideal_masks_oracle(table)
    assert analyze(make()).ideals == ideals


def table_groupoid(table):
    return lambda: from_table([str(i) for i in range(len(table))], table)


@pytest.mark.parametrize("n", range(1, 11))
def test_ideals_of_the_projections_match_the_absorb_oracle(n):
    """x*y = x: every proper subset is a left ideal and none is a right ideal
    (G*P is all of G); x*y = y the other way round."""
    first, second = [[x] * n for x in range(n)], [list(range(n))] * n
    for table in (first, second):
        assert_ideals_match_the_absorb_oracle(table_groupoid(table), table)
    left, right = (len(enumerate_ideals(table_groupoid(t)()).left) for t in (first, second))
    assert (left, right) == ((1 << n) - 2, 0)


@pytest.mark.parametrize("carrier_of", [Modular, PureNeutrosophic], ids=["zn", "zni"])
@pytest.mark.parametrize("n", range(2, 11))
def test_ideals_of_every_affine_pair_match_the_absorb_oracle(n, carrier_of):
    carrier = carrier_of(n)
    ind = carrier.has_indeterminate
    for t, u in list(itertools.product(range(n), repeat=2))[1:]:
        make = lambda: build(carrier, Scalar(), t, u, t_indeterminate=ind, u_indeterminate=ind)  # noqa: E731
        assert_ideals_match_the_absorb_oracle(make, make().index_table())


@settings(max_examples=80, deadline=None)
@given(small_image_tables(max_order=10))
def test_ideals_of_random_tables_match_the_absorb_oracle(table):
    assert_ideals_match_the_absorb_oracle(table_groupoid(table), table)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]),
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(0, 10),
    st.data(),
)
def test_subset_or_matches_the_per_mask_loop(dtype, lead, k, data):
    """Each member (a position on the leading axes; none is one member) has
    its own k values and start word."""
    words = st.integers(0, int(np.iinfo(dtype).max))
    members = int(np.prod(lead, dtype=int))
    values = data.draw(st.lists(st.lists(words, min_size=k, max_size=k), min_size=members, max_size=members))
    starts = data.draw(st.lists(words, min_size=members, max_size=members))
    out = np.zeros((*lead, 1 << k), dtype=dtype)
    out[..., 0] = np.array(starts, dtype=dtype).reshape(lead)
    structure._subset_or(np.array(values, dtype=dtype).reshape(*lead, k), out)
    for row, member, start in zip(out.reshape(members, -1).tolist(), values, starts):
        want = [start] * len(row)
        for m in range(len(row)):
            for w, value in enumerate(member):
                if m >> w & 1:
                    want[m] |= value
        assert row == want


@settings(max_examples=40, deadline=None)
@given(small_image_tables())
def test_sorted_masks_follow_popcount_then_value(table):
    n = len(table)
    flags = closed_flags_oracle(table, n)
    rows = structure._proper_rows(np.array(flags))
    assert rows.dtype == np.uint8 and rows.shape[1] == (n + 7) // 8
    assert row_masks(rows) == sorted_masks_oracle(flags, n)


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
def test_generated_closure_matches_the_frontier_oracle(monkeypatch, carrier, t, u):
    g = build(carrier, Scalar(), t, u)
    table = g.index_table()
    want = frontier_closures_oracle(table)
    n = len(table)
    rows = structure._generated_closures(np.asarray(table))
    assert rows.dtype == np.uint8 and rows.shape == (len(want), (n + 7) // 8)
    assert row_subsets(rows, n) == want
    if n >= 8:  # a budget of the closures' estimate is below n*2^n, so they are routed to
        monkeypatch.setenv("GGL_BUDGET", str(n * (n - 1) // 2 * n * n))
        enum = enumerate_subgroupoids(g)
        assert enum.strategy == "generated-closure"
        assert [h.indices for h in enum.subsets] == want


@pytest.mark.parametrize("n", range(8, 13))
def test_generated_closures_keep_the_power_set_order(monkeypatch, n):
    # below n*2^n the closures are routed to; each of them is closed, so each
    # is on the power set's list, and both lists are in (size, mask) order
    for t, u in itertools.product(range(n), repeat=2):
        if (t, u) == (0, 0):
            continue
        g = build(Modular(n), Scalar(), t, u)
        power = [h.indices for h in enumerate_subgroupoids(g).subsets]
        monkeypatch.setenv("GGL_BUDGET", str((n << n) - 1))
        closures = enumerate_subgroupoids(g)
        monkeypatch.delenv("GGL_BUDGET")
        assert closures.strategy == "generated-closure"
        at = [power.index(h.indices) for h in closures.subsets]
        assert at == sorted(at), f"zn:{n} ({t},{u})"


@settings(max_examples=40, deadline=None)
@given(small_image_tables())
def test_generated_closure_matches_the_oracle_on_random_tables(table):
    rows = structure._generated_closures(np.asarray(table))
    assert row_subsets(rows, len(table)) == frontier_closures_oracle(table)


def test_generated_closure_rows_past_order_64_match_the_oracle():
    # 66 elements take 9 bytes a row, past any one integer mask
    g = build(Modular(66), Scalar(), 2, 64)
    table = g.index_table()
    want = frontier_closures_oracle(table)
    rows = structure._generated_closures(np.asarray(table))
    assert rows.shape == (580, 9) and row_subsets(rows, 66) == want
    rep = analyze(g)
    subs = rep.subgroupoids.subsets
    assert rep.subgroupoids.strategy == "generated-closure" and [h.indices for h in subs] == want
    assert subs.sizes.tolist() == [len(idx) for idx in want]
    normal = tuple(h for h in subs if structure.classify_subset(g, h.indices).normal_subgroupoid)
    assert len(normal) == 504 and rep.normal == normal
    assert rep.simple.witness == normal[0] and normal[0].indices == tuple(range(0, 66, 2))
    assert rep.to_json()["subgroupoids"]["subsets"] == [list(h.labels) for h in subs]


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
    monkeypatch.setattr(structure, "_CHUNK_CELLS", chunk_cells)
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


def coset_law_failures_oracle(table):
    """The x for which (Gx)y = G(xy) or y(xG) = (yx)G fails at some y."""
    every = range(len(table))
    return {
        x
        for x in every
        for y in every
        if {table[table[v][x]][y] for v in every} != {table[v][table[x][y]] for v in every}
        or {table[y][table[x][v]] for v in every} != {table[table[y][x]][v] for v in every}
    }


# aG = Ga for every a, and only x = 3 breaks a coset law: the last x block fails alone
LATE_FAILURE = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("block", ["1", "2", "n-1"])
def test_normal_groupoid_reads_the_coset_laws_in_x_blocks(monkeypatch, block):
    """_CHUNK_CELLS sized so a block holds 1, 2 or n - 1 sets xG; no translate
    call takes more rows than a block, so nothing holds n^3 cells at once."""
    everything = range(len(LATE_FAILURE))
    assert all({LATE_FAILURE[a][v] for v in everything} == {LATE_FAILURE[v][a] for v in everything} for a in everything)
    assert coset_law_failures_oracle(LATE_FAILURE) == {3}
    rng = np.random.default_rng(16)
    tables = [table for _, _, _, table in affine_tables(7)] + [LATE_FAILURE]
    tables += [rng.choice(rng.choice(n, 2, replace=False), (n, n)).tolist() for n in range(2, 10) for _ in range(8)]
    real = structure._translates
    taken = []
    monkeypatch.setattr(structure, "_translates", lambda tab, members: taken.append(len(members)) or real(tab, members))
    verdicts = []
    for table in tables:
        n = len(table)
        rows = max(1, n - 1 if block == "n-1" else int(block))
        monkeypatch.setattr(structure, "_CHUNK_CELLS", rows * n * n)
        taken.clear()
        got = is_normal_groupoid(from_table([str(i) for i in range(n)], table))
        assert got == is_normal_groupoid_oracle(table), table
        assert max(taken) <= rows, table
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def repeated_translate_tables(rng):
    """Random tables in which many x share one set xG while x*y differs between
    them: rows permuted from one to three base rows, and commutative tables of
    a two-element image, where aG = Ga always holds, so every verdict reaches
    the coset laws."""
    for n in range(2, 9):
        for _ in range(40):
            bases = rng.integers(0, n, (rng.integers(1, 4), n))
            yield [rng.permutation(bases[rng.integers(len(bases))]).tolist() for _ in range(n)]
            upper = np.triu(rng.choice(rng.choice(n, 2, replace=False), (n, n)))
            yield (upper + np.triu(upper, 1).T).tolist()


def splits_a_class(table):
    """Whether aG = Ga and the coset laws hold for some x but not for another x
    with the same set xG: a check of one x per set would misread the table."""
    every = range(len(table))
    if any({table[a][v] for v in every} != {table[v][a] for v in every} for a in every):
        return False
    failures = coset_law_failures_oracle(table)
    return any(x in failures and y not in failures and set(table[x]) == set(table[y]) for x in every for y in every)


@pytest.mark.parametrize("classes", [1, 2])
def test_normal_groupoid_matches_the_set_oracle_when_translate_sets_repeat(monkeypatch, classes):
    """Each distinct set xG is translated once, a block of 1 or 2 of them at a
    time, but the coset laws are compared for every x."""
    tables = list(repeated_translate_tables(np.random.default_rng(33)))
    verdicts = []
    for table in tables:
        n = len(table)
        monkeypatch.setattr(structure, "_CHUNK_CELLS", classes * n * n)
        got = is_normal_groupoid(from_table([str(i) for i in range(n)], table))
        assert got == is_normal_groupoid_oracle(table), table
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)
    assert sum(map(splits_a_class, tables)) >= 5


# -- per-subset checks ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_image_tables(), st.data())
def test_subset_classification_matches_the_set_oracle(table, data):
    n = len(table)
    idx = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    g = from_table([str(i) for i in range(n)], table)
    c = structure.classify_subset(g, idx)
    assert (c.closed, c.left_ideal, c.right_ideal, c.semigroup) == classify_oracle(table, idx)


@contextlib.contextmanager
def no_singleton_scans():
    """The associativity scan fails on a one-element domain, so a closed
    singleton must be decided without one."""
    scan = structure.first_failure

    def guarded(g, identity, domain):
        assert len(domain) > 1, "a singleton was scanned"
        return scan(g, identity, domain)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "first_failure", guarded)
        yield


def test_every_singleton_matches_the_set_oracle_without_a_scan():
    for n, t, u, table in affine_tables(9):
        g = build(Modular(n), Scalar(), t, u)
        with no_singleton_scans():
            got = [structure.classify_subset(g, [x]) for x in range(n)]
        for x, c in enumerate(got):
            assert (c.closed, c.left_ideal, c.right_ideal, c.semigroup) == classify_oracle(table, [x])


@settings(max_examples=80, deadline=None)
@given(small_image_tables())
def test_singletons_of_random_tables_match_the_set_oracle_without_a_scan(table):
    g = from_table([str(i) for i in range(len(table))], table)
    with no_singleton_scans():
        got = [structure.classify_subset(g, [x]) for x in range(len(table))]
    for x, c in enumerate(got):
        assert (c.closed, c.left_ideal, c.right_ideal, c.semigroup) == classify_oracle(table, [x])


def test_smarandache_witnesses_match_the_set_oracle_without_singleton_scans(monkeypatch):
    verdicts = []
    for n, t, u, _ in affine_tables(7):
        with no_singleton_scans():
            verdicts.append(structure.smarandache(build(Modular(n), Scalar(), t, u), IdentityId.COMMUTATIVE))
    monkeypatch.setattr(structure, "_is_semigroup", lambda g, idx: classify_oracle(g.index_table(), idx)[3])
    for (n, t, u, _), got in zip(affine_tables(7), verdicts):
        assert got == structure.smarandache(build(Modular(n), Scalar(), t, u), IdentityId.COMMUTATIVE), (n, t, u)


SMARANDACHE_LAWS = [
    None,
    IdentityId.COMMUTATIVE,
    IdentityId.ASSOCIATIVE,
    IdentityId.BOL,
    IdentityId.P_IDENTITY,
    IdentityId.IDEMPOTENT,
]


@pytest.mark.parametrize("carrier_of", [Modular, PureNeutrosophic], ids=["zn", "zni"])
@pytest.mark.parametrize("n", range(8, 13))
def test_smarandache_on_the_closures_equals_the_power_set_walk(monkeypatch, n, carrier_of):
    """A least witness is generated by one of its nonzero elements, a least
    law-bearing one by two of its elements, so the generated closures give
    the power set's verdict: at a budget one below n*2^n, where the power set
    is refused and the closures fit, every pair and law agrees with the
    default budget's verdict."""
    carrier = carrier_of(n)
    groupoids = [build(carrier, Scalar(), t, u) for t in range(n) for u in range(n) if t or u]
    want = [[smarandache(g, law) for law in SMARANDACHE_LAWS] for g in groupoids]
    monkeypatch.setenv("GGL_BUDGET", str((n << n) - 1))
    assert enumerate_subgroupoids(groupoids[0]).strategy == "generated-closure"
    for g, verdicts in zip(groupoids, want):
        assert [smarandache(g, law) for law in SMARANDACHE_LAWS] == verdicts, (carrier.token(), g.spec.t, g.spec.u)


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
    """One closed sweep on the power set, whose masks the ideals are read off
    once, with no sweep of their own; one closure pass past it."""
    closed = _count_calls(monkeypatch, "_closed_flags")
    ideals = _count_calls(monkeypatch, "_absorbing_rows")
    closures = _count_calls(monkeypatch, "_generated_closures")
    g = build(Modular(n), Scalar(), t, u)
    analyze(g)
    analyze(g)
    if n <= 20:
        assert (len(closed), len(ideals), len(closures)) == (1, 1, 0)
    else:
        assert (len(closed), len(ideals), len(closures)) == (0, 0, 1)


ANALYZE_CASES = [(8, 2, 6), (12, 2, 6), (16, 0, 1)]


@pytest.mark.parametrize("route", ["power-set", "generated-closure"])
@pytest.mark.parametrize("n,t,u", ANALYZE_CASES, ids=[f"zn:{n}-{t},{u}" for n, t, u in ANALYZE_CASES])
def test_analyze_agrees_with_the_standalone_answers_on_both_routes(monkeypatch, n, t, u, route):
    if route == "generated-closure":  # the closures' estimate is below n*2^n from n = 8 up
        monkeypatch.setenv("GGL_BUDGET", str(n * (n - 1) // 2 * n * n))
    g = build(Modular(n), Scalar(), t, u)
    table = g.index_table()
    rep = analyze(g)
    subs = enumerate_subgroupoids(g)
    assert rep.order == n
    assert rep.subgroupoids == subs and subs.strategy == route
    assert rep.complete == subs.complete == (route == "power-set")
    normal = tuple(h for h in subs.subsets if h.size >= 2 and subset_normal_oracle(table, h.indices))
    assert rep.normal == normal
    assert rep.simple == is_simple(g)
    assert rep.normal_groupoid == is_normal_groupoid_oracle(table)
    semigroups = (h for h in subs.subsets if h.indices != (0,) and classify_oracle(table, h.indices)[3])
    s_witness = next(semigroups, None)
    assert rep.smarandache_verdict.s_witness == s_witness
    assert rep.smarandache_verdict.status == ("s_groupoid" if s_witness else "not_smarandache")
    assert rep.smarandache_verdict == smarandache(g)
    if subs.complete:
        assert rep.ideals == enumerate_ideals(g)
        assert list(rep.normal) == find_normal_subgroupoids(g)
    else:
        assert rep.ideals is None


@pytest.mark.parametrize("n,t,u", [(12, 5, 7), (16, 0, 1), (53, 2, 5)])
def test_analyze_checks_each_subset_for_normality_once(monkeypatch, n, t, u):
    rows = []
    real = structure._normal_flags

    def counted(tab, members):
        rows.append(len(members))
        return real(tab, members)

    monkeypatch.setattr(structure, "_normal_flags", counted)
    rep = analyze(build(Modular(n), Scalar(), t, u))
    assert sum(rows) == sum(h.size >= 2 for h in rep.subgroupoids.subsets)


def test_the_normal_search_builds_a_handle_only_for_a_normal_subset(monkeypatch):
    built = []
    real = structure.MaskedSubsets._handle

    def counted(self, mask):
        built.append(mask)
        return real(self, mask)

    monkeypatch.setattr(structure.MaskedSubsets, "_handle", counted)
    normal = find_normal_subgroupoids(build(Modular(8), Scalar(), 2, 6))
    assert normal and built == [sum(1 << i for i in h.indices) for h in normal]


# -- lazy results against eager handles ---------------------------------------------------


def handle_from_mask(g, mask):
    """One SubsetHandle per mask, built eagerly: the oracle for MaskedSubsets."""
    labels = g.labels()
    idx = tuple(i for i in range(len(labels)) if mask >> i & 1)
    return SubsetHandle(indices=idx, labels=tuple(labels[i] for i in idx))


def eager_results(g, table):
    """(subgroupoids, ideals) as tuples of handles, from the recurrence oracles."""
    n = len(table)
    handles = lambda flags: tuple(handle_from_mask(g, m) for m in sorted_masks_oracle(flags, n))  # noqa: E731
    left, right = (handles(absorb_flags_oracle(table, n, side)) for side in ("left", "right"))
    subs = EnumerationResult(handles(closed_flags_oracle(table, n)), "power-set", True)
    right_set = set(right)
    two_sided = tuple(h for h in left if h in right_set)
    return subs, IdealSets(left, right, two_sided)


def assert_reads_like(got, want, n):
    """Every way of reading a lazy sequence agrees with the tuple of handles."""
    assert isinstance(got, structure.MaskedSubsets)
    masks = row_masks(got.rows)
    assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))
    assert got.rows.shape == (len(want), (n + 7) // 8)
    assert got.sizes.tolist() == [h.size for h in want]
    members = got.members()
    assert members.dtype == bool and members.shape == (len(want), n)
    assert [tuple(np.flatnonzero(row).tolist()) for row in members] == [h.indices for h in want]
    assert [(h.indices, h.labels) for h in got] == [(h.indices, h.labels) for h in want]
    assert (len(got), bool(got)) == (len(want), bool(want))
    for i in {0, 1, len(want) // 2, -1, -2, -len(want)}:
        if -len(want) <= i < len(want):
            assert (got[i].indices, got[i].labels) == (want[i].indices, want[i].labels)
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[i]
    for sl in (slice(None, None, -3), slice(2, 5), slice(-4, None)):
        assert got[sl] == want[sl] and isinstance(got[sl], tuple)
    assert got == want and want == got and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert [h.to_json() for h in got] == [h.to_json() for h in want]
    assert got.to_json() == [h.to_json() for h in want]


def assert_results_match(g, table):
    n = len(table)
    want_subs, want_ideals = eager_results(g, table)
    subs, ideals = enumerate_subgroupoids(g), enumerate_ideals(g)
    assert_reads_like(subs.subsets, want_subs.subsets, n)
    for side in ("left", "right", "two_sided"):
        assert_reads_like(getattr(ideals, side), getattr(want_ideals, side), n)
    # the closure route's list, the same type over the generated closures
    closures = structure.MaskedSubsets(g, structure._generated_closures(np.asarray(table)))
    labels = g.labels()
    want = tuple(SubsetHandle(idx, tuple(labels[i] for i in idx)) for idx in frontier_closures_oracle(table))
    assert_reads_like(closures, want, n)
    for got, want in ((subs, want_subs), (ideals, want_ideals)):
        assert got == want and hash(got) == hash(want)
    # the eager results hold tuples of handles, so their JSON is read off the handles
    lists = lambda handles: [h.to_json() for h in handles]  # noqa: E731
    assert subs.to_json() == {"strategy": "power-set", "complete": True, "subsets": lists(want_subs.subsets)}
    assert ideals.to_json() == {side: lists(getattr(want_ideals, side)) for side in ("left", "right", "two_sided")}


@settings(max_examples=40, deadline=None)
@given(small_image_tables(max_order=10))
def test_lazy_results_read_like_eager_handles_on_random_tables(table):
    assert_results_match(from_table([f"e{i}" for i in range(len(table))], table), table)


@pytest.mark.parametrize("carrier", [Modular(6), PureNeutrosophic(5), IntervalOf(Modular(4))], ids=str)
def test_lazy_results_read_like_eager_handles_on_affine_families(carrier):
    n = carrier.n
    for t, u in list(itertools.product(range(n), repeat=2))[1:]:
        ind = carrier.has_indeterminate
        g = build(carrier, Scalar(), t, u, t_indeterminate=ind, u_indeterminate=ind)
        assert_results_match(g, g.index_table())


def test_results_of_different_groupoids_compare_by_indices():
    # handles compare by indices alone, so equal masks are equal results
    a, b = build(Modular(4), Scalar(), 2, 2), build(PureNeutrosophic(4), Scalar(), 2, 2)
    assert a.labels() != b.labels()
    assert enumerate_ideals(a) == enumerate_ideals(b)
    assert hash(enumerate_ideals(a)) == hash(enumerate_ideals(b))
    assert enumerate_ideals(a) != enumerate_ideals(build(Modular(4), Scalar(), 1, 2))
    assert enumerate_ideals(a).left != list(enumerate_ideals(a).left)


def test_masks_are_read_only(monkeypatch):
    g = build(Modular(9), Scalar(), 3, 3)
    rows = [enumerate_ideals(g).left.rows, enumerate_subgroupoids(g).subsets.rows]
    monkeypatch.setenv("GGL_BUDGET", str(9 * 8 // 2 * 9 * 9))  # the closure route
    rows.append(enumerate_subgroupoids(g).subsets.rows)
    for r in rows:
        assert len(r)
        with pytest.raises(ValueError):
            r[0, 0] = 0


def test_label_lists_are_read_a_block_of_rows_at_a_time(monkeypatch):
    g = build(Modular(12), Scalar(), 0, 1)  # x*y = y: every subset is closed
    subs = enumerate_subgroupoids(g).subsets
    want = [h.to_json() for h in subs]
    assert len(want) == (1 << 12) - 2
    for cells in (1, 12 * 5, 1 << 17):
        monkeypatch.setattr(structure, "_CHUNK_CELLS", cells)
        assert subs.to_json() == want


# -- T7 on masks against the per-pair loop --------------------------------------------------


def t7_oracle(p, enumerate_ideals):
    """T7 with two builds per pair and the ideals compared as index sets:
    (instances, failures)."""
    run = theorems._Run()

    def check(gl, gr, desc):
        left = {h.indices for h in enumerate_ideals(gl).left}
        right = {h.indices for h in enumerate_ideals(gr).right}
        run.check(left == right, desc)

    for family, key in (("zn", "zn_n"), ("zni", "zni_n")):
        lo, hi = p[key]
        for n in range(lo, hi + 1):
            for carrier in theorems._carriers_for(n, (family,)):
                for t, u in theorems._nonzero_pairs(n):
                    desc = f"{theorems._coeff_desc(carrier, t, u)}: left ideals differ from the (u,t) right ideals"
                    check(theorems._scalar(carrier, t, u), theorems._scalar(carrier, u, t), desc)
    carrier = MixedNeutrosophic(p["nzn_n"])
    values = [(0, 1), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)]
    for v, w in itertools.product(values, repeat=2):
        if v != w:
            desc = f"{carrier.token()} ({carrier.format_value(v)},{carrier.format_value(w)}): ideal duality fails"
            check(build(carrier, Scalar(), v, w), build(carrier, Scalar(), w, v), desc)
    return run.instances, tuple(run.failures)


T7_PARAMS = {"zn_n": (3, 6), "zni_n": (3, 4), "nzn_n": 3}


def test_t7_reports_a_pair_whose_table_does_not_transpose(monkeypatch):
    """The row 0*y of zn:5 (2,4) moved on by one wherever a sweep computes it:
    (2,4) no longer transposes its dual's rows, nor (4,2) the dual rows that
    (2,4) gives it, so exactly those two fail."""
    real = theorems.sweep_products

    def shifted(carrier, shape, ts, us, cells):
        for block, product in real(carrier, shape, ts, us, cells):
            hit = [p for p, pair in enumerate(zip(ts[block], us[block])) if (carrier.token(), *pair) == ("zn:5", 2, 4)]

            def moved(X, Y, product=product, hit=hit):
                out = product(X, Y)
                out[hit, 0] += 1
                return out

            yield block, moved

    monkeypatch.setattr(theorems, "sweep_products", shifted)
    outcome = theorems.verify_theorem("T7", T7_PARAMS)
    assert outcome.instances == t7_oracle(T7_PARAMS, enumerate_ideals)[0]
    assert outcome.failures == (
        "zn:5 (2,4): the table is not the transpose of the (u,t) table",
        "zn:5 (4,2): the table is not the transpose of the (u,t) table",
    )


@pytest.mark.parametrize("cells", [None, 1], ids=lambda c: f"cells={c}")
def test_t7_matches_the_per_pair_loop_across_blocks_of_a_sweep(monkeypatch, cells):
    """Row blocks of the default size, which hold a whole sweep, and of one
    pair, so that each pair meets its dual's rows in a block of the dual
    sweep: T7 agrees with the ideals compared pair by pair."""
    params = {"zn_n": (3, 14), "zni_n": (3, 5), "nzn_n": 3}
    want = t7_oracle(params, enumerate_ideals)
    assert not want[1]
    if cells is not None:
        monkeypatch.setattr(groupoid, "_CHUNK_CELLS", cells)
    outcome = theorems.verify_theorem("T7", params)
    assert (outcome.instances, outcome.failures) == want


@pytest.mark.parametrize("cells", [None, 1, 18], ids=lambda c: f"cells={c}")
def test_t7_builds_no_groupoid_when_every_pair_transposes(monkeypatch, cells):
    """Row blocks of the default size, of one pair, and of three order-3
    pairs: every pair transposes, and T7 builds no groupoid and compiles no
    table."""
    if cells is not None:
        monkeypatch.setattr(groupoid, "_CHUNK_CELLS", cells)

    def refuse(*args, **kwargs):
        raise AssertionError("T7 built a groupoid or compiled a table")

    monkeypatch.setattr(theorems, "build", refuse)
    monkeypatch.setattr(groupoid, "compile_tables", refuse)
    outcome = theorems.verify_theorem("T7", T7_PARAMS)
    assert outcome.passed and outcome.instances == 4 + 9 + 16 + 25 + 4 + 9 + 30


# -- T17 on stacked flags against the per-groupoid loop ------------------------------------


def t17_oracle(moduli, make=theorems._scalar):
    """T17 with one subgroupoid and one ideal enumeration per groupoid,
    ``make(carrier, t, u)``: (instances, failures)."""
    run = theorems._Run()
    for n in moduli:
        carrier = theorems._carriers_for(n, ("o(zni)",))[0]
        for t, u in theorems._nonzero_pairs(n):
            g = make(carrier, t, u)
            big = int((enumerate_subgroupoids(g).subsets.sizes >= 2).sum())
            ideals = enumerate_ideals(g)
            run.check(
                not big and not ideals.left and not ideals.right,
                f"{theorems._coeff_desc(carrier, t, u)}: found {big} closed subsets of size>=2, "
                f"{len(ideals.left)} left / {len(ideals.right)} right ideals",
            )
    return run.instances, tuple(run.failures)


T17_MODULI = [3, 5, 7, 11]


def test_t17_reports_a_broken_member_where_the_per_groupoid_loop_does(monkeypatch):
    """One fault set in a member's table, by (carrier, t, u): {0, 1} closed,
    {0} absorbing on the left (0*y = 0) or on the right (x*0 = 0). T17 reads
    the broken tables off its ``sweep_products`` blocks, and the loop reads
    ``from_table`` groupoids of the same tables."""
    broken = {("o(zni:3)", 1, 2): "closed", ("o(zni:7)", 3, 5): "left", ("o(zni:11)", 10, 10): "right"}

    def break_table(member, tab):
        kind = broken.get(member)
        if kind == "closed":
            tab[:2, :2] = [[0, 1], [1, 0]]
        elif kind == "left":
            tab[0] = 0
        elif kind == "right":
            tab[:, 0] = 0
        return tab

    def make(carrier, t, u):
        g = theorems._scalar(carrier, t, u)
        return from_table(g.labels(), break_table((carrier.token(), t, u), g.table_array().copy()).tolist())

    real = theorems.sweep_products

    def sweep(carrier, shape, ts, us, cells):
        for block, product in real(carrier, shape, ts, us, cells):

            def tables(X, Y, product=product, block=block):
                tabs = np.array(product(X, Y))
                for tab, t, u in zip(tabs, ts[block], us[block]):
                    break_table((carrier.token(), t, u), tab)
                return tabs

            yield block, tables

    monkeypatch.setattr(theorems, "sweep_products", sweep)
    outcome = theorems.verify_theorem("T17", {"moduli": T17_MODULI})
    assert (outcome.instances, outcome.failures) == t17_oracle(T17_MODULI, make)
    assert outcome.failures == (
        "o(zni:3) (1I,2I): found 1 closed subsets of size>=2, 0 left / 0 right ideals",
        "o(zni:7) (3I,5I): found 0 closed subsets of size>=2, 1 left / 0 right ideals",
        "o(zni:11) (10I,10I): found 0 closed subsets of size>=2, 0 left / 1 right ideals",
    )


@pytest.mark.parametrize("family", ["zn", "zni", "o(zn)"])
def test_t17_counts_a_failing_members_subsets_and_ideals_as_the_per_groupoid_loop_does(monkeypatch, family):
    """Over these carriers many members have closed subsets and ideals of two
    or more elements, so each failure's counts are read off its closed flags."""
    real = theorems._carriers_for
    monkeypatch.setattr(theorems, "_carriers_for", lambda n, which: real(n, (family,)))
    moduli = list(range(3, 9))
    outcome = theorems.verify_theorem("T17", {"moduli": moduli})
    assert (outcome.instances, outcome.failures) == t17_oracle(moduli)
    assert len(outcome.failures) == 83


@pytest.fixture
def swept(monkeypatch):
    """The carrier order of each ``sweep_products`` call T17 makes."""
    calls = []
    real = theorems.sweep_products
    monkeypatch.setattr(
        theorems, "sweep_products", lambda carrier, *rest: calls.append(carrier.size()) or real(carrier, *rest)
    )
    return calls


def test_t17_compiles_each_sweep_once_and_builds_no_handle(monkeypatch, swept):
    def refuse(*args, **kwargs):
        raise AssertionError("T17 built a groupoid or a handle")

    monkeypatch.setattr(theorems, "build", refuse)
    monkeypatch.setattr(structure.MaskedSubsets, "_handle", refuse)
    outcome = theorems.verify_theorem("T17", {"moduli": T17_MODULI})
    assert outcome.passed and outcome.instances == 4 + 16 + 36 + 100
    assert swept == T17_MODULI


@pytest.mark.parametrize("moduli", [[3, 5, 7], T17_MODULI], ids=["closures-past-the-budget", "closures-within-it"])
def test_t17_refuses_just_under_a_sweeps_power_set_budget_before_it_compiles(monkeypatch, swept, moduli):
    """At a budget one below the last sweep's n*2^n, T17 raises the ideal
    enumeration's power-set refusal of that sweep's members before the sweep's
    products compile, whether or not the generated closures would fit."""
    n = moduli[-1]
    monkeypatch.setenv("GGL_BUDGET", str((n << n) - 1))
    with pytest.raises(groupoid.BudgetExceeded) as want:
        enumerate_ideals(theorems._scalar(theorems._carriers_for(n, ("o(zni)",))[0], 1, 2))
    with pytest.raises(groupoid.BudgetExceeded) as got:
        theorems.verify_theorem("T17", {"moduli": moduli})
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("ideal enumeration: power-set work cap exceeded")
    assert swept == moduli[:-1]


# -- T10 and T16 against the per-subset classification ----------------------------------


def pairs_where_claims_fail(n):
    """Pairs where T16's claim fails (a zero parameter), where T10's does
    (t + u ≢ 1, equal pairs among them), and where both hold."""
    return list(dict.fromkeys([(0, 1), (1, 0), (2, 2), (1, n - 1), (2, n - 1), (n - 1, 2)]))


def singleton_oracle(moduli, families, pairs_of):
    """T10's and T16's failures, one ``classify_subset`` per singleton."""
    t10, t16 = [], []
    for n in moduli:
        for carrier in theorems._carriers_for(n, families):
            for t, u in pairs_of(n):
                g = theorems._scalar(carrier, t, u)
                desc = theorems._coeff_desc(carrier, t, u)
                bad = [x for x in range(n) if not structure.classify_subset(g, [x]).semigroup]
                if bad:
                    t10.append(f"{desc}: singletons {bad} are not semigroups")
                zero = structure.classify_subset(g, [0])
                if zero.left_ideal or zero.right_ideal:
                    t16.append(f"{desc}: the zero singleton absorbs on some side")
    return tuple(t10), tuple(t16)


def test_t10_and_t16_fail_where_the_per_subset_classification_does(monkeypatch):
    families = ("zn", "zni")
    real_sweeps = theorems._sweeps
    monkeypatch.setattr(
        theorems, "_sweeps", lambda ns, _, __: real_sweeps(ns, families, pairs_where_claims_fail)
    )
    params = {"n": (3, 24)}
    t10, t16 = theorems.verify_theorem("T10", params), theorems.verify_theorem("T16", params)
    want_t10, want_t16 = singleton_oracle(range(3, 25), families, pairs_where_claims_fail)
    assert want_t10 and want_t16
    pairs = sum(len(pairs_where_claims_fail(n)) for n in range(3, 25)) * len(families)
    # T10 also spot-checks the Smarandache witness of the first pair of two moduli
    assert (t10.instances, t10.failures) == (pairs + 2, want_t10)
    assert (t16.instances, t16.failures) == (pairs, want_t16)


def test_t10_and_t16_classify_no_subset_when_they_pass(monkeypatch):
    calls = []
    real = theorems.classify_subset
    monkeypatch.setattr(theorems, "classify_subset", lambda *a: calls.append(a) or real(*a))
    assert theorems.verify_theorem("T10").passed and theorems.verify_theorem("T16").passed
    assert calls == []
