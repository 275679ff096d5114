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
import dataclasses
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
from groupoidlab import structure, theorems
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
    got = structure._proper_masks_sorted(np.array(flags)).tolist()
    assert got == sorted_masks_oracle(flags, n)


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
    assert structure._generated_closures(np.asarray(table)) == want
    n = len(table)
    if n >= 8:  # a budget of the closures' estimate is below n*2^n, so they are routed to
        monkeypatch.setenv("GGL_BUDGET", str(n * (n - 1) // 2 * n * n))
        enum = enumerate_subgroupoids(g)
        assert enum.strategy == "generated-closure"
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
    if subs.complete:
        assert rep.ideals == enumerate_ideals(g)
        assert list(rep.normal) == find_normal_subgroupoids(g)
        assert rep.smarandache_verdict == smarandache(g)
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
    assert normal and built == [h.mask() for h in normal]


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


def assert_reads_like(got, want):
    """Every way of reading a lazy sequence agrees with the tuple of handles."""
    assert isinstance(got, structure.MaskedSubsets)
    masks = got.masks.tolist()
    assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))
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


def assert_results_match(g, table):
    want_subs, want_ideals = eager_results(g, table)
    subs, ideals = enumerate_subgroupoids(g), enumerate_ideals(g)
    assert_reads_like(subs.subsets, want_subs.subsets)
    for side in ("left", "right", "two_sided"):
        assert_reads_like(getattr(ideals, side), getattr(want_ideals, side))
    for got, want in ((subs, want_subs), (ideals, want_ideals)):
        assert got == want and hash(got) == hash(want)
        assert got.to_json() == want.to_json()


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


def test_masks_are_read_only():
    masks = enumerate_ideals(build(Modular(6), Scalar(), 3, 3)).left.masks
    with pytest.raises(ValueError):
        masks[0] = 0


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


def test_t7_reports_a_broken_pair_where_the_per_pair_loop_does(monkeypatch):
    broken = {("zn:6", 1, 3), ("zni:4", 2, 2), ("nzn:3", (0, 1), (2, 1))}

    def enumerate_broken(g):
        ideals = enumerate_ideals(g)
        if (g.spec.carrier.token(), g.spec.t, g.spec.u) in broken:
            assert len(ideals.left)
            ideals = dataclasses.replace(ideals, left=structure.MaskedSubsets(g, ideals.left.masks[1:]))
        return ideals

    monkeypatch.setattr(theorems, "enumerate_ideals", enumerate_broken)
    outcome = theorems.verify_theorem("T7", T7_PARAMS)
    instances, failures = t7_oracle(T7_PARAMS, enumerate_broken)
    assert (outcome.instances, outcome.failures) == (instances, failures)
    assert failures == (
        "zn:6 (1,3): left ideals differ from the (u,t) right ideals",
        "zni:4 (2I,2I): left ideals differ from the (u,t) right ideals",
        "nzn:3 (I,2+I): ideal duality fails",
    )


def test_t7_builds_each_groupoid_once_and_no_handle(monkeypatch):
    def refuse(self, mask):
        raise AssertionError("T7 built a handle")

    monkeypatch.setattr(structure.MaskedSubsets, "_handle", refuse)
    built = []
    real_build = theorems.build
    monkeypatch.setattr(theorems, "build", lambda *a, **kw: built.append(a) or real_build(*a, **kw))
    outcome = theorems.verify_theorem("T7", T7_PARAMS)
    assert outcome.passed and outcome.instances == len(built) == 4 + 9 + 16 + 25 + 4 + 9 + 30
    assert len(set(built)) == len(built)


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
