"""Substructure analysis: subsets, ideals, normality, simplicity, morphisms."""

import numpy as np
import pytest

from groupoidlab import (
    BudgetExceeded,
    CarrierError,
    IdentityId,
    Matrix,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    Scalar,
    SimpleVerdict,
    SubsetHandle,
    analyze,
    are_conjugate,
    build,
    check_homomorphism,
    classify_subset,
    enumerate_ideals,
    enumerate_subgroupoids,
    find_normal_subgroupoids,
    from_table,
    identity_holds_on_subset,
    is_normal_groupoid,
    is_simple,
    smarandache,
)
from groupoidlab import groupoid, identities, structure
from groupoidlab.structure import subset_handle


# -- subset handles -------------------------------------------------------------


def test_subset_handle_accepts_indices_labels_and_elements():
    g = build(Modular(6), Scalar(), 2, 4)
    want = ((0, 2, 4), ("0", "2", "4"))
    for form in ([0, 2, 4], ["0", "2", "4"], [(0,), (2,), (4,)]):
        h = subset_handle(g, form)
        assert (h.indices, h.labels) == want


def test_subset_handle_rejections():
    g = build(Modular(6), Scalar(), 2, 4)
    with pytest.raises(CarrierError):
        subset_handle(g, [9])
    with pytest.raises(CarrierError):
        subset_handle(g, ["x"])
    with pytest.raises(CarrierError):
        classify_subset(g, [])


def test_subset_handle_accepts_numpy_indices():
    g = build(Modular(6), Scalar(), 2, 5)
    assert subset_handle(g, np.array([3, 0])).indices == (0, 3)
    assert classify_subset(g, np.array([0, 3])) == classify_subset(g, [0, 3])
    for identity in (IdentityId.ASSOCIATIVE, IdentityId.IDEMPOTENT):
        want = identity_holds_on_subset(g, [0, 1, 2], identity)
        assert identity_holds_on_subset(g, np.arange(3), identity) == want
    with pytest.raises(CarrierError, match="index out of range: 6"):
        subset_handle(g, np.array([0, 6]))


UNKNOWN_ELEMENT = {
    "element_index": lambda g: g.element_index((9,)),
    "subset_handle": lambda g: subset_handle(g, [(0,), (9,)]),
    "classify_subset": lambda g: classify_subset(g, [(9,)]),
    "are_conjugate": lambda g: are_conjugate(g, [(9,)], [0]),
    "check_homomorphism": lambda g: check_homomorphism(g, g, lambda e: (e[0] + 6,)),
}


@pytest.mark.parametrize("entry", UNKNOWN_ELEMENT.values(), ids=UNKNOWN_ELEMENT)
def test_an_element_outside_the_carrier_is_a_carrier_error(entry):
    with pytest.raises(CarrierError, match=r"not an element of this groupoid: \((9|6),\)"):
        entry(build(Modular(6), Scalar(), 2, 5))


def test_subset_handle_deduplicates_and_sorts():
    g = build(Modular(6), Scalar(), 2, 4)
    h = subset_handle(g, [4, 0, 2, 4, 0])
    assert h.indices == (0, 2, 4)


# -- classification anchors -------------------------------------------------------


def test_left_ideal_that_is_not_right():
    c = classify_subset(build(Modular(10), Scalar(), 1, 5), [0, 5])
    assert c.closed and c.subgroupoid and c.semigroup
    assert c.left_ideal and not c.right_ideal and not c.two_sided_ideal
    assert not c.normal_subgroupoid


def test_pure_indeterminate_subset_flag():
    g = build(PureNeutrosophic(4), Scalar(), 3, 2)
    c = classify_subset(g, ["0", "2I"])
    assert c.pure_neutrosophic
    assert c.left_ideal and not c.right_ideal
    # flag never set over a plain residue carrier
    assert not classify_subset(build(Modular(4), Scalar(), 3, 2), [0, 2]).pure_neutrosophic


def test_pseudo_flag_marks_indeterminate_free_closed_subsets():
    m = build(MixedNeutrosophic(4), Scalar(), (1, 0), (1, 0))
    c = classify_subset(m, ["0", "2"])
    assert c.pseudo and c.closed and not c.pure_neutrosophic
    # over a pure-I carrier only the zero singleton qualifies
    z = build(PureNeutrosophic(4), Scalar(), 3, 2)
    assert classify_subset(z, ["0"]).pseudo
    assert not classify_subset(z, ["0", "2I"]).pseudo


def test_closure_facts_order_6():
    g = build(Modular(6), Scalar(), 2, 4)
    assert classify_subset(g, [0, 2, 4]).closed
    assert classify_subset(g, [0, 3]).closed
    assert not classify_subset(g, [0, 2]).closed
    assert not classify_subset(g, [0, 4]).closed


def test_semigroup_subset_inside_nonassociative_groupoid():
    g = build(Modular(7), Scalar(), 3, 4)
    assert not classify_subset(g, list(range(7))).semigroup
    assert classify_subset(build(Modular(10), Scalar(), 1, 5), [0, 5]).semigroup


# -- normality ---------------------------------------------------------------------


def test_normal_subgroupoids_order_8():
    g = build(Modular(8), Scalar(), 2, 6)
    assert classify_subset(g, [0, 2, 4]).normal_subgroupoid
    assert classify_subset(g, [0, 2, 4, 6]).normal_subgroupoid
    assert not classify_subset(g, [0, 4]).normal_subgroupoid
    normals = find_normal_subgroupoids(g)
    found = {h.indices for h in normals}
    assert (0, 2, 4, 6) in found
    assert (0, 2, 4) in found
    assert (0, 4) not in found
    # canonical order: smallest size first, then lexicographic
    assert find_normal_subgroupoids(g)[0].indices == (0, 2, 4)


def test_normality_requires_translate_sets_to_match_everywhere():
    g = build(Modular(6), Scalar(), 2, 4)
    assert classify_subset(g, [0, 2, 4]).normal_subgroupoid
    assert not classify_subset(g, [0, 3]).normal_subgroupoid


def test_normal_subgroupoid_whose_translates_are_fixed():
    g = build(Modular(12), Scalar(), 4, 8)
    assert classify_subset(g, [0, 4, 8]).normal_subgroupoid


# -- simplicity ----------------------------------------------------------------------


@pytest.mark.parametrize("n,t,u", [(7, 3, 4), (5, 2, 3), (7, 2, 5), (13, 2, 11)])
def test_simple_instances_have_no_proper_subgroupoid_but_zero(n, t, u):
    g = build(Modular(n), Scalar(), t, u)
    r = enumerate_subgroupoids(g)
    assert r.strategy == "power-set" and r.complete
    assert [h.indices for h in r.subsets] == [(0,)]
    verdict = is_simple(g)
    assert verdict.simple and verdict.complete and verdict.witness is None


def test_non_simple_instance_reports_first_witness():
    v = is_simple(build(Modular(8), Scalar(), 2, 6))
    assert not v.simple and v.complete
    assert v.witness.indices == (0, 2, 4)


def test_no_normal_subgroupoids_in_order_4():
    g = build(Modular(4), Scalar(), 2, 3)
    assert find_normal_subgroupoids(g) == []
    assert is_simple(g).simple


# -- whole-groupoid normality ----------------------------------------------------------


def test_is_normal_groupoid_verdicts():
    assert is_normal_groupoid(build(PureNeutrosophic(5), Scalar(), 2, 2,
                                    t_indeterminate=True, u_indeterminate=True))
    assert not is_normal_groupoid(build(Modular(4), Scalar(), 2, 3))
    # one-element groupoid satisfies everything vacuously
    assert is_normal_groupoid(from_table(("e",), ((0,),)))


# -- enumeration strategies --------------------------------------------------------------


def test_power_set_strategy_is_complete_for_small_orders():
    r = enumerate_subgroupoids(build(Modular(5), Scalar(), 2, 3))
    assert r.strategy == "power-set" and r.complete


def test_generated_closure_strategy_for_large_orders():
    r = enumerate_subgroupoids(build(Modular(30), Scalar(), 7, 11))
    assert r.strategy == "generated-closure" and not r.complete
    table = build(Modular(30), Scalar(), 7, 11).index_table()
    for h in r.subsets:
        s = set(h.indices)
        assert all(table[a][b] in s for a in s for b in s)


def test_ideal_enumeration():
    sets = enumerate_ideals(build(Modular(10), Scalar(), 1, 5))
    left = {h.indices for h in sets.left}
    right = {h.indices for h in sets.right}
    assert (0, 5) in left and (0, 5) not in right
    two = {h.indices for h in sets.two_sided}
    assert two == left & right


# -- smarandache --------------------------------------------------------------------------


def test_smarandache_strong_holds():
    v = smarandache(build(Modular(10), Scalar(), 5, 6), IdentityId.MOUFANG)
    assert v.status == "strong_holds"
    # the semigroup witness replays
    g = build(Modular(10), Scalar(), 5, 6)
    assert classify_subset(g, v.s_witness).semigroup


def test_smarandache_identity_on_witness_only():
    g = build(Modular(4), Scalar(), 2, 3)
    v = smarandache(g, IdentityId.BOL)
    assert v.status == "holds_on_semigroup_witness"
    assert v.s_witness.labels == ("1",)
    assert v.identity_witness.labels == ("0", "2")
    assert identity_holds_on_subset(g, v.identity_witness, IdentityId.BOL)
    assert v.identity_verdict.fails
    assert v.identity_verdict.witness_labels == ("1", "0", "0")


def test_smarandache_s_groupoid_only():
    v = smarandache(build(Modular(4), Scalar(), 2, 3), IdentityId.COMMUTATIVE)
    assert v.status == "s_groupoid_only"
    assert v.s_witness.labels == ("1",)
    assert v.identity_witness is None


def test_smarandache_refuses_the_law_before_sweeping(monkeypatch, no_sweeps):
    """At 25 the sweep's 3*2^3 = 24 fits but the law's 27 evaluations do not."""
    monkeypatch.setenv("GGL_BUDGET", "25")
    with pytest.raises(BudgetExceeded, match=r"^exhaustive check cap exceeded: estimate 3\^3 = 27 evaluations"):
        smarandache(build(Modular(3), Scalar(), 1, 1), IdentityId.ASSOCIATIVE)


def test_not_smarandache():
    v = smarandache(build(Modular(7), Scalar(), 3, 4))
    assert v.status == "not_smarandache"
    assert v.s_witness is None


def test_identity_holds_on_subset_direct():
    g = build(Modular(4), Scalar(), 2, 3)
    assert identity_holds_on_subset(g, [0, 2], IdentityId.BOL)
    assert not identity_holds_on_subset(g, [0, 1, 2, 3], IdentityId.BOL)


def test_identity_holds_on_subset_refuses_a_handle_that_leaves_the_groupoid():
    g = build(Modular(4), Scalar(), 2, 3)
    handle = SubsetHandle(indices=(5, 3), labels=("x", "y"))
    with pytest.raises(IndexError, match=r"domain indices must lie in \[0, 4\)"):
        identity_holds_on_subset(g, handle, IdentityId.IDEMPOTENT)


def test_identity_holds_on_subset_refuses_a_handle_with_repeated_indices():
    g = build(Modular(4), Scalar(), 2, 3)
    assert identity_holds_on_subset(g, SubsetHandle(indices=(3,), labels=("3",)), IdentityId.ASSOCIATIVE)
    handle = SubsetHandle(indices=(3, 3, 3, 3), labels=("3",) * 4)
    with pytest.raises(IndexError, match="domain indices must be sorted and distinct"):
        identity_holds_on_subset(g, handle, IdentityId.ASSOCIATIVE)


def test_subset_entry_points_refuse_the_table_before_listing_the_groupoid(monkeypatch):
    g = build(Modular(1000), Matrix(1, 2), 3, 5)  # 10^6 elements, 10^12 table cells

    def refuse(self):
        raise AssertionError("the groupoid's elements were listed")

    monkeypatch.setattr(groupoid.Groupoid, "labels", refuse)
    monkeypatch.setattr(groupoid.Groupoid, "elements", refuse)
    table_reads = [
        lambda: classify_subset(g, [0, 1]),
        lambda: are_conjugate(g, [0], [1]),
        lambda: identity_holds_on_subset(g, [0, 1], IdentityId.ASSOCIATIVE),
        lambda: identity_holds_on_subset(g, ["[0,1]"], IdentityId.COMMUTATIVE),  # a label, not resolved
    ]
    for call in table_reads:
        with pytest.raises(BudgetExceeded, match=r"^Cayley table cap exceeded"):
            call()
    # a one-variable law squares the subset's elements and reads no table: 1*1 = 8 here
    assert identity_holds_on_subset(g, [0, 1], IdentityId.IDEMPOTENT) is False
    assert identity_holds_on_subset(g, [0], IdentityId.IDEMPOTENT) is True


# -- conjugacy ------------------------------------------------------------------------------


def test_conjugate_subgroupoids():
    g = build(Modular(12), Scalar(), 1, 3)
    v = are_conjugate(g, [0, 3, 6, 9], [2, 5, 8, 11])
    assert v.conjugate and v.witness_label == "0" and v.side == "left"
    assert v.disjoint


def test_non_conjugate_disjoint_subsets():
    g = build(Modular(6), Scalar(), 2, 2)
    v = are_conjugate(g, [1, 4], [2, 5])
    assert not v.conjugate and v.witness_label is None and v.disjoint


# -- homomorphisms ----------------------------------------------------------------------------


def test_embedding_into_mixed_carrier_is_a_homomorphism():
    g = build(PureNeutrosophic(7), Scalar(), 2, 5)
    h = build(MixedNeutrosophic(7), Scalar(), (2, 0), (5, 0))
    v = check_homomorphism(g, h, lambda e: ((0, e[0]),))
    assert v.valid and v.star_respected and v.indeterminate_preserved


@pytest.mark.parametrize("mapping", [[0.7] * 9, [0.0] * 9, [True] * 9, [False] * 9, [np.bool_(True)] * 9])
def test_an_index_mapping_of_floats_or_bools_is_refused(mapping):
    g = build(Modular(9), Scalar(), 2, 5)
    with pytest.raises(CarrierError, match="index mapping entries must be integer indices"):
        check_homomorphism(g, g, mapping)
    assert check_homomorphism(g, g, np.arange(9)).valid


def test_index_shift_is_not_a_homomorphism():
    g = build(PureNeutrosophic(7), Scalar(), 2, 5)
    h = build(MixedNeutrosophic(7), Scalar(), (2, 0), (5, 0))
    v = check_homomorphism(g, h, [(i + 1) % 7 for i in range(7)])
    assert not v.valid and not v.star_respected
    assert "star not respected" in v.failure


def test_homomorphism_reports_the_first_failing_cell_in_row_major_order():
    # phi(x*y) != phi(x)*phi(y) at (b, c) and (c, c) only
    g = from_table(("a", "b", "c"), ((1, 1, 2), (1, 1, 1), (0, 0, 2)))
    phi = [2, 2, 0]
    tab = g.table_array()
    bad = [(i, j) for i in range(3) for j in range(3) if phi[tab[i, j]] != tab[phi[i], phi[j]]]
    assert bad == [(1, 2), (2, 2)]
    v = check_homomorphism(g, g, phi)
    assert v.failure == "star not respected at (b, c)"
    assert not v.valid and not v.star_respected


def test_integer_slice_respects_star_but_drops_indeterminacy():
    g = build(PureNeutrosophic(4), Scalar(), 2, 3)
    h = build(MixedNeutrosophic(4), Scalar(), (2, 0), (3, 0))
    v = check_homomorphism(g, h, lambda e: ((e[0], 0),))
    assert not v.valid and v.star_respected and v.indeterminate_preserved is False
    assert "indeterminate element" in v.failure


def test_homomorphism_mapping_validation():
    g = build(PureNeutrosophic(7), Scalar(), 2, 5)
    h = build(MixedNeutrosophic(7), Scalar(), (2, 0), (5, 0))
    with pytest.raises(CarrierError):
        check_homomorphism(g, h, [0, 1])


# -- power-set work cap --------------------------------------------------------------------------


# The power set is taken wherever its n*2^n estimate fits the budget. Two
# entry points have no other route and are refused past it; the three below
# and smarandache read enumerate_subgroupoids and take the generated closures
# instead.
POWER_SET_ONLY_ENTRY_POINTS = {
    "enumerate_ideals": enumerate_ideals,
    "find_normal_subgroupoids": find_normal_subgroupoids,
}
ROUTED_ENTRY_POINTS = {
    "enumerate_subgroupoids": enumerate_subgroupoids,
    "is_simple": is_simple,
    "analyze": analyze,
}


@pytest.fixture
def no_sweeps(monkeypatch):
    """Fail the test if a power-set sweep starts: the cap or the route must prevent it."""

    def refuse(*args):
        raise AssertionError("power-set sweep started")

    monkeypatch.setattr(structure, "_closed_flags", refuse)
    monkeypatch.setattr(structure, "_absorb_flags", refuse)


@pytest.mark.parametrize("entry", POWER_SET_ONLY_ENTRY_POINTS.values(), ids=POWER_SET_ONLY_ENTRY_POINTS)
def test_power_set_work_cap_refuses_before_sweeping(monkeypatch, no_sweeps, entry):
    monkeypatch.setenv("GGL_BUDGET", "2047")
    g = build(Modular(8), Scalar(), 2, 6)
    with pytest.raises(BudgetExceeded, match=r"power-set work cap.* 8\*2\^8 = 2048, budget is 2047"):
        entry(g)


def test_power_set_work_cap_admits_work_equal_to_the_budget(monkeypatch):
    monkeypatch.setenv("GGL_BUDGET", "2048")
    g = build(Modular(8), Scalar(), 2, 6)
    subs = enumerate_subgroupoids(g)
    assert (subs.strategy, subs.complete) == ("power-set", True)
    rep = analyze(g)
    assert rep.complete and rep.subgroupoids == subs and rep.ideals == enumerate_ideals(g)
    assert is_simple(build(Modular(8), Scalar(), 3, 4)) == SimpleVerdict(True, None, complete=True)


def test_power_set_route_gives_way_to_the_closures_one_below_its_work(monkeypatch, no_sweeps):
    monkeypatch.setenv("GGL_BUDGET", "2047")  # the closures' 8*7/2 * 8^2 = 1792 reads fit
    g = build(Modular(8), Scalar(), 2, 6)
    subs = enumerate_subgroupoids(g)
    assert (subs.strategy, subs.complete) == ("generated-closure", False)
    rep = analyze(g)
    assert (rep.subgroupoids, rep.complete, rep.ideals) == (subs, False, None)
    assert is_simple(build(Modular(8), Scalar(), 3, 4)) == SimpleVerdict(True, None, complete=False)
    # a normal witness settles simplicity on either route
    assert is_simple(g) == SimpleVerdict(False, subset_handle(g, [0, 2, 4]), complete=True)


def test_power_set_work_cap_binds_at_order_23_at_the_default_budget(no_sweeps):
    g = build(Modular(23), Scalar(), 7, 11)  # 22*2^22 = 92274688 would fit
    for entry in POWER_SET_ONLY_ENTRY_POINTS.values():
        with pytest.raises(BudgetExceeded, match=r"23\*2\^23 = 192937984, budget is 100000000"):
            entry(g)
    for entry in ROUTED_ENTRY_POINTS.values():
        assert entry(g).complete is False


@pytest.mark.parametrize("budget,n,t,u", [("2047", 8, 2, 6), (None, 23, 7, 11)], ids=["zn:8-budget-2047", "zn:23"])
def test_smarandache_answers_on_the_closures_past_the_power_set(monkeypatch, no_sweeps, budget, n, t, u):
    """Past the power set's n*2^n, smarandache reads the generated closures,
    as analyze does, and sweeps no mask."""
    if budget is not None:
        monkeypatch.setenv("GGL_BUDGET", budget)
    g = build(Modular(n), Scalar(), t, u)
    assert smarandache(g) == analyze(g).smarandache_verdict


def test_smarandache_finds_a_witness_past_the_power_set_at_the_default_budget(no_sweeps):
    v = smarandache(build(Modular(23), Scalar(), 2, 22))
    assert (v.status, v.s_witness.labels) == ("s_groupoid", ("1",))
    v = smarandache(build(Modular(64), Scalar(), 3, 5), IdentityId.ASSOCIATIVE)
    assert v.status == "holds_on_semigroup_witness"
    assert v.s_witness.labels == v.identity_witness.labels == ("0", "32")


# -- normality work cap ---------------------------------------------------------------------------


@pytest.fixture
def no_tables(monkeypatch):
    """Fail the test if a Cayley table is compiled: the cap must fire first."""

    def refuse(*args):
        raise AssertionError("the table was compiled past a work cap")

    monkeypatch.setattr(groupoid, "compile_product", refuse)


def test_normality_work_cap_refuses_before_building_the_table(no_tables):
    g = build(Modular(10), Matrix(1, 3), 3, 7)  # order 1000: refused for its n^3 work, not its order
    with pytest.raises(BudgetExceeded) as err:
        is_normal_groupoid(g)
    assert str(err.value) == (
        "normal groupoid check: normality work cap exceeded: estimate 1000^3 = 1000000000, "
        "budget is 100000000 (set GGL_BUDGET to raise it)"
    )


def test_normality_work_cap_follows_the_environment(monkeypatch, no_tables):
    monkeypatch.setenv("GGL_BUDGET", "511")
    with pytest.raises(BudgetExceeded, match=r"normality work cap.* 8\^3 = 512, budget is 511"):
        is_normal_groupoid(build(Modular(8), Scalar(), 2, 6))


def test_analyze_refuses_the_normality_work_before_the_closure_work(monkeypatch, no_tables):
    def refuse(*args):
        raise AssertionError("generated closures started")

    monkeypatch.setattr(structure, "_generated_closures", refuse)
    monkeypatch.setenv("GGL_BUDGET", "26999")
    with pytest.raises(BudgetExceeded, match=r"normality work cap.* 30\^3 = 27000, budget is 26999"):
        analyze(build(Modular(30), Scalar(), 7, 11))


def test_normality_work_cap_admits_work_equal_to_the_budget(monkeypatch):
    monkeypatch.setenv("GGL_BUDGET", "512")
    assert not is_normal_groupoid(build(Modular(8), Scalar(), 2, 6))


# -- subset-scan work cap -------------------------------------------------------------------------


@pytest.fixture
def no_scans(monkeypatch):
    """Fail the test if an exhaustive scan starts: the budget must refuse it first."""

    def refuse(*args):
        raise AssertionError("a subset was scanned past the work budget")

    monkeypatch.setattr(identities, "_scan", refuse)


SUBSET_SCANS = {
    "identity_holds_on_subset": lambda g, s: identity_holds_on_subset(g, s, IdentityId.ASSOCIATIVE),
    "classify_subset": lambda g, s: classify_subset(g, s).semigroup,
}


@pytest.mark.parametrize("entry", SUBSET_SCANS.values(), ids=SUBSET_SCANS)
def test_subset_scans_refuse_past_the_budget(no_scans, entry):
    g = build(Modular(600), Scalar(), 1, 0)  # x*y = x: every subset is closed and associative
    with pytest.raises(BudgetExceeded) as err:
        entry(g, range(600))
    assert str(err.value) == (
        "exhaustive check cap exceeded: estimate 600^3 = 216000000 evaluations, "
        "budget is 100000000 (set GGL_BUDGET to raise it)"
    )


def test_classifying_a_large_subset_of_an_order_1024_table_is_refused(no_scans):
    with pytest.raises(BudgetExceeded, match=r"estimate 1023\^3 = 1070599167 evaluations"):
        classify_subset(build(Modular(1024), Scalar(), 1, 0), range(1023))


@pytest.mark.parametrize("entry", SUBSET_SCANS.values(), ids=SUBSET_SCANS)
def test_subset_scan_budget_follows_the_environment(monkeypatch, entry):
    g = build(Modular(12), Scalar(), 1, 0)
    monkeypatch.setenv("GGL_BUDGET", "999")
    with pytest.raises(BudgetExceeded, match=r"estimate 10\^3 = 1000 evaluations, budget is 999"):
        entry(g, range(10))
    monkeypatch.setenv("GGL_BUDGET", "1000")
    assert entry(g, range(10))


def test_subset_checks_answer_past_order_1024():
    g = build(Modular(1025), Scalar(), 2, 3)
    c = classify_subset(g, [0])
    assert c.closed and c.semigroup and not (c.left_ideal or c.right_ideal)
    v = are_conjugate(g, [2], [0])  # x*0 = 2x = 2 at x = 1; 0*x = 3x = 2 at x = 684
    assert (v.conjugate, v.witness_label, v.side, v.disjoint) == (True, "1", "left", True)
    assert check_homomorphism(g, g, range(1025)).valid


# -- generated-closure work cap -------------------------------------------------------------------


class ClosuresAdmitted(Exception):
    """Raised by the stubbed closure pass: the work cap let the route run."""


@pytest.fixture
def no_closures(monkeypatch):
    """Stop the closure pass before it does any work, admitted or not."""

    def stop(*args):
        raise ClosuresAdmitted

    monkeypatch.setattr(structure, "_generated_closures", stop)


CLOSURE_ENTRY_POINTS = {
    "enumerate_subgroupoids": enumerate_subgroupoids,
    "is_simple": is_simple,
    "analyze": analyze,
}


@pytest.mark.parametrize("entry", CLOSURE_ENTRY_POINTS.values(), ids=CLOSURE_ENTRY_POINTS)
def test_closure_work_cap_admits_order_119(no_closures, entry):
    with pytest.raises(ClosuresAdmitted):
        entry(build(Modular(119), Scalar(), 7, 11))


@pytest.mark.parametrize("entry", CLOSURE_ENTRY_POINTS.values(), ids=CLOSURE_ENTRY_POINTS)
def test_closure_work_cap_refuses_order_120_before_building_the_table(no_closures, no_tables, entry):
    with pytest.raises(BudgetExceeded) as err:
        entry(build(Modular(120), Scalar(), 7, 11))
    assert str(err.value) == (
        "generated-closure enumeration: generated-closure work cap exceeded: "
        "estimate 120*119/2 pairs * 120^2 reads = 102816000, "
        "budget is 100000000 (set GGL_BUDGET to raise it)"
    )


def test_closure_work_cap_follows_the_environment(monkeypatch, no_closures):
    g = build(Modular(30), Scalar(), 7, 11)  # 30*29/2 * 30^2 = 391500
    monkeypatch.setenv("GGL_BUDGET", "391499")
    with pytest.raises(BudgetExceeded, match=r"generated-closure work cap.* = 391500, budget is 391499"):
        enumerate_subgroupoids(g)
    monkeypatch.setenv("GGL_BUDGET", "391500")
    with pytest.raises(ClosuresAdmitted):
        enumerate_subgroupoids(g)


# -- assembled report ---------------------------------------------------------------------------


def test_analyze_small_groupoid_is_complete():
    rep = analyze(build(Modular(8), Scalar(), 2, 6))
    j = rep.to_json()
    assert j["order"] == 8
    assert j["complete"] is True
    assert ["0", "2", "4", "6"] in j["normal"]
    assert j["simple"]["simple"] is False
    assert j["simple"]["witness"] == ["0", "2", "4"]


def test_analyze_large_groupoid_marks_incomplete():
    rep = analyze(build(Modular(30), Scalar(), 7, 11))
    assert rep.complete is False
