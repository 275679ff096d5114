"""The check registry: counting oracles, sweep checks, suite runner."""

import re
from collections import Counter

import pytest

from groupoidlab import (
    BudgetExceeded,
    CarrierError,
    IntervalOf,
    Level,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    Scalar,
    build,
    classify_level,
    classify_subset,
    count_class,
    run_suite,
    ssc_family_check,
    verify_theorem,
)
from groupoidlab import groupoid, structure, theorems
from groupoidlab.identities import IdentityId
from groupoidlab.theorems import CHECKS, COUNT_CLASSES, SuiteConfig, outcomes_asserted

# -- counting oracles ------------------------------------------------------------

# frozen expected values, computed by hand from the construction rules
COUNT_ORACLES = [
    (PureNeutrosophic(3), "all_pairs", False, 2),
    (MixedNeutrosophic(3), "all_pairs", False, 56),
    (MixedNeutrosophic(4), "all_pairs", False, 210),
    (Modular(4), "level_one_pairs", False, 6),
    (PureNeutrosophic(6), "idempotent_pairs", True, 4),
    (PureNeutrosophic(9), "idempotent_pairs", True, 7),
]


@pytest.mark.parametrize("carrier,kind,equal,expected", COUNT_ORACLES)
def test_count_oracles(carrier, kind, equal, expected):
    assert count_class(carrier, kind, equal_pairs_included=equal) == expected


@pytest.mark.parametrize(
    "carrier,count,one,two",
    [(Modular(4), 6, 2, 4), (Modular(7), 22, 6, 16), (PureNeutrosophic(6), 18, 6, 12), (MixedNeutrosophic(3), 50, 0, 50)],
    ids=["zn:4", "zn:7", "zni:6", "nzn:3"],
)
def test_level_one_pairs_are_the_pairs_of_levels_one_and_two(carrier, count, one, two):
    """level_one_pairs counts every distinct nonzero pair of unit gcd;
    classify_level calls only those of two single-coefficient primes ONE."""
    nonzero = [v for v in carrier.enumerate_values() if not carrier.is_zero(v)]
    levels = Counter(classify_level(carrier, t, u) for t in nonzero for u in nonzero if t != u)
    assert (count_class(carrier, "level_one_pairs"), levels[Level.ONE], levels[Level.TWO]) == (count, one, two)
    assert count == one + two


def count_class_loop_oracle(carrier, kind, equal_pairs_included):
    """The count one value at a time, with the per-value carrier arithmetic."""
    nonzero = [v for v in carrier.enumerate_values() if not carrier.is_zero(v)]
    pairs = [(v, w) for v in nonzero for w in nonzero]
    if kind == "all_pairs":
        return sum(1 for v, w in pairs if v != w)
    if kind == "level_one_pairs":
        return sum(1 for v, w in pairs if v != w and carrier.coprimality_class(v, w).is_unit)
    return sum(
        1
        for v, w in pairs
        if (v != w or equal_pairs_included)
        and all(
            carrier.add(carrier.mul(v, x), carrier.mul(w, x)) == x
            for x in carrier.enumerate_values()
        )
    )


COUNT_CARRIERS = [
    c
    for n in range(2, 13)
    for c in (
        Modular(n),
        PureNeutrosophic(n),
        MixedNeutrosophic(n),
        IntervalOf(Modular(n)),
        IntervalOf(MixedNeutrosophic(n)),
    )
]


@pytest.mark.parametrize("carrier", COUNT_CARRIERS, ids=lambda c: c.token())
def test_count_class_matches_the_per_value_loop(carrier):
    for kind in COUNT_CLASSES:
        for equal in (False, True) if kind == "idempotent_pairs" else (False,):
            want = count_class_loop_oracle(carrier, kind, equal)
            assert count_class(carrier, kind, equal_pairs_included=equal) == want, (kind, equal)


@pytest.mark.parametrize("kind", ["all_pairs", "level_one_pairs"])
def test_only_idempotent_pairs_take_equal_pairs(kind):
    with pytest.raises(CarrierError) as err:
        count_class(Modular(7), kind, equal_pairs_included=True)
    assert str(err.value) == f"{kind} counts distinct pairs only, so equal pairs cannot be included"


@pytest.mark.parametrize("kind", ["level_one_pairs", "idempotent_pairs"])
@pytest.mark.parametrize("cells", [1, 100, 1000, None], ids=["one-row", "100-cells", "1000-cells", "default"])
@pytest.mark.parametrize(
    "carrier",
    [Modular(97), PureNeutrosophic(9), MixedNeutrosophic(6), IntervalOf(Modular(10)), IntervalOf(MixedNeutrosophic(5))],
    ids=lambda c: c.token(),
)
def test_pair_counts_in_blocks_match_the_per_pair_loop(monkeypatch, carrier, cells, kind):
    """The gcd blocks, and the groups of candidate pairs, hold one row, a few
    rows, a part of the rows or all of them."""
    if cells is not None:
        monkeypatch.setattr(theorems, "_CHUNK_CELLS", cells)
    want = count_class_loop_oracle(carrier, kind, False)
    assert count_class(carrier, kind) == want


@pytest.mark.parametrize(
    "family,want",
    [
        ("zn", Modular(6)),
        ("zni", PureNeutrosophic(6)),
        ("o(zn)", IntervalOf(Modular(6))),
        ("o(zni)", IntervalOf(PureNeutrosophic(6))),
    ],
)
def test_carriers_for_builds_each_family(family, want):
    assert theorems._carriers_for(6, [family]) == [want]


@pytest.mark.parametrize("family", ["nzn", "o(nzn)", "zq"])
def test_carriers_for_refuses_other_families(family):
    with pytest.raises(CarrierError) as err:
        theorems._carriers_for(6, ["zn", family])
    assert str(err.value) == f"unknown carrier family: {family!r}"


def test_level_one_count_of_zn_1000_is_the_coprime_pair_count():
    """Distinct coprime pairs of 1..999: sum of mu(d) * (999 // d)^2, less (1, 1)."""
    mu = [1] * 1000
    for p in range(2, 1000):
        if all(p % d for d in range(2, p)):
            for m in range(p, 1000, p):
                mu[m] = -mu[m]
            for m in range(p * p, 1000, p * p):
                mu[m] = 0
    want = sum(mu[d] * (999 // d) ** 2 for d in range(1, 1000)) - 1
    assert count_class(Modular(1000), "level_one_pairs") == want == 607_582


def test_all_pairs_formula_pure():
    # distinct nonzero ordered pairs: (n-1)(n-2)
    for n in range(3, 12):
        assert count_class(PureNeutrosophic(n), "all_pairs") == (n - 1) * (n - 2)


def test_all_pairs_formula_mixed():
    # the mixed carrier has n^2 elements, so (n^2-1)(n^2-2)
    for n in range(2, 6):
        m = n * n
        assert count_class(MixedNeutrosophic(n), "all_pairs") == (m - 1) * (m - 2)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail the test if a carrier lists its values."""

    def refuse(self):
        raise AssertionError("carrier values were enumerated")

    for cls in (Modular, MixedNeutrosophic):
        monkeypatch.setattr(cls, "enumerate_values", refuse)


def test_all_pairs_of_a_large_carrier_is_exact_without_enumerating(no_enumeration):
    q = 10**12  # nzn:10^6
    assert count_class(MixedNeutrosophic(10**6), "all_pairs") == (q - 1) * (q - 2)


@pytest.mark.parametrize(
    "kind,count,estimate,work",
    [
        ("level_one_pairs", "level-one pair count", "11*10 pairs", 110),
        ("idempotent_pairs", "idempotent pair count", "11^2 pairs", 121),
    ],
    ids=["level_one_pairs", "idempotent_pairs"],
)
def test_pair_counts_are_refused_before_enumerating(monkeypatch, no_enumeration, kind, count, estimate, work):
    monkeypatch.setenv("GGL_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded) as err:
        count_class(Modular(12), kind)
    assert str(err.value) == (
        f"{count}: pair-test work cap exceeded: estimate {estimate} = {work}, "
        f"budget is {work - 1} (set GGL_BUDGET to raise it)"
    )


@pytest.mark.parametrize("kind,work", [("level_one_pairs", 110), ("idempotent_pairs", 121)], ids=["level_one_pairs", "idempotent_pairs"])
def test_pair_counts_admit_work_equal_to_the_budget(monkeypatch, kind, work):
    monkeypatch.setenv("GGL_BUDGET", str(work))
    assert count_class(Modular(12), kind) == count_class_loop_oracle(Modular(12), kind, False)


def test_idempotent_count_parity_tracks_modulus():
    for n in range(3, 51):
        c = count_class(Modular(n), "idempotent_pairs", equal_pairs_included=True)
        assert c % 2 == n % 2, n


def test_equal_pairs_flag_changes_count_only_when_a_diagonal_solution_exists():
    # 2t = 1 mod 9 has the solution t = 5, so the flag adds exactly one pair
    assert count_class(PureNeutrosophic(9), "idempotent_pairs") == 6
    assert count_class(PureNeutrosophic(9), "idempotent_pairs", equal_pairs_included=True) == 7
    # 2t = 1 mod 6 has no solution, so the flag is a no-op
    assert count_class(PureNeutrosophic(6), "idempotent_pairs") == 4
    assert count_class(PureNeutrosophic(6), "idempotent_pairs", equal_pairs_included=True) == 4


def test_count_class_unknown_kind():
    with pytest.raises(CarrierError):
        count_class(Modular(5), "bogus")


def test_ssc_family_check_small_moduli():
    for n in range(3, 21):
        assert ssc_family_check(n), n


def test_ssc_family_check_past_the_shadow_scan_budget(monkeypatch):
    """The shadow zn:1000 is past the scan's budget (1000^3 evaluations);
    its lifted verdict takes 3·1000 evaluations and no table."""

    def refuse(*args):
        raise AssertionError("a lifted check compiled a table")

    monkeypatch.setattr(groupoid, "compile_tables", refuse)
    assert ssc_family_check(1000)


# -- individual checks --------------------------------------------------------------


def test_registry_has_expected_ids_and_tiers():
    assert list(CHECKS) == [f"T{i}" for i in range(1, 18)] + ["GOLD"]  # the report's order
    report_only = {cid for cid, c in CHECKS.items() if c.tier == "report_only"}
    assert report_only == {"T9", "T12", "T15"}


def test_unknown_check_id():
    with pytest.raises(CarrierError):
        verify_theorem("T99")


def test_a_parameter_the_check_does_not_declare_is_refused():
    with pytest.raises(CarrierError, match="^T8 takes no parameter 'n'$"):
        verify_theorem("T8", {"n": (3, 5)})


@pytest.mark.parametrize("span", [(9, 3), (1, 5), [3, 5], (3, 4, 5), (3.0, 5)], ids=["reversed", "below-2", "list", "triple", "float"])
def test_a_range_of_moduli_that_is_not_lo_hi_is_refused(span):
    with pytest.raises(CarrierError, match=r"^T1 n=.*: a range of moduli is \(lo, hi\) with 2 <= lo <= hi$"):
        verify_theorem("T1", {"n": span})


# verdicts flipped per identity, by a member's position in the sweep of its
# linear evaluation; the expected outcomes were recorded before T1, T2, T5 and
# T6 shared one runner, so they pin each check's scan order and failure text
FLIPPED = {
    IdentityId.IDEMPOTENT: {0},
    IdentityId.ASSOCIATIVE: {1},
    IdentityId.P_IDENTITY: {0, 3},
    IdentityId.LEFT_ALTERNATIVE: {1, 2},
    IdentityId.RIGHT_ALTERNATIVE: {2},
}
FLIPPED_OUTCOMES = {
    ("T1", "n", (3, 5)): (58, [
        f"{c}:{n} (1{i},1{i}): idempotent=True, congruence=False" for n in (3, 4, 5) for c, i in (("zn", ""), ("zni", "I"))
    ]),
    ("T2", "n", (3, 5)): (58, [
        f"{c}:{n} (1{i},2{i}): associative=True, congruence=False" for n in (3, 4, 5) for c, i in (("zn", ""), ("zni", "I"))
    ]),
    ("T3", "n", (3, 5)): (18, [
        f"{pair}: P-law fails on an equal pair"
        for pair in ("zn:3 (1,1)", "zni:3 (1I,1I)", "zn:4 (1,1)", "zni:4 (1I,1I)",
                     "zn:5 (1,1)", "zn:5 (4,4)", "zni:5 (1I,1I)", "zni:5 (4I,4I)")
    ]),
    ("T4", "p", (3, 5)): (8, [
        "zn:5 (4,4): alternative unexpectedly holds at prime modulus",
        "zni:5 (4I,4I): alternative unexpectedly holds at prime modulus",
    ]),
    ("T5", "n", (4, 6)): (16, [
        "zn:4 (3,3): alternative=True, congruence=False",
        "zni:4 (3I,3I): alternative=True, congruence=False",
        "zn:6 (3,3): alternative=False, congruence=True",
        "zni:6 (3I,3I): alternative=False, congruence=True",
    ]),
    ("T6", "n", (3, 5)): (36, [
        f"{c}:{n} {pair}: P&alternative=False, congruence=True"
        for n in (3, 4, 5)
        for c, pairs in (("zn", ("(1,0)", "(0,1)")), ("zni", ("(1I,0I)", "(0I,1I)")))
        for pair in pairs
    ]),
}


@pytest.mark.parametrize("check_id,key,span", sorted(FLIPPED_OUTCOMES), ids=lambda v: v if isinstance(v, str) else None)
def test_law_checks_report_the_members_whose_verdicts_break(monkeypatch, check_id, key, span):
    real = theorems._linear_mismatches

    def flipped(carrier, shape, ts, us, laws):
        for block, mism in real(carrier, shape, ts, us, laws):
            for law, m in zip(laws, mism):
                for p in FLIPPED[law] & set(range(len(ts))[block]):
                    m[p - block.start] = not m[p - block.start].any()
            yield block, mism

    monkeypatch.setattr(theorems, "_linear_mismatches", flipped)
    out = verify_theorem(check_id, {key: span})
    instances, failures = FLIPPED_OUTCOMES[check_id, key, span]
    assert (out.instances, list(out.failures)) == (instances, failures)


@pytest.fixture
def built(monkeypatch):
    """The arguments of every ``build`` call the checks make."""
    calls = []
    real = theorems.build
    monkeypatch.setattr(theorems, "build", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("check_id", ["T1", "T2", "T3", "T4", "T5", "T6", "T16"])
def test_law_checks_and_t16_build_no_groupoid_and_compile_no_table(monkeypatch, built, check_id):
    def refuse(groupoids):
        raise AssertionError("a check compiled tables")

    monkeypatch.setattr(groupoid, "compile_tables", refuse)
    out = verify_theorem(check_id)
    assert out.passed and out.instances > 0
    assert built == []


def test_t10_builds_groupoids_only_for_its_two_spot_checks(built):
    out = verify_theorem("T10")
    assert out.passed and out.instances > 0
    assert [(a[0].token(), a[2], a[3]) for a in built] == [("zn:6", 2, 5), ("zn:7", 2, 6)]


def test_asserted_check_passes_with_instances():
    out = verify_theorem("T8")
    assert out.tier == "asserted"
    assert out.status == "pass"
    assert out.passed
    assert out.instances == 3
    assert out.failures == ()


def test_range_override_shrinks_work():
    full = verify_theorem("T13")
    small = verify_theorem("T13", {"formula_n": (3, 5), "parity_n": (3, 5)})
    assert small.instances < full.instances
    assert small.passed


def test_report_only_check_reports_without_failing():
    out = verify_theorem("T9")
    assert out.tier == "report_only"
    assert out.status == "report"
    assert out.passed  # report tier records observations, never failures
    assert out.instances > 0
    assert all("agrees" in obs for obs in out.observations)


def test_report_only_principal_subgroupoid_always_found():
    out = verify_theorem("T9")
    assert all(obs["principal_normal"] for obs in out.observations)
    by_instance = {obs["instance"]: obs for obs in out.observations}
    eight = by_instance["zn:8 (2,6)"]
    assert eight["claimed_order"] == 4
    assert ("0", "2", "4", "6") in eight["subgroupoids_of_claimed_order"]
    assert eight["unique_of_claimed_order"]


def test_t7_refuses_a_sweep_past_the_row_budget_before_compiling_it(monkeypatch):
    """Under a budget of 1000, the rows of zn:3..6 fit, 4 cells a pair and
    element, and zn:7's 36 pairs do not: no sweep of order 7 starts, so none
    of its rows compiles."""
    monkeypatch.setenv("GGL_BUDGET", "1000")
    orders = []
    real = theorems.sweep_products
    recorded = lambda carrier, *a: orders.append(carrier.size()) or real(carrier, *a)  # noqa: E731
    monkeypatch.setattr(theorems, "sweep_products", recorded)
    with pytest.raises(
        BudgetExceeded, match=r"^ideal duality rows cap exceeded: estimate 36\*4\*7 = 1008 cells, budget is 1000 "
    ):
        verify_theorem("T7")
    assert orders == [3, 3, 4, 4, 5, 5, 6, 6]


def test_t9_reads_principal_normality_off_the_normal_list(monkeypatch):
    """One normality pass per instance: the principal subgroupoid is normal
    exactly when the normal subgroupoids list it, as classify_subset says."""
    calls = []
    monkeypatch.setattr(theorems, "classify_subset", lambda *a: calls.append(a))
    out = verify_theorem("T9", {"n": (4, 20)})
    assert calls == []
    assert out.instances > 0
    monkeypatch.undo()
    for obs in out.observations:
        n, t, u = map(int, re.fullmatch(r"zn:(\d+) \((\d+),(\d+)\)", obs["instance"]).groups())
        g = build(Modular(n), Scalar(), t, u)
        assert obs["principal_normal"] == classify_subset(g, range(0, n, t)).normal_subgroupoid, obs["instance"]


def test_t9_builds_no_handle(monkeypatch):
    """T9 compares and labels membership rows: the subsets it lists, past
    order 8 in rows of two bytes, are read with no handle built."""
    built = []
    real = structure.MaskedSubsets._handle
    monkeypatch.setattr(structure.MaskedSubsets, "_handle", lambda self, mask: built.append(mask) or real(self, mask))
    out = verify_theorem("T9", {"n": (4, 16)})
    listed = sum(
        len(obs["subgroupoids_of_claimed_order"]) + obs["principal_normal"] + len(obs["extra_normal_subgroupoids"])
        for obs in out.observations
    )
    assert out.instances > 0 and listed > 0 and built == []


# strong-law instances broken by (n, t, u, identity); the expected outcomes
# were recorded before T11 and T14 shared one strong-law check, so they pin
# each check's instance order and failure text
T11_ALL = [
    f"{c}:{n} ({t}{i},{u}{i}) {law}: got not_smarandache"
    for n, t, u in ((6, 3, 4), (6, 4, 3), (10, 5, 6), (10, 6, 5), (12, 4, 9), (12, 9, 4), (14, 7, 8), (14, 8, 7))
    for c, i in (("zn", ""), ("zni", "I"))
    for law in ("p-identity", "left-alternative", "right-alternative")
]
T14_ALL = [
    f"{c}:{n} ({t}{i},{u}{i}) {law}: got not_smarandache"
    for c, i in (("zn", ""), ("zni", "I"))
    for n, t, u, law in (
        (10, 5, 6, "moufang"), (12, 3, 4, "bol"), (6, 4, 3, "p-identity"),
        (14, 7, 8, "left-alternative"), (14, 7, 8, "right-alternative"),
    )
]
BROKEN_STRONG_OUTCOMES = [
    ("T11", {(6, 4, 3, "p-identity"), (14, 7, 8, "right-alternative")}, (48, [
        "zn:6 (4,3) p-identity: got s_groupoid_only",
        "zni:6 (4I,3I) p-identity: got s_groupoid_only",
        "zn:14 (7,8) right-alternative: got s_groupoid_only",
        "zni:14 (7I,8I) right-alternative: got s_groupoid_only",
    ])),
    ("T14", {(10, 5, 6, "moufang"), (6, 4, 3, "p-identity"), (14, 7, 8, "right-alternative")}, (60, [
        "zn:10 (5,6) moufang: got s_groupoid_only",
        "zn:6 (4,3) p-identity: got s_groupoid_only",
        "zn:14 (7,8) right-alternative: got s_groupoid_only",
        "zni:10 (5I,6I) moufang: got s_groupoid_only",
        "zni:6 (4I,3I) p-identity: got s_groupoid_only",
        "zni:14 (7I,8I) right-alternative: got s_groupoid_only",
    ])),
    ("T11", {(3, 2, 2, "p-identity"), (12, 3, 4, "bol")}, (48, [])),
    ("T11", "all", (48, T11_ALL)),
    ("T14", "all", (60, T14_ALL)),
]


@pytest.mark.parametrize("check_id,broken,outcome", BROKEN_STRONG_OUTCOMES)
def test_strong_law_checks_report_the_instances_that_break(monkeypatch, check_id, broken, outcome):
    real = theorems.smarandache

    def breaking(g, identity=None):
        verdict = real(g, identity)
        c = g.spec.carrier
        if broken == "all":
            return structure.SmarandacheVerdict(status="not_smarandache")
        if (c.n, c.residue(g.spec.t), c.residue(g.spec.u), identity.value) in broken:
            return structure.SmarandacheVerdict(status="s_groupoid_only", s_witness=verdict.s_witness)
        return verdict

    monkeypatch.setattr(theorems, "smarandache", breaking)
    out = verify_theorem(check_id)
    assert (out.instances, list(out.failures)) == outcome


def test_vacuity_guard_check_has_instances():
    out = verify_theorem("T14")
    assert out.passed and out.instances > 0


def test_check_outcome_json_shape():
    j = verify_theorem("T8").to_json()
    assert j["check"] == "T8"
    assert j["tier"] == "asserted"
    assert j["status"] == "pass"
    assert isinstance(j["instances"], int)
    assert "failures" not in j  # only present when nonempty


def test_gold_examples_pass():
    out = verify_theorem("GOLD")
    assert out.passed and out.instances > 0


# -- the full suite --------------------------------------------------------------------


def test_suite_subset_runs_only_requested_checks():
    rep = run_suite(SuiteConfig(checks=("T8", "T13")))
    assert [o.check_id for o in rep.outcomes] == ["T8", "T13"]
    assert rep.passed


def test_suite_passed_ignores_report_only_disagreements():
    rep = run_suite(SuiteConfig(checks=("T8", "T9")))
    t9 = rep.outcomes[1]
    assert any(obs.get("agrees") is False for obs in t9.observations)
    assert rep.passed  # only asserted outcomes count
    assert [o.check_id for o in outcomes_asserted(rep.outcomes)] == ["T8"]


def test_suite_report_json_is_deterministic_without_timing():
    cfg = SuiteConfig(checks=("T8", "T9", "T13"), seed=42)
    a = run_suite(cfg).to_json(include_timing=False)
    b = run_suite(cfg).to_json(include_timing=False)
    assert a == b
    assert "timings" not in a
    assert "timings" in run_suite(cfg).to_json()


def test_suite_param_overrides_flow_through():
    rep = run_suite(SuiteConfig(checks=("T13",), overrides={"T13": {"parity_n": (3, 6)}}))
    assert rep.outcomes[0].params["parity_n"] == (3, 6)
    assert rep.passed
