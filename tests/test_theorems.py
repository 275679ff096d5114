"""The check registry: counting oracles, sweep checks, suite runner."""

import pytest

from groupoidlab import (
    BudgetExceeded,
    CarrierError,
    IntervalOf,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    count_class,
    run_suite,
    ssc_family_check,
    verify_theorem,
)
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
        for equal in (False, True):
            want = count_class_loop_oracle(carrier, kind, equal)
            assert count_class(carrier, kind, equal_pairs_included=equal) == want, (kind, equal)


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


# -- individual checks --------------------------------------------------------------


def test_registry_has_expected_ids_and_tiers():
    assert set(CHECKS) == {f"T{i}" for i in range(1, 18)} | {"GOLD"}
    report_only = {cid for cid, c in CHECKS.items() if c.tier == "report_only"}
    assert report_only == {"T9", "T12", "T15"}


def test_unknown_check_id():
    with pytest.raises(CarrierError):
        verify_theorem("T99")


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


def test_tier_override_promotes_disagreements_to_failures():
    out = verify_theorem("T9", tier_override="asserted")
    assert out.tier == "asserted"
    assert not out.passed
    assert out.status == "fail"
    assert any("disagrees" in f for f in out.failures)


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
