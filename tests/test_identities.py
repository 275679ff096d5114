"""Identity checking: exhaustive engines, lifting, sampling, closed forms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupoidlab import (
    BudgetExceeded,
    CarrierError,
    CheckMode,
    IdentityId,
    Matrix,
    MixedNeutrosophic,
    Modular,
    Poly,
    ProductKind,
    PureNeutrosophic,
    Scalar,
    build,
    check_alternative,
    check_identity,
    closed_form,
    cross_validate,
    from_table,
)
from groupoidlab import groupoid, identities
from groupoidlab.identities import CLOSED_FORMS, applicable_closed_forms, first_failure


# -- reference verdicts --------------------------------------------------------


@pytest.mark.parametrize(
    "n,t,u,identity,status",
    [
        (10, 5, 6, IdentityId.MOUFANG, "holds"),
        (12, 3, 4, IdentityId.BOL, "holds"),
        (6, 4, 3, IdentityId.P_IDENTITY, "holds"),
        (8, 4, 5, IdentityId.IDEMPOTENT, "holds"),
        (4, 2, 3, IdentityId.BOL, "fails"),
        (7, 3, 4, IdentityId.ASSOCIATIVE, "fails"),
        (7, 3, 4, IdentityId.COMMUTATIVE, "fails"),
        (5, 3, 3, IdentityId.COMMUTATIVE, "holds"),
        (14, 7, 8, IdentityId.LEFT_ALTERNATIVE, "holds"),
        (14, 7, 8, IdentityId.RIGHT_ALTERNATIVE, "holds"),
    ],
)
def test_reference_verdicts(n, t, u, identity, status):
    g = build(Modular(n), Scalar(), t, u)
    v = check_identity(g, identity, CheckMode.EXHAUSTIVE)
    assert v.status == status
    assert v.method == "exhaustive"


def test_failure_carries_a_replayable_witness():
    g = build(Modular(4), Scalar(), 2, 3)
    v = check_identity(g, IdentityId.BOL, CheckMode.EXHAUSTIVE)
    assert v.fails
    assert v.witness_labels == ("1", "0", "0")
    x, y, z = ((1,), (0,), (0,))
    # bol: (x*(y*x))*z == x*(y*(x*z))
    lhs = g.star(g.star(x, g.star(y, x)), z)
    rhs = g.star(x, g.star(y, g.star(x, z)))
    assert lhs != rhs


# -- lifting --------------------------------------------------------------------


@pytest.mark.parametrize("identity", list(IdentityId))
def test_lifted_verdict_equals_scalar_verdict(identity):
    scalar = build(Modular(3), Scalar(), 1, 2)
    lifted = build(Modular(3), Matrix(2, 2), 1, 2)
    vs = check_identity(scalar, identity, CheckMode.EXHAUSTIVE)
    vl = check_identity(lifted, identity, CheckMode.LIFTED)
    assert vl.method == "lifted"
    assert vl.status == vs.status


def test_lifted_matches_exhaustive_on_small_matrix_groupoid():
    g = build(Modular(2), Matrix(2, 1), 1, 1)
    for identity in IdentityId:
        ve = check_identity(g, identity, CheckMode.EXHAUSTIVE)
        vl = check_identity(g, identity, CheckMode.LIFTED)
        assert ve.status == vl.status, identity


# -- sampling -------------------------------------------------------------------


def test_sampled_is_reproducible_for_a_fixed_seed():
    g = build(Modular(9), Scalar(), 2, 5)
    a = check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.SAMPLED, trials=500, seed=7)
    b = check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.SAMPLED, trials=500, seed=7)
    assert a.status == b.status == "fails"
    assert a.witness == b.witness
    assert a.trials == 500 and a.seed == 7


def test_sampled_cannot_certify_holding():
    g = build(Modular(10), Scalar(), 5, 6)
    v = check_identity(g, IdentityId.MOUFANG, CheckMode.SAMPLED, trials=200, seed=0)
    assert v.status == "sampled_no_counterexample"
    assert not v.holds and not v.fails


def test_sampled_check_never_lists_the_carrier(monkeypatch):
    # nzn:30000 has 9*10^8 values: listing them is the whole cost of the check
    # unless only the witness digits are turned back into values
    def refuse(self):
        raise AssertionError("enumerate_values called")

    monkeypatch.setattr(MixedNeutrosophic, "enumerate_values", refuse)
    g = build(MixedNeutrosophic(30000), Scalar(), (1, 2), (3, 0))
    v = check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.SAMPLED, trials=10, seed=0)
    assert v.fails and len(v.witness_labels) == 3
    x, y, z = v.witness
    assert g.star(g.star(x, y), z) != g.star(x, g.star(y, z))


@pytest.mark.parametrize("identity", list(IdentityId))
def test_a_domain_index_past_the_order_is_refused_wherever_it_stands(identity):
    g = build(Modular(4), Scalar(), 2, 3)
    with pytest.raises(IndexError, match=r"domain indices must lie in \[0, 4\)"):
        first_failure(g, identity, np.array([1, 5, 2]))


@pytest.mark.parametrize("domain", [[0, 0, 0, 0], [3, 2, 1, 0], [0, 2, 1], [1, 1]])
@pytest.mark.parametrize("identity", list(IdentityId))
def test_a_domain_with_repeats_or_out_of_order_is_refused(identity, domain):
    """Four indices of an order-4 groupoid read as the whole carrier, so on
    zn:4 (2,3) [0, 0, 0, 0] gave the associative witness (0, 0, 0) and
    [3, 2, 1, 0] gave (3, 3, 3), though 0*0 = 0 and 3*3 = 3."""
    g = build(Modular(4), Scalar(), 2, 3)
    with pytest.raises(IndexError, match="domain indices must be sorted and distinct"):
        first_failure(g, identity, np.array(domain))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, mode: check_identity(g, IdentityId.ASSOCIATIVE, mode),
        lambda g, mode: check_alternative(g, mode),
    ],
    ids=["check_identity", "check_alternative"],
)
@pytest.mark.parametrize("mode", ["sampled", "lifted", None])
def test_a_mode_that_is_not_a_check_mode_is_refused(call, mode):
    g = build(Modular(9), Scalar(), 2, 5)
    with pytest.raises(CarrierError, match="mode must be a CheckMode .*AUTO, EXHAUSTIVE, LIFTED, SAMPLED"):
        call(g, mode)


@pytest.mark.parametrize("trials", [0, -5])
def test_non_positive_trial_counts_are_refused(trials):
    g = build(Modular(9), Scalar(), 2, 5)
    calls = [
        lambda: check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.SAMPLED, trials=trials),
        lambda: check_identity(g, IdentityId.ASSOCIATIVE, trials=trials),
        lambda: check_alternative(g, CheckMode.SAMPLED, trials=trials),
        lambda: cross_validate(g, IdentityId.ASSOCIATIVE, trials=trials),
    ]
    for call in calls:
        with pytest.raises(CarrierError, match=f"at least one trial, got {trials}"):
            call()


@pytest.mark.parametrize(
    "name,value", [("trials", True), ("trials", 2.5), ("trials", "10"), ("seed", None), ("seed", False),
                   ("seed", 1.5), ("seed", "x")],
)
def test_a_trial_count_or_seed_that_is_not_an_integer_is_refused(name, value):
    """(trials, seed) reproduce a sample only when both are integers: seed=None
    drew a different witness on each run, trials=True was echoed as true and
    trials=2.5 failed inside numpy."""
    g = build(Modular(9), Scalar(), 2, 5)
    calls = [
        lambda: check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.SAMPLED, **{name: value}),
        lambda: check_alternative(g, CheckMode.SAMPLED, **{name: value}),
        lambda: cross_validate(g, IdentityId.ASSOCIATIVE, **{name: value}),
    ]
    for call in calls:
        with pytest.raises(CarrierError, match=re.escape(f"sampling needs an integer {name}, got {value!r}")):
            call()


def refuse_draws(self, count):
    """Stands in for ``_Draws.take``, so a refusal must come before the first draw."""
    raise AssertionError("a draw was taken past the budget")


@pytest.mark.parametrize(
    "g,identity,estimate",
    [
        (build(Modular(9), Scalar(), 1, 1), IdentityId.COMMUTATIVE, "1000*2 = 2000"),
        (build(Modular(9), Matrix(1, 3), 2, 5), IdentityId.ASSOCIATIVE, "1000*9 = 9000"),
        (from_table(["a", "b"], [[0, 1], [1, 0]]), IdentityId.BOL, "1000*3 = 3000"),
    ],
    ids=["scalar", "matrix", "table"],
)
def test_sampled_draws_are_refused_past_the_budget_before_the_first(monkeypatch, g, identity, estimate):
    """trials·vars·entries draws; the estimate equal to the budget is admitted."""
    work = int(estimate.split(" = ")[1])
    monkeypatch.setenv("GGL_BUDGET", str(work))
    assert check_identity(g, identity, CheckMode.SAMPLED, trials=1000).method == "sampled"
    monkeypatch.setenv("GGL_BUDGET", str(work - 1))
    monkeypatch.setattr(identities._Draws, "take", refuse_draws)
    with pytest.raises(BudgetExceeded) as err:
        check_identity(g, identity, CheckMode.SAMPLED, trials=1000)
    assert str(err.value) == (
        f"sampled check cap exceeded: estimate {estimate} draws, "
        f"budget is {work - 1} (set GGL_BUDGET to raise it)"
    )


def test_auto_and_cross_validation_sample_through_the_same_budget(monkeypatch):
    """zn:100's 10^4 commutative evaluations exceed 1999, so AUTO and
    cross_validate both sample, and both refuse the 2000 draws."""
    monkeypatch.setenv("GGL_BUDGET", "1999")
    monkeypatch.setattr(identities._Draws, "take", refuse_draws)
    g = build(Modular(100), Scalar(), 3, 4)
    for call in (
        lambda: check_identity(g, IdentityId.COMMUTATIVE, trials=1000),
        lambda: cross_validate(g, IdentityId.COMMUTATIVE, trials=1000),
    ):
        with pytest.raises(BudgetExceeded, match=r"^sampled check cap exceeded: estimate 1000\*2 = 2000 draws"):
            call()


def test_auto_prefers_exhaustive_then_falls_back_to_sampling():
    small = build(Modular(8), Scalar(), 2, 6)
    assert check_identity(small, IdentityId.ASSOCIATIVE).method == "exhaustive"
    huge = build(Modular(10_000), Scalar(), 3, 4)
    v = check_identity(huge, IdentityId.ASSOCIATIVE, trials=100, seed=2)
    assert v.method == "sampled"


def test_auto_samples_past_the_enumeration_cap_even_where_the_estimate_fits():
    # 10^8 elements: the one-variable estimate equals the default budget
    g = build(Modular(10), Poly(7, ProductKind.CONVOLUTION), 3, 3)
    assert g.order == 10**8 and not g.enumerable
    assert check_identity(g, IdentityId.IDEMPOTENT, trials=100).method == "sampled"
    report = cross_validate(g, IdentityId.IDEMPOTENT, trials=100)
    assert [v.method for v in report.verdicts] == ["sampled"]


def test_auto_uses_lifting_for_wide_shapes():
    g = build(Modular(5), Matrix(4, 4), 2, 3)
    v = check_identity(g, IdentityId.ASSOCIATIVE)
    assert v.method == "lifted"


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a route starts work: a compiled product or a draw."""

    def refuse(*args, **kwargs):
        raise AssertionError("a route started work before refusing")

    monkeypatch.setattr(groupoid, "compile_product", refuse)
    monkeypatch.setattr(identities._Draws, "take", refuse)


@pytest.mark.parametrize(
    "g,identity,mode,budget,error,message",
    [
        (build(Modular(10), Poly(7, ProductKind.CONVOLUTION), 3, 4), IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE,
         None, BudgetExceeded, r"^enumeration cap exceeded: estimate 10\^8 = 100000000 elements"),
        (build(Modular(8), Poly(2, ProductKind.SHUFFLE), 3, 4), IdentityId.ASSOCIATIVE, CheckMode.EXHAUSTIVE,
         None, BudgetExceeded, r"^exhaustive check cap exceeded: estimate 512\^3 = 134217728 evaluations"),
        (from_table(["a", "b"], [[0, 1], [1, 0]]), IdentityId.ASSOCIATIVE, CheckMode.LIFTED,
         None, CarrierError, "^lifted mode needs a spec-backed groupoid$"),
        (build(Modular(7), Poly(2, ProductKind.CONVOLUTION), 3, 4), IdentityId.ASSOCIATIVE, CheckMode.LIFTED,
         None, CarrierError, "^shape is not liftable"),
        (build(Modular(2000003), Matrix(1, 2), 3, 5), IdentityId.IDEMPOTENT, CheckMode.LIFTED,
         None, BudgetExceeded, r"^enumeration cap exceeded: estimate 2000003\^1 = 2000003 elements"),
        (build(Modular(500), Matrix(1, 2), 3, 5), IdentityId.ASSOCIATIVE, CheckMode.LIFTED,
         "1499", BudgetExceeded, r"^linear check cap exceeded: estimate 3\*500 = 1500 evaluations"),
        (build(Modular(9), Matrix(1, 3), 2, 5), IdentityId.ASSOCIATIVE, CheckMode.SAMPLED,
         "8999", BudgetExceeded, r"^sampled check cap exceeded: estimate 1000\*9 = 9000 draws"),
    ],
    ids=["exhaustive-past-the-cap", "exhaustive-past-the-budget", "lifted-table", "lifted-mixing-shape",
         "lifted-shadow-past-the-cap", "lifted-shadow-past-the-budget", "sampled-past-the-budget"],
)
def test_every_route_refuses_before_any_work(monkeypatch, no_work, g, identity, mode, budget, error, message):
    """AUTO and cross_validate pass over a route that refuses, so a refusal
    must come before any table or product compiles and before any draw."""
    if budget is not None:
        monkeypatch.setenv("GGL_BUDGET", budget)
    with pytest.raises(error, match=message):
        check_identity(g, identity, mode, trials=1000)


@pytest.mark.parametrize("identity", [IdentityId.IDEMPOTENT, IdentityId.ASSOCIATIVE])
def test_auto_and_cross_validation_sample_where_the_lifted_shadow_is_past_the_cap(identity):
    """zn:2000003's shadow is past the enumeration cap, so the lifted route
    refuses and both sample."""
    g = build(Modular(2000003), Matrix(1, 2), 3, 5)
    assert check_identity(g, identity, trials=100).method == "sampled"
    report = cross_validate(g, identity, trials=100)
    assert [v.method for v in report.verdicts] == ["sampled"]
    assert report.verdicts[0].fails and report.agreement


def test_auto_and_cross_validation_decide_a_shadow_past_the_scan_budget_exactly():
    """zn:500's shadow is past the three-variable scan's budget (500^3) but
    its lifted verdict takes 3·500 evaluations: AUTO is exact, and
    cross_validate's exact verdict is the lifted one."""
    g = build(Modular(500), Matrix(1, 2), 3, 5)
    v = check_identity(g, IdentityId.ASSOCIATIVE)
    assert (v.method, v.status, v.witness_labels) == ("lifted", "fails", ("[[1,1]]", "[[0,0]]", "[[0,0]]"))
    x, y, z = v.witness
    assert g.star(g.star(x, y), z) != g.star(x, g.star(y, z))
    report = cross_validate(g, IdentityId.ASSOCIATIVE, trials=100)
    assert [r.method for r in report.verdicts] == ["lifted", "sampled"]
    assert report.verdicts[0] == v and report.agreement


def test_cross_validation_refuses_its_sample_before_any_other_route(monkeypatch):
    """zn:3 mat:1x3 fits both the exhaustive scan and the lifted route's
    linear verdict at 10^4, but not 10^4 trials of 6 draws."""
    monkeypatch.setenv("GGL_BUDGET", "10000")
    calls = []
    for engine in ("first_failure", "linear_failures"):
        real = getattr(identities, engine)
        monkeypatch.setattr(identities, engine, lambda *args, real=real: calls.append(real) or real(*args))
    with pytest.raises(BudgetExceeded, match=r"^sampled check cap exceeded: estimate 10000\*6 = 60000 draws"):
        cross_validate(build(Modular(3), Matrix(1, 3), 1, 2), IdentityId.COMMUTATIVE)
    assert calls == []


def test_exhaustive_respects_budget(monkeypatch):
    monkeypatch.setenv("GGL_BUDGET", "100")
    g = build(Modular(200), Scalar(), 3, 4)
    with pytest.raises(BudgetExceeded):
        check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.EXHAUSTIVE)


# -- the two alternative laws ----------------------------------------------------


def test_check_alternative_combined_semantics():
    comb, left, right = check_alternative(build(Modular(14), Scalar(), 7, 8), CheckMode.EXHAUSTIVE)
    assert (comb.status, left.status, right.status) == ("holds", "holds", "holds")
    assert comb.identity == "alternative"

    comb, left, right = check_alternative(build(Modular(4), Scalar(), 2, 3), CheckMode.EXHAUSTIVE)
    assert comb.fails and left.fails and right.fails
    assert comb.witness == left.witness

    comb, _, _ = check_alternative(build(Modular(14), Scalar(), 7, 8), CheckMode.SAMPLED, trials=50, seed=3)
    assert comb.status == "sampled_no_counterexample"


def _alternative_json(method, sample, *verdicts):
    """The JSON of (combined, left, right), each given as (status, witness)."""
    out = []
    for identity, (status, witness) in zip(("alternative", "left-alternative", "right-alternative"), verdicts):
        out.append({"identity": identity, "method": method, "status": status})
        if witness:
            out[-1]["witness"] = list(witness)
        if sample:
            out[-1]["trials"], out[-1]["seed"] = sample
    return out


# tables where exactly one alternative law fails
LEFT_FAILS = [[2, 1, 1], [2, 1, 1], [1, 2, 2]]
RIGHT_FAILS = [[1, 1, 0], [1, 1, 1], [0, 0, 2]]
HOLD = ("holds", None)
UNSEEN = ("sampled_no_counterexample", None)
# recorded before the combined verdict became the deciding law's, renamed
ALTERNATIVE_CASES = {
    "holds": (
        lambda: build(Modular(14), Scalar(), 7, 8), CheckMode.EXHAUSTIVE, None,
        _alternative_json("exhaustive", None, HOLD, HOLD, HOLD),
    ),
    "both fail": (
        lambda: build(Modular(4), Scalar(), 2, 3), CheckMode.EXHAUSTIVE, None,
        _alternative_json("exhaustive", None, *[("fails", ("1", "0"))] * 3),
    ),
    "left fails": (
        lambda: from_table(["a", "b", "c"], LEFT_FAILS), CheckMode.EXHAUSTIVE, None,
        _alternative_json("exhaustive", None, ("fails", ("b", "a")), ("fails", ("b", "a")), HOLD),
    ),
    "right fails": (
        lambda: from_table(["a", "b", "c"], RIGHT_FAILS), CheckMode.AUTO, None,
        _alternative_json("exhaustive", None, ("fails", ("c", "a")), HOLD, ("fails", ("c", "a"))),
    ),
    "sampled": (
        lambda: build(Modular(14), Scalar(), 7, 8), CheckMode.SAMPLED, (50, 3),
        _alternative_json("sampled", (50, 3), UNSEEN, UNSEEN, UNSEEN),
    ),
    "sampled, right fails": (
        lambda: from_table(["a", "b", "c"], RIGHT_FAILS), CheckMode.SAMPLED, (2, 3),
        _alternative_json("sampled", (2, 3), ("fails", ("c", "a")), UNSEEN, ("fails", ("c", "a"))),
    ),
    "lifted fails": (
        lambda: build(Modular(4), Matrix(2, 1), 2, 3), CheckMode.LIFTED, None,
        _alternative_json("lifted", None, *[("fails", ("[[1];[1]]", "[[0];[0]]"))] * 3),
    ),
    "lifted": (
        lambda: build(Modular(10), Matrix(2, 2), 5, 6), CheckMode.AUTO, None,
        _alternative_json("lifted", None, HOLD, HOLD, HOLD),
    ),
}


@pytest.mark.parametrize("case", list(ALTERNATIVE_CASES))
def test_check_alternative_json_is_the_deciding_laws(case):
    make, mode, sample, want = ALTERNATIVE_CASES[case]
    trials, seed = sample or (1, 0)
    assert [v.to_json() for v in check_alternative(make(), mode, trials=trials, seed=seed)] == want


# -- closed forms -----------------------------------------------------------------


def test_closed_form_predicates():
    assert closed_form("idempotent-iff", 8, 4, 5)
    assert not closed_form("idempotent-iff", 8, 4, 6)
    assert closed_form("semigroup-iff", 6, 3, 4)
    assert not closed_form("semigroup-iff", 8, 4, 5)
    assert closed_form("alternative-iff", 4, 3, 3) == ((3 * 3) % 4 == 3)
    assert closed_form("type3-p-alt-iff", 6, 3, 0)
    assert not closed_form("type3-p-alt-iff", 6, 2, 0)
    assert closed_form("equal-pair-p", 9, 4, 4)
    assert not closed_form("equal-pair-p", 9, 4, 5)


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_each_closed_form_decides_each_of_its_laws_where_it_applies(name):
    form = CLOSED_FORMS[name]
    for n in range(3, 13):
        pairs = [(t, u) for t in range(n) for u in range(n) if (t, u) != (0, 0) and form.applies(n, t, u)]
        predicted = [form.predicts(n, t, u) for t, u in pairs]
        for carrier in (Modular(n), PureNeutrosophic(n)):
            groupoids = [build(carrier, Scalar(), t, u) for t, u in pairs]
            for law in form.laws:
                holds = [check_identity(g, law, CheckMode.EXHAUSTIVE).holds for g in groupoids]
                assert holds == predicted, f"{carrier.token()} {law.value}"
                assert [applicable_closed_forms(g, law)[name] for g in groupoids] == predicted


def test_closed_form_unknown_name():
    with pytest.raises(CarrierError):
        closed_form("nope", 5, 1, 2)


@given(st.integers(3, 16), st.integers(0, 15), st.integers(0, 15))
def test_idempotent_closed_form_matches_exhaustive(n, t, u):
    t, u = t % n, u % n
    if t == 0 and u == 0:
        t = 1
    g = build(Modular(n), Scalar(), t, u)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE)
    assert (v.status == "holds") == closed_form("idempotent-iff", n, t, u)


def test_applicable_closed_forms_selection():
    idem = build(Modular(8), Scalar(), 4, 5)
    assert applicable_closed_forms(idem, IdentityId.IDEMPOTENT) == {"idempotent-iff": True}
    # non-equal non-type3 pair: nothing applies to the p-identity
    assert applicable_closed_forms(build(Modular(6), Scalar(), 4, 3), IdentityId.P_IDENTITY) == {}
    assert applicable_closed_forms(build(Modular(7), Scalar(), 3, 3), IdentityId.P_IDENTITY) == {
        "equal-pair-p": True
    }
    # pure-I carriers expose integer parameters too
    assert applicable_closed_forms(
        build(PureNeutrosophic(8), Scalar(), 4, 5), IdentityId.IDEMPOTENT
    ) == {"idempotent-iff": True}


# -- dual-route consistency --------------------------------------------------------


def test_cross_validate_routes_agree():
    r = cross_validate(build(Modular(8), Scalar(), 4, 5), IdentityId.IDEMPOTENT)
    assert r.agreement
    assert list(r.disagreements) == []
    assert r.closed_forms == {"idempotent-iff": {"predicted": True, "agrees": True}}
    methods = [v.method for v in r.verdicts]
    assert "exhaustive" in methods and "sampled" in methods


@pytest.mark.parametrize(
    "shape,t,u,identity",
    [
        (Poly(1, ProductKind.CONVOLUTION), 1, 0, IdentityId.ASSOCIATIVE),
        (Poly(2, ProductKind.CONVOLUTION), 3, 4, IdentityId.IDEMPOTENT),
        (Poly(1, ProductKind.SHUFFLE), 1, 2, IdentityId.IDEMPOTENT),
        (Poly(1, ProductKind.SHUFFLE), 3, 0, IdentityId.P_IDENTITY),
    ],
)
def test_shapes_that_mix_entries_take_no_closed_form(shape, t, u, identity):
    # the forms are claims about the scalar product: (1,0) is a semigroup on
    # Z_7, but its degree-1 convolution is not associative
    g = build(Modular(7), shape, t, u)
    assert applicable_closed_forms(g, identity) == {}
    r = cross_validate(g, identity)
    assert r.agreement and r.closed_forms == {} and r.disagreements == []


def test_entrywise_shapes_keep_their_closed_forms():
    g = build(Modular(6), Matrix(2, 2), 3, 4)
    assert applicable_closed_forms(g, IdentityId.ASSOCIATIVE) == {"semigroup-iff": True}
    assert cross_validate(g, IdentityId.ASSOCIATIVE).closed_forms == {"semigroup-iff": {"predicted": True, "agrees": True}}
    assert applicable_closed_forms(build(Modular(6), Matrix(2, 2), 3, 0), IdentityId.P_IDENTITY) == {
        "type3-p-alt-iff": True
    }


def test_cross_validate_without_applicable_closed_form():
    r = cross_validate(build(Modular(6), Scalar(), 4, 3), IdentityId.P_IDENTITY)
    assert r.agreement
    assert r.closed_forms == {}
