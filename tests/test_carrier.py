"""Carrier arithmetic, parsing, formatting, and error behavior."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupoidlab import (
    CarrierError,
    IntervalOf,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    parse_carrier,
)


# -- modular ------------------------------------------------------------------


def test_modular_basic_arithmetic():
    c = Modular(7)
    assert c.add(3, 5) == 1
    assert c.mul(3, 5) == 1
    assert c.mul(4, 6) == 3
    assert c.reduce(-1) == 6
    assert c.zero() == 0
    assert c.is_zero(0) and not c.is_zero(3)
    assert c.size() == 7
    assert list(c.enumerate_values()) == list(range(7))


@given(st.integers(2, 50), st.integers(-200, 200), st.integers(-200, 200))
def test_modular_matches_int_arithmetic(n, a, b):
    c = Modular(n)
    x, y = a % n, b % n
    assert c.add(x, y) == (a + b) % n
    assert c.mul(x, y) == (a * b) % n


def test_modular_rejects_small_modulus():
    for bad in (0, 1, -3):
        with pytest.raises(CarrierError):
            Modular(bad)


@pytest.mark.parametrize(
    "make,largest",
    [
        (Modular, 3_037_000_500),  # (n-1)^2 = 9223372030926249001 < 2^63
        (PureNeutrosophic, 3_037_000_500),
        (lambda n: IntervalOf(Modular(n)), 3_037_000_500),
        (MixedNeutrosophic, 1_753_413_057),  # 3(n-1)^2 = 9223372034853777408 < 2^63
    ],
    ids=["zn", "zni", "o(zn)", "nzn"],
)
def test_moduli_whose_index_arithmetic_would_wrap_int64_are_refused(make, largest):
    carrier = make(largest)
    top = np.array([carrier.size() - 1, carrier.size() - 2])
    values = [carrier.value_at(int(i)) for i in top]
    for array_op, op in ((carrier.add_indices, carrier.add), (carrier.mul_indices, carrier.mul)):
        got = array_op(top[:, None], top[None, :]).tolist()
        assert got == [[carrier.index_of(op(v, w)) for w in values] for v in values]
    with pytest.raises(CarrierError, match=f"modulus must be at most {largest}, got {largest + 1}"):
        make(largest + 1)


def test_modular_format_parse_roundtrip():
    c = Modular(12)
    for v in c.enumerate_values():
        assert c.parse_value(c.format_value(v)) == v


# -- pure neutrosophic --------------------------------------------------------


def test_pure_coefficients_multiply_like_integers():
    # values are I-coefficients; the indeterminate squares to itself, so the
    # product of bI and cI is (bc)I
    c = PureNeutrosophic(5)
    assert c.mul(2, 3) == 1
    assert c.add(4, 3) == 2
    assert c.mul(2, 4) == 3


def test_pure_formatting():
    c = PureNeutrosophic(4)
    assert c.format_value(0) == "0"
    assert c.format_value(1) == "I"
    assert c.format_value(3) == "3I"
    assert c.parse_value("3I") == 3
    assert c.parse_value("I") == 1
    assert c.parse_value("0") == 0


def test_pure_has_indeterminate_flag():
    assert PureNeutrosophic(3).has_indeterminate
    assert not Modular(3).has_indeterminate


# -- mixed neutrosophic -------------------------------------------------------


def test_mixed_product_rule():
    # (a + bI)(c + dI) = ac + (ad + bc + bd) I
    c = MixedNeutrosophic(7)
    a, b = (2, 3), (4, 5)
    assert c.mul(a, b) == ((2 * 4) % 7, (2 * 5 + 3 * 4 + 3 * 5) % 7)
    assert c.add(a, b) == (6, 1)
    assert c.size() == 49


@given(st.integers(2, 12), st.tuples(st.integers(0, 11), st.integers(0, 11)),
       st.tuples(st.integers(0, 11), st.integers(0, 11)))
def test_mixed_product_matches_symbolic_expansion(n, x, y):
    c = MixedNeutrosophic(n)
    a, b = x[0] % n, x[1] % n
    d, e = y[0] % n, y[1] % n
    got = c.mul((a, b), (d, e))
    assert got == ((a * d) % n, (a * e + b * d + b * e) % n)


def test_mixed_formatting():
    c = MixedNeutrosophic(6)
    assert c.format_value((0, 0)) == "0"
    assert c.format_value((2, 0)) == "2"
    assert c.format_value((0, 5)) == "5I"
    assert c.format_value((1, 1)) == "1+I"
    assert c.format_value((3, 2)) == "3+2I"
    for text in ("0", "2", "5I", "1+I", "3+2I"):
        v = c.parse_value(text)
        assert c.format_value(v) == text


# -- intervals ----------------------------------------------------------------


def test_interval_endpointwise_arithmetic():
    c = IntervalOf(Modular(8))
    assert c.add(3, 7) == 2
    assert c.mul(3, 5) == 7
    assert c.format_value(5) == "[0,5]"
    assert c.parse_value("[0,5]") == 5
    assert c.size() == 8


def test_interval_of_pure_formats_with_indeterminate():
    c = IntervalOf(PureNeutrosophic(4))
    assert c.format_value(2) == "[0,2I]"
    assert c.parse_value("[0,2I]") == 2
    assert c.has_indeterminate


def test_interval_nesting_rejected():
    with pytest.raises(CarrierError):
        IntervalOf(IntervalOf(Modular(4)))


# -- carrier tokens -----------------------------------------------------------


@pytest.mark.parametrize(
    "token,size",
    [
        ("zn:7", 7),
        ("zni:4", 4),
        ("nzn:3", 9),
        ("o(zn:8)", 8),
        ("o(zni:5)", 5),
        ("o(nzn:3)", 9),
    ],
)
def test_parse_carrier_token_roundtrip(token, size):
    c = parse_carrier(token)
    assert c.token() == token
    assert c.size() == size


@pytest.mark.parametrize("token", ["zn:7", "zni:4", "nzn:3", "o(zn:8)", "o(zni:5)", "o(nzn:3)"])
def test_every_carrier_lists_its_zero_first(token):
    """Element index 0 is the zero element: ``zero_index`` and the linear
    verdicts read it so."""
    c = parse_carrier(token)
    assert c.index_of(c.zero()) == 0
    assert c.value_at(0) == c.enumerate_values()[0] == c.zero()


def test_parse_carrier_rejects_garbage():
    for bad in ("bogus:5", "zn:x", "zn:1", "o(q)", "o(o(zn:4))", ""):
        with pytest.raises(CarrierError):
            parse_carrier(bad)


# -- parameter embedding and coprimality --------------------------------------


def test_embed_param_modular_rejects_indeterminate():
    c = Modular(5)
    assert c.embed_param(3, indeterminate=False) == 3
    with pytest.raises(CarrierError):
        c.embed_param(3, indeterminate=True)


def test_embed_param_pure_and_mixed():
    p = PureNeutrosophic(5)
    assert p.embed_param(3, indeterminate=True) == 3
    assert p.embed_param(3, indeterminate=False) == 3
    m = MixedNeutrosophic(5)
    assert m.embed_param(3, indeterminate=False) == (3, 0)
    assert m.embed_param(3, indeterminate=True) == (0, 3)


def test_coprimality_class_gcd_content():
    c = Modular(12)
    k = c.coprimality_class(8, 6)
    assert k.gcd == 2 and not k.is_unit
    k2 = c.coprimality_class(5, 7)
    assert k2.gcd == 1 and k2.is_unit

    m = MixedNeutrosophic(6)
    km = m.coprimality_class((2, 4), (0, 2))
    assert km.gcd == 2 and not km.is_unit


def test_format_parse_roundtrip_all_small_carriers():
    for token in ("zn:5", "zni:5", "nzn:3", "o(zn:5)", "o(zni:3)", "o(nzn:2)"):
        c = parse_carrier(token)
        for v in c.enumerate_values():
            assert c.parse_value(c.format_value(v)) == v


# -- one arithmetic per ring: notations agree with the ring they write --------


def outcome(call):
    """A call's result, or the type and text of the error it raised."""
    try:
        return ("ok", call())
    except CarrierError as e:
        return ("error", type(e), str(e))


ARITHMETIC_AND_PARAMETER_RULES = [
    lambda c: c.size(),
    lambda c: c.zero(),
    lambda c: c.enumerate_values(),
    lambda c: [c.reduce(v) for v in range(-2 * c.n, 2 * c.n)],
    lambda c: [c.is_zero(v) for v in c.enumerate_values()],
    lambda c: [(c.add(a, b), c.mul(a, b)) for a in range(c.n) for b in range(c.n)],
    lambda c: [c.embed_param(k, False) for k in range(-c.n, 2 * c.n)],
    lambda c: [
        (c.param_content(p), c.param_is_zero(p), c.param_is_single_prime(p), c.residue(p))
        for p in c.enumerate_values()
    ],
    lambda c: [c.coprimality_class(p, q) for p in range(c.n) for q in range(c.n)],
]


@pytest.mark.parametrize("n", range(2, 13))
def test_pure_neutrosophic_is_modular_arithmetic_in_another_notation(n):
    plain, pure = Modular(n), PureNeutrosophic(n)
    for rule in ARITHMETIC_AND_PARAMETER_RULES:
        assert outcome(lambda: rule(pure)) == outcome(lambda: rule(plain))
    # where the two differ: text, the I suffix and the indeterminate predicates
    values = plain.enumerate_values()
    assert [pure.embed_param(k, True) for k in values] == values
    with pytest.raises(CarrierError):
        plain.embed_param(1, True)
    assert (pure.has_indeterminate, plain.has_indeterminate) == (True, False)
    assert [pure.is_pure_indeterminate(v) for v in values] == [v != 0 for v in values]
    assert [pure.has_i_part(v) for v in values] == [v != 0 for v in values]
    assert not any(plain.is_pure_indeterminate(v) or plain.has_i_part(v) for v in values)


def public_attributes(cls):
    return {k for k in vars(cls) if not k.startswith("_")}


def test_notations_define_only_their_text():
    notation = {"format_value", "parse_value", "token"}
    pure_only = {"embed_param", "has_indeterminate", "is_pure_indeterminate"}
    assert public_attributes(PureNeutrosophic) == notation | pure_only
    # besides its construction checks and the forwarding to ``inner``
    assert public_attributes(IntervalOf) == notation


SMALL_INNER_CARRIERS = [
    *(Modular(n) for n in range(2, 6)),
    *(PureNeutrosophic(n) for n in range(2, 6)),
    *(MixedNeutrosophic(n) for n in range(2, 4)),
]


@pytest.mark.parametrize("inner", SMALL_INNER_CARRIERS, ids=lambda c: c.token())
def test_interval_forwards_every_non_text_method_to_its_inner_carrier(inner):
    interval = IntervalOf(inner)
    values = inner.enumerate_values()
    X = np.arange(len(values))
    rules = [
        lambda c: c.n,
        lambda c: c.size(),
        lambda c: c.zero(),
        lambda c: values == c.enumerate_values(),
        lambda c: [
            (c.reduce(v), c.is_zero(v), c.is_pure_indeterminate(v), c.has_i_part(v)) for v in values
        ],
        lambda c: [(c.add(a, b), c.mul(a, b)) for a in values for b in values],
        lambda c: [c.index_of(v) for v in values],
        lambda c: [c.value_at(i) for i in range(len(values))],
        lambda c: [op(X[:, None], X[None, :]).tolist() for op in (c.add_indices, c.mul_indices)],
        lambda c: [c.embed_param(k, ind) for k in range(-2, inner.n + 2) for ind in (False, True)],
        lambda c: [
            (c.param_content(p), c.param_is_zero(p), c.param_is_single_prime(p), c.residue(p))
            for p in values
        ],
        lambda c: [c.coprimality_class(p, q) for p in values for q in values],
        lambda c: c.has_indeterminate,
    ]
    for rule in rules:
        assert outcome(lambda: rule(interval)) == outcome(lambda: rule(inner))
    want = [f"[0,{inner.format_value(v)}]" for v in values]
    assert [interval.format_value(v) for v in values] == want


def test_interval_copies_pickles_compares_and_hashes_by_its_inner_carrier():
    c = IntervalOf(Modular(8))
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c and hash(twin) == hash(c)
        assert twin.token() == "o(zn:8)" and twin.add(5, 6) == 3
    assert IntervalOf(Modular(8)) == c and hash(IntervalOf(Modular(8))) == hash(c)
    assert IntervalOf(Modular(8)) != IntervalOf(PureNeutrosophic(8))
    assert Modular(5) != PureNeutrosophic(5)
    assert str(c) == "o(zn:8)"
