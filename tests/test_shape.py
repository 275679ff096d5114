"""Shape semantics: entrywise, shuffle, and convolution products."""

import pytest
from hypothesis import given, strategies as st

from groupoidlab import (
    CarrierError,
    Matrix,
    Modular,
    Poly,
    ProductKind,
    Scalar,
    build,
    parse_shape,
    star,
)
from groupoidlab.shape import format_element, parse_element, element_is_zero


# -- entrywise star -----------------------------------------------------------


def test_scalar_star_is_affine_combination():
    c = Modular(7)
    assert star(c, Scalar(), 3, 4, (2,), (5,)) == ((3 * 2 + 4 * 5) % 7,)


def test_matrix_star_is_entrywise():
    c = Modular(10)
    x = (1, 2, 3, 4, 5, 6)
    y = (6, 5, 4, 3, 2, 1)
    got = star(c, Matrix(2, 3), 3, 7, x, y)
    assert got == tuple((3 * a + 7 * b) % 10 for a, b in zip(x, y))


def test_row_matrix_products_over_mod21():
    # frozen reference values for a 1x7 row shape with both parameters 8
    c = Modular(21)
    sh = Matrix(1, 7)
    z = (1, 1, 3, 2, 2, 0, 1)
    x = (3, 2, 0, 1, 20, 18, 7)
    y = (1, 20, 4, 0, 7, 17, 3)
    xy = star(c, sh, 8, 8, x, y)
    assert xy == (11, 8, 11, 8, 6, 7, 17)
    assert star(c, sh, 8, 8, z, xy) == (12, 9, 7, 17, 1, 14, 18)
    zx = star(c, sh, 8, 8, z, x)
    assert zx == (11, 3, 3, 3, 8, 18, 1)
    assert star(c, sh, 8, 8, zx, y) == (12, 16, 14, 3, 15, 7, 11)
    # the two association orders disagree: this row groupoid is not associative
    assert star(c, sh, 8, 8, z, xy) != star(c, sh, 8, 8, zx, y)


@given(
    st.integers(2, 9),
    st.integers(0, 8),
    st.integers(0, 8),
    st.lists(st.integers(0, 8), min_size=4, max_size=4),
    st.lists(st.integers(0, 8), min_size=4, max_size=4),
)
def test_matrix_star_matches_scalar_star_per_entry(n, t, u, xs, ys):
    c = Modular(n)
    t, u = t % n, u % n
    x = tuple(v % n for v in xs)
    y = tuple(v % n for v in ys)
    lifted = star(c, Matrix(2, 2), t, u, x, y)
    for i in range(4):
        assert lifted[i] == star(c, Scalar(), t, u, (x[i],), (y[i],))[0]


# -- polynomial products ------------------------------------------------------


def test_entrywise_poly_ignores_degree_structure():
    c = Modular(5)
    got = star(c, Poly(2, ProductKind.ENTRYWISE), 2, 3, (1, 2, 3), (4, 0, 1))
    assert got == ((2 + 12) % 5, 4 % 5, (6 + 3) % 5)


def test_shuffle_multiplies_shifted_coefficients():
    # entry i of the product is x_i * y_{i+1}; the top coefficient of x passes
    # through unchanged, and the parameters play no role
    c = Modular(5)
    sh = Poly(3, ProductKind.SHUFFLE)
    x = (1, 2, 3, 4)
    y = (4, 3, 2, 1)
    got = star(c, sh, 0, 0, x, y)
    assert got == ((1 * 3) % 5, (2 * 2) % 5, (3 * 1) % 5, 4)


def test_shuffle_requires_degree_at_least_one():
    with pytest.raises(CarrierError):
        Poly(0, ProductKind.SHUFFLE)


def test_convolution_sums_colliding_degrees_and_truncates():
    # acc[i+j] accumulates t*x_i + u*y_j; pairs with i+j beyond the bound drop
    c = Modular(11)
    sh = Poly(1, ProductKind.CONVOLUTION)
    t, u = 2, 3
    x = (5, 7)
    y = (1, 4)
    got = star(c, sh, t, u, x, y)
    deg0 = (t * x[0] + u * y[0]) % 11
    deg1 = ((t * x[0] + u * y[1]) + (t * x[1] + u * y[0])) % 11
    assert got == (deg0, deg1)


def test_degree_zero_convolution_collapses_to_scalar():
    c = Modular(7)
    assert Poly(0, ProductKind.CONVOLUTION).is_entrywise()
    got = star(c, Poly(0, ProductKind.CONVOLUTION), 3, 4, (2,), (5,))
    assert got == star(c, Scalar(), 3, 4, (2,), (5,))


def test_star_rejects_wrong_arity():
    c = Modular(5)
    with pytest.raises(CarrierError):
        star(c, Matrix(2, 2), 1, 1, (1, 2, 3), (0, 0, 0, 0))


# -- element spaces -----------------------------------------------------------


def test_element_space_counts():
    assert build(Modular(3), Matrix(2, 2), 1, 1).order == 81
    assert build(Modular(4), Scalar(), 1, 1).order == 4
    assert build(Modular(2), Poly(3), 1, 1).order == 16


def test_element_space_enumeration_is_row_major():
    assert build(Modular(2), Poly(1), 1, 1).elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_element_space_past_the_cap_has_its_exact_order():
    g = build(Modular(10), Matrix(12, 5), 1, 1)
    assert g.order == 10**60
    assert type(g.order) is int
    assert g.enumerable is False


# -- shape tokens and element text --------------------------------------------


@pytest.mark.parametrize(
    "token,entries",
    [
        ("scalar", 1),
        ("mat:3x5", 15),
        ("poly:4:entrywise", 5),
        ("poly:2:shuffle", 3),
        ("poly:3:conv", 4),
    ],
)
def test_parse_shape_roundtrip(token, entries):
    sh = parse_shape(token)
    assert sh.token() == token
    assert sh.entry_count() == entries


def test_parse_shape_rejects_garbage():
    for bad in ("mat:3", "mat:axb", "poly:2", "poly:2:bogus", "cube", ""):
        with pytest.raises(CarrierError):
            parse_shape(bad)


def test_matrix_requires_positive_dims():
    with pytest.raises(CarrierError):
        Matrix(0, 3)
    with pytest.raises(CarrierError):
        Poly(-1)


def test_element_text_roundtrip():
    c = Modular(9)
    cases = [
        (Scalar(), (4,), "4"),
        (Matrix(2, 2), (1, 2, 3, 4), "[[1,2];[3,4]]"),
        (Poly(2), (1, 0, 3), "poly[1,0,3]"),
    ]
    for sh, e, text in cases:
        assert format_element(c, sh, e) == text
        assert parse_element(c, sh, text) == e


def test_element_is_zero():
    c = Modular(6)
    assert element_is_zero(c, (0,) * 6)
    assert not element_is_zero(c, (0, 0, 1, 0, 0, 0))
