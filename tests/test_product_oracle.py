"""Differential tests: the compiled product path against the per-cell oracles.

Every Cayley table is built by ``compile_product`` from q×q scalar tables and
every exhaustive verdict comes from one chunked numpy evaluator. The oracles
here are the slow forms they replaced: ``shape.star`` applied cell by cell,
and a plain loop engine that multiplies elements with ``Groupoid.star`` and
scans assignments with x fastest, then y, then z.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import (
    BudgetExceeded,
    CheckMode,
    IdentityId,
    IntervalOf,
    Matrix,
    MixedNeutrosophic,
    Modular,
    Poly,
    ProductKind,
    PureNeutrosophic,
    Scalar,
    build,
    check_identity,
    element_space,
    star,
)
from groupoidlab import groupoid, identities
from groupoidlab.identities import TEMPLATES, eval_tree
from groupoidlab.shape import compile_product


# -- oracles ---------------------------------------------------------------------


def star_table_oracle(carrier, shape, t, u):
    """The index table, one ``star`` call per cell."""
    els = list(element_space(carrier, shape))
    pos = {e: i for i, e in enumerate(els)}
    return np.array([[pos[star(carrier, shape, t, u, a, b)] for b in els] for a in els])


def exhaustive_loop_oracle(g, identity):
    """The first failing assignment (x fastest, then y, then z), multiplying
    elements with ``Groupoid.star``; None when the identity holds."""
    lhs, rhs, vars_ = TEMPLATES[identity]
    els = g.elements()
    for combo in itertools.product(range(len(els)), repeat=len(vars_)):
        assign = combo[::-1]
        env = {v: els[i] for v, i in zip(vars_, assign)}
        if eval_tree(lhs, env, g.star) != eval_tree(rhs, env, g.star):
            return assign
    return None


def witness_indices(g, verdict):
    return None if verdict.holds else tuple(g.element_index(e) for e in verdict.witness)


# -- the compiled table --------------------------------------------------------------

CARRIERS = [
    Modular(2),
    Modular(3),
    Modular(4),
    Modular(6),
    PureNeutrosophic(3),
    PureNeutrosophic(4),
    MixedNeutrosophic(2),
    MixedNeutrosophic(3),
    IntervalOf(Modular(3)),
    IntervalOf(MixedNeutrosophic(2)),
]
SHAPES = [
    Scalar(),
    Matrix(1, 2),
    Matrix(2, 1),
    Matrix(2, 2),
    Poly(2, ProductKind.ENTRYWISE),
    Poly(0, ProductKind.CONVOLUTION),
    Poly(1, ProductKind.CONVOLUTION),
    Poly(2, ProductKind.CONVOLUTION),
    Poly(1, ProductKind.SHUFFLE),
    Poly(2, ProductKind.SHUFFLE),
]


SMALL_SPECS = [
    (c, s) for c in CARRIERS for s in SHAPES if c.size() ** s.entry_count() <= 100
]


@pytest.mark.parametrize(
    "carrier,shape", SMALL_SPECS, ids=[f"{c.token()}-{s.token()}" for c, s in SMALL_SPECS]
)
def test_compiled_table_matches_per_cell_star(carrier, shape):
    values = carrier.enumerate_values()
    n = len(values) ** shape.entry_count()
    pairs = [(t, u) for t in values for u in values]
    for t, u in pairs[1 :: max(1, len(pairs) // 5)]:
        expected = star_table_oracle(carrier, shape, t, u)
        product = compile_product(carrier, shape, t, u)
        X = np.arange(n)
        table = product(X[:, None], X[None, :])
        assert table.dtype == np.int32
        np.testing.assert_array_equal(table, expected)
        # x*x is read off the diagonal of the scalar table alone
        np.testing.assert_array_equal(product(X, X), np.diag(expected))
    assert build(carrier, shape, t, u).index_table() == expected.tolist()


def test_table_backed_products_read_the_rows():
    g = groupoid.from_table(["a", "b", "c"], [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert g.products(np.array([0, 1, 2]), np.array([1, 1, 0])).tolist() == [1, 0, 1]
    assert g.star_idx(2, 1) == 2


# -- the exhaustive engine -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(0, 11), st.integers(0, 11), st.sampled_from(list(IdentityId)))
def test_exhaustive_engine_matches_the_loop_oracle(n, t, u, identity):
    t, u = t % n, u % n
    if t == 0 and u == 0:
        t = 1
    g = build(Modular(n), Scalar(), t, u)
    v = check_identity(g, identity, CheckMode.EXHAUSTIVE)
    assert witness_indices(g, v) == exhaustive_loop_oracle(g, identity)


@pytest.mark.parametrize(
    "carrier,shape,t,u",
    [
        (Modular(3), Poly(2, ProductKind.SHUFFLE), 1, 2),
        (Modular(2), Poly(3, ProductKind.CONVOLUTION), 1, 1),
        (MixedNeutrosophic(2), Matrix(1, 2), (1, 0), (0, 1)),
        (Modular(4), Matrix(1, 2), 2, 3),
    ],
)
def test_witnesses_do_not_depend_on_the_chunk_size(monkeypatch, carrier, shape, t, u):
    g = build(carrier, shape, t, u)
    for identity in IdentityId:
        expected = exhaustive_loop_oracle(g, identity)
        for cells in (1, 7, 16, 40):  # below, at and across one row of the order-16/27 tables
            monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
            v = check_identity(g, identity, CheckMode.EXHAUSTIVE)
            assert witness_indices(g, v) == expected, (identity, cells)


# -- one-variable laws at large orders ------------------------------------------------


def test_one_variable_checks_at_order_1e5_need_no_table():
    g = build(Modular(10), Matrix(1, 5), 3, 7)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE)
    assert (v.status, v.method, v.witness_labels) == ("fails", "exhaustive", ("[[0,0,0,0,1]]",))
    assert "table" not in g._memo

    g = build(Modular(10), Poly(4, ProductKind.CONVOLUTION), 3, 7)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.AUTO)
    assert (v.status, v.method, v.witness_labels) == ("fails", "exhaustive", ("poly[0,0,0,0,1]",))


def test_squaring_a_large_scalar_carrier_reads_only_the_diagonal():
    g = build(Modular(100_000), Scalar(), 3, 99_998)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE)
    assert v.holds  # 3 + 99998 = 1 (mod 100000)


# -- the table budget -------------------------------------------------------------------


@pytest.fixture
def no_compile(monkeypatch):
    """Any table compile fails loudly, so a guard that does not fire cannot allocate."""

    def refuse(*args):
        raise AssertionError("the table was compiled past its budget")

    monkeypatch.setattr(groupoid, "compile_product", refuse)


def test_table_budget_refuses_before_compiling(no_compile):
    g = build(Modular(10), Matrix(1, 5), 3, 7)
    with pytest.raises(BudgetExceeded) as err:
        g.index_table()
    assert str(err.value) == (
        "Cayley table cap exceeded: estimate 100000^2 = 10000000000 cells, "
        "budget is 100000000 (set GGL_BUDGET to raise it)"
    )


def test_table_budget_follows_the_environment(monkeypatch, no_compile):
    monkeypatch.setenv("GGL_BUDGET", "399")
    with pytest.raises(BudgetExceeded, match="estimate 20\\^2 = 400 cells, budget is 399"):
        build(Modular(20), Scalar(), 3, 4).table_array()


def test_table_budget_admits_cells_equal_to_the_budget(monkeypatch):
    monkeypatch.setenv("GGL_BUDGET", "400")
    assert build(Modular(20), Scalar(), 3, 4).table_array().shape == (20, 20)
