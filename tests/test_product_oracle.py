"""Differential tests: the compiled product path against the per-cell oracles.

Every Cayley table is built by ``compile_product`` from the carriers' array
arithmetic on value indices (``add_indices``, ``mul_indices``), every
exhaustive verdict comes from one numpy evaluator that scans a groupoid's
table one (y, x) plane (or block of it) at a time, and every sampled verdict
draws its trials in bulk and multiplies whole chunks of them through the
compiled per-digit product. The oracles here are the slow forms they
replaced: the carriers' per-value ``add`` and ``mul``, ``shape.star`` applied
cell by cell, a plain loop engine that multiplies elements with
``Groupoid.star`` and scans assignments with x fastest, then y, then z, and a
sampler that draws with ``randrange`` and multiplies one trial at a time.
The linear verdicts of a parameter sweep are checked against the plane scan
of each member.
"""

import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import (
    BudgetExceeded,
    CarrierError,
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
    from_table,
    identity_holds_on_subset,
    star,
)
from groupoidlab import groupoid, identities, theorems
from groupoidlab.identities import TEMPLATES, IdentityVerdict, eval_tree, first_failure
from groupoidlab.shape import compile_product, format_element


# -- oracles ---------------------------------------------------------------------


def star_table_oracle(carrier, shape, t, u):
    """The index table, one ``star`` call per cell, over the elements listed
    entry-lexicographically in carrier order."""
    els = list(itertools.product(carrier.enumerate_values(), repeat=shape.entry_count()))
    pos = {e: i for i, e in enumerate(els)}
    return np.array([[pos[star(carrier, shape, t, u, a, b)] for b in els] for a in els])


def exhaustive_loop_oracle(g, identity, domain=None):
    """The first failing assignment of domain indices (x fastest, then y, then
    z; every element by default), multiplying elements with ``Groupoid.star``
    (indices read off the table when table-backed); None when the identity
    holds there."""
    lhs, rhs, vars_ = TEMPLATES[identity]
    els, prod = (range(g.order), lambda i, j: int(g.table_array()[i, j])) if g.spec is None else (g.elements(), g.star)
    for combo in itertools.product(range(g.order) if domain is None else domain, repeat=len(vars_)):
        assign = combo[::-1]
        env = {v: els[i] for v, i in zip(vars_, assign)}
        if eval_tree(lhs, env, prod) != eval_tree(rhs, env, prod):
            return assign
    return None


def sampled_loop_oracle(g, identity, trials, seed):
    """The sampled verdict drawn and multiplied one trial at a time: for each
    trial, each variable and each entry one ``randrange`` draw, elements
    multiplied with ``Groupoid.star`` (indices read off the table)."""
    lhs_t, rhs_t, vars_ = TEMPLATES[identity]
    rng = random.Random(seed)
    if g.spec is not None:
        carrier, k = g.spec.carrier, g.spec.shape.entry_count()
        draw = lambda: tuple(carrier.value_at(rng.randrange(carrier.size())) for _ in range(k))  # noqa: E731
        prod = g.star
        fmt = lambda e: format_element(g.spec.carrier, g.spec.shape, e)  # noqa: E731
    else:
        draw = lambda: rng.randrange(g.order)  # noqa: E731
        prod = lambda i, j: int(g.table_array()[i, j])  # noqa: E731
        fmt = lambda i: g.labels()[i]  # noqa: E731
    for _ in range(trials):
        env = {v: draw() for v in vars_}
        if eval_tree(lhs_t, env, prod) != eval_tree(rhs_t, env, prod):
            witness = tuple(env[v] for v in vars_)
            return IdentityVerdict(
                identity=identity.value, method="sampled", status="fails",
                witness=witness, witness_labels=tuple(fmt(w) for w in witness),
                trials=trials, seed=seed,
            )
    return IdentityVerdict(
        identity=identity.value, method="sampled", status="sampled_no_counterexample",
        trials=trials, seed=seed,
    )


def witness_indices(g, verdict):
    return None if verdict.holds else tuple(g.element_index(e) for e in verdict.witness)


# -- the carriers' array arithmetic ----------------------------------------------------

ARITHMETIC_CARRIERS = [
    c
    for n in range(2, 13)
    for c in (
        Modular(n),
        PureNeutrosophic(n),
        MixedNeutrosophic(n),
        IntervalOf(Modular(n)),
        IntervalOf(PureNeutrosophic(n)),
        IntervalOf(MixedNeutrosophic(n)),
    )
]


@pytest.mark.parametrize("carrier", ARITHMETIC_CARRIERS, ids=lambda c: c.token())
def test_array_arithmetic_matches_the_per_value_arithmetic(carrier):
    values = carrier.enumerate_values()
    assert [carrier.index_of(v) for v in values] == list(range(len(values)))
    assert [carrier.value_at(carrier.index_of(v)) for v in values] == values
    pos = {v: i for i, v in enumerate(values)}
    X = np.arange(len(values))
    for array_op, op in ((carrier.add_indices, carrier.add), (carrier.mul_indices, carrier.mul)):
        got = array_op(X[:, None], X[None, :])
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, [[pos[op(v, w)] for w in values] for v in values])


@pytest.mark.parametrize(
    "carrier,dtype",
    [
        (Modular(46340), np.int32),
        (Modular(46341), np.int32),  # (q-1)^2 = 2147395600 still fits int32
        (Modular(46342), np.int64),
        (Modular(100_000), np.int64),
        (MixedNeutrosophic(26755), np.int32),  # 3(n-1)^2 = 2147329548
        (MixedNeutrosophic(26756), np.int64),  # 3(n-1)^2 = 2147490075
    ],
    ids=["zn:46340", "zn:46341", "zn:46342", "zn:100000", "nzn:26755", "nzn:26756"],
)
def test_products_at_the_int32_boundary_match_per_cell_star(carrier, dtype):
    """Operands and parameters near the top of the carrier, where an int32
    product of two indices would wrap: off-diagonal reads, x*x, and the
    per-digit product of a convolution and a shuffle shape."""
    q = carrier.size()
    X = q - 1 - np.arange(40)
    Y = X[::-1].copy()
    t, u = carrier.value_at(q - 1), carrier.value_at(q - 2)

    def oracle(shape, xs, ys):
        """x*y cell by cell, as k lists of value indices."""
        cells = []
        for x, y in zip(zip(*xs), zip(*ys)):
            x, y = (tuple(map(carrier.value_at, e)) for e in (x, y))
            cells.append([carrier.index_of(v) for v in star(carrier, shape, t, u, x, y)])
        return [list(d) for d in zip(*cells)]

    product = compile_product(carrier, Scalar(), [t], [u])
    for A, B in ((X, Y), (X, X)):
        got = product(A[None], B[None])[0]
        assert got.dtype == dtype
        assert [got.tolist()] == oracle(Scalar(), [A.tolist()], [B.tolist()])
    for shape in (Poly(1, ProductKind.CONVOLUTION), Poly(1, ProductKind.SHUFFLE)):
        got = compile_product(carrier, shape, [t], [u]).digits([X[None], Y[None]], [Y[None], X[None]])
        assert [d[0].tolist() for d in got] == oracle(shape, [X.tolist(), Y.tolist()], [Y.tolist(), X.tolist()])


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
        product = compile_product(carrier, shape, [t], [u])
        X = np.arange(n)
        table = product(X[None, :, None], X[None, None, :])[0]
        assert table.dtype == np.int32
        np.testing.assert_array_equal(table, expected)
        # x*x computes only the n cells it reads
        np.testing.assert_array_equal(product(X[None], X[None])[0], np.diag(expected))
    assert build(carrier, shape, t, u).index_table() == expected.tolist()


@pytest.mark.parametrize(
    "carrier,shape", SMALL_SPECS, ids=[f"{c.token()}-{s.token()}" for c, s in SMALL_SPECS]
)
def test_stacked_tables_match_each_members_own_table(carrier, shape):
    """The member axis leads the product's axes, one table per member,
    shuffle included, each that pair's own sweep of one; x*x too. A product
    of products keeps one member per row: (x*x)*x of member p is its own."""
    values = carrier.enumerate_values()
    pairs = [(t, u) for t in values for u in values]
    n = len(values) ** shape.entry_count()
    X = np.arange(n)[None]
    product = compile_product(carrier, shape, [t for t, _ in pairs], [u for _, u in pairs])
    stack, squares = product(X[:, :, None], X[:, None, :]), product(X, X)
    cubes = product(squares, X)
    assert stack.shape == (len(pairs), n, n) and squares.shape == cubes.shape == (len(pairs), n)
    for (t, u), table, square, cube in zip(pairs, stack, squares, cubes):
        own = compile_product(carrier, shape, [t], [u])
        np.testing.assert_array_equal(table, own(X[:, :, None], X[:, None, :])[0])
        np.testing.assert_array_equal(square, own(X, X)[0])
        np.testing.assert_array_equal(cube, table[square, np.arange(n)])


@pytest.mark.parametrize("cells", [1, 16 * 16, 16 * 16 * 3 + 5, 1 << 17], ids=lambda c: f"cells={c}")
@pytest.mark.parametrize("shape", [Matrix(1, 2), Poly(1, ProductKind.SHUFFLE)], ids=lambda s: s.token())
def test_compiled_sweep_tables_match_the_per_cell_star(monkeypatch, cells, shape):
    """``compile_tables`` stores one table per member, whatever the group size;
    a member that holds its table already keeps it."""
    monkeypatch.setattr(groupoid, "_CHUNK_CELLS", cells)
    carrier = Modular(4)
    pairs = [(t, u) for t in range(4) for u in range(4) if (t, u) != (0, 0)]
    members = [build(carrier, shape, t, u) for t, u in pairs]
    kept = members[3].table_array()
    groupoid.compile_tables(members + members[:2])
    assert members[3].table_array() is kept
    for (t, u), g in zip(pairs, members):
        np.testing.assert_array_equal(g.table_array(), star_table_oracle(carrier, shape, t, u))


@pytest.mark.parametrize(
    "carrier,shape,t,u",
    [
        (Modular(1000), Scalar(), 3, 4),
        (Modular(100_000), Scalar(), 3, 99_997),
        (MixedNeutrosophic(17), Matrix(1, 2), (2, 5), (3, 1)),
        (Modular(300), Poly(1, ProductKind.CONVOLUTION), 7, 2),
        (Modular(300), Poly(1, ProductKind.SHUFFLE), 7, 2),
    ],
)
def test_sparse_reads_of_a_large_carrier_match_per_cell_star(carrier, shape, t, u):
    """A few reads of a large carrier compute only the cells they read, for
    x*x too, through the carrier's array arithmetic."""
    values = carrier.enumerate_values()
    pos = {v: i for i, v in enumerate(values)}
    q, k = len(values), shape.entry_count()
    rng = np.random.default_rng(1)
    X, Y = rng.integers(0, q**k, 60), rng.integers(0, q**k, 60)
    el = lambda i: tuple(values[i // q ** (k - 1 - e) % q] for e in range(k))  # noqa: E731
    idx = lambda e: sum(pos[v] * q ** (k - 1 - j) for j, v in enumerate(e))  # noqa: E731
    product = compile_product(carrier, shape, [t], [u])
    assert product(X[None], Y[None])[0].tolist() == [idx(star(carrier, shape, t, u, el(x), el(y))) for x, y in zip(X, Y)]
    assert product(X[None], X[None])[0].tolist() == [idx(star(carrier, shape, t, u, el(x), el(x))) for x in X]


def test_a_single_groupoid_compiles_as_a_sweep_of_one(monkeypatch):
    """Its table, a one-variable exhaustive check and a sampled check each
    compile through ``compile_product`` with its one (t, u) pair."""
    calls = []

    def counted(carrier, shape, ts, us):
        calls.append((ts, us))
        return compile_product(carrier, shape, ts, us)

    monkeypatch.setattr(groupoid, "compile_product", counted)
    carrier, shape = Modular(5), Matrix(1, 2)
    runs = [
        lambda g: g.table_array(),
        lambda g: check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE),
        lambda g: check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.SAMPLED, trials=50),
    ]
    for run in runs:
        calls.clear()
        run(build(carrier, shape, 2, 3))
        assert calls == [([2], [3])]


def test_table_backed_products_read_the_rows():
    g = groupoid.from_table(["a", "b", "c"], [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert g.products(np.array([0, 1, 2]), np.array([1, 1, 0])).tolist() == [1, 0, 1]
    assert g.products(np.array(2), np.array(1)) == 2


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


def rare_failure_table():
    """An order-10 table that is x+y mod 10 except for three cells, so most
    laws hold on most assignments and their first failure lies deep in the
    scan or the draw."""
    rows = [[(i + j) % 10 for j in range(10)] for i in range(10)]
    rows[3][7] = 1
    rows[5][5] = 9
    rows[8][2] = 4
    return from_table([f"e{i}" for i in range(10)], rows)


def seeded_table(n, seed):
    rng = np.random.default_rng(seed)
    return from_table([str(i) for i in range(n)], rng.integers(0, n, (n, n)).tolist())


ORDER_16 = build(Modular(4), Matrix(1, 2), 2, 3)
SUBSET_CASES = [
    (ORDER_16, [1, 2, 5, 11, 14]),
    (ORDER_16, list(range(0, 16, 3))),
    (ORDER_16, [9]),
    (build(Modular(12), Scalar(), 4, 9), [0, 3, 4, 6, 8, 9]),
    (build(MixedNeutrosophic(2), Matrix(1, 2), (1, 0), (0, 1)), [0, 5, 6, 10, 15]),
    (rare_failure_table(), [1, 3, 5, 7, 8, 2]),
    (seeded_table(9, 1), [0, 2, 3, 7]),
]
TABLE_BACKED = [
    rare_failure_table(),
    seeded_table(12, 2),
    from_table([str(i) for i in range(16)], ORDER_16.index_table()),
]


@pytest.mark.parametrize("g", TABLE_BACKED, ids=["rare-failures", "seeded", "zn:4-mat:1x2"])
def test_table_backed_witnesses_do_not_depend_on_the_chunk_size(monkeypatch, g):
    for identity in IdentityId:
        expected = exhaustive_loop_oracle(g, identity)
        for cells in (1, 7, 16, 40):
            monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
            v = check_identity(g, identity, CheckMode.EXHAUSTIVE)
            got = None if v.holds else tuple(g.labels().index(w) for w in v.witness_labels)
            assert got == expected, (identity, cells)


@pytest.mark.parametrize("g,subset", SUBSET_CASES)
def test_subset_witnesses_do_not_depend_on_the_chunk_size(monkeypatch, g, subset):
    """m < n: the row reads pick the domain's columns, and the flat take
    indexes products that may leave the subset."""
    subset = sorted(subset)
    for identity in IdentityId:
        expected = exhaustive_loop_oracle(g, identity, subset)
        for cells in (1, 7, 16, 40):
            monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
            assert first_failure(g, identity, np.array(subset)) == expected, (identity, cells)
            assert identity_holds_on_subset(g, subset, identity) == (expected is None)


def last_plane_table(n):
    """An order-n table where x*y = x except in the last column c = n-1:
    x*c = c for x < n-2, (n-2)*c = 0 and c*c = c. Associativity then fails
    only at z = c, and there first at y = n-2, x = 0: in the last z-plane and
    in the y-block that holds the last row but one."""
    c = n - 1
    rows = [[x] * c + [c if x < n - 2 else 0 if x == n - 2 else c] for x in range(n)]
    return from_table([f"e{i}" for i in range(n)], rows)


@pytest.mark.parametrize("domain", [None, [0, 3, 7, 8], [2, 5, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8]])
@pytest.mark.parametrize("cells", [1, 18, 80, 81, 1 << 17], ids=lambda c: f"cells={c}")
def test_plane_scan_finds_failures_in_the_last_plane_and_a_late_block(monkeypatch, domain, cells):
    """18 cells cut a 9-wide plane into blocks of 2 rows, 80 into 8 rows and
    a block of 1, 81 take one whole plane and 2^17 every plane at once."""
    g = last_plane_table(9)
    monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
    dom = list(range(9)) if domain is None else domain
    assert first_failure(g, IdentityId.ASSOCIATIVE, np.array(dom)) == (dom[0], 7, 8)
    for identity in IdentityId:
        assert first_failure(g, identity, np.array(dom)) == exhaustive_loop_oracle(g, identity, dom), identity


@pytest.mark.parametrize("domain", [[-1, 0, 3], [0, 3, 9]])
def test_plane_scan_refuses_indices_outside_the_table(domain):
    """The scan reads with mode="clip", so a domain index outside [0, n)
    must raise before any read rather than clip to a wrong cell."""
    with pytest.raises(IndexError, match=r"domain indices must lie in \[0, 9\)"):
        first_failure(last_plane_table(9), IdentityId.BOL, np.array(domain))


@pytest.mark.parametrize("domain", [[7], [-1, 2], [0, 5]])
def test_a_one_variable_law_refuses_indices_outside_the_carrier(domain):
    """The one-variable law needs no table, and checks its domain as the scan does."""
    g = build(Modular(5), Scalar(), 2, 3)
    with pytest.raises(IndexError, match=r"domain indices must lie in \[0, 5\)"):
        first_failure(g, IdentityId.IDEMPOTENT, np.array(domain))


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_every_law_holds_on_the_empty_subset(identity):
    for g in (build(Modular(5), Scalar(), 2, 3), last_plane_table(9)):
        assert identity_holds_on_subset(g, [], identity)
        assert first_failure(g, identity, np.array([], dtype=np.intp)) is None


@pytest.mark.parametrize("cells", [1, 7, 16, 40, 1 << 17])
def test_plane_scan_of_a_spec_backed_table_matches_the_loop_oracle(monkeypatch, cells):
    """Order 27 under x*y = 2x + y: the scan reads the table and its
    transpose, and the witnesses are elements."""
    g = build(Modular(3), Poly(2, ProductKind.ENTRYWISE), 2, 1)
    monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
    for identity in IdentityId:
        v = check_identity(g, identity, CheckMode.EXHAUSTIVE)
        assert witness_indices(g, v) == exhaustive_loop_oracle(g, identity), identity


THREE_VARIABLE_LAWS = [IdentityId.ASSOCIATIVE, IdentityId.MOUFANG, IdentityId.BOL]
HOLDING = [  # idempotent pairs, and x+y mod 10: every three-variable law holds, so every block is read
    (build(Modular(3), Matrix(1, 3), 1, 1), [1, 4, 11, 20, 26]),
    (build(Modular(3), Matrix(1, 3), 0, 1), [1, 4, 11, 20, 26]),
    (build(Modular(3), Matrix(1, 3), 1, 0), [1, 4, 11, 20, 26]),
    (build(Modular(6), Scalar(), 3, 4), [1, 2, 5]),
    (from_table([str(i) for i in range(10)], [[(i + j) % 10 for j in range(10)] for i in range(10)]), [1, 3, 4, 8]),
]


@pytest.mark.parametrize(
    "g,subset", HOLDING, ids=["zn:3-mat:1x3-1,1", "zn:3-mat:1x3-0,1", "zn:3-mat:1x3-1,0", "zn:6-3,4", "x+y-mod-10"]
)
def test_three_variable_laws_hold_through_every_block(monkeypatch, g, subset):
    """Blocks of one cell, part of a row, a few rows, a plane and every plane:
    the one-row read of (x*y)*z, the rows of x*(y*z) and the tabulated rows
    of (x*(y*z))*x. On the subset, y*z leaves it (but for the projections
    0,1 and 1,0), so the tabulated rows are read at elements outside it."""
    for domain in (list(range(g.order)), subset):
        for identity in THREE_VARIABLE_LAWS:
            assert exhaustive_loop_oracle(g, identity, domain) is None
            for cells in (1, 7, 16, 40, 1 << 17):
                monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
                assert first_failure(g, identity, np.array(domain)) is None, (domain, identity, cells)


def late_failure_table(n, law):
    """An order-n table where x*y = x except in the last column c = n-1.
    For Moufang, x*c = c for x < c and c*c = 0: it first fails at (1, c, c),
    the last row of the last plane. For Bol, x*c = c but (n-2)*c = n-2: it
    first fails at (0, n-2, c), in the last plane."""
    c = n - 1
    last = [c] * c + [0] if law is IdentityId.MOUFANG else [c] * (n - 2) + [n - 2, c]
    return from_table([f"e{i}" for i in range(n)], [[x] * c + [last[x]] for x in range(n)])


@pytest.mark.parametrize("law,witness", [(IdentityId.MOUFANG, (1, 8, 8)), (IdentityId.BOL, (0, 7, 8))])
@pytest.mark.parametrize("domain", [None, [0, 1, 7, 8], [1, 3, 5, 8]])
@pytest.mark.parametrize("cells", [1, 7, 18, 40, 81, 1 << 17], ids=lambda c: f"cells={c}")
def test_planted_failures_in_the_last_plane_keep_their_witness(monkeypatch, law, witness, domain, cells):
    g = late_failure_table(9, law)
    monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
    dom = list(range(9)) if domain is None else domain
    if domain is None:
        assert first_failure(g, law, np.array(dom)) == witness
    for identity in THREE_VARIABLE_LAWS:
        assert first_failure(g, identity, np.array(dom)) == exhaustive_loop_oracle(g, identity, dom), identity


@pytest.mark.parametrize("cells", [40, 1 << 17], ids=["many-blocks", "one-block"])
def test_a_scan_tabulates_each_product_once(monkeypatch, cells):
    """One block or many, a Moufang scan tabulates the rows of (x*(y*z))*x
    once, before its first block."""
    tabulate = identities._PlaneScan.tabulate
    calls = []

    def counted(self, node):
        calls.append(node)
        return tabulate(self, node)

    monkeypatch.setattr(identities._PlaneScan, "tabulate", counted)
    monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
    g = HOLDING[0][0]
    assert first_failure(g, IdentityId.MOUFANG, np.arange(g.order)) is None
    assert calls == [("*", ("*", "x", ("*", "y", "z")), "x")]


def test_exhaustive_witnesses_are_labelled_without_the_label_list(monkeypatch):
    g = build(Modular(4), Matrix(1, 2), 2, 3)

    def refuse():
        raise AssertionError("the whole label list was built")

    with monkeypatch.context() as patched:
        patched.setattr(g, "labels", refuse)
        patched.setattr(g, "elements", refuse)
        verdicts = {identity: check_identity(g, identity, CheckMode.EXHAUSTIVE) for identity in IdentityId}
    assert any(v.fails for v in verdicts.values())
    for identity, v in verdicts.items():
        assert witness_indices(g, v) == exhaustive_loop_oracle(g, identity), identity
        if v.fails:
            assert v.witness_labels == tuple(g.labels()[i] for i in witness_indices(g, v))


# -- sweeps ----------------------------------------------------------------------------


def all_pairs(carrier):
    values = carrier.enumerate_values()
    return [(t, u) for t in values for u in values if not (carrier.is_zero(t) and carrier.is_zero(u))]


def fresh(members):
    """Spec-backed members built again, so no table is shared with them."""
    return [g if g.spec is None else build(g.spec.carrier, g.spec.shape, g.spec.t, g.spec.u) for g in members]


def per_groupoid(members, identity):
    """The reference: ``check_identity`` on a fresh copy of each member alone."""
    return [check_identity(g, identity, CheckMode.EXHAUSTIVE) for g in fresh(members)]


def set_chunk_cells(monkeypatch, cells):
    """One chunk size for the compile groups and the scan blocks."""
    monkeypatch.setattr(groupoid, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)


SWEEP_CARRIERS = [
    Modular(4),
    PureNeutrosophic(4),
    MixedNeutrosophic(2),
    IntervalOf(Modular(3)),
    IntervalOf(PureNeutrosophic(3)),
]
SWEEP_SHAPES = [Scalar(), Matrix(1, 2), Poly(2, ProductKind.CONVOLUTION), Poly(1, ProductKind.ENTRYWISE)]


@pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: s.token())
@pytest.mark.parametrize("carrier", SWEEP_CARRIERS, ids=lambda c: c.token())
def test_sweep_verdicts_match_per_groupoid_checks(carrier, shape):
    """Every pair, zero parameters included, and every identity: the linear
    verdicts of the whole sweep against ``check_identity`` on each member
    alone, up to order 64 (poly:2 over 4 values), past the order-36 reach of
    the linear engine's test against the plane scan."""
    pairs = all_pairs(carrier)
    members = [build(carrier, shape, t, u) for t, u in pairs]
    for identity in IdentityId:
        want = [witness_indices(g, v) for g, v in zip(members, per_groupoid(members, identity))]
        assert linear_sweep(carrier, shape, pairs, identity) == want, identity


def test_sweeps_of_table_backed_members_and_mixed_carriers_match_per_groupoid_checks():
    """Orders 10 and 4, table-backed and spec-backed over several carriers and
    shapes: each member's exhaustive verdict against the loop oracle."""
    members = [rare_failure_table()] + [seeded_table(10, seed) for seed in range(4)]
    members += [build(Modular(10), Scalar(), t, u) for t, u in ((3, 8), (5, 6), (1, 0))]
    members += [
        build(carrier, shape, t, u)
        for carrier, shape in (
            (Modular(4), Scalar()),
            (PureNeutrosophic(4), Scalar()),
            (IntervalOf(Modular(4)), Scalar()),
            (Modular(2), Matrix(1, 2)),
            (Modular(2), Poly(1, ProductKind.SHUFFLE)),
            (Modular(2), Poly(1, ProductKind.CONVOLUTION)),
        )
        for t, u in all_pairs(carrier)[::3]
    ]
    members += [build(MixedNeutrosophic(2), Scalar(), (1, 1), (0, 1)), seeded_table(4, 5)]
    for identity in IdentityId:
        for g, v in zip(members, per_groupoid(members, identity)):
            got = None if v.holds else tuple(g.labels().index(w) for w in v.witness_labels)
            assert got == exhaustive_loop_oracle(g, identity), (identity, g.labels())


def test_a_sweep_of_no_members_has_no_verdicts(no_compile):
    """The refusals still come first: a shuffle is refused with no members."""
    for identity in IdentityId:
        assert identities.linear_failures(Modular(4), Matrix(1, 2), [], [], identity) == []
    with pytest.raises(CarrierError) as err:
        identities.linear_failures(Modular(4), Poly(1, ProductKind.SHUFFLE), [], [], IdentityId.ASSOCIATIVE)
    assert str(err.value) == "linear verdicts need an additive product; shape poly:1:shuffle is a shuffle"


def rare_failure_table_16():
    """An order-16 table that is x+y mod 16 except for two late cells."""
    rows = [[(i + j) % 16 for j in range(16)] for i in range(16)]
    rows[14][15] = 3
    rows[15][9] = 0
    return from_table([f"e{i}" for i in range(16)], rows)


@pytest.mark.parametrize(
    "cells",
    [1, 16 * 16 - 1, 16 * 16 * 16 - 1, 16 * 16 * 16 * 3 + 1, 16 * 16 * 7 + 3],
    ids=["one-cell", "rows", "planes", "whole-scan", "7-plane-blocks"],
)
def test_exhaustive_verdicts_do_not_depend_on_the_chunk_size(monkeypatch, cells):
    """Order 16 with 16 members, each scanned alone: the three-variable laws
    in blocks of y rows (one, then 15) or of z planes (15, all 16, then 7
    with the last block cut short by the end of the scan); the two-variable
    laws take their whole plane as one block from 16·16 cells on."""
    members = [build(Modular(4), Matrix(1, 2), t, u) for t, u in all_pairs(Modular(4))]
    members.append(rare_failure_table_16())
    expected = {identity: per_groupoid(members, identity) for identity in IdentityId}
    set_chunk_cells(monkeypatch, cells)
    for identity in IdentityId:
        assert per_groupoid(members, identity) == expected[identity], identity


@pytest.mark.parametrize(
    "g,identity,budget,message",
    [
        (build(Modular(5), Scalar(), 1, 2), IdentityId.ASSOCIATIVE, 124,
         "exhaustive check cap exceeded: estimate 5^3 = 125 evaluations, budget is 124 "
         "(set GGL_BUDGET to raise it)"),
        (build(Modular(5), Scalar(), 1, 2), IdentityId.COMMUTATIVE, 24,
         "exhaustive check cap exceeded: estimate 5^2 = 25 evaluations, budget is 24 "
         "(set GGL_BUDGET to raise it)"),
        (build(Modular(10), Poly(7, ProductKind.CONVOLUTION), 3, 3), IdentityId.IDEMPOTENT, None,
         "enumeration cap exceeded: estimate 10^8 = 100000000 elements, cap is 1000000"),
        (build(Modular(10), Matrix(1, 5), 3, 7), IdentityId.COMMUTATIVE, None,
         "exhaustive check cap exceeded: estimate 100000^2 = 10000000000 evaluations, budget is 100000000 "
         "(set GGL_BUDGET to raise it)"),
    ],
    ids=["order-cubed", "order-squared", "too-large", "table-budget"],
)
def test_exhaustive_refusals_come_before_any_work(monkeypatch, no_compile, g, identity, budget, message):
    """In the table-budget case the order-10^5 groupoid's n^2 evaluations
    are refused before its n^2-cell table could be."""
    if budget is not None:
        monkeypatch.setenv("GGL_BUDGET", str(budget))
    with pytest.raises(BudgetExceeded) as err:
        check_identity(g, identity, CheckMode.EXHAUSTIVE)
    assert str(err.value) == message


class ScanAdmitted(Exception):
    """Raised by the stubbed plane scan: the budget let the scan start."""


@pytest.fixture
def no_scan(monkeypatch):
    def stop(*args):
        raise ScanAdmitted

    monkeypatch.setattr(identities, "_scan", stop)


def test_first_failure_refuses_before_compiling(no_compile):
    with pytest.raises(BudgetExceeded) as err:
        first_failure(build(Modular(465), Scalar(), 1, 2), IdentityId.ASSOCIATIVE, np.arange(465))
    assert str(err.value) == (
        "exhaustive check cap exceeded: estimate 465^3 = 100544625 evaluations, "
        "budget is 100000000 (set GGL_BUDGET to raise it)"
    )
    with pytest.raises(BudgetExceeded, match=r"estimate 100000\^2 = 10000000000 evaluations"):
        first_failure(build(Modular(10), Matrix(1, 5), 3, 7), IdentityId.COMMUTATIVE, np.arange(10**5))


def test_exhaustive_checks_admit_order_464_and_refuse_465_for_three_variables(no_scan):
    with pytest.raises(ScanAdmitted):
        check_identity(build(Modular(464), Scalar(), 1, 2), IdentityId.MOUFANG, CheckMode.EXHAUSTIVE)
    with pytest.raises(BudgetExceeded, match=r"estimate 465\^3 = 100544625 evaluations"):
        check_identity(build(Modular(465), Scalar(), 1, 2), IdentityId.MOUFANG, CheckMode.EXHAUSTIVE)


@pytest.mark.parametrize("budget,method", [(999, "sampled"), (1000, "exhaustive")])
def test_auto_routes_by_the_environment_budget(monkeypatch, budget, method):
    monkeypatch.setenv("GGL_BUDGET", str(budget))
    g = build(Modular(10), Scalar(), 2, 3)  # 10^3 evaluations
    assert check_identity(g, IdentityId.ASSOCIATIVE, trials=10).method == method


# -- the linear engine ---------------------------------------------------------------

LINEAR_CARRIERS = [
    Modular(2),
    Modular(3),
    Modular(4),
    Modular(6),
    PureNeutrosophic(3),
    MixedNeutrosophic(2),
    IntervalOf(Modular(3)),
    IntervalOf(PureNeutrosophic(3)),
    IntervalOf(MixedNeutrosophic(2)),
]
LINEAR_SHAPES = [
    Scalar(),
    Matrix(1, 2),
    Matrix(2, 1),
    Matrix(1, 3),
    Poly(1, ProductKind.CONVOLUTION),
    Poly(2, ProductKind.CONVOLUTION),
    Poly(1, ProductKind.ENTRYWISE),
]
LINEAR_SPECS = [
    (c, s) for c in LINEAR_CARRIERS for s in LINEAR_SHAPES if (c.size() ** s.entry_count()) ** 3 <= 50_000
]


def linear_sweep(carrier, shape, pairs, identity):
    return identities.linear_failures(carrier, shape, [t for t, _ in pairs], [u for _, u in pairs], identity)


@pytest.mark.parametrize(
    "carrier,shape", LINEAR_SPECS, ids=[f"{c.token()}-{s.token()}" for c, s in LINEAR_SPECS]
)
def test_linear_verdicts_match_the_exhaustive_scan(carrier, shape):
    """Verdict and witness, for all 8 laws, on up to 40 pairs (zero
    parameters included) of every non-shuffle spec whose order^3 fits 50,000:
    the scan's first failure is the first unit assignment that fails."""
    pairs = all_pairs(carrier)
    pairs = pairs[:: max(1, len(pairs) // 40)]
    members = [build(carrier, shape, t, u) for t, u in pairs]
    for identity in IdentityId:
        want = [first_failure(g, identity, np.arange(g.order)) for g in members]
        assert linear_sweep(carrier, shape, pairs, identity) == want, identity


@pytest.mark.parametrize("cells", [1, 40, 1 << 17], ids=lambda c: f"cells={c}")
def test_linear_verdicts_do_not_depend_on_the_block_size(monkeypatch, cells):
    """Order 16 with 15 members: blocks of one member, of one or two (the
    48-cell rows of a three-variable law outgrow 40 cells) and of all."""
    carrier, shape = Modular(4), Matrix(1, 2)
    pairs = all_pairs(carrier)
    want = {identity: linear_sweep(carrier, shape, pairs, identity) for identity in IdentityId}
    set_chunk_cells(monkeypatch, cells)
    for identity in IdentityId:
        assert linear_sweep(carrier, shape, pairs, identity) == want[identity], identity


@pytest.mark.parametrize(
    "carrier,shape,ts,us,budget,error,message",
    [
        (Modular(5), Scalar(), [1, 2, 3], [1, 2], None, CarrierError,
         "linear verdicts need one u per t, got 3 t and 2 u"),
        (Modular(3), Poly(1, ProductKind.SHUFFLE), [1], [2], None, CarrierError,
         "linear verdicts need an additive product; shape poly:1:shuffle is a shuffle"),
        (Modular(10), Matrix(1, 7), [1], [2], None, BudgetExceeded,
         "enumeration cap exceeded: estimate 10^7 = 10000000 elements, cap is 1000000"),
        (Modular(3), Matrix(1, 2), [1], [2], "26", BudgetExceeded,
         "linear check cap exceeded: estimate 3*9 = 27 evaluations, budget is 26 (set GGL_BUDGET to raise it)"),
        (Modular(5), Scalar(), [0, 5], [0, 10], None, CarrierError,
         "parameter pair (0, 0) does not define a groupoid"),
    ],
    ids=["mismatched-lists", "shuffle", "past-the-cap", "past-the-budget", "zero-pair"],
)
def test_linear_engine_refuses_before_compiling(monkeypatch, no_compile, carrier, shape, ts, us, budget, error, message):
    if budget is not None:
        monkeypatch.setenv("GGL_BUDGET", budget)
    with pytest.raises(error) as err:
        identities.linear_failures(carrier, shape, ts, us, IdentityId.ASSOCIATIVE)
    assert str(err.value) == message


def test_linear_engine_admits_evaluations_equal_to_the_budget(monkeypatch):
    monkeypatch.setenv("GGL_BUDGET", "27")
    assert linear_sweep(Modular(3), Matrix(1, 2), [(1, 1), (2, 2)], IdentityId.ASSOCIATIVE) == [None, (1, 0, 0)]


# the law tuples T1-T6 and T10 evaluate at once (T1 and T10, T2, T3, T4 and
# T5, T6), then every law alone, and all of them, of one to three variables
LAW_TUPLES = [
    (IdentityId.IDEMPOTENT,),
    (IdentityId.ASSOCIATIVE,),
    (IdentityId.P_IDENTITY,),
    (IdentityId.LEFT_ALTERNATIVE, IdentityId.RIGHT_ALTERNATIVE),
    (IdentityId.P_IDENTITY, IdentityId.LEFT_ALTERNATIVE, IdentityId.RIGHT_ALTERNATIVE),
    *((law,) for law in IdentityId),
    tuple(IdentityId),
]
TUPLE_CARRIERS = [
    c
    for n in range(2, 10)
    for c in (Modular(n), PureNeutrosophic(n), IntervalOf(Modular(n)), MixedNeutrosophic(n))
    if c.size() <= 9
]


def tuple_failures(carrier, shape, ts, us, laws):
    """Per law, each member's first failure, read off one evaluation of the tuple."""
    found = [[] for _ in laws]
    for _, mism in identities._linear_mismatches(carrier, shape, ts, us, laws):
        for per_law, m in zip(found, mism):
            per_law += identities._first_failures(m)
    return found


TUPLE_CASES = [(c, None) for c in TUPLE_CARRIERS] + [(Modular(3), 40), (MixedNeutrosophic(2), 40)]


@pytest.mark.parametrize(
    "carrier,cells", TUPLE_CASES, ids=[c.token() + ("" if n is None else f"-cells={n}") for c, n in TUPLE_CASES]
)
def test_one_evaluation_of_a_law_tuple_matches_one_linear_call_per_law(monkeypatch, carrier, cells):
    """Every pair of the carrier, on three shapes: each law's witnesses off
    one shared evaluation equal its own ``linear_failures`` call, and on the
    scalar shape the theorem checks' verdict is that every law holds. At 40
    cells most sweeps take several blocks, of one member for three variables
    at orders 9 and 16."""
    pairs = all_pairs(carrier)
    ts, us = [t for t, _ in pairs], [u for _, u in pairs]
    shapes = (Scalar(), Matrix(1, 2), Poly(1, ProductKind.CONVOLUTION))
    want = {(s, law): identities.linear_failures(carrier, s, ts, us, law) for s in shapes for law in IdentityId}
    if cells is not None:
        set_chunk_cells(monkeypatch, cells)
    for shape in shapes:
        for laws in LAW_TUPLES:
            found = tuple_failures(carrier, shape, ts, us, laws)
            assert found == [want[shape, law] for law in laws], (shape, laws)
            if shape == Scalar():
                holds = [all(f is None for f in member) for member in zip(*found)]
                assert theorems._laws_hold(carrier, pairs, laws) == holds, laws


@pytest.mark.parametrize(
    "shape,ts,us,laws,budget,error,message",
    [
        (Poly(1, ProductKind.SHUFFLE), [0, 1], [0], (IdentityId.ASSOCIATIVE,), "1", CarrierError,
         "linear verdicts need one u per t, got 2 t and 1 u"),
        (Poly(1, ProductKind.SHUFFLE), [1, 0], [1, 0], (IdentityId.ASSOCIATIVE,), "1", CarrierError,
         "parameter pair (0, 0) does not define a groupoid"),
        (Poly(6, ProductKind.SHUFFLE), [1], [2], (IdentityId.ASSOCIATIVE,), "1", CarrierError,
         "linear verdicts need an additive product; shape poly:6:shuffle is a shuffle"),
        (Matrix(1, 7), [1], [2], (IdentityId.ASSOCIATIVE,), "1", BudgetExceeded,
         "enumeration cap exceeded: estimate 10^7 = 10000000 elements, cap is 1000000"),
        (Matrix(1, 2), [1], [2], (IdentityId.IDEMPOTENT, IdentityId.ASSOCIATIVE), "299", BudgetExceeded,
         "linear check cap exceeded: estimate 3*100 = 300 evaluations, budget is 299 (set GGL_BUDGET to raise it)"),
        (Matrix(1, 2), [1], [2], (IdentityId.ASSOCIATIVE, IdentityId.IDEMPOTENT), "99", BudgetExceeded,
         "linear check cap exceeded: estimate 3*100 = 300 evaluations, budget is 99 (set GGL_BUDGET to raise it)"),
        (Matrix(1, 2), [1], [2], (IdentityId.COMMUTATIVE, IdentityId.MOUFANG), "199", BudgetExceeded,
         "linear check cap exceeded: estimate 2*100 = 200 evaluations, budget is 199 (set GGL_BUDGET to raise it)"),
    ],
    ids=["lengths-first", "zero-pair-before-shuffle", "shuffle-before-cap", "cap-before-budget",
         "second-law-over", "first-law-over", "first-of-two-over"],
)
def test_a_law_tuple_is_refused_in_order_before_compiling(monkeypatch, no_compile, shape, ts, us, laws, budget, error, message):
    """Over zn:10, each case also breaks every later refusal: the budget
    refusal names the first law, in tuple order, whose vars·order
    evaluations are past it."""
    monkeypatch.setenv("GGL_BUDGET", budget)
    with pytest.raises(error) as err:
        tuple_failures(Modular(10), shape, ts, us, laws)
    assert str(err.value) == message


LIFTED_SHAPES = [Matrix(1, 2), Matrix(2, 1), Poly(1, ProductKind.ENTRYWISE), Poly(0, ProductKind.CONVOLUTION)]


@pytest.mark.parametrize("carrier", LINEAR_CARRIERS, ids=[c.token() for c in LINEAR_CARRIERS])
def test_lifted_verdicts_are_the_shadows_exhaustive_verdicts_on_the_diagonal(monkeypatch, carrier):
    """Every law, every pair and every entrywise shape: the lifted verdict
    is the scalar shadow's exhaustive one, its witness (v,) lifted to the
    diagonal (v, ..., v), and the lifted check compiles no table."""
    shadows = {}
    for t, u in all_pairs(carrier):
        shadow = build(carrier, Scalar(), t, u)
        for identity in IdentityId:
            shadows[t, u, identity] = check_identity(shadow, identity, CheckMode.EXHAUSTIVE)

    def refuse(*args):
        raise AssertionError("a lifted check compiled a table")

    monkeypatch.setattr(groupoid, "compile_tables", refuse)
    for shape in LIFTED_SHAPES:
        k = shape.entry_count()
        for (t, u, identity), shadow in shadows.items():
            witness = None if shadow.witness is None else tuple(e * k for e in shadow.witness)
            labels = None if witness is None else tuple(format_element(carrier, shape, e) for e in witness)
            want = IdentityVerdict(identity.value, "lifted", shadow.status, witness, labels)
            assert check_identity(build(carrier, shape, t, u), identity, CheckMode.LIFTED) == want, (shape, t, u)


# -- the sampled engine --------------------------------------------------------------

TWO_WORD_NZN = MixedNeutrosophic(70_001)  # 4900140001 values: one draw takes two 32-bit words


@pytest.mark.parametrize(
    "size",
    [1, 2, 3, 4, 5, 8, 1 << 16, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, TWO_WORD_NZN.size(), (1 << 62) + 1],
)
def test_bulk_draws_match_randrange(size):
    """Powers of two reject half their candidates; from 2^32 up a draw takes
    two words."""
    for seed in (0, 7, 2024):
        draws, rng = identities._Draws(seed, size), random.Random(seed)
        for count in (1, 1, 2, 4, 8, 16, 3, 700, 1):
            assert draws.take(count).tolist() == [rng.randrange(size) for _ in range(count)], (seed, count)


def test_sampling_a_two_word_carrier_matches_the_per_trial_oracle():
    g = build(TWO_WORD_NZN, Poly(1, ProductKind.CONVOLUTION), (2, 5), (69_999, 1))
    for identity in IdentityId:
        for seed in (0, 3):
            for trials in (1, 5, 40):
                want = sampled_loop_oracle(g, identity, trials, seed)
                got = check_identity(g, identity, CheckMode.SAMPLED, trials=trials, seed=seed)
                assert (got.to_json(), got.witness) == (want.to_json(), want.witness), (identity, seed, trials)


SAMPLED_CASES = {
    "zn:9-scalar": build(Modular(9), Scalar(), 2, 5),
    "zn:10-scalar": build(Modular(10), Scalar(), 5, 6),
    "zn:10000-scalar": build(Modular(10_000), Scalar(), 3, 4),  # reads cells, not the 10^8 table
    "zni:4-mat:1x2": build(PureNeutrosophic(4), Matrix(1, 2), 2, 3),
    "nzn:3-poly:2:entrywise": build(MixedNeutrosophic(3), Poly(2, ProductKind.ENTRYWISE), (1, 1), (2, 0)),
    "o(zn:5)-poly:2:conv": build(IntervalOf(Modular(5)), Poly(2, ProductKind.CONVOLUTION), 2, 2),
    "zn:8-poly:2:shuffle": build(Modular(8), Poly(2, ProductKind.SHUFFLE), 1, 3),
    "zn:10-poly:7:conv": build(Modular(10), Poly(7, ProductKind.CONVOLUTION), 3, 3),  # past the enumeration cap
    "o(zn:10)-mat:12x5": build(IntervalOf(Modular(10)), Matrix(12, 5), 3, 7),  # past the enumeration cap
    "table-rare-failures": rare_failure_table(),
    "table-seeded": seeded_table(7, 3),
}
# chunks of 1, 2, 4, ... trials: 1, 3, 7, 15 and 31 trials end a chunk
SAMPLED_TRIALS = (1, 2, 3, 4, 6, 7, 8, 15, 16, 30, 31, 32, 40)


@pytest.mark.parametrize("g", SAMPLED_CASES.values(), ids=SAMPLED_CASES)
@pytest.mark.parametrize("cells", [None, 48], ids=["default-chunks", "capped-chunks"])
def test_sampled_engine_matches_the_per_trial_oracle(monkeypatch, g, cells):
    """48 cells cap a chunk at 24 two-variable or 16 three-variable scalar
    trials, and at one trial for the widest shapes."""
    if cells is not None:
        monkeypatch.setattr(identities, "_CHUNK_CELLS", cells)
    for identity in IdentityId:
        for seed in (0, 7, 2024):
            for trials in SAMPLED_TRIALS:
                want = sampled_loop_oracle(g, identity, trials, seed)
                got = check_identity(g, identity, CheckMode.SAMPLED, trials=trials, seed=seed)
                assert (got.to_json(), got.witness) == (want.to_json(), want.witness), (identity, seed, trials)


def test_sampled_witnesses_deep_in_the_draw_match_the_oracle():
    """Commutativity fails on the rare-failure table for 4 of 100 pairs, so
    the first failure falls in a late chunk."""
    g = rare_failure_table()
    positions = set()
    for seed in range(12):
        want = sampled_loop_oracle(g, IdentityId.COMMUTATIVE, 600, seed)
        got = check_identity(g, IdentityId.COMMUTATIVE, CheckMode.SAMPLED, trials=600, seed=seed)
        assert (got.to_json(), got.witness) == (want.to_json(), want.witness), seed
        rng = random.Random(seed)
        for trial in range(600):
            x, y = rng.randrange(10), rng.randrange(10)
            if g.table_array()[x, y] != g.table_array()[y, x]:
                positions.add(trial.bit_length())  # the chunk that trial falls in
                break
    assert len(positions) >= 3


def test_sampling_a_space_past_the_cap_never_forms_an_element_index(monkeypatch):
    g = build(Modular(10), Poly(7, ProductKind.CONVOLUTION), 3, 3)

    def refuse(*args):
        raise AssertionError("sampling multiplied element indices")

    monkeypatch.setattr(g, "products", refuse)
    v = check_identity(g, IdentityId.COMMUTATIVE, trials=300, seed=5)
    assert (v.method, v.status) == ("sampled", "sampled_no_counterexample")


def test_checks_leave_no_reference_cycles(monkeypatch):
    """A scan's and a sampler's arrays are freed when the check returns, not
    held in a reference cycle until the cyclic collector runs."""
    g = build(Modular(5), Matrix(1, 3), 1, 0)  # order 125: every 3-variable law holds
    monkeypatch.setattr(identities, "_CHUNK_CELLS", 2000)  # several blocks of planes
    checks = [
        lambda: check_identity(g, IdentityId.MOUFANG, CheckMode.EXHAUSTIVE),
        lambda: check_identity(g, IdentityId.BOL, CheckMode.SAMPLED, trials=500, seed=1),
        lambda: identity_holds_on_subset(g, range(0, 125, 3), IdentityId.ASSOCIATIVE),
    ]
    for check in checks:
        check()  # the table is built and kept
    gc.collect()
    gc.disable()
    try:
        for check in checks:
            check()
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- one-variable laws at large orders ------------------------------------------------


def test_one_variable_checks_at_order_1e5_need_no_table():
    g = build(Modular(10), Matrix(1, 5), 3, 7)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE)
    assert (v.status, v.method, v.witness_labels) == ("fails", "exhaustive", ("[[0,0,0,0,1]]",))
    assert "table" not in g._memo

    g = build(Modular(10), Poly(4, ProductKind.CONVOLUTION), 3, 7)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.AUTO)
    assert (v.status, v.method, v.witness_labels) == ("fails", "exhaustive", ("poly[0,0,0,0,1]",))

    # each member squares the domain through its own product
    members = [build(Modular(10), Matrix(1, 5), t, u) for t, u in ((3, 7), (4, 7), (0, 1), (5, 5))]
    verdicts = [check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE) for g in members]
    assert [v.witness_labels for v in verdicts] == [("[[0,0,0,0,1]]",), None, None, ("[[0,0,0,0,1]]",)]
    assert not any("table" in g._memo for g in members)


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
