"""Groupoid construction, level taxonomy, and Cayley table serialization."""

import json

import numpy as np
import pytest

import groupoidlab
from groupoidlab import (
    BudgetExceeded,
    CarrierError,
    CayleyTable,
    CheckMode,
    IdentityId,
    Level,
    Matrix,
    MixedNeutrosophic,
    Modular,
    Poly,
    ProductKind,
    PureNeutrosophic,
    Scalar,
    build,
    cayley_table,
    check_identity,
    from_table,
    parse_carrier,
)
from groupoidlab.groupoid import Groupoid, classify_level

# order-7 scalar groupoid with pair (3,4): full reference table
MOD7_TABLE = (
    (0, 4, 1, 5, 2, 6, 3),
    (3, 0, 4, 1, 5, 2, 6),
    (6, 3, 0, 4, 1, 5, 2),
    (2, 6, 3, 0, 4, 1, 5),
    (5, 2, 6, 3, 0, 4, 1),
    (1, 5, 2, 6, 3, 0, 4),
    (4, 1, 5, 2, 6, 3, 0),
)


def test_reference_table_order_7():
    g = build(Modular(7), Scalar(), 3, 4)
    assert [tuple(r) for r in g.index_table()] == list(MOD7_TABLE)


def test_star_and_products_agree_with_table():
    g = build(Modular(7), Scalar(), 3, 4)
    table = g.index_table()
    idx = np.arange(7)
    assert g.products(idx[:, None], idx).tolist() == table
    for i in range(7):
        for j in range(7):
            assert g.star((i,), (j,)) == (table[i][j],)


def test_element_index_inverts_elements():
    g = build(MixedNeutrosophic(3), Scalar(), (1, 0), (2, 1))
    for i, e in enumerate(g.elements()):
        assert g.element_index(e) == i


def test_zero_index_and_labels():
    g = build(Modular(5), Scalar(), 2, 3)
    assert g.zero_index() == 0
    assert g.labels() == ["0", "1", "2", "3", "4"]
    assert g.order == 5


@pytest.mark.parametrize("token", ["zn:4", "zni:3", "nzn:2", "o(nzn:2)"])
@pytest.mark.parametrize("shape", [Scalar(), Matrix(1, 2), Poly(1, ProductKind.SHUFFLE)], ids=lambda s: s.token())
def test_zero_index_is_the_index_of_the_zero_element(token, shape):
    carrier = parse_carrier(token)
    one = carrier.value_at(1)
    g = build(carrier, shape, one, one)
    assert g.zero_index() == g.element_index((carrier.zero(),) * shape.entry_count()) == 0


# -- level taxonomy -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,t,u,level",
    [
        (8, 3, 5, Level.ONE),    # both single primes, unit gcd
        (6, 2, 3, Level.ONE),
        (7, 3, 4, Level.TWO),    # unit gcd, distinct, 4 is not prime
        (6, 1, 5, Level.TWO),
        (6, 2, 4, Level.THREE),  # gcd 2
        (12, 4, 8, Level.THREE),
        (6, 3, 3, Level.FOUR),   # equal pair
        (5, 1, 1, Level.FOUR),
        (5, 0, 2, Level.FIVE),   # one parameter zero
        (5, 2, 0, Level.FIVE),
        (12, -5, 7, Level.FOUR),  # equal mod 12: reduced before classifying
        (12, 14, 2, Level.FOUR),
    ],
)
def test_level_taxonomy(n, t, u, level):
    assert build(Modular(n), Scalar(), t, u).level is level
    assert classify_level(Modular(n), t, u) is level


def test_level_precedence_zero_beats_gcd():
    # (0, 4) has non-unit gcd with itself but the zero case wins
    assert classify_level(Modular(8), 0, 4) is Level.FIVE
    # equal pair wins over non-unit gcd
    assert classify_level(Modular(8), 4, 4) is Level.FOUR


def test_zero_zero_pair_rejected():
    with pytest.raises(CarrierError):
        build(Modular(5), Scalar(), 0, 0)


def test_one_zero_parameter_gives_projection_row():
    g = build(Modular(5), Scalar(), 2, 0)
    assert g.table_array()[0].tolist() == [0, 0, 0, 0, 0]


def test_indeterminate_parameter_flags():
    g = build(PureNeutrosophic(5), Scalar(), 2, 2, t_indeterminate=True,
              u_indeterminate=True)
    assert g.spec.t_indeterminate and g.spec.u_indeterminate
    h = build(PureNeutrosophic(5), Scalar(), 2, 2)
    assert not h.spec.t_indeterminate and not h.spec.u_indeterminate
    # same embedded arithmetic either way on a pure-indeterminate carrier
    assert g.index_table() == h.index_table()


# -- table-backed groupoids ---------------------------------------------------


def test_from_table_roundtrip():
    g = build(Modular(7), Scalar(), 3, 4)
    h = from_table(g.labels(), g.index_table())
    assert h.index_table() == g.index_table()
    assert h.labels() == g.labels()
    assert h.level is None
    assert h.zero_index() is None


def test_from_table_accepts_label_rows():
    h = from_table(("a", "b"), (("a", "b"), ("b", "a")))
    assert h.index_table() == [[0, 1], [1, 0]]


def test_from_table_validation():
    with pytest.raises(ValueError):
        from_table(("a", "b"), ((0, 1), (1,)))  # ragged rows
    with pytest.raises(ValueError):
        from_table(("a", "b"), ((0, 2), (1, 0)))  # index out of range
    with pytest.raises(ValueError):
        from_table(("a", "b"), ((0, 1),))  # wrong row count
    with pytest.raises(ValueError):
        from_table(("a", "a"), ((0, 1), (1, 0)))  # duplicate labels


# the three ways in to a table-backed groupoid share one validator
TABLE_ENTRY_POINTS = {
    "from_table": from_table,
    "Groupoid": lambda labels, rows: Groupoid(labels=labels, table=rows),
    "from_json": lambda labels, rows: CayleyTable.from_json(
        json.dumps({"labels": list(labels), "table": [list(r) for r in rows]})
    ),
}


@pytest.mark.parametrize("entry", sorted(TABLE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "rows,message",
    [
        (((0, 1), (1,)), "table must be square and match the label count"),
        (((0, 1),), "table must be square and match the label count"),
        (((0, 1), (2, 0)), "cell (1,0) leaves the element set: index 2"),
        (((0, -1), (1, 0)), "cell (0,1) leaves the element set: index -1"),
    ],
)
def test_table_validation_messages(entry, rows, message):
    with pytest.raises(CarrierError) as err:
        TABLE_ENTRY_POINTS[entry](("a", "b"), rows)
    assert str(err.value) == message


@pytest.mark.parametrize("entry", sorted(TABLE_ENTRY_POINTS))
def test_table_labels_must_be_distinct(entry):
    with pytest.raises(CarrierError) as err:
        TABLE_ENTRY_POINTS[entry](("a", "a"), ((0, 1), (1, 0)))
    assert str(err.value) == "table labels must be distinct"


@pytest.mark.parametrize("entry", sorted(TABLE_ENTRY_POINTS))
def test_a_table_needs_at_least_one_label(entry):
    with pytest.raises(CarrierError) as err:
        TABLE_ENTRY_POINTS[entry]((), ())
    assert str(err.value) == "a table needs at least one label"


def test_label_cells_outside_the_labels_name_the_cell():
    with pytest.raises(CarrierError) as err:
        from_table(("a", "b"), (("a", "b"), ("b", "c")))
    assert str(err.value) == "cell (1,1) leaves the element set: 'c'"


@pytest.mark.parametrize("entry", sorted(TABLE_ENTRY_POINTS))
@pytest.mark.parametrize("cell", [0.7, 1.0, True, None], ids=["float", "integral-float", "bool", "none"])
def test_cells_are_labels_or_integer_indices(entry, cell):
    with pytest.raises(CarrierError) as err:
        TABLE_ENTRY_POINTS[entry](("a", "b"), ((0, 1), (cell, 0)))
    assert str(err.value) == f"cell (1,0) is neither a label nor an index: {cell!r}"


def test_numpy_integer_cells_are_indices():
    assert from_table(("a", "b"), np.array([[0, 1], [1, 0]])).index_table() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("labels,bad", [([None, "1"], None), (["a", 1], 1), ([1, 1.0], 1)], ids=["null", "int", "number"])
def test_json_labels_must_be_strings(labels, bad):
    text = json.dumps({"labels": labels, "table": [[0, 1], [1, 0]]})
    with pytest.raises(CarrierError) as err:
        CayleyTable.from_json(text)
    assert str(err.value) == f"table label {bad!r} is not a string"


def test_json_label_cells_read_as_in_from_table():
    ct = CayleyTable.from_json('{"labels": ["a", "b"], "table": [["a", "b"], [1, "a"]]}')
    assert ct == CayleyTable(labels=("a", "b"), rows=((0, 1), (1, 0)))


@pytest.mark.parametrize(
    "text,message",
    [
        ("[]", 'a table document is an object with a "labels" list and a "table" list'),
        ('{"labels": ["a", "b"]}', 'a table document is an object with a "labels" list and a "table" list'),
        ('{"labels": "ab", "table": []}', 'a table document is an object with a "labels" list and a "table" list'),
        ('{"labels": ["a", "b"], "table": [[0, 1], 1]}', "table must be square and match the label count"),
        ('{"labels": ["a", "b"], "table": [[0, 1], "ba"]}', "table must be square and match the label count"),
    ],
    ids=["list", "no-table", "string-labels", "number-row", "string-row"],
)
def test_malformed_json_documents_are_refused(text, message):
    with pytest.raises(CarrierError) as err:
        CayleyTable.from_json(text)
    assert str(err.value) == message


def test_json_that_does_not_parse_is_refused():
    with pytest.raises(CarrierError, match="^table JSON does not parse: "):
        CayleyTable.from_json('{"labels": ["a"]')


@pytest.mark.parametrize(
    "text,message",
    [
        ("a\tb\na\tb\nb\n", "table must be square and match the label count"),
        ("a\tb\na\tb\n", "table must be square and match the label count"),
        ("a\tb\na\tb\nb\tc\n", "cell (1,1) leaves the element set: 'c'"),
        ("a\ta\na\ta\na\ta\n", "table labels must be distinct"),
        ("\n\n", "empty table text"),
    ],
    ids=["ragged-row", "missing-row", "unknown-label", "repeated-label", "empty"],
)
def test_tsv_refusals_come_from_the_one_validator(text, message):
    with pytest.raises(CarrierError) as err:
        CayleyTable.from_tsv(text)
    assert str(err.value) == message


# -- budgets and large spaces -------------------------------------------------


def test_large_space_has_exact_order_and_is_not_enumerable():
    g = build(parse_carrier("o(zn:10)"), Matrix(12, 5), 3, 7)
    assert g.order == 10**60 and not g.enumerable
    with pytest.raises(BudgetExceeded):
        g.elements()
    # spot products still work without enumeration
    x = tuple([1] * 60)
    y = tuple([2] * 60)
    assert g.star(x, y) == tuple([(3 * 1 + 7 * 2) % 10] * 60)


CAP_REFUSAL = "enumeration cap exceeded: estimate 10^16 = 10000000000000000 elements, cap is 1000000"


@pytest.mark.parametrize(
    "read",
    [
        Groupoid.elements,
        Groupoid.labels,
        Groupoid.zero_index,
        Groupoid.table_array,
        Groupoid.index_table,
        cayley_table,
        lambda g: check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.EXHAUSTIVE),
    ],
    ids=["elements", "labels", "zero_index", "table_array", "index_table", "cayley_table", "exhaustive"],
)
def test_every_enumerating_read_past_the_cap_is_refused_in_one_message(read):
    g = build(Modular(10), Matrix(4, 4), 2, 3)
    with pytest.raises(BudgetExceeded) as err:
        read(g)
    assert str(err.value) == CAP_REFUSAL


def test_the_enumeration_cap_admits_10_to_the_6_elements():
    assert build(Modular(10), Matrix(2, 3), 2, 3).enumerable
    past = build(Modular(10**6 + 1), Scalar(), 2, 3)
    assert past.order == 10**6 + 1 and not past.enumerable


def test_a_table_backed_groupoid_is_enumerable():
    h = from_table(("a", "b"), ((0, 1), (1, 0)))
    assert h.order == 2 and h.enumerable
    assert h.labels() == ["a", "b"]


def test_a_groupoid_holds_its_spec_order_and_memo_alone():
    for g in (build(Modular(5), Scalar(), 2, 3), from_table(("a",), ((0,),))):
        assert set(vars(g)) == {"spec", "order", "_memo"}


def test_cayley_table_cap():
    g = build(Modular(100), Scalar(), 3, 4)
    with pytest.raises(BudgetExceeded):
        cayley_table(g, cap=50)


# -- serialization ------------------------------------------------------------


def test_cayley_table_tsv_roundtrip():
    g = build(Modular(7), Scalar(), 3, 4)
    ct = cayley_table(g)
    assert ct.labels == tuple(str(i) for i in range(7))
    assert ct.rows[0] == MOD7_TABLE[0]
    text = ct.to_tsv()
    assert text.splitlines()[0] == "\t".join(ct.labels)
    assert CayleyTable.from_tsv(text) == ct
    assert text.endswith("\n")


def test_cayley_table_json_roundtrip():
    g = build(Modular(5), Scalar(), 2, 3)
    ct = cayley_table(g)
    assert CayleyTable.from_json(ct.to_json()) == ct


def test_from_table_then_cayley_table_identity():
    ct = cayley_table(build(Modular(6), Scalar(), 2, 4))
    h = from_table(ct.labels, ct.rows)
    assert cayley_table(h) == ct


# -- the package's exports ----------------------------------------------------


def test_every_export_resolves_once():
    names = groupoidlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(groupoidlab, n)] == []
