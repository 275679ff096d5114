"""Curated worked examples with embedded expected values.

Each demo builds a small groupoid, recomputes a hand-checkable calculation,
and compares against goldens frozen in this file. The registry keys are
opaque ids; the title says what each demo exercises. The `demo` CLI
subcommand prints the lines and exits nonzero when any golden mismatches,
so the output is suitable for golden-file testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .carrier import CarrierError, IntervalOf, Modular, PureNeutrosophic
from .groupoid import Groupoid, build, cayley_table
from .identities import CheckMode, IdentityId, check_identity
from .shape import Matrix, Poly, ProductKind, Scalar, format_element
from .structure import smarandache
from .theorems import count_class


@dataclass(frozen=True)
class DemoResult:
    demo_id: str
    title: str
    ok: bool
    lines: tuple[str, ...]
    failures: tuple[str, ...]


class _Recorder:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failures: list[str] = []

    def note(self, text: str) -> None:
        self.lines.append(text)

    def expect(self, name: str, got, want) -> None:
        self.lines.append(f"{name}: {got}")
        if got != want:
            self.failures.append(f"{name}: got {got!r}, want {want!r}")


_REGISTRY: dict[str, tuple[str, Callable[[_Recorder], None]]] = {}


def _demo(demo_id: str, title: str):
    def wrap(fn: Callable[[_Recorder], None]):
        _REGISTRY[demo_id] = (title, fn)
        return fn

    return wrap


def list_demos() -> tuple[tuple[str, str], ...]:
    return tuple((k, _REGISTRY[k][0]) for k in _REGISTRY)


def run_demo(demo_id: str) -> DemoResult:
    if demo_id not in _REGISTRY:
        raise CarrierError(f"unknown demo id: {demo_id!r}")
    title, fn = _REGISTRY[demo_id]
    rec = _Recorder()
    fn(rec)
    return DemoResult(
        demo_id=demo_id,
        title=title,
        ok=not rec.failures,
        lines=tuple(rec.lines),
        failures=tuple(rec.failures),
    )


def run_all() -> list[DemoResult]:
    return [run_demo(k) for k in _REGISTRY]


# -- the demos -----------------------------------------------------------------


@_demo("1.1.1", "order-7 table for (3,4) mod 7; simplicity by subset sweep")
def _d_1_1_1(rec: _Recorder) -> None:
    from .structure import is_simple

    g = build(Modular(7), Scalar(), 3, 4)
    want_rows = (
        (0, 4, 1, 5, 2, 6, 3),
        (3, 0, 4, 1, 5, 2, 6),
        (6, 3, 0, 4, 1, 5, 2),
        (2, 6, 3, 0, 4, 1, 5),
        (5, 2, 6, 3, 0, 4, 1),
        (1, 5, 2, 6, 3, 0, 4),
        (4, 1, 5, 2, 6, 3, 0),
    )
    table = cayley_table(g)
    for i, row in enumerate(table.rows):
        rec.expect(f"row {i}", tuple(row), want_rows[i])
    verdict = is_simple(g)
    rec.expect("simple", verdict.simple, True)
    rec.expect("search complete", verdict.complete, True)


@_demo("2.1.1", "1x3 rows mod 4 with (2,3); an associativity failure")
def _d_2_1_1(rec: _Recorder) -> None:
    g = build(Modular(4), Matrix(1, 3), 2, 3)
    a, b, c = (3, 2, 1), (1, 0, 3), (0, 2, 2)
    ab = g.star(a, b)
    rec.expect("a*b", ab, (1, 0, 3))
    rec.expect("(a*b)*c", g.star(ab, c), (2, 2, 0))
    rec.expect("a*(b*c)", g.star(a, g.star(b, c)), (0, 2, 2))


@_demo("2.1.5", "5x1 columns mod 12 with (2,3); an associativity failure")
def _d_2_1_5(rec: _Recorder) -> None:
    g = build(Modular(12), Matrix(5, 1), 2, 3)
    a = (10, 2, 0, 0, 1)
    b = (3, 2, 11, 0, 0)
    c = (1, 0, 9, 2, 0)
    ab = g.star(a, b)
    bc = g.star(b, c)
    rec.expect("a*b", ab, (5, 10, 9, 0, 2))
    rec.expect("(a*b)*c", g.star(ab, c), (1, 8, 9, 6, 4))
    rec.expect("b*c", bc, (9, 4, 1, 6, 0))
    rec.expect("a*(b*c)", g.star(a, bc), (11, 4, 3, 6, 2))


@_demo("2.2.1", "degree-4 shuffle product mod 5; non-commutative, non-associative")
def _d_2_2_1(rec: _Recorder) -> None:
    g = build(Modular(5), Poly(4, ProductKind.SHUFFLE), 1, 1)
    f = (1, 4, 3, 0, 0)
    p = (4, 0, 0, 1, 4)
    h = (1, 4, 1, 2, 3)
    fp = g.star(f, p)
    rec.expect("f*g", fp, (0, 0, 3, 0, 0))
    rec.expect("g*f", g.star(p, f), (1, 0, 0, 0, 4))
    rec.expect("(f*g)*h", g.star(fp, h), (0, 0, 1, 0, 0))
    ph = g.star(p, h)
    rec.expect("g*h", ph, (1, 0, 0, 3, 4))
    rec.expect("f*(g*h)", g.star(f, ph), (0, 0, 4, 0, 0))


@_demo("2.3.51", "intervals mod 8 with (4,5) are idempotent")
def _d_2_3_51(rec: _Recorder) -> None:
    g = build(IntervalOf(Modular(8)), Scalar(), 4, 5)
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE)
    rec.expect("idempotent", v.status, "holds")


@_demo("2.5.20", "1x3 interval rows mod 5 with (2,3); one product")
def _d_2_5_20(rec: _Recorder) -> None:
    carrier = IntervalOf(Modular(5))
    g = build(carrier, Matrix(1, 3), 2, 3)
    a = (1, 3, 2)
    b = (4, 1, 2)
    ab = g.star(a, b)
    rec.expect("A*B", ab, (4, 4, 0))
    rec.note(f"A*B formatted: {format_element(carrier, g.spec.shape, ab)}")


@_demo("2.6.4", "(2,3) mod 4: the Bol law fails globally, holds on {0,2}")
def _d_2_6_4(rec: _Recorder) -> None:
    g = build(Modular(4), Scalar(), 2, 3)
    v = check_identity(g, IdentityId.BOL, CheckMode.EXHAUSTIVE)
    rec.expect("bol", v.status, "fails")
    rec.expect("bol witness", v.witness_labels, ("1", "0", "0"))
    sm = smarandache(g, IdentityId.BOL)
    rec.expect("smarandache status", sm.status, "holds_on_semigroup_witness")
    rec.expect("law-bearing subset", sm.identity_witness.labels, ("0", "2"))


@_demo("2.6.5", "(5,6) mod 10 satisfies Moufang everywhere; lifts to 12x5 interval matrices")
def _d_2_6_5(rec: _Recorder) -> None:
    g = build(Modular(10), Scalar(), 5, 6)
    v = check_identity(g, IdentityId.MOUFANG, CheckMode.EXHAUSTIVE)
    rec.expect("moufang (scalar)", v.status, "holds")
    big = build(IntervalOf(Modular(10)), Matrix(12, 5), 5, 6)
    lifted = check_identity(big, IdentityId.MOUFANG, CheckMode.LIFTED)
    rec.expect("moufang (12x5 intervals, lifted)", lifted.status, "holds")
    sm = smarandache(g, IdentityId.MOUFANG)
    rec.expect("smarandache status", sm.status, "strong_holds")


@_demo("3.2.1", "the two groupoids on {0, I, 2I} from the pair {I, 2I}")
def _d_3_2_1(rec: _Recorder) -> None:
    g1 = build(
        PureNeutrosophic(3), Scalar(), 1, 2, t_indeterminate=True, u_indeterminate=True
    )
    t1 = cayley_table(g1)
    rec.expect("labels", t1.labels, ("0", "I", "2I"))
    rec.expect("(I,2I) rows", tuple(tuple(r) for r in t1.rows), ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
    g2 = build(
        PureNeutrosophic(3), Scalar(), 2, 1, t_indeterminate=True, u_indeterminate=True
    )
    t2 = cayley_table(g2)
    rec.expect("(2I,I) rows", tuple(tuple(r) for r in t2.rows), ((0, 1, 2), (2, 0, 1), (1, 2, 0)))
    rec.expect("pair count", count_class(PureNeutrosophic(3), "all_pairs"), 2)


@_demo("3.2.4", "(2I,5I) mod 6 is idempotent; four idempotent pairs exist")
def _d_3_2_4(rec: _Recorder) -> None:
    g = build(
        PureNeutrosophic(6), Scalar(), 2, 5, t_indeterminate=True, u_indeterminate=True
    )
    v = check_identity(g, IdentityId.IDEMPOTENT, CheckMode.EXHAUSTIVE)
    rec.expect("idempotent", v.status, "holds")
    rec.expect(
        "idempotent pairs (equal included)",
        count_class(PureNeutrosophic(6), "idempotent_pairs", equal_pairs_included=True),
        4,
    )


@_demo("3.2.7", "(2I,2I) mod 5: full table and one associativity failure")
def _d_3_2_7(rec: _Recorder) -> None:
    carrier = PureNeutrosophic(5)
    g = build(carrier, Scalar(), 2, 2, t_indeterminate=True, u_indeterminate=True)
    table = cayley_table(g)
    rec.expect("labels", table.labels, ("0", "I", "2I", "3I", "4I"))
    rec.expect(
        "rows",
        tuple(tuple(r) for r in table.rows),
        ((0, 2, 4, 1, 3), (2, 4, 1, 3, 0), (4, 1, 3, 0, 2), (1, 3, 0, 2, 4), (3, 0, 2, 4, 1)),
    )
    lhs = g.star(g.star((2,), (3,)), (4,))
    rhs = g.star((2,), g.star((3,), (4,)))
    rec.expect("(2I*3I)*4I", format_element(carrier, g.spec.shape, lhs), "3I")
    rec.expect("2I*(3I*4I)", format_element(carrier, g.spec.shape, rhs), "2I")
