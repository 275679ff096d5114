"""A registry of executable checks over parameter ranges, plus class counting.

Each check instantiates groupoids across a parameter range, runs the bound
identity/structure machinery, and compares the outcome with an arithmetic
predicate or a frozen expected value. A check is declared once, where its
runner is written, by ``@_check(check_id, tier, summary, **defaults)``; the
registry lists the checks in declaration order. Checks come in two tiers:

* ``asserted`` — every instance must agree; any mismatch is a failure;
* ``report_only`` — instances are recorded as observations with an ``agrees``
  flag; disagreement is allowed and preserved for inspection.

The checks over ranges of moduli (T1–T7, T9, T10, T15–T17) draw their
parameter pairs from one sweep, ``_sweeps``: every pair for each modulus and
carrier family, and a runner keeps only its claim and its failure text,
formatted only when an instance fails. T1–T6 and T10 decide all of a sweep's
laws in one evaluation on its parameter arrays (``identities._linear_mismatches``,
which ``linear_failures`` also reads), exact since every scalar product is
additive, and T16 reads 0*y and x*0 from one product a block
(``_zero_rows``), so none of them builds a groupoid or compiles a table for a
pair that passes; the tests hold those verdicts against the exhaustive scan.
T1, T2, T5 and T6 share one runner, ``_congruence``: the laws of a closed
form (``identities.CLOSED_FORMS``) hold exactly when it says so. T11 and T14
share ``_strong``: each law holds strongly in the Smarandache sense. T7
decides by transposition: u·x + t·y = y ∗₍t,u₎ x, so G(u,t) is the opposite
of G(t,u), and the left ideals of a groupoid are the right ideals of its
opposite, for every subset. T7 passes a pair whose table is the transpose
of its dual's and fails any other; since the products are additive, that
reads the same two rows of n a pair, the pairs' ``_zero_rows`` against
their duals', with each sweep's total refused against the work budget
first, and builds no groupoid or table. T17 refuses each sweep once on its
n*2^n, then reads its stacked tables off ``sweep_products`` blocks of at most
_CHUNK_CELLS masks of flags (one member when its 2^n alone are more): a
member fails with a closed subset of two or more elements, off its closed
flags, or a one-sided ideal, which, since an ideal is closed, can then only
be a singleton {x} with x*G = {x} or G*x = {x}, read off its table. Only a
failing member's ideals are counted, by ``enumerate_ideals``' filter of its
closed rows, and T17 builds no groupoid. T9 and T15 build the sweep's
groupoids (``_groupoids``). T9 reads each groupoid's subgroupoids as
membership rows: their sizes, their normality (``structure._normal_rows``)
and their label lists, with no subset handle built. T15 reads the public
``enumerate_ideals``. T10 reads the idempotent law (a singleton {x} is a
closed semigroup exactly when x*x = x) and classifies no subset unless a pair
fails.

A tuple default is a (lo, hi) range of moduli, the only kind ``--range``
overrides; other parameters are lists or numbers. The default ranges keep
the whole suite within interactive runtimes; every range can be widened per
check (the CLI exposes ``--range``), and ``verify_theorem`` refuses a key the
check does not declare and a range that is not (lo, hi) with 2 <= lo <= hi.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .carrier import (
    Carrier,
    CarrierError,
    IntervalOf,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    is_prime,
    parse_carrier,
)
from .groupoid import (
    _CHUNK_CELLS,
    Groupoid,
    build,
    check_budget,
    sweep_products,
)
from .identities import (
    _ALTERNATIVE,
    CLOSED_FORMS,
    CheckMode,
    IdentityId,
    _linear_mismatches,
    check_identity,
    closed_form,
)
from .shape import Matrix, Poly, ProductKind, Scalar
from .structure import (
    _absorbing_rows,
    _closed_flags,
    _label_lists,
    _normal_rows,
    _powerset_order,
    _proper_rows,
    _sizes,
    classify_subset,
    enumerate_ideals,
    enumerate_subgroupoids,
    is_simple,
    smarandache,
)

# -- small helpers -------------------------------------------------------------


def _scalar(carrier: Carrier, t: int, u: int) -> Groupoid:
    ind = carrier.has_indeterminate
    return build(carrier, Scalar(), t, u, t_indeterminate=ind, u_indeterminate=ind)


def _moduli(span: tuple[int, int]) -> range:
    lo, hi = span
    return range(lo, hi + 1)


def _sweeps(ns: Iterable[int], families: Iterable[str], pairs_of: Callable[[int], Iterable]):
    """For each modulus n of ns, then each carrier family: (n, carrier, pairs),
    the parameter pairs ``pairs_of(n)`` over the family's carrier of order n.
    A check builds the pairs' groupoids (``_groupoids``) only when it reads
    their tables or subsets."""
    for n in ns:
        pairs = list(pairs_of(n))
        for carrier in _carriers_for(n, families):
            yield n, carrier, pairs


def _groupoids(carrier: Carrier, pairs: list) -> list[Groupoid]:
    """The scalar groupoid of each pair over carrier, in pair order."""
    return [_scalar(carrier, t, u) for t, u in pairs]


def _zero_rows(carrier: Carrier, pairs: list, swap: bool = False) -> Iterator[tuple[slice, np.ndarray]]:
    """The rows 0*y and x*0 of the scalar product of each pair (t, u) over
    carrier, of (u, t) when swap is set, one ``sweep_products`` block at a
    time: (block, rows) with rows[p] = (0*y over every y, x*0 over every x)
    for member p of the block, with no table compiled."""
    n = carrier.size()
    axis = np.arange(n)
    X = np.stack([np.zeros_like(axis), axis])[None]  # (0, x) against (y, 0)
    ts, us = [t for t, _ in pairs], [u for _, u in pairs]
    for block, product in sweep_products(carrier, Scalar(), *((us, ts) if swap else (ts, us)), 2 * n):
        yield block, product(X, X[:, ::-1])


def _transposed_duals(carrier: Carrier, pairs: list) -> list[bool]:
    """Whether the scalar table of each pair (t, u) over carrier is the
    transpose of the table of its dual (u, t). The products are additive
    (x*y = x*0 + 0*y), so the tables transpose exactly when x*0 of the one is
    0*x of the other, both ways: the pairs' ``_zero_rows`` against their
    duals', block by block. The two sweeps' pairs*4*n cells are refused
    first, so no row compiles past the budget."""
    n = carrier.size()
    check_budget("ideal duality rows", f"{len(pairs)}*4*{n}", len(pairs) * 4 * n, " cells")
    holds: list[bool] = []
    for (_, rows), (_, dual) in zip(_zero_rows(carrier, pairs), _zero_rows(carrier, pairs, swap=True)):
        holds += (rows == dual[:, ::-1]).all(axis=(1, 2)).tolist()
    return holds


def _laws_hold(carrier: Carrier, pairs: list, laws: tuple[IdentityId, ...]) -> list[bool]:
    """Whether all of the laws hold on the scalar groupoid of each pair over
    carrier: one ``_linear_mismatches`` evaluation of every law over the
    pairs' arrays, read for any mismatch, with no witness formed."""
    ts, us = [t for t, _ in pairs], [u for _, u in pairs]
    holds: list[bool] = []
    for _, mism in _linear_mismatches(carrier, Scalar(), ts, us, laws):
        holds += np.logical_not([m.any(axis=(1, 2)) for m in mism]).all(axis=0).tolist()
    return holds


def _coeff_desc(carrier: Carrier, t: int, u: int) -> str:
    sfx = "I" if carrier.has_indeterminate else ""
    return f"{carrier.token()} ({t}{sfx},{u}{sfx})"


def _nonzero_pairs(n: int) -> list[tuple[int, int]]:
    return [(t, u) for t in range(1, n) for u in range(1, n)]


def _equal_pairs(n: int) -> list[tuple[int, int]]:
    return [(t, t) for t in range(1, n)]


class _Run:
    """Collects per-instance results for one check execution."""

    def __init__(self) -> None:
        self.instances = 0
        self.failures: list[str] = []
        self.observations: list[dict] = []
        self.notes: list[str] = []

    def check(self, cond: bool, desc: str | Callable[[], str]) -> None:
        """Count an instance; a failing one records desc, which may be a
        callable so that its text is formatted only on failure."""
        self.instances += 1
        if not cond:
            self.failures.append(desc() if callable(desc) else desc)

    def observe(self, **data) -> None:
        self.instances += 1
        self.observations.append(data)

    def note(self, text: str) -> None:
        self.notes.append(text)


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    tier: str  # asserted | report_only
    summary: str
    params: dict
    instances: int
    failures: tuple[str, ...]
    observations: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        if self.tier == "report_only":
            return "report"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        out: dict = {
            "check": self.check_id,
            "tier": self.tier,
            "summary": self.summary,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params.items()},
            "instances": self.instances,
            "status": self.status,
        }
        if self.failures:
            out["failures"] = list(self.failures)
        if self.observations:
            out["observations"] = list(self.observations)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass(frozen=True)
class TheoremCheck:
    check_id: str
    tier: str
    summary: str
    defaults: dict
    runner: Callable[[dict, _Run], None]


CHECKS: dict[str, TheoremCheck] = {}


def _check(check_id: str, tier: str, summary: str, **defaults):
    """Register the decorated runner as a check, after those declared above it;
    ``defaults`` keeps its parameters in the order they are given."""

    def wrap(runner: Callable[[dict, _Run], None]):
        CHECKS[check_id] = TheoremCheck(check_id, tier, summary, defaults, runner)
        return runner

    return wrap


# -- class counting -------------------------------------------------------------

COUNT_CLASSES = ("all_pairs", "level_one_pairs", "idempotent_pairs")


def count_class(carrier: Carrier, kind: str, *, equal_pairs_included: bool = False) -> int:
    """Count ordered parameter pairs of the requested class.

    all_pairs: distinct nonzero pairs, (q-1)(q-2) for q values since every
    carrier has exactly one zero. level_one_pairs: distinct nonzero pairs
    whose joint coprimality class is a unit; ``classify_level`` calls those
    of two single-coefficient primes Level.ONE and the rest Level.TWO, so
    this counts both. idempotent_pairs: nonzero pairs whose groupoid is
    idempotent (checked semantically against every carrier value), with
    equal pairs included iff the flag says so; the other two classes count
    distinct pairs only and refuse the flag. The last two test pairs, so
    their (q-1)(q-2) and (q-1)^2 pairs are checked against the work budget
    before any value is enumerated.
    """
    if equal_pairs_included and kind in ("all_pairs", "level_one_pairs"):
        raise CarrierError(f"{kind} counts distinct pairs only, so equal pairs cannot be included")
    m = carrier.size() - 1
    if kind == "all_pairs":
        return m * (m - 1)
    if kind == "level_one_pairs":
        check_budget("level-one pair count: pair-test work", f"{m}*{m - 1} pairs", m * (m - 1))
        # a pair's class is the gcd of its parameters' contents, taken as
        # np.gcd.outer over blocks of rows of about _CHUNK_CELLS pairs; an
        # equal pair has gcd(c, c) = c, a unit exactly when its content is 1
        content = np.array(
            [carrier.param_content(v) for v in carrier.enumerate_values() if not carrier.is_zero(v)],
            dtype=np.int64,
        )
        rows = max(1, _CHUNK_CELLS // max(m, 1))
        units = sum(
            int(np.count_nonzero(np.gcd.outer(content[r0 : r0 + rows], content) == 1))
            for r0 in range(0, m, rows)
        )
        return units - int(np.count_nonzero(content == 1))
    if kind == "idempotent_pairs":
        check_budget("idempotent pair count: pair-test work", f"{m}^2 pairs", m * m)
        # v·x + w·x = x for every value x, over value indices: the candidate
        # pairs (v, w) of a group of v's are tested together on blocks of 1,
        # 2, 4, ... values x, and a pair leaves at the end of the first block
        # with an x where it fails; a group holds about _CHUNK_CELLS pairs. The
        # x are the nonzero values only: v·0 + w·0 = 0 holds for every pair
        nz = np.flatnonzero([not carrier.is_zero(v) for v in carrier.enumerate_values()])
        group = max(1, _CHUNK_CELLS // max(len(nz), 1))
        count = 0
        for g0 in range(0, len(nz), group):
            v, w = (a.ravel() for a in np.meshgrid(nz[g0 : g0 + group], nz, indexing="ij"))
            if not equal_pairs_included:
                distinct = v != w
                v, w = v[distinct], w[distinct]
            lo, step = 0, 1
            while v.size and lo < len(nz):
                x = nz[lo : lo + step]
                vx_wx = carrier.add_indices(carrier.mul_indices(v[:, None], x), carrier.mul_indices(w[:, None], x))
                holds = (vx_wx == x).all(axis=1)
                v, w = v[holds], w[holds]
                lo, step = lo + step, 2 * step
            count += v.size
        return count
    raise CarrierError(f"unknown counting class: {kind!r} (expected one of {COUNT_CLASSES})")


def ssc_family_check(n: int) -> bool:
    """The degree-2 polynomial groupoid for the one-sided pair (1,0) over Z_n,
    whose coefficient 1 is idempotent, is associative: the lifted verdict,
    the scalar shadow's linear one, from 3·n evaluations and no table."""
    g = build(Modular(n), Poly(2, ProductKind.ENTRYWISE), 1, 0)
    return check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.LIFTED).holds


# -- check runners --------------------------------------------------------------


def _carriers_for(n: int, which: Sequence[str]) -> list[Carrier]:
    """The carrier of modulus n of each family, by ``parse_carrier``: zn -> zn:n, o(zn) -> o(zn:n)."""
    for token in which:
        if token not in ("zn", "zni", "o(zn)", "o(zni)"):
            raise CarrierError(f"unknown carrier family: {token!r}")
    return [parse_carrier(token.replace(")", f":{n})") if "(" in token else f"{token}:{n}") for token in which]


def _congruence(
    p: dict,
    run: _Run,
    moduli: Iterable[int],
    pairs_of: Callable[[int], Iterable],
    label: str,
    form: str,
) -> None:
    """The laws of the closed form all hold on the groupoid of (t, u) exactly
    when it says so, for every pair of ``pairs_of(n)`` over each modulus and
    each of ``p["carriers"]``."""
    for n, carrier, pairs in _sweeps(moduli, p["carriers"], pairs_of):
        for (t, u), holds in zip(pairs, _laws_hold(carrier, pairs, CLOSED_FORMS[form].laws)):
            predicted = closed_form(form, n, t, u)
            run.check(
                holds == predicted, lambda: f"{_coeff_desc(carrier, t, u)}: {label}={holds}, congruence={predicted}"
            )


@_check("T1", "asserted", "idempotent exactly when t+u ≡ 1 (mod n)", n=(3, 16), carriers=["zn", "zni"])
def _t1(p: dict, run: _Run) -> None:
    _congruence(p, run, _moduli(p["n"]), _nonzero_pairs, "idempotent", "idempotent-iff")


@_check("T2", "asserted", "associative exactly when t² ≡ t and u² ≡ u (mod n)", n=(3, 12), carriers=["zn", "zni"])
def _t2(p: dict, run: _Run) -> None:
    _congruence(p, run, _moduli(p["n"]), _nonzero_pairs, "associative", "semigroup-iff")


@_check("T3", "asserted", "equal pairs always satisfy the P-law", n=(3, 16), carriers=["zn", "zni"])
def _t3(p: dict, run: _Run) -> None:
    for _, carrier, pairs in _sweeps(_moduli(p["n"]), p["carriers"], _equal_pairs):
        for (t, _), holds in zip(pairs, _laws_hold(carrier, pairs, (IdentityId.P_IDENTITY,))):
            run.check(holds, lambda: f"{_coeff_desc(carrier, t, t)}: P-law fails on an equal pair")


@_check("T4", "asserted", "equal pairs 1 < t < p are never alternative at prime moduli", p=(3, 23), carriers=["zn", "zni"])
def _t4(p: dict, run: _Run) -> None:
    primes = filter(is_prime, _moduli(p["p"]))
    for _, carrier, pairs in _sweeps(primes, p["carriers"], lambda n: _equal_pairs(n)[1:]):
        for (t, _), alternative in zip(pairs, _laws_hold(carrier, pairs, _ALTERNATIVE)):
            run.check(
                not alternative, lambda: f"{_coeff_desc(carrier, t, t)}: alternative unexpectedly holds at prime modulus"
            )


@_check(
    "T5", "asserted", "equal pairs at composite moduli are alternative exactly when t² ≡ t",
    n=(4, 16), carriers=["zn", "zni"],
)
def _t5(p: dict, run: _Run) -> None:
    composites = (n for n in _moduli(p["n"]) if not is_prime(n))
    _congruence(p, run, composites, _equal_pairs, "alternative", "alternative-iff")


@_check(
    "T6", "asserted", "one-sided pairs satisfy P and alternative exactly when the coefficient is idempotent",
    n=(3, 16), carriers=["zn", "zni"],
)
def _t6(p: dict, run: _Run) -> None:
    one_sided = lambda n: [pair for t in range(1, n) for pair in ((t, 0), (0, t))]
    _congruence(p, run, _moduli(p["n"]), one_sided, "P&alternative", "type3-p-alt-iff")


@_check("T7", "asserted", "left ideals of (t,u) are the right ideals of (u,t)", zn_n=(3, 12), zni_n=(3, 8), nzn_n=3)
def _t7(p: dict, run: _Run) -> None:
    # a pair whose table is the transpose of its dual's holds (the module
    # docstring says why); a pair whose table does not transpose fails
    def check_duality(carrier: Carrier, pairs: list, label: Callable[..., str]) -> None:
        for (t, u), ok in zip(pairs, _transposed_duals(carrier, pairs)):
            run.check(ok, lambda: f"{label(t, u)}: the table is not the transpose of the (u,t) table")

    for family, key in (("zn", "zn_n"), ("zni", "zni_n")):
        for _, carrier, pairs in _sweeps(_moduli(p[key]), (family,), _nonzero_pairs):
            check_duality(carrier, pairs, lambda t, u: _coeff_desc(carrier, t, u))
    # mixed-carrier slice: a fixed set of representative values
    carrier = MixedNeutrosophic(p["nzn_n"])
    values = [(0, 1), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)]
    pairs = [(v, w) for v in values for w in values if v != w]
    check_duality(carrier, pairs, lambda v, w: f"{carrier.token()} ({carrier.format_value(v)},{carrier.format_value(w)})")


@_check(
    "T8", "asserted", "prime-modulus instances with prime coefficients are simple",
    instances=[(5, 2, 3), (7, 2, 5), (13, 2, 11)],
)
def _t8(p: dict, run: _Run) -> None:
    for n, t, u in p["instances"]:
        g = _scalar(Modular(n), t, u)
        verdict = is_simple(g)
        run.check(
            verdict.simple and verdict.complete,
            f"zn:{n} ({t},{u}): expected simple, found witness "
            f"{verdict.witness.labels if verdict.witness else None}",
        )


@_check("T9", "report_only", "even n with t+u=n, gcd t: reportedly a unique normal subgroupoid of order n/t", n=(4, 12))
def _t9(p: dict, run: _Run) -> None:
    # Claim under test, for even n with u = n - t and gcd(t, u) = t: the
    # groupoid has exactly one subgroupoid of order n/t, and that subgroupoid
    # is normal.  Extra normal subgroupoids of other orders are emitted as
    # disagreement data, never as crashes.
    evens = (n for n in _moduli(p["n"]) if n % 2 == 0)
    gcd_pairs = lambda n: [(t, n - t) for t in range(2, n - 1) if math.gcd(t, n - t) == t]
    for n, carrier, pairs in _sweeps(evens, ("zn",), gcd_pairs):
        for (t, u), g in zip(pairs, _groupoids(carrier, pairs)):
            expected = n // t
            # the normal search refuses past the power set's budget, so the
            # subgroupoids are membership rows by size; rows are compared and
            # labelled by index, and no handle is built
            _powerset_order(g, "normal subgroupoid search")
            subs = enumerate_subgroupoids(g).subsets
            members = subs.members()
            two, lo, hi = np.searchsorted(subs.sizes, [2, expected, expected + 1]).tolist()
            normal = [two + r for r in _normal_rows(g.table_array(), members[two:])]
            # the principal subgroupoid is the multiples of t, else the first
            # of the claimed order; it is closed, proper and of size n/t >= 2,
            # so it is normal exactly when the normal rows list it
            hits = lo + np.flatnonzero((members[lo:hi] == (np.arange(n) % t == 0)).all(axis=1))
            principal = int(hits[0]) if hits.size else (lo if hi > lo else None)
            unique = hi - lo == 1
            principal_normal = principal in normal
            extra = [r for r in normal if r != principal]
            run.observe(
                instance=_coeff_desc(carrier, t, u),
                claimed_order=expected,
                subgroupoids_of_claimed_order=list(map(tuple, _label_lists(g, members[lo:hi]))),
                unique_of_claimed_order=unique,
                principal_normal=principal_normal,
                extra_normal_subgroupoids=list(map(tuple, _label_lists(g, members[extra]))),
                agrees=unique and principal_normal and not extra,
            )


@_check("T10", "asserted", "when t+u ≡ 1, every singleton is a semigroup (idempotent witness)", n=(6, 16))
def _t10(p: dict, run: _Run) -> None:
    # a singleton {x} is closed exactly when x*x = x, and a closed singleton is
    # a semigroup, so the claim is the idempotent law; the per-subset
    # classification only lists the singletons of a pair that fails it
    idempotent_line = lambda n: [(t, (1 - t) % n) for t in range(2, n)]
    spot_done: set[int] = set()
    for n, carrier, pairs in _sweeps(_moduli(p["n"]), ("zn",), idempotent_line):
        for (t, u), idempotent in zip(pairs, _laws_hold(carrier, pairs, (IdentityId.IDEMPOTENT,))):
            spot = n not in spot_done and len(spot_done) < 2
            g = None if idempotent and not spot else _scalar(carrier, t, u)  # to classify or spot-check
            bad = lambda: [x for x in range(n) if not classify_subset(g, [x]).semigroup]
            run.check(idempotent, lambda: f"{_coeff_desc(carrier, t, u)}: singletons {bad()} are not semigroups")
            if spot:
                spot_done.add(n)
                verdict = smarandache(g)
                run.check(
                    verdict.status == "s_groupoid"
                    and verdict.s_witness is not None
                    and verdict.s_witness.size == 1,
                    lambda: f"{_coeff_desc(carrier, t, u)}: expected a singleton semigroup witness, got {verdict.status}",
                )


def _strong(run: _Run, carrier: Carrier, t: int, u: int, idents: Iterable[IdentityId]) -> None:
    """Each identity holds strongly on the groupoid of (t, u) over carrier: on
    all of it, which has a Smarandache witness."""
    g = _scalar(carrier, t, u)
    for ident in idents:
        verdict = smarandache(g, ident)
        run.check(verdict.status == "strong_holds", lambda: f"{_coeff_desc(carrier, t, u)} {ident.value}: got {verdict.status}")


@_check(
    "T11", "asserted", "t+u ≡ 1 with both coefficients idempotent gives strong P and alternative laws",
    n=(3, 14), carriers=["zn", "zni"],
)
def _t11(p: dict, run: _Run) -> None:
    for n in _moduli(p["n"]):
        for t in range(1, n):
            u = (1 - t) % n
            if u and closed_form("semigroup-iff", n, t, u):
                for carrier in _carriers_for(n, p["carriers"]):
                    _strong(run, carrier, t, u, (IdentityId.P_IDENTITY, *_ALTERNATIVE))


@_check("T12", "report_only", "interval carrier with (2,0), even n: {[0,0],[0,n/2]} is a semigroup witness", n=(4, 12))
def _t12(p: dict, run: _Run) -> None:
    for n in _moduli(p["n"]):
        if n % 2:
            continue
        m = n // 2
        g = _scalar(IntervalOf(Modular(n)), 2, 0)
        cls = classify_subset(g, [0, m])
        sm = smarandache(g)
        run.observe(
            instance=f"o(zn:{n}) (2,0)",
            subset=[f"[0,0]", f"[0,{m}]"],
            closed=cls.closed,
            semigroup=cls.semigroup,
            left_ideal=cls.left_ideal,
            smarandache=sm.status,
            agrees=cls.semigroup and sm.status == "s_groupoid",
        )


@_check(
    "T13", "asserted", "parameter-class counts: fixed values, product formulas, parity law",
    formula_n=(3, 20), parity_n=(3, 50),
)
def _t13(p: dict, run: _Run) -> None:
    fixed = (
        (PureNeutrosophic(3), "all_pairs", False, 2),
        (MixedNeutrosophic(3), "all_pairs", False, 56),
        (MixedNeutrosophic(4), "all_pairs", False, 210),
        (Modular(4), "level_one_pairs", False, 6),
        (PureNeutrosophic(6), "idempotent_pairs", True, 4),
        (PureNeutrosophic(9), "idempotent_pairs", True, 7),
    )
    for carrier, kind, flag, want in fixed:
        got = count_class(carrier, kind, equal_pairs_included=flag)
        run.check(
            got == want,
            f"{carrier.token()} {kind}{' (equal included)' if flag else ''}: got {got}, want {want}",
        )
    for n in _moduli(p["formula_n"]):
        pure = count_class(PureNeutrosophic(n), "all_pairs")
        run.check(
            pure == (n - 1) * (n - 2),
            f"zni:{n} all_pairs: got {pure}, want (n-1)(n-2)={(n - 1) * (n - 2)}",
        )
        mixed = count_class(MixedNeutrosophic(n), "all_pairs")
        run.check(
            mixed == (n * n - 1) * (n * n - 2),
            f"nzn:{n} all_pairs: got {mixed}, want (n²-1)(n²-2)={(n * n - 1) * (n * n - 2)}",
        )
    for n in _moduli(p["parity_n"]):
        got = count_class(PureNeutrosophic(n), "idempotent_pairs", equal_pairs_included=True)
        run.check(
            got % 2 == n % 2,
            f"zni:{n} idempotent_pairs parity: count {got} vs modulus parity {n % 2}",
        )


@_check(
    "T14", "asserted", "strong-law instances for Moufang/Bol/P/alternative; the 2m≡1 ∧ m²≡m family is empty",
    vacuity_n=(2, 50),
)
def _t14(p: dict, run: _Run) -> None:
    strong = (
        (10, 5, 6, IdentityId.MOUFANG),
        (12, 3, 4, IdentityId.BOL),
        (6, 4, 3, IdentityId.P_IDENTITY),
        (14, 7, 8, IdentityId.LEFT_ALTERNATIVE),
        (14, 7, 8, IdentityId.RIGHT_ALTERNATIVE),
    )
    for family in ("zn", "zni"):
        for n, t, u, ident in strong:
            _strong(run, _carriers_for(n, (family,))[0], t, u, (ident,))
    # the identities survive lifting to interval matrices
    big = build(IntervalOf(Modular(10)), Matrix(2, 2), 5, 6)
    lifted = check_identity(big, IdentityId.MOUFANG, CheckMode.LIFTED)
    run.check(lifted.holds, "o(zn:10) mat:2x2 (5,6): lifted Moufang check failed")
    # the (m,m) family with 2m ≡ 1 and m² ≡ m admits no member at any modulus
    for n in _moduli(p["vacuity_n"]):
        members = [m for m in range(1, n) if (2 * m) % n == 1 and (m * m) % n == m]
        run.check(not members, f"zn:{n}: unexpected (m,m) family members {members}")
    run.note(
        "the equal-pair family with 2m ≡ 1 and m² ≡ m (mod n) is empty for every "
        "modulus checked; the strong-law instances above cover its intent"
    )


@_check(
    "T15", "report_only", "pure carriers at n ∈ {4,8}, coefficient sums prime: reportedly no two-sided ideals",
    moduli=[4, 8],
)
def _t15(p: dict, run: _Run) -> None:
    prime_sums = lambda n: [(t, u) for t, u in _nonzero_pairs(n) if is_prime(t + u)]
    for _, carrier, pairs in _sweeps(p["moduli"], ("zni",), prime_sums):
        for (t, u), g in zip(pairs, _groupoids(carrier, pairs)):
            ideals = enumerate_ideals(g)
            run.observe(
                instance=_coeff_desc(carrier, t, u),
                coeff_sum=t + u,
                left=len(ideals.left),
                right=len(ideals.right),
                two_sided=len(ideals.two_sided),
                agrees=len(ideals.two_sided) == 0,
            )


@_check(
    "T16", "asserted", "with both coefficients nonzero, the zero singleton is never an ideal",
    n=(3, 12), carriers=["zn", "zni"],
)
def _t16(p: dict, run: _Run) -> None:
    # {0} is a left ideal when 0*y = 0 for every y, and a right ideal when
    # x*0 = 0 for every x: both are read off the pairs' ``_zero_rows``
    for _, carrier, pairs in _sweeps(_moduli(p["n"]), p["carriers"], _nonzero_pairs):
        for block, rows in _zero_rows(carrier, pairs):
            for (t, u), neither in zip(pairs[block], rows.any(axis=-1).all(axis=-1).tolist()):
                run.check(neither, lambda: f"{_coeff_desc(carrier, t, u)}: the zero singleton absorbs on some side")


@_check(
    "T17", "asserted", "interval-pure prime moduli: no closed subsets of size ≥ 2 and no one-sided ideals",
    moduli=[3, 5, 7],
)
def _t17(p: dict, run: _Run) -> None:
    # each sweep is refused once on the ideal enumeration's n*2^n, before any
    # of its products compile; a member's closed flags are read one block of
    # at most _CHUNK_CELLS masks at a time, with no groupoid or handle built.
    # An ideal is closed, so a member with no closed subset of two or more
    # elements can have only a singleton {x} as one: x*G = {x} (left) or
    # G*x = {x} (right), read off the tables
    for _, carrier, pairs in _sweeps(p["moduli"], ("o(zni)",), _nonzero_pairs):
        n = carrier.size()
        check_budget("ideal enumeration: power-set work", f"{n}*2^{n}", n << n)
        X = np.arange(n)
        proper = np.arange(1, (1 << n) - 1, dtype="<i8")
        sized = _sizes(proper.view(np.uint8).reshape(-1, 8)) >= 2
        ts, us = [t for t, _ in pairs], [u for _, u in pairs]
        for block, product in sweep_products(carrier, Scalar(), ts, us, 1 << n):
            tabs = product(X[None, :, None], X[None, None, :])
            closed = _closed_flags(tabs)
            single = (tabs == X[:, None]).all(axis=-1) | (tabs == X).all(axis=-2)
            fails = ((closed[:, 1:-1] & sized).any(axis=-1) | single.any(axis=-1)).tolist()
            for (t, u), tab, flags, fail in zip(pairs[block], tabs, closed, fails):
                run.check(not fail, lambda: _t17_failure(_coeff_desc(carrier, t, u), tab, flags, sized))


def _t17_failure(desc: str, tab: np.ndarray, closed: np.ndarray, sized: np.ndarray) -> str:
    """T17's text for a failing member, read off its table and its closed
    flags: the ideals are the closed rows that absorb, as ``enumerate_ideals``
    reads them."""
    left, right, _ = _absorbing_rows(tab, _proper_rows(closed))
    big = np.count_nonzero(closed[1:-1] & sized)
    return f"{desc}: found {big} closed subsets of size>=2, {len(left)} left / {len(right)} right ideals"


@_check("GOLD", "asserted", "every registered demo reproduces its embedded expected values")
def _gold(p: dict, run: _Run) -> None:
    from . import demos

    for result in demos.run_all():
        run.check(result.ok, f"demo {result.demo_id}: " + "; ".join(result.failures))


def verify_theorem(check_id: str, params: dict | None = None) -> CheckOutcome:
    if check_id not in CHECKS:
        raise CarrierError(f"unknown check id: {check_id!r}")
    check = CHECKS[check_id]
    params = params or {}
    for key, value in params.items():
        if key not in check.defaults:
            raise CarrierError(f"{check_id} takes no parameter {key!r}")
        int_pair = isinstance(value, tuple) and len(value) == 2 and all(isinstance(v, int) for v in value)
        if isinstance(check.defaults[key], tuple) and not (int_pair and 2 <= value[0] <= value[1]):
            raise CarrierError(f"{check_id} {key}={value!r}: a range of moduli is (lo, hi) with 2 <= lo <= hi")
    merged = {**check.defaults, **params}
    run = _Run()
    check.runner(merged, run)
    return CheckOutcome(
        check_id=check_id,
        tier=check.tier,
        summary=check.summary,
        params=merged,
        instances=run.instances,
        failures=tuple(run.failures),
        observations=tuple(run.observations),
        notes=tuple(run.notes),
    )


# -- suite runner ----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    checks: tuple[str, ...] | None = None  # None = the full registry
    overrides: dict = field(default_factory=dict)  # check id -> params
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "checks": list(self.checks) if self.checks is not None else "all",
            "overrides": {
                k: {kk: list(vv) if isinstance(vv, tuple) else vv for kk, vv in v.items()}
                for k, v in self.overrides.items()
            },
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SuiteReport:
    outcomes: tuple[CheckOutcome, ...]
    config: SuiteConfig
    timings: dict

    @property
    def passed(self) -> bool:
        return all(o.passed for o in outcomes_asserted(self.outcomes))

    def to_json(self, include_timing: bool = True) -> dict:
        out = {
            "config": self.config.to_json(),
            "checks": [o.to_json() for o in self.outcomes],
            "passed": self.passed,
        }
        if include_timing:
            out["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return out


def outcomes_asserted(outcomes) -> list[CheckOutcome]:
    return [o for o in outcomes if o.tier == "asserted"]


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    config = config or SuiteConfig()
    ids = list(config.checks) if config.checks is not None else list(CHECKS)
    outcomes = []
    timings = {}
    for check_id in ids:
        start = time.perf_counter()
        outcomes.append(verify_theorem(check_id, config.overrides.get(check_id)))
        timings[check_id] = time.perf_counter() - start
    return SuiteReport(outcomes=tuple(outcomes), config=config, timings=timings)
