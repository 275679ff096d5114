"""A registry of executable checks over parameter ranges, plus class counting.

Each check instantiates groupoids across a parameter range, runs the bound
identity/structure machinery, and compares the outcome with an arithmetic
predicate or a frozen expected value. Checks come in two tiers:

* ``asserted`` — every instance must agree; any mismatch is a failure;
* ``report_only`` — instances are recorded as observations with an ``agrees``
  flag; disagreement is allowed and preserved for inspection. Running a
  report-only check with ``tier_override="asserted"`` promotes disagreements
  to failures.

The checks over ranges of moduli (T1–T7, T10, T15–T17) draw their groupoids
from one parameter sweep, ``_sweeps``: every pair's groupoid for each modulus
and carrier family, so identity scans and table compiles read a sweep as one
stack, and a runner keeps only its claim and its failure text. T10 reads the
idempotent law (a singleton {x} is a closed semigroup exactly when x*x = x)
and T16 reads row 0 and column 0 of each table; neither classifies a subset
unless a pair fails.

A tuple default is a (lo, hi) range of moduli, the only kind ``--range``
overrides; other parameters are lists or numbers. The default ranges keep
the whole suite within interactive runtimes; every range can be widened per
check (the CLI exposes ``--range``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .carrier import (
    Carrier,
    CarrierError,
    IntervalOf,
    MixedNeutrosophic,
    Modular,
    PureNeutrosophic,
    is_prime,
)
from .groupoid import Groupoid, build, check_budget, compile_tables
from .identities import (
    CheckMode,
    IdentityId,
    check_identity,
    closed_form,
    first_failures,
)
from .shape import Matrix, Poly, ProductKind, Scalar
from .structure import (
    classify_subset,
    enumerate_ideals,
    enumerate_subgroupoids,
    find_normal_subgroupoids,
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
    """For each modulus n of ns, then each carrier family: (n, carrier, pairs,
    groupoids), the scalar groupoids of the parameter pairs ``pairs_of(n)``
    over the family's carrier of order n, one per pair and in pair order."""
    for n in ns:
        pairs = list(pairs_of(n))
        for carrier in _carriers_for(n, families):
            yield n, carrier, pairs, [_scalar(carrier, t, u) for t, u in pairs]


def _holds(groupoids: list[Groupoid], identity: IdentityId, n: int) -> list[bool]:
    """Whether the identity holds on each groupoid of order n, all scanned
    exhaustively by one ``first_failures`` call."""
    return [found is None for found in first_failures(groupoids, identity, np.arange(n))]


def _alternative_sweep(groupoids: list[Groupoid], n: int) -> list[bool]:
    """Whether both alternative laws hold on each groupoid of order n."""
    left = _holds(groupoids, IdentityId.LEFT_ALTERNATIVE, n)
    right = _holds(groupoids, IdentityId.RIGHT_ALTERNATIVE, n)
    return [lv and rv for lv, rv in zip(left, right)]


def _coeff_desc(carrier: Carrier, t: int, u: int) -> str:
    sfx = "I" if carrier.has_indeterminate else ""
    return f"{carrier.token()} ({t}{sfx},{u}{sfx})"


def _nonzero_pairs(n: int, *, distinct: bool = False):
    for t in range(1, n):
        for u in range(1, n):
            if distinct and t == u:
                continue
            yield t, u


def _equal_pairs(n: int) -> list[tuple[int, int]]:
    return [(t, t) for t in range(1, n)]


class _Run:
    """Collects per-instance results for one check execution."""

    def __init__(self) -> None:
        self.instances = 0
        self.failures: list[str] = []
        self.observations: list[dict] = []
        self.notes: list[str] = []

    def check(self, cond: bool, desc: str) -> None:
        self.instances += 1
        if not cond:
            self.failures.append(desc)

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


# -- class counting -------------------------------------------------------------

COUNT_CLASSES = ("all_pairs", "level_one_pairs", "idempotent_pairs")
_PAIR_CELLS = 1 << 18


def count_class(carrier: Carrier, kind: str, *, equal_pairs_included: bool = False) -> int:
    """Count ordered parameter pairs of the requested class.

    all_pairs: distinct nonzero pairs, (q-1)(q-2) for q values since every
    carrier has exactly one zero. level_one_pairs: distinct nonzero pairs
    whose joint coprimality class is a unit. idempotent_pairs: nonzero pairs
    whose groupoid is idempotent (checked semantically against every carrier
    value), with equal pairs included iff the flag says so. The last two test
    pairs, so their (q-1)(q-2) and (q-1)^2 pairs are checked against the work
    budget before any value is enumerated.
    """
    m = carrier.size() - 1
    if kind == "all_pairs":
        return m * (m - 1)
    if kind == "level_one_pairs":
        check_budget("level-one pair count: pair-test work", f"{m}*{m - 1} pairs", m * (m - 1))
        nonzero = [v for v in carrier.enumerate_values() if not carrier.is_zero(v)]
        return sum(
            1
            for v in nonzero
            for w in nonzero
            if v != w and carrier.coprimality_class(v, w).is_unit
        )
    if kind == "idempotent_pairs":
        check_budget("idempotent pair count: pair-test work", f"{m}^2 pairs", m * m)
        # v·x + w·x = x for every value x, over value indices: the candidate
        # pairs (v, w) of a group of v's are tested together on blocks of 1,
        # 2, 4, ... values x, and a pair leaves at the end of the first block
        # with an x where it fails; a group holds about _PAIR_CELLS pairs. The
        # x are the nonzero values only: v·0 + w·0 = 0 holds for every pair
        nz = np.flatnonzero([not carrier.is_zero(v) for v in carrier.enumerate_values()])
        group = max(1, _PAIR_CELLS // max(len(nz), 1))
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
    """The one-sided family over Z_n contains the idempotent coefficient 1,
    and the degree-2 polynomial groupoid for (1,0) is associative (settled
    through the scalar shadow)."""
    if (1 * 1) % n != 1 % n:
        return False
    g = build(Modular(n), Poly(2, ProductKind.ENTRYWISE), 1, 0)
    return check_identity(g, IdentityId.ASSOCIATIVE, CheckMode.LIFTED).holds


# -- check runners --------------------------------------------------------------


def _carriers_for(n: int, which: Iterable[str]) -> list[Carrier]:
    out: list[Carrier] = []
    for token in which:
        if token == "zn":
            out.append(Modular(n))
        elif token == "zni":
            out.append(PureNeutrosophic(n))
        elif token == "o(zn)":
            out.append(IntervalOf(Modular(n)))
        elif token == "o(zni)":
            out.append(IntervalOf(PureNeutrosophic(n)))
        else:
            raise CarrierError(f"unknown carrier family: {token!r}")
    return out


def _t1(p: dict, run: _Run) -> None:
    for n, carrier, pairs, groupoids in _sweeps(_moduli(p["n"]), p["carriers"], _nonzero_pairs):
        for (t, u), holds in zip(pairs, _holds(groupoids, IdentityId.IDEMPOTENT, n)):
            predicted = closed_form("idempotent-iff", n, t, u)
            run.check(
                holds == predicted,
                f"{_coeff_desc(carrier, t, u)}: idempotent={holds}, congruence={predicted}",
            )


def _t2(p: dict, run: _Run) -> None:
    for n, carrier, pairs, groupoids in _sweeps(_moduli(p["n"]), p["carriers"], _nonzero_pairs):
        for (t, u), holds in zip(pairs, _holds(groupoids, IdentityId.ASSOCIATIVE, n)):
            predicted = closed_form("semigroup-iff", n, t, u)
            run.check(
                holds == predicted,
                f"{_coeff_desc(carrier, t, u)}: associative={holds}, congruence={predicted}",
            )


def _t3(p: dict, run: _Run) -> None:
    for n, carrier, pairs, groupoids in _sweeps(_moduli(p["n"]), p["carriers"], _equal_pairs):
        for (t, _), holds in zip(pairs, _holds(groupoids, IdentityId.P_IDENTITY, n)):
            run.check(holds, f"{_coeff_desc(carrier, t, t)}: P-law fails on an equal pair")


def _t4(p: dict, run: _Run) -> None:
    primes = filter(is_prime, _moduli(p["p"]))
    equal_pairs = lambda n: [(t, t) for t in range(2, n)]
    for n, carrier, pairs, groupoids in _sweeps(primes, p["carriers"], equal_pairs):
        for (t, _), alternative in zip(pairs, _alternative_sweep(groupoids, n)):
            run.check(
                not alternative,
                f"{_coeff_desc(carrier, t, t)}: alternative unexpectedly holds at prime modulus",
            )


def _t5(p: dict, run: _Run) -> None:
    composites = (n for n in _moduli(p["n"]) if not is_prime(n))
    for n, carrier, pairs, groupoids in _sweeps(composites, p["carriers"], _equal_pairs):
        for (t, _), alternative in zip(pairs, _alternative_sweep(groupoids, n)):
            predicted = closed_form("alternative-iff", n, t, t)
            run.check(
                alternative == predicted,
                f"{_coeff_desc(carrier, t, t)}: alternative={alternative}, congruence={predicted}",
            )


def _t6(p: dict, run: _Run) -> None:
    one_sided = lambda n: [pair for t in range(1, n) for pair in ((t, 0), (0, t))]
    for n, carrier, pairs, groupoids in _sweeps(_moduli(p["n"]), p["carriers"], one_sided):
        p_laws = _holds(groupoids, IdentityId.P_IDENTITY, n)
        alternatives = _alternative_sweep(groupoids, n)
        for (tt, uu), p_law, alternative in zip(pairs, p_laws, alternatives):
            semantic = p_law and alternative
            predicted = closed_form("type3-p-alt-iff", n, tt, uu)
            run.check(
                semantic == predicted,
                f"{_coeff_desc(carrier, tt, uu)}: P&alternative={semantic}, congruence={predicted}",
            )


def _t7(p: dict, run: _Run) -> None:
    # each groupoid of a sweep is built once, its table compiled with the
    # sweep's, and the duality is read off the mask arrays: both are sorted by
    # (popcount, mask), so equal arrays are equal sets
    def check_duality(pairs: list, groupoids: list[Groupoid], desc: Callable[..., str]) -> None:
        compile_tables(groupoids)
        ideals = {pair: enumerate_ideals(g) for pair, g in zip(pairs, groupoids)}
        for t, u in pairs:
            run.check(np.array_equal(ideals[t, u].left.masks, ideals[u, t].right.masks), desc(t, u))

    for family, key in (("zn", "zn_n"), ("zni", "zni_n")):
        for _, carrier, pairs, groupoids in _sweeps(_moduli(p[key]), (family,), _nonzero_pairs):
            check_duality(
                pairs,
                groupoids,
                lambda t, u: f"{_coeff_desc(carrier, t, u)}: left ideals differ from the (u,t) right ideals",
            )
    # mixed-carrier slice: a fixed set of representative values
    carrier = MixedNeutrosophic(p["nzn_n"])
    values = [(0, 1), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)]
    pairs = [(v, w) for v in values for w in values if v != w]
    check_duality(
        pairs,
        [build(carrier, Scalar(), v, w) for v, w in pairs],
        lambda v, w: f"{carrier.token()} ({carrier.format_value(v)},{carrier.format_value(w)}): ideal duality fails",
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


def _t9(p: dict, run: _Run) -> None:
    # Claim under test, for even n with u = n - t and gcd(t, u) = t: the
    # groupoid has exactly one subgroupoid of order n/t, and that subgroupoid
    # is normal.  Extra normal subgroupoids of other orders are emitted as
    # disagreement data, never as crashes.
    lo, hi = p["n"]
    for n in range(lo, hi + 1):
        if n % 2:
            continue
        for t in range(2, n - 1):
            u = n - t
            if u <= 0 or math.gcd(t, u) != t:
                continue
            g = _scalar(Modular(n), t, u)
            expected = n // t
            subs = enumerate_subgroupoids(g).subsets
            of_order = [h for h in subs if h.size == expected]
            unique = len(of_order) == 1
            multiples = tuple(sorted(range(0, n, t)))
            principal = next(
                (h for h in of_order if h.indices == multiples),
                of_order[0] if of_order else None,
            )
            principal_normal = (
                classify_subset(g, principal).normal_subgroupoid
                if principal is not None
                else False
            )
            normals = find_normal_subgroupoids(g)
            extra = [
                h.labels for h in normals if principal is None or h != principal
            ]
            run.observe(
                instance=f"zn:{n} ({t},{u})",
                claimed_order=expected,
                subgroupoids_of_claimed_order=[h.labels for h in of_order],
                unique_of_claimed_order=unique,
                principal_normal=principal_normal,
                extra_normal_subgroupoids=extra,
                agrees=unique and principal_normal and not extra,
            )


def _t10(p: dict, run: _Run) -> None:
    # a singleton {x} is closed exactly when x*x = x, and a closed singleton is
    # a semigroup, so the claim is the idempotent law; the per-subset
    # classification only lists the singletons of a pair that fails it
    idempotent_line = lambda n: [(t, (1 - t) % n) for t in range(2, n)]
    spot_done: set[int] = set()
    for n, carrier, pairs, groupoids in _sweeps(_moduli(p["n"]), ("zn",), idempotent_line):
        for (t, u), g, idempotent in zip(pairs, groupoids, _holds(groupoids, IdentityId.IDEMPOTENT, n)):
            bad = [] if idempotent else [x for x in range(n) if not classify_subset(g, [x]).semigroup]
            run.check(idempotent, f"{_coeff_desc(carrier, t, u)}: singletons {bad} are not semigroups")
            if n not in spot_done and len(spot_done) < 2:
                spot_done.add(n)
                verdict = smarandache(g)
                run.check(
                    verdict.status == "s_groupoid"
                    and verdict.s_witness is not None
                    and verdict.s_witness.size == 1,
                    f"{_coeff_desc(carrier, t, u)}: expected a singleton semigroup witness, got {verdict.status}",
                )


def _t11(p: dict, run: _Run) -> None:
    lo, hi = p["n"]
    idents = (IdentityId.P_IDENTITY, IdentityId.LEFT_ALTERNATIVE, IdentityId.RIGHT_ALTERNATIVE)
    for n in range(lo, hi + 1):
        for t in range(1, n):
            u = (1 - t) % n
            if u == 0 or (t * t) % n != t or (u * u) % n != u:
                continue
            for carrier in _carriers_for(n, p["carriers"]):
                g = _scalar(carrier, t, u)
                for ident in idents:
                    verdict = smarandache(g, ident)
                    run.check(
                        verdict.status == "strong_holds",
                        f"{_coeff_desc(carrier, t, u)} {ident.value}: got {verdict.status}",
                    )


def _t12(p: dict, run: _Run) -> None:
    lo, hi = p["n"]
    for n in range(lo, hi + 1):
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
    lo, hi = p["formula_n"]
    for n in range(lo, hi + 1):
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
    lo, hi = p["parity_n"]
    for n in range(lo, hi + 1):
        got = count_class(PureNeutrosophic(n), "idempotent_pairs", equal_pairs_included=True)
        run.check(
            got % 2 == n % 2,
            f"zni:{n} idempotent_pairs parity: count {got} vs modulus parity {n % 2}",
        )


def _t14(p: dict, run: _Run) -> None:
    strong = (
        ("zn", 10, 5, 6, IdentityId.MOUFANG),
        ("zn", 12, 3, 4, IdentityId.BOL),
        ("zn", 6, 4, 3, IdentityId.P_IDENTITY),
        ("zn", 14, 7, 8, IdentityId.LEFT_ALTERNATIVE),
        ("zn", 14, 7, 8, IdentityId.RIGHT_ALTERNATIVE),
        ("zni", 10, 5, 6, IdentityId.MOUFANG),
        ("zni", 12, 3, 4, IdentityId.BOL),
        ("zni", 6, 4, 3, IdentityId.P_IDENTITY),
        ("zni", 14, 7, 8, IdentityId.LEFT_ALTERNATIVE),
        ("zni", 14, 7, 8, IdentityId.RIGHT_ALTERNATIVE),
    )
    for fam, n, t, u, ident in strong:
        carrier = _carriers_for(n, (fam,))[0]
        g = _scalar(carrier, t, u)
        verdict = smarandache(g, ident)
        run.check(
            verdict.status == "strong_holds",
            f"{_coeff_desc(carrier, t, u)} {ident.value}: got {verdict.status}",
        )
    # the identities survive lifting to interval matrices
    big = build(IntervalOf(Modular(10)), Matrix(2, 2), 5, 6)
    lifted = check_identity(big, IdentityId.MOUFANG, CheckMode.LIFTED)
    run.check(lifted.holds, "o(zn:10) mat:2x2 (5,6): lifted Moufang check failed")
    # the (m,m) family with 2m ≡ 1 and m² ≡ m admits no member at any modulus
    lo, hi = p["vacuity_n"]
    for n in range(lo, hi + 1):
        members = [m for m in range(1, n) if (2 * m) % n == 1 and (m * m) % n == m]
        run.check(not members, f"zn:{n}: unexpected (m,m) family members {members}")
    run.note(
        "the equal-pair family with 2m ≡ 1 and m² ≡ m (mod n) is empty for every "
        "modulus checked; the strong-law instances above cover its intent"
    )


def _t15(p: dict, run: _Run) -> None:
    prime_sums = lambda n: [(t, u) for t, u in _nonzero_pairs(n) if is_prime(t + u)]
    for _, carrier, pairs, groupoids in _sweeps(p["moduli"], ("zni",), prime_sums):
        for (t, u), g in zip(pairs, groupoids):
            ideals = enumerate_ideals(g)
            run.observe(
                instance=_coeff_desc(carrier, t, u),
                coeff_sum=t + u,
                left=len(ideals.left),
                right=len(ideals.right),
                two_sided=len(ideals.two_sided),
                agrees=len(ideals.two_sided) == 0,
            )


def _t16(p: dict, run: _Run) -> None:
    # {0} is a left ideal when row 0 of the table is all zero (0*y = 0 for
    # every y), and a right ideal when column 0 is
    for _, carrier, pairs, groupoids in _sweeps(_moduli(p["n"]), p["carriers"], _nonzero_pairs):
        for (t, u), tab in zip(pairs, compile_tables(groupoids)):
            run.check(
                tab[0].any() and tab[:, 0].any(),
                f"{_coeff_desc(carrier, t, u)}: the zero singleton absorbs on some side",
            )


def _t17(p: dict, run: _Run) -> None:
    for _, carrier, pairs, groupoids in _sweeps(p["moduli"], ("o(zni)",), _nonzero_pairs):
        for (t, u), g in zip(pairs, groupoids):
            enum = enumerate_subgroupoids(g)
            big = [h for h in enum.subsets if h.size >= 2]
            ideals = enumerate_ideals(g)
            run.check(
                not big and not ideals.left and not ideals.right,
                f"{_coeff_desc(carrier, t, u)}: found {len(big)} closed subsets of size>=2, "
                f"{len(ideals.left)} left / {len(ideals.right)} right ideals",
            )


def _gold(p: dict, run: _Run) -> None:
    from . import demos

    for result in demos.run_all():
        run.check(
            result.ok,
            f"demo {result.demo_id}: " + "; ".join(result.failures),
        )


# -- the registry ---------------------------------------------------------------

CHECKS: dict[str, TheoremCheck] = {}


def _register(check_id: str, tier: str, summary: str, defaults: dict, runner) -> None:
    CHECKS[check_id] = TheoremCheck(check_id, tier, summary, defaults, runner)


_register(
    "T1",
    "asserted",
    "idempotent exactly when t+u ≡ 1 (mod n)",
    {"n": (3, 16), "carriers": ["zn", "zni"]},
    _t1,
)
_register(
    "T2",
    "asserted",
    "associative exactly when t² ≡ t and u² ≡ u (mod n)",
    {"n": (3, 12), "carriers": ["zn", "zni"]},
    _t2,
)
_register(
    "T3",
    "asserted",
    "equal pairs always satisfy the P-law",
    {"n": (3, 16), "carriers": ["zn", "zni"]},
    _t3,
)
_register(
    "T4",
    "asserted",
    "equal pairs 1 < t < p are never alternative at prime moduli",
    {"p": (3, 23), "carriers": ["zn", "zni"]},
    _t4,
)
_register(
    "T5",
    "asserted",
    "equal pairs at composite moduli are alternative exactly when t² ≡ t",
    {"n": (4, 16), "carriers": ["zn", "zni"]},
    _t5,
)
_register(
    "T6",
    "asserted",
    "one-sided pairs satisfy P and alternative exactly when the coefficient is idempotent",
    {"n": (3, 16), "carriers": ["zn", "zni"]},
    _t6,
)
_register(
    "T7",
    "asserted",
    "left ideals of (t,u) are the right ideals of (u,t)",
    {"zn_n": (3, 12), "zni_n": (3, 8), "nzn_n": 3},
    _t7,
)
_register(
    "T8",
    "asserted",
    "prime-modulus instances with prime coefficients are simple",
    {"instances": [(5, 2, 3), (7, 2, 5), (13, 2, 11)]},
    _t8,
)
_register(
    "T9",
    "report_only",
    "even n with t+u=n, gcd t: reportedly a unique normal subgroupoid of order n/t",
    {"n": (4, 12)},
    _t9,
)
_register(
    "T10",
    "asserted",
    "when t+u ≡ 1, every singleton is a semigroup (idempotent witness)",
    {"n": (6, 16)},
    _t10,
)
_register(
    "T11",
    "asserted",
    "t+u ≡ 1 with both coefficients idempotent gives strong P and alternative laws",
    {"n": (3, 14), "carriers": ["zn", "zni"]},
    _t11,
)
_register(
    "T12",
    "report_only",
    "interval carrier with (2,0), even n: {[0,0],[0,n/2]} is a semigroup witness",
    {"n": (4, 12)},
    _t12,
)
_register(
    "T13",
    "asserted",
    "parameter-class counts: fixed values, product formulas, parity law",
    {"formula_n": (3, 20), "parity_n": (3, 50)},
    _t13,
)
_register(
    "T14",
    "asserted",
    "strong-law instances for Moufang/Bol/P/alternative; the 2m≡1 ∧ m²≡m family is empty",
    {"vacuity_n": (2, 50)},
    _t14,
)
_register(
    "T15",
    "report_only",
    "pure carriers at n ∈ {4,8}, coefficient sums prime: reportedly no two-sided ideals",
    {"moduli": [4, 8]},
    _t15,
)
_register(
    "T16",
    "asserted",
    "with both coefficients nonzero, the zero singleton is never an ideal",
    {"n": (3, 12), "carriers": ["zn", "zni"]},
    _t16,
)
_register(
    "T17",
    "asserted",
    "interval-pure prime moduli: no closed subsets of size ≥ 2 and no one-sided ideals",
    {"moduli": [3, 5, 7]},
    _t17,
)
_register(
    "GOLD",
    "asserted",
    "every registered demo reproduces its embedded expected values",
    {},
    _gold,
)


def verify_theorem(
    check_id: str, params: dict | None = None, tier_override: str | None = None
) -> CheckOutcome:
    if check_id not in CHECKS:
        raise CarrierError(f"unknown check id: {check_id!r}")
    check = CHECKS[check_id]
    merged = dict(check.defaults)
    if params:
        merged.update(params)
    run = _Run()
    check.runner(merged, run)
    tier = tier_override or check.tier
    failures = list(run.failures)
    if tier == "asserted" and check.tier == "report_only":
        failures.extend(
            str(obs.get("instance", obs)) + ": disagrees"
            for obs in run.observations
            if obs.get("agrees") is False
        )
    return CheckOutcome(
        check_id=check_id,
        tier=tier,
        summary=check.summary,
        params=merged,
        instances=run.instances,
        failures=tuple(failures),
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
