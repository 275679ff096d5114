"""The three workloads: seeded specs, one pass of ops, and the per-op correctness gate.

Every workload is built from its seed alone and hands groupoidlab only specs
(carrier token, shape token, parameter pair) through the public API. A pass is
a fixed list of ops; an op is one public call. Groupoids are built afresh in
each pass, so every pass compiles its own tables.

* ``suite``: ``ggl verify --suite default --seed <seed> --no-timing`` in
  process. Thousands of tiny tables, each read about once; compile and
  orchestration dominate. Its 18 checks are the ops.
* ``survey``: ``analyze`` at the default order cap on seeded instances: seven
  at order 16, two at 18, one at 20 (power-set route) and one each at 53 and
  64 (generated-closure route). The subset layer dominates; compile is
  trivial.
* ``large-check``: every identity on each of 13 groupoids of order 81 to 729
  and beyond the enumeration cap, so each table is compiled once and read
  about eight times. Compile and the identity engines dominate; the subset
  layer is idle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

SUITE_ARGV = ["verify", "--suite", "default", "--no-timing"]

IDENTITIES = (
    "idempotent", "commutative", "associative", "left-alternative",
    "right-alternative", "p-identity", "moufang", "bol",
)


def digest(text: str) -> str:
    """Short content hash of an output's text, as stored in goldens.json."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def modulus(carrier_token: str) -> int:
    return int(carrier_token.rstrip(")").rsplit(":", 1)[1])


def pair_text(carrier_token: str, t: int, u: int) -> str:
    sfx = "I" if "zni:" in carrier_token else ""
    return f"{t}{sfx},{u}{sfx}"


def parse_spec(gl, carrier_token: str, shape_token: str, pair: str):
    """Parse a spec the way ``ggl`` does; returns the arguments of ``build``."""
    carrier = gl.parse_carrier(carrier_token)
    shape = gl.parse_shape(shape_token)
    params = []
    for part in pair.split(","):
        ind = part.endswith("I")
        params.append((carrier.embed_param(int(part.rstrip("I")), ind), ind))
    (t, ti), (u, ui) = params
    return carrier, shape, t, u, {"t_indeterminate": ti, "u_indeterminate": ui}


def spec_key(carrier_token: str, shape_token: str, pair: str) -> str:
    return f"{carrier_token} {shape_token} ({pair})"


@dataclass
class Op:
    """One public call: ``run(groupoids)`` does it, ``key`` names its golden."""

    label: str
    spec: int  # index into the workload's specs
    run: Callable[[list], Any]
    key: str
    expect_refusal: bool = False


@dataclass
class PassResult:
    """perf_counter intervals of the pass and of its heavy op; run.py scales them."""

    span: tuple[float, float] = (0.0, 0.0)
    heavy: tuple[float, float] = (0.0, 0.0)
    ops: list[tuple[float, float]] = field(default_factory=list)  # one per op (suite: per check)
    checks: dict[str, tuple[float, float]] = field(default_factory=dict)  # suite: by check id
    outputs: list = field(default_factory=list)


class Workload:
    """Specs are parsed once (set-up); ``run_pass`` builds and runs them."""

    name = ""
    heavy_label = ""

    def __init__(self, gl, seed: int) -> None:
        self.gl = gl
        self.seed = seed
        self.rng = random.Random(seed)
        self.specs: list[tuple[str, str, str]] = []
        self.ops: list[Op] = []
        self.define()
        self.parsed = [parse_spec(gl, *s) for s in self.specs]

    def define(self) -> None:
        raise NotImplementedError

    def build_all(self) -> list:
        """Fresh groupoids for one pass; building compiles no table."""
        return [self.gl.build(c, s, t, u, **kw) for c, s, t, u, kw in self.parsed]

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        clock = time.perf_counter
        start = clock()
        groupoids = self.build_all()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                out = op.run(groupoids)
            except Exception as e:  # judged by verify(): expected refusal or failure
                out = e
            res.ops.append((t0, clock()))
            if op.label == self.heavy_label:
                res.heavy = res.ops[-1]
            res.outputs.append(out)
        res.span = (start, clock())
        if tracer is not None:
            tracer.op = None
        return res

    def attempted(self) -> int:
        return len(self.ops)

    def verify(self, res: PassResult, goldens: dict) -> dict[str, str]:
        """Wrong ops by label; an op that raised unexpectedly is wrong."""
        errors = {}
        table = goldens.get(self.name, {})
        for op, out in zip(self.ops, res.outputs):
            if op.expect_refusal:
                if not isinstance(out, self.gl.BudgetExceeded):
                    errors[op.label] = f"expected BudgetExceeded, got {out!r}"
            elif isinstance(out, Exception):
                errors[op.label] = f"raised {type(out).__name__}: {out}"
            else:
                msgs = self.check(op, out, table.get(op.key))
                if msgs:
                    errors[op.label] = "; ".join(msgs)
        return errors

    def check(self, op: Op, out, golden) -> list[str]:
        raise NotImplementedError


# -- suite ------------------------------------------------------------------------


class Suite(Workload):
    name = "suite"
    heavy_label = "T7"

    def define(self) -> None:
        self.argv = SUITE_ARGV + ["--seed", str(self.seed)]

    def attempted(self) -> int:
        return len(self.gl.CHECKS)

    def run_pass(self, tracer=None) -> PassResult:
        from groupoidlab import cli, theorems

        res = PassResult()
        clock = time.perf_counter
        real = theorems.verify_theorem

        checks = {}

        def timed_check(check_id, *args, **kwargs):
            t0 = clock()
            out = real(check_id, *args, **kwargs)
            checks[check_id] = (t0, clock())
            return out

        main = cli.main.main
        if tracer is not None:
            main = tracer.wrap("cli", main)
        out = io.StringIO()
        theorems.verify_theorem = timed_check
        try:
            with contextlib.redirect_stdout(out):
                start = clock()
                try:
                    main(self.argv, standalone_mode=False)
                    code = 0
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # a usage error or crash fails every check
                    code = repr(e)
                res.span = (start, clock())
        finally:
            theorems.verify_theorem = real
        res.ops = list(checks.values()) or [res.span]  # no checks ran if verify crashed
        res.heavy = checks.get(self.heavy_label, res.span)
        res.checks = checks
        res.outputs = [(code, out.getvalue())]
        return res

    def verify(self, res: PassResult, goldens: dict) -> dict[str, str]:
        code, stdout = res.outputs[0]
        if code != 0:
            return dict.fromkeys(self.gl.CHECKS, f"verify exited {code}")
        doc = json.loads(stdout)
        gold = goldens.get("suite", {})
        recorded = gold.get("checks", {})
        bad = []
        for entry in doc["checks"]:
            got = digest(json.dumps(entry, sort_keys=True))
            if entry["status"] == "fail" or recorded.get(entry["check"], got) != got:
                bad.append(entry["check"])
        if bad:
            return dict.fromkeys(bad, "output differs from the recorded check")
        normal = stdout.replace(f'"seed": {self.seed}\n', '"seed": <SEED>\n', 1)
        if not doc.get("passed") or doc["config"].get("seed") != self.seed:
            return dict.fromkeys(self.gl.CHECKS, "verify reported passed=false or lost the seed")
        if gold and digest(normal) != gold["stdout"]:
            return dict.fromkeys(self.gl.CHECKS, "stdout differs from the recorded stdout")
        return {}


# -- survey -----------------------------------------------------------------------

FAMILIES = ("zn", "zni", "o(zn)")
# pool size per order: the pools are fixed, the seed draws each instance from them
SURVEY_POOLS = {16: 24, 18: 12, 20: 8, 53: 6, 64: 6}
CLOSURE_ORDERS = (53, 64)
# one pass, in order; the order-16 ops are spread out so that their median
# samples the whole pass rather than one stretch of it
SURVEY_PASS = (16, 18, 16, 53, 16, 20, 16, 64, 16, 18, 16, 16)


def carrier_token(family: str, n: int) -> str:
    return f"o(zn:{n})" if family == "o(zn)" else f"{family}:{n}"


def survey_pool(n: int, size: int) -> list[tuple[str, int, int]]:
    """Unit pairs t != u: few closed subsets, so cost depends on n, not the pair.
    The closure-route orders use the plain carrier only."""
    units = [v for v in range(1, n) if math.gcd(v, n) == 1]
    families = ("zn",) if n in CLOSURE_ORDERS else FAMILIES
    cands = [(f, t, u) for f in families for t in units for u in units if t != u]
    random.Random(n).shuffle(cands)
    return cands[:size]


def survey_keys() -> list[tuple[str, str, str]]:
    return [
        (carrier_token(f, n), "scalar", pair_text(carrier_token(f, n), t, u))
        for n, size in SURVEY_POOLS.items()
        for f, t, u in survey_pool(n, size)
    ]


def analyze_json(report) -> str:
    return json.dumps(report.to_json(), indent=2)


class Survey(Workload):
    name = "survey"
    heavy_label = "analyze@20"

    def define(self) -> None:
        draws = {
            n: iter(self.rng.sample(survey_pool(n, size), SURVEY_PASS.count(n)))
            for n, size in SURVEY_POOLS.items()
        }
        for n in SURVEY_PASS:
            f, t, u = next(draws[n])
            ctok = carrier_token(f, n)
            spec = (ctok, "scalar", pair_text(ctok, t, u))
            i = len(self.specs)
            self.specs.append(spec)
            self.ops.append(Op(f"analyze@{n}", i, lambda gs, i=i: self.gl.analyze(gs[i]), spec_key(*spec)))

    def check(self, op: Op, report, golden) -> list[str]:
        n = int(op.label.split("@")[1])
        errors = []
        if report.order != n or report.complete != (n <= 20):
            errors.append(f"order {report.order}, complete {report.complete}")
        if golden is not None and digest(analyze_json(report)) != golden:
            errors.append("analyze JSON differs from the recorded digest")
        return errors


# -- large-check --------------------------------------------------------------------

def _pairs(n: int, rule: str) -> list[tuple[int, int]]:
    idem = {v for v in range(n) if v * v % n == v}
    keep = {
        "idempotent": lambda t, u: t in idem and u in idem,
        "general": lambda t, u: t not in idem and u not in idem,
        "distinct": lambda t, u: t and u and t != u,
        "equal": lambda t, u: t and t == u,
        "nonzero": lambda t, u: t and u,
    }[rule]
    return [(t, u) for t in range(n) for u in range(n) if (t, u) != (0, 0) and keep(t, u)]


# (slot, carrier, shape, pair rule, mode). "idempotent" pairs make every
# 3-variable law hold, forcing full scans; "general" pairs fail every
# 3-variable law within a few assignments. The share of each is fixed.
CHECK_SLOTS = (
    ("E81a", "zn:3", "mat:2x2", "idempotent", "exhaustive"),
    ("E81b", "zn:9", "mat:1x2", "general", "exhaustive"),
    ("E125", "zn:5", "mat:1x3", "general", "exhaustive"),
    ("E216a", "o(zn:6)", "mat:1x3", "general", "exhaustive"),
    ("E216b", "zn:6", "mat:3x1", "idempotent", "exhaustive"),
    ("E243", "zni:3", "mat:1x5", "general", "exhaustive"),
    ("E256", "zn:4", "mat:2x2", "general", "exhaustive"),
    ("E343", "zn:7", "mat:3x1", "idempotent", "exhaustive"),
    ("N343", "zn:7", "poly:2:conv", "distinct", "auto"),
    ("N512", "zn:8", "poly:2:shuffle", "distinct", "auto"),
    ("N625", "zn:5", "poly:3:conv", "distinct", "auto"),
    ("L", "o(zn:10)", "mat:12x5", "nonzero", "auto"),
    ("S", "zn:10", "poly:7:conv", "equal", "auto"),
)
# the pure-loop engine above the vectorised order limit (commutativity holds
# for every equal pair, so the scan is full), and the one expected refusal
BIG = ("B729", "zn:9", "mat:1x3", "equal", "exhaustive")
SLOTS = CHECK_SLOTS + (BIG,)
BIG_OPS = (("commutative", False), ("associative", True))
CROSS = (("E81a", "associative"), ("E125", "associative"), ("S", "commutative"))
CLOSED_FORMS = {"associative": "semigroup-iff", "idempotent": "idempotent-iff"}


def check_key(spec: tuple[str, str, str], identity: str, mode: str) -> str:
    return f"{spec_key(*spec)} {identity} {mode}"


def verdict_record(v) -> list:
    return [v.status, v.method, list(v.witness_labels) if v.witness_labels else None]


def slot_ops(slot: str) -> tuple[tuple[str, bool], ...]:
    """(identity, must be refused) for each check op of a slot."""
    return BIG_OPS if slot == BIG[0] else tuple((ident, False) for ident in IDENTITIES)


def large_check_keys() -> list[tuple[tuple[str, str, str], str, str]]:
    keys = []
    for slot, ctok, stok, rule, mode in SLOTS:
        for t, u in _pairs(modulus(ctok), rule):
            spec = (ctok, stok, pair_text(ctok, t, u))
            keys += [(spec, ident, mode) for ident, _ in slot_ops(slot)]
            keys += [(spec, ident, "cross") for s, ident in CROSS if s == slot]
    return keys


class LargeCheck(Workload):
    name = "large-check"
    heavy_label = "B729 commutative"

    def define(self) -> None:
        gl = self.gl
        slot_spec = {}
        for slot, ctok, stok, rule, mode in SLOTS:
            t, u = self.rng.choice(_pairs(modulus(ctok), rule))
            i = slot_spec[slot] = len(self.specs)
            self.specs.append((ctok, stok, pair_text(ctok, t, u)))
            for ident, refusal in slot_ops(slot):
                self._check_op(f"{slot} {ident}", i, ident, mode, refusal)
        for slot, ident in CROSS:
            i = slot_spec[slot]
            run = lambda gs, i=i, ident=ident: gl.cross_validate(gs[i], gl.IdentityId(ident))
            self.ops.append(Op(f"{slot} cross {ident}", i, run, check_key(self.specs[i], ident, "cross")))

    def _check_op(self, label: str, i: int, ident: str, mode: str, refusal: bool = False) -> None:
        gl = self.gl

        def run(gs):
            return gl.check_identity(gs[i], gl.IdentityId(ident), gl.CheckMode(mode))

        self.ops.append(Op(label, i, run, check_key(self.specs[i], ident, mode), refusal))

    def check(self, op: Op, out, golden) -> list[str]:
        if op.key.endswith(" cross"):
            errors = [] if out.agreement else [f"routes disagree: {out.disagreements}"]
            if golden is not None and digest(json.dumps(out.to_json(), sort_keys=True)) != golden:
                errors.append("cross_validate report differs from the recorded digest")
            return errors
        errors = []
        if golden is not None and digest(json.dumps(verdict_record(out))) != golden:
            errors.append(f"verdict {verdict_record(out)} differs from the recorded one")
        ctok, stok, pair = self.specs[op.spec]
        ident = op.label.split()[-1]
        if ident in CLOSED_FORMS and stok.startswith("mat:"):
            t, u = (int(p.rstrip("I")) for p in pair.split(","))
            predicted = self.gl.closed_form(CLOSED_FORMS[ident], modulus(ctok), t, u)
            if out.holds != predicted:
                errors.append(f"{CLOSED_FORMS[ident]} predicts {predicted}, check says {out.status}")
        return errors

    def verify(self, res: PassResult, goldens: dict) -> dict[str, str]:
        errors = super().verify(res, goldens)
        # the scalar shadow must agree with every exhaustive verdict on an entrywise shape
        gl = self.gl
        groupoids = self.build_all()
        for op, out in zip(self.ops, res.outputs):
            if isinstance(out, Exception) or op.key.endswith(" cross") or op.expect_refusal:
                continue
            if out.method == "exhaustive" and self.specs[op.spec][1].startswith("mat:"):
                ident = gl.IdentityId(op.label.split()[-1])
                lifted = gl.check_identity(groupoids[op.spec], ident, gl.CheckMode.LIFTED)
                if lifted.status != out.status:
                    errors[op.label] = f"lifted says {lifted.status}, exhaustive {out.status}"
        return errors


WORKLOADS = {w.name: w for w in (Suite, Survey, LargeCheck)}
