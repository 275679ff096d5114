"""Identity checking: exhaustive, lifted, and sampled modes, plus closed forms.

Each identity is a fixed pair of expression trees over variables ``x``, ``y``,
``z`` and the binary product ``*``. The same trees drive three evaluators:

* an exhaustive scan over all assignments, vectorised over the groupoid's
  Cayley table array (one-variable laws multiply the index vector by itself
  instead, so they need no table); the same scan, with the domain set to a
  subset's indices, decides identities on subsets for ``structure``. A
  product of a (rows, 1) column and the (1, m) domain row reads whole table
  rows (of the transpose, for the mirror case; then the domain's columns when
  m < n); any other product is one flat take at ``A*n + B``;
* a lifted check that proves the identity on the scalar shadow when the shape
  multiplies entrywise (the verdict then transfers entry-for-entry),
* a seeded random sampler for spaces too large to enumerate. It draws trials
  in chunks that double up to about _CHUNK_CELLS draws and multiplies each
  chunk at once through the compiled per-digit product, which never forms an
  element index, so it works past the enumeration cap.

Assignments are scanned with the FIRST variable varying fastest (x innermost,
then y, then z); a failure witness is minimal under that order, so exhaustive
reruns always reproduce the same witness regardless of internal chunking.
Sampled draws come from ``random.Random(seed).randrange`` in a fixed order
(trial, then variable, then entry) and the witness is the first failing trial
in that order, so ``(trials, seed)`` reproduce a sampled verdict and witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from .carrier import CarrierError, is_prime
from .groupoid import BUDGET_ENV_VAR, DEFAULT_BUDGET, BudgetExceeded, Groupoid, build, default_budget
from .shape import Element, Scalar, TooLarge, format_element, scalar_projection

DEFAULT_TRIALS = 10**4
_CHUNK_CELLS = 1 << 18

Node = Any  # str variable or ("*", Node, Node)


class IdentityId(Enum):
    IDEMPOTENT = "idempotent"
    COMMUTATIVE = "commutative"
    ASSOCIATIVE = "associative"
    LEFT_ALTERNATIVE = "left-alternative"
    RIGHT_ALTERNATIVE = "right-alternative"
    P_IDENTITY = "p-identity"
    MOUFANG = "moufang"
    BOL = "bol"


M = lambda a, b: ("*", a, b)  # noqa: E731 - tree shorthand

TEMPLATES: dict[IdentityId, tuple[Node, Node, tuple[str, ...]]] = {
    IdentityId.IDEMPOTENT: (M("x", "x"), "x", ("x",)),
    IdentityId.COMMUTATIVE: (M("x", "y"), M("y", "x"), ("x", "y")),
    IdentityId.ASSOCIATIVE: (M(M("x", "y"), "z"), M("x", M("y", "z")), ("x", "y", "z")),
    IdentityId.LEFT_ALTERNATIVE: (M(M("x", "x"), "y"), M("x", M("x", "y")), ("x", "y")),
    IdentityId.RIGHT_ALTERNATIVE: (M(M("x", "y"), "y"), M("x", M("y", "y")), ("x", "y")),
    IdentityId.P_IDENTITY: (M(M("x", "y"), "x"), M("x", M("y", "x")), ("x", "y")),
    IdentityId.MOUFANG: (
        M(M("x", "y"), M("z", "x")),
        M(M("x", M("y", "z")), "x"),
        ("x", "y", "z"),
    ),
    IdentityId.BOL: (
        M(M(M("x", "y"), "z"), "y"),
        M("x", M(M("y", "z"), "y")),
        ("x", "y", "z"),
    ),
}


class CheckMode(Enum):
    AUTO = "auto"
    EXHAUSTIVE = "exhaustive"
    LIFTED = "lifted"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class IdentityVerdict:
    identity: str
    method: str  # exhaustive | lifted | sampled
    status: str  # holds | fails | sampled_no_counterexample
    witness: tuple[Element, ...] | None = None
    witness_labels: tuple[str, ...] | None = None
    trials: int | None = None
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    def to_json(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "method": self.method,
            "status": self.status,
        }
        if self.witness_labels is not None:
            out["witness"] = list(self.witness_labels)
        if self.trials is not None:
            out["trials"] = self.trials
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def eval_tree(node: Node, env: dict, prod) -> Any:
    """Evaluate a template tree; prod multiplies two evaluated operands."""
    if isinstance(node, str):
        return env[node]
    _, a, b = node
    return prod(eval_tree(a, env, prod), eval_tree(b, env, prod))


# -- exhaustive ---------------------------------------------------------------


def _witness_verdict(g: Groupoid, identity: IdentityId, method: str, assign: tuple[int, ...]) -> IdentityVerdict:
    witness = tuple(g.elements()[i] for i in assign) if g.spec is not None else assign
    return IdentityVerdict(
        identity=identity.value, method=method, status="fails",
        witness=witness, witness_labels=tuple(g.labels()[i] for i in assign),
    )


def _table_reader(table: np.ndarray, x: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """table[A, B] for the operands of one chunk: x is the (1, m) domain row,
    the later variables are (rows, 1) columns, and products span (rows, m).

    * A column times a row reads whole table rows, then the row's columns
      (none to pick when the row is x and the domain is every element).
    * A row times a column does the same on the transpose, copied on first
      use and dropped with the reader.
    * Anything else is one flat take at A*n + B.
    """
    n = len(table)
    flat = table.ravel()
    every = x.shape[1] == n  # a sorted domain of n distinct indices is arange(n)
    transposed = None

    def rows(tab: np.ndarray, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        out = tab[col[:, 0]]
        return out if row is x and every else out[:, row[0]]

    def prod(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        nonlocal transposed
        if A.shape[1] == 1 and B.shape[0] == 1:
            return rows(table, A, B)
        if A.shape[0] == 1 and B.shape[1] == 1:
            if transposed is None:
                transposed = np.ascontiguousarray(table.T)
            return rows(transposed, B, A)
        return np.take(flat, np.add(A * n, B, dtype=np.intp))  # intp: take is slow on int32

    return prod


def first_failure(g: Groupoid, identity: IdentityId, domain: np.ndarray) -> tuple[int, ...] | None:
    """The first assignment of elements of ``domain`` (sorted, distinct; x
    fastest, then y, then z) at which the identity's two sides differ, or None
    when it holds there.

    One-variable laws square the domain vector through ``Groupoid.products``;
    the others read the table array through ``_table_reader``, one row per
    assignment of the variables after x, in chunks of about _CHUNK_CELLS cells."""
    lhs_t, rhs_t, vars_ = TEMPLATES[identity]
    env = {"x": domain[None, :]}
    prod = g.products if len(vars_) == 1 else _table_reader(g.table_array(), env["x"])
    m = len(domain)
    rows = m ** (len(vars_) - 1)
    step = max(1, _CHUNK_CELLS // max(m, 1))
    for lo in range(0, rows, step):
        r = np.arange(lo, min(lo + step, rows))
        for p, var in enumerate(vars_[1:]):
            env[var] = domain[r // m**p % m][:, None]
        mism = eval_tree(lhs_t, env, prod) != eval_tree(rhs_t, env, prod)
        if mism.any():
            row, col = divmod(int(np.argmax(mism)), m)  # both sides span (rows, m)
            rest = lo + row
            return (int(domain[col]), *(int(domain[rest // m**p % m]) for p in range(len(vars_) - 1)))
    return None


def _exhaustive(g: Groupoid, identity: IdentityId, budget: int) -> IdentityVerdict:
    order = g.order
    nvars = len(TEMPLATES[identity][2])
    if isinstance(order, TooLarge):
        raise BudgetExceeded("element space exceeds the enumeration cap")
    if order**nvars > budget:
        raise BudgetExceeded(
            f"exhaustive check needs {order}^{nvars} evaluations, budget is {budget}"
        )
    found = first_failure(g, identity, np.arange(order))
    if found is not None:
        return _witness_verdict(g, identity, "exhaustive", found)
    return IdentityVerdict(identity=identity.value, method="exhaustive", status="holds")


# -- lifted -------------------------------------------------------------------


def _scalar_shadow(g: Groupoid) -> Groupoid:
    sp = g.spec
    return build(
        sp.carrier, Scalar(), sp.t, sp.u,
        t_indeterminate=sp.t_indeterminate, u_indeterminate=sp.u_indeterminate,
    )


def _lifted(g: Groupoid, identity: IdentityId, budget: int) -> IdentityVerdict:
    if g.spec is None:
        raise CarrierError("lifted mode needs a spec-backed groupoid")
    lift = scalar_projection(g.spec.shape)
    if not lift.liftable:
        raise CarrierError(f"shape is not liftable: {lift.reason}")
    shadow = _scalar_shadow(g)
    inner = _exhaustive(shadow, identity, budget)
    if inner.status == "holds":
        return IdentityVerdict(identity=identity.value, method="lifted", status="holds")
    k = g.spec.shape.entry_count()
    witness = tuple(tuple(e[0] for _ in range(k)) for e in inner.witness)
    labels = tuple(format_element(g.spec.carrier, g.spec.shape, w) for w in witness)
    return IdentityVerdict(
        identity=identity.value, method="lifted", status="fails",
        witness=witness, witness_labels=labels,
    )


# -- sampled ------------------------------------------------------------------


def _sampled(g: Groupoid, identity: IdentityId, trials: int, seed: int) -> IdentityVerdict:
    """Draw every entry of every variable of every trial, in that nesting, from
    ``random.Random(seed).randrange``, and multiply whole chunks of trials at
    once. Chunks start at one trial and double up to about _CHUNK_CELLS draws,
    so an early counterexample costs few draws; the first failing trial in
    draw order is the witness. Spec-backed elements travel as k arrays of value
    indices through ``Groupoid.digit_products``, table-backed ones as indices
    through ``Groupoid.products``."""
    lhs_t, rhs_t, vars_ = TEMPLATES[identity]
    if g.spec is not None:
        carrier = g.spec.carrier
        size = carrier.size()
        k = g.spec.shape.entry_count()
        prod = g.digit_products
        element = lambda ds: tuple(map(carrier.value_at, ds))  # noqa: E731
        fmt = lambda e: format_element(carrier, g.spec.shape, e)  # noqa: E731
    else:
        size, k = len(g.labels()), 1
        prod = lambda xs, ys: [g.products(xs[0], ys[0])]  # noqa: E731
        element = lambda ds: ds[0]  # noqa: E731
        fmt = lambda i: g.labels()[i]  # noqa: E731

    draw = random.Random(seed).randrange
    width = len(vars_) * k  # draws per trial
    cap = max(1, _CHUNK_CELLS // width)
    done, chunk = 0, 1
    while done < trials:
        c = min(chunk, cap, trials - done)
        drawn = np.array([draw(size) for _ in range(c * width)]).reshape(c, len(vars_), k)
        env = {v: list(drawn[:, p, :].T) for p, v in enumerate(vars_)}
        lhs, rhs = eval_tree(lhs_t, env, prod), eval_tree(rhs_t, env, prod)
        mism = np.zeros(c, dtype=bool)
        for a, b in zip(lhs, rhs):
            mism |= a != b
        if mism.any():
            witness = tuple(element(ds) for ds in drawn[int(np.argmax(mism))].tolist())
            return IdentityVerdict(
                identity=identity.value, method="sampled", status="fails",
                witness=witness, witness_labels=tuple(fmt(w) for w in witness),
                trials=trials, seed=seed,
            )
        done += c
        chunk *= 2
    return IdentityVerdict(
        identity=identity.value, method="sampled", status="sampled_no_counterexample",
        trials=trials, seed=seed,
    )


# -- entry point --------------------------------------------------------------


def _lifted_fits(g: Groupoid, nvars: int, budget: int) -> bool:
    """The shape multiplies entrywise over k > 1 entries and its scalar shadow
    is within the exhaustive budget."""
    sp = g.spec
    return (
        sp is not None
        and sp.shape.entry_count() > 1
        and scalar_projection(sp.shape).liftable
        and sp.carrier.size() ** nvars <= budget
    )


def _exhaustive_fits(g: Groupoid, nvars: int, budget: int) -> bool:
    return not isinstance(g.order, TooLarge) and g.order**nvars <= budget


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise CarrierError(f"sampling needs at least one trial, got {trials}")


def check_identity(
    g: Groupoid,
    identity: IdentityId,
    mode: CheckMode = CheckMode.AUTO,
    *,
    budget: int | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> IdentityVerdict:
    _require_trials(trials)
    budget = default_budget() if budget is None else budget
    nvars = len(TEMPLATES[identity][2])

    if mode is CheckMode.EXHAUSTIVE:
        return _exhaustive(g, identity, budget)
    if mode is CheckMode.LIFTED:
        return _lifted(g, identity, budget)
    if mode is CheckMode.SAMPLED:
        return _sampled(g, identity, trials, seed)

    # AUTO: prefer a lifted proof, then exhaustive, then sampling
    if _lifted_fits(g, nvars, budget):
        return _lifted(g, identity, budget)
    if _exhaustive_fits(g, nvars, budget):
        return _exhaustive(g, identity, budget)
    return _sampled(g, identity, trials, seed)


def check_alternative(
    g: Groupoid,
    mode: CheckMode = CheckMode.AUTO,
    *,
    budget: int | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> tuple[IdentityVerdict, IdentityVerdict, IdentityVerdict]:
    """Both alternative laws; the combined verdict holds iff both hold."""
    left = check_identity(g, IdentityId.LEFT_ALTERNATIVE, mode, budget=budget, trials=trials, seed=seed)
    right = check_identity(g, IdentityId.RIGHT_ALTERNATIVE, mode, budget=budget, trials=trials, seed=seed)
    if left.fails or right.fails:
        bad = left if left.fails else right
        combined = IdentityVerdict(
            identity="alternative", method=bad.method, status="fails",
            witness=bad.witness, witness_labels=bad.witness_labels,
            trials=bad.trials, seed=bad.seed,
        )
    elif left.status == "holds" and right.status == "holds":
        combined = IdentityVerdict(identity="alternative", method=left.method, status="holds")
    else:
        weaker = left if left.status != "holds" else right
        combined = IdentityVerdict(
            identity="alternative", method=weaker.method,
            status="sampled_no_counterexample", trials=weaker.trials, seed=weaker.seed,
        )
    return combined, left, right


# -- closed forms -------------------------------------------------------------

CLOSED_FORM_NAMES = (
    "idempotent-iff",
    "semigroup-iff",
    "alternative-iff",
    "type3-p-alt-iff",
    "equal-pair-p",
)


def closed_form(name: str, n: int, t: int, u: int) -> bool:
    """Arithmetic predicates on (n, t, u) matching specific check outcomes."""
    t %= n
    u %= n
    if name == "idempotent-iff":
        return (t + u) % n == 1
    if name == "semigroup-iff":
        return (t * t) % n == t and (u * u) % n == u
    if name == "alternative-iff":
        # intended domain: equal pairs over a composite modulus
        return t == u and (t * t) % n == t
    if name == "type3-p-alt-iff":
        if (t == 0) == (u == 0):
            return False
        s = t or u
        return (s * s) % n == s
    if name == "equal-pair-p":
        return t == u
    raise CarrierError(f"unknown closed form: {name!r}")


def integer_params(g: Groupoid) -> tuple[int, int, int] | None:
    """(n, t, u) for closed-form evaluation, when the parameters act exactly
    like residues: plain/pure carriers always; mixed carriers only when both
    parameters have no I component."""
    if g.spec is None:
        return None
    carrier = g.spec.carrier
    t, u = carrier.residue(g.spec.t), carrier.residue(g.spec.u)
    if t is None or u is None:
        return None
    return carrier.n, t, u


def applicable_closed_forms(g: Groupoid, identity: IdentityId) -> dict[str, bool]:
    """Closed forms relevant to this identity/groupoid, with their predictions."""
    ints = integer_params(g)
    if ints is None:
        return {}
    n, t, u = ints
    out: dict[str, bool] = {}
    if identity is IdentityId.IDEMPOTENT:
        out["idempotent-iff"] = closed_form("idempotent-iff", n, t, u)
    elif identity is IdentityId.ASSOCIATIVE:
        out["semigroup-iff"] = closed_form("semigroup-iff", n, t, u)
    elif identity in (IdentityId.LEFT_ALTERNATIVE, IdentityId.RIGHT_ALTERNATIVE):
        if t % n == u % n and not (n < 4 or is_prime(n)):
            out["alternative-iff"] = closed_form("alternative-iff", n, t, u)
        if (t % n == 0) != (u % n == 0):
            out["type3-p-alt-iff"] = closed_form("type3-p-alt-iff", n, t, u)
    elif identity is IdentityId.P_IDENTITY:
        if t % n == u % n:
            out["equal-pair-p"] = closed_form("equal-pair-p", n, t, u)
        if (t % n == 0) != (u % n == 0):
            out["type3-p-alt-iff"] = closed_form("type3-p-alt-iff", n, t, u)
    return out


# -- cross validation ---------------------------------------------------------


@dataclass
class ConsistencyReport:
    identity: str
    verdicts: list[IdentityVerdict] = field(default_factory=list)
    closed_forms: dict[str, dict] = field(default_factory=dict)
    agreement: bool = True
    disagreements: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "verdicts": [v.to_json() for v in self.verdicts],
            "closed_forms": self.closed_forms,
            "agreement": self.agreement,
            "disagreements": list(self.disagreements),
        }


def cross_validate(
    g: Groupoid,
    identity: IdentityId,
    *,
    budget: int | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> ConsistencyReport:
    """Run every applicable route and compare answers; disagreement is data."""
    _require_trials(trials)
    budget = default_budget() if budget is None else budget
    nvars = len(TEMPLATES[identity][2])
    report = ConsistencyReport(identity=identity.value)

    if _exhaustive_fits(g, nvars, budget):
        report.verdicts.append(_exhaustive(g, identity, budget))
    if _lifted_fits(g, nvars, budget):
        report.verdicts.append(_lifted(g, identity, budget))
    report.verdicts.append(_sampled(g, identity, trials, seed))

    hard = {v.status for v in report.verdicts if v.status in ("holds", "fails")}
    if len(hard) > 1:
        report.agreement = False
        report.disagreements.append(
            "methods disagree: " + ", ".join(f"{v.method}={v.status}" for v in report.verdicts)
        )
    sampled = [v for v in report.verdicts if v.method == "sampled"]
    if sampled and sampled[0].status == "sampled_no_counterexample" and "fails" in hard:
        report.disagreements.append(
            "sampling found no counterexample but an exact method failed; "
            "sampling alone would have been misleading"
        )

    decided = "fails" not in hard if hard else None
    for name, predicted in applicable_closed_forms(g, identity).items():
        agrees = None if decided is None else predicted == decided
        report.closed_forms[name] = {"predicted": predicted, "agrees": agrees}
        if agrees is False:
            report.agreement = False
            report.disagreements.append(
                f"closed form {name} predicts {predicted} but checks observed {decided}"
            )
    return report
