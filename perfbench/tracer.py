"""Spans around groupoidlab's public functions, recorded from outside the library.

The tracer replaces each traced function object in every ``groupoidlab.*``
namespace that holds it (modules re-bind names through ``from .x import y``),
plus ``Groupoid.index_table`` on the class, and restores every binding on exit.
Each call becomes a span ``[name, start, end, parent, op, error, facts]``.
``facts`` are exact work counts derived from the call's inputs and result,
never from timers; they are taken after the span's end time is read.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

NAME, START, END, PARENT, OP, ERROR, FACTS = range(7)

IDENTITY_FUNCS = ("check_identity", "check_alternative", "cross_validate")
ORCHESTRATION_FUNCS = ("verify_theorem", "run_suite", "run_demo")


def _structure_entry_points(structure) -> list[str]:
    return sorted(
        name
        for name, obj in vars(structure).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == structure.__name__
    )


def _rank(g, witness_labels) -> int:
    """1-based position of a witness in the x-fastest assignment order."""
    labels = g.labels()
    n = len(labels)
    return sum(labels.index(lab) * n**k for k, lab in enumerate(witness_labels)) + 1


class Tracer:
    """Context manager: patch on enter, restore on exit, spans kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._compiled: weakref.WeakSet = weakref.WeakSet()
        self._built: set = set()
        self._nvars: dict[str, int] = {}  # identity -> template variables, set on entry
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from groupoidlab import demos, groupoid, identities, structure, theorems

        self._nvars = {i.value: len(identities.TEMPLATES[i][2]) for i in identities.IdentityId}
        targets = [(groupoid, "build"), (theorems, "verify_theorem"), (theorems, "run_suite"), (demos, "run_demo")]
        targets += [(identities, name) for name in IDENTITY_FUNCS]
        targets += [(structure, name) for name in _structure_entry_points(structure)]
        wrappers = {}
        for mod, name in targets:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "groupoidlab" or mod_name.startswith("groupoidlab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(mod, attr, hit[1])
            cls = groupoid.Groupoid
            self._patch(cls, "index_table", self.wrap("index_table", cls.index_table))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def wrap(self, name: str, fn):
        """A traced version of ``fn``; also used for the benchmark's own op spans."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        facts_of = getattr(self, f"_facts_{name}", None)
        before_of = getattr(self, f"_before_{name}", None)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            pre = before_of(args) if before_of else None
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[END] = clock()
                rec[ERROR] = type(e).__name__
                stack.pop()
                raise
            rec[END] = clock()
            stack.pop()
            if facts_of:
                rec[FACTS] = facts_of(args, kwargs, out, pre)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- exact work counts ----------------------------------------------------

    def _facts_build(self, args, kwargs, g, pre):
        key = (g.spec, kwargs.get("space_cap"))
        dup = key in self._built
        self._built.add(key)
        return {"dup": dup}

    def _before_index_table(self, args):
        g = args[0]
        return g.spec is not None and g not in self._compiled

    def _facts_index_table(self, args, kwargs, table, compiles):
        if not compiles:
            return {"compiled": False}
        self._compiled.add(args[0])
        return {"compiled": True, "cells": len(table) ** 2}

    def _verdict_counts(self, g, verdicts) -> dict:
        out: dict = defaultdict(int)
        for v in verdicts:
            out[v.method] += 1
            if v.method == "exhaustive":
                if v.holds:
                    out["assignments"] += g.order ** self._nvars[v.identity]
                else:
                    out["assignments"] += _rank(g, v.witness_labels)
            elif v.method == "sampled" and v.status == "sampled_no_counterexample":
                out["trials"] += v.trials
        return dict(out)

    def _facts_check_identity(self, args, kwargs, verdict, pre):
        return self._verdict_counts(args[0], [verdict])

    def _facts_cross_validate(self, args, kwargs, report, pre):
        return self._verdict_counts(args[0], report.verdicts)

    def _facts_enumerate_subgroupoids(self, args, kwargs, result, pre):
        n = args[0].order
        if result.strategy == "power-set":
            return {"sweeps": 1, "masks": 1 << n}
        return {"generators": n + n * (n - 1) // 2}

    def _facts_enumerate_ideals(self, args, kwargs, result, pre):
        return {"sweeps": 1, "masks": 2 << args[0].order}

    def _facts_find_normal_subgroupoids(self, args, kwargs, result, pre):
        return {"sweeps": 1, "masks": 1 << args[0].order}

    def _facts_smarandache(self, args, kwargs, verdict, pre):
        # a failed identity with a semigroup witness re-runs the witness sweep
        v = verdict.identity_verdict
        sweeps = 2 if v is not None and verdict.s_witness is not None and not v.holds else 1
        return {"sweeps": sweeps, "masks": sweeps << args[0].order}

    def _facts_verify_theorem(self, args, kwargs, outcome, pre):
        return {"instances": outcome.instances}


# -- reduction to per-layer metrics ---------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], scale: float = 1.0) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced pass, times multiplied by ``scale``.

    A span named ``cli`` is the benchmark's own span around a ``ggl`` call;
    its self time is the CLI's argument parsing and JSON rendering.
    """
    own = [t * scale for t in self_times(spans)]
    m: dict[str, float] = defaultdict(float)
    dups = index_calls = 0
    compile_time = 0.0
    for s, t in zip(spans, own):
        name, facts = s[NAME], s[FACTS] or {}
        if name == "build":
            m["groupoid.builds"] += 1
            dups += facts.get("dup", False)
            m["groupoid.compile_s"] += t
        elif name == "index_table":
            index_calls += s[ERROR] is None
            if facts.get("compiled"):
                m["groupoid.tables_compiled"] += 1
                m["groupoid.cells_compiled"] += facts["cells"]
                m["groupoid.compile_s"] += t
                compile_time += t
        elif name in IDENTITY_FUNCS:
            m["identities.engine_self_s"] += t
            if s[ERROR] == "BudgetExceeded" and name != "check_alternative":
                m["identities.refusals"] += 1
            for method in ("exhaustive", "lifted", "sampled"):
                m[f"identities.checks.{method}"] += facts.get(method, 0)
            m["identities.exhaustive_assignments"] += facts.get("assignments", 0)
            m["identities.sampled_trials"] += facts.get("trials", 0)
        elif name in ORCHESTRATION_FUNCS:
            m["theorems.self_s"] += t
            m["theorems.instances"] += facts.get("instances", 0)
        elif name == "cli":
            m["cli.self_s"] += t
        else:
            m["structure.self_s"] += t
            if "generators" in facts:
                m["structure.closure_self_s"] += t
                m["structure.closure_generators"] += facts["generators"]
            elif "sweeps" in facts:
                m["structure.powerset_self_s"] += t
                m["structure.powerset_sweeps"] += facts["sweeps"]
                m["structure.masks_swept"] += facts["masks"]
            elif name == "is_normal_groupoid":
                m["structure.normality_self_s"] += t
    m["groupoid.duplicate_builds"] = dups / m["groupoid.builds"] if m["groupoid.builds"] else 0.0
    hits = index_calls - m["groupoid.tables_compiled"]
    m["groupoid.table_reuse_ratio"] = hits / index_calls if index_calls else 0.0
    m["groupoid.cells_per_s"] = m["groupoid.cells_compiled"] / compile_time if compile_time else 0.0
    return dict(m)
