"""groupoidlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {suite,survey,large-check} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src/``.
The workload runs in this process, single-threaded, in whole passes until
``--seconds`` would be exceeded (at least one pass). Set-up time is the median
of several fresh interpreters, each importing groupoidlab and its CLI and
parsing and building the workload's specs without compiling a table. Every
reported time is in reference seconds: scaled to a fixed CPU speed measured on
the same thread while it ran (see speed.py).

``--trace 0`` reports the end-to-end metrics, measured untraced. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics, with
the tracing overhead; the spans of the last traced pass are written to
``.perfbench/``. Every op's output is checked against ``goldens.json`` and the
library's own closed forms; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import Speedometer
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SPAWNS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p90_ms": "ms",
    "heavy_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

CHECK_IDS = ["T%d" % i for i in range(1, 18)] + ["GOLD"]
COUNTS = (
    "groupoid.builds", "groupoid.tables_compiled", "groupoid.cells_compiled",
    "identities.checks.exhaustive", "identities.checks.lifted", "identities.checks.sampled",
    "identities.exhaustive_assignments", "identities.sampled_trials", "identities.refusals",
    "structure.powerset_sweeps", "structure.masks_swept", "structure.closure_generators",
    "theorems.instances",
)
PER_LAYER = {
    "groupoid.compile_s": "s",
    "groupoid.builds": "count",
    "groupoid.tables_compiled": "count",
    "groupoid.cells_compiled": "count",
    "groupoid.cells_per_s": "1/s",
    "groupoid.table_reuse_ratio": "ratio",
    "groupoid.duplicate_builds": "ratio",
    "identities.engine_self_s": "s",
    "identities.checks.exhaustive": "count",
    "identities.checks.lifted": "count",
    "identities.checks.sampled": "count",
    "identities.exhaustive_assignments": "count",
    "identities.sampled_trials": "count",
    "identities.refusals": "count",
    "structure.self_s": "s",
    "structure.powerset_self_s": "s",
    "structure.powerset_sweeps": "count",
    "structure.masks_swept": "count",
    "structure.closure_self_s": "s",
    "structure.closure_generators": "count",
    "structure.normality_self_s": "s",
    **{f"theorems.check_s.{c}": "s" for c in CHECK_IDS},
    "theorems.instances": "count",
    "theorems.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def import_library():
    """groupoidlab from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "groupoidlab", "__init__.py")):
        sys.exit(f"perfbench: no groupoidlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import groupoidlab
    import groupoidlab.cli  # noqa: F401 - part of the measured import

    if os.path.dirname(os.path.dirname(os.path.abspath(groupoidlab.__file__))) != SRC:
        sys.exit(f"perfbench: imported groupoidlab from {groupoidlab.__file__}, not {SRC}")
    return groupoidlab


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time a fresh import plus spec parsing and building."""
    with Speedometer() as meter:
        start = time.perf_counter()
        gl = import_library()
        WORKLOADS[workload](gl, seed).build_all()
        end = time.perf_counter()
    print(repr(meter.scaled(start, end)))


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    def __init__(self, gl, workload: str, seed: int) -> None:
        self.wl = WORKLOADS[workload](gl, seed)
        with open(os.path.join(HERE, "goldens.json")) as f:
            self.goldens = json.load(f)
        self.attempted = 0
        self.errors: list[str] = []  # one per failed op
        self.peak_rss_mb = 0.0  # after the first pass, so it does not grow with the pass count
        self.meter = Speedometer()

    def one_pass(self, tracer=None):
        """One pass, traced if a tracer is given; its outputs are verified untraced."""
        if tracer is None:
            res = self.wl.run_pass()
        else:
            with tracer:
                res = self.wl.run_pass(tracer)
        self.attempted += self.wl.attempted()
        try:
            wrong = self.wl.verify(res, self.goldens)
            self.errors += [f"{label}: {msg}" for label, msg in wrong.items()]
        except Exception as e:  # a malformed output fails the whole pass
            self.errors += [f"verification raised {e!r}"] * self.wl.attempted()
        res.outputs = []  # verified; keeping them would grow the heap pass by pass
        return res

    def passes(self, seconds: float, kinds: list[bool]):
        """Run passes cycling through ``kinds`` (traced or not) while the next
        pass is expected to end within ``seconds``; every kind runs once."""
        start = time.perf_counter()
        done: list[tuple[bool, object, object]] = []
        longest = 0.0
        with self.meter:
            while len(done) < len(kinds) or time.perf_counter() - start + longest <= seconds:
                traced = kinds[len(done) % len(kinds)]
                tracer = Tracer() if traced else None
                began = time.perf_counter()
                res = self.one_pass(tracer)
                done.append((traced, res, tracer))
                if len(done) == 1:
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                longest = max(longest, time.perf_counter() - began)
        walls = [f"{r.span[1] - r.span[0]:.3f}->{self.wall_s(r):.3f}" for _, r, _ in done]
        print(f"perfbench: {len(done)} passes, wall s unscaled->scaled {walls}", file=sys.stderr)
        return done

    def wall_s(self, res) -> float:
        return self.meter.scaled(*res.span)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    done = runner.passes(seconds, [False])
    results = [r for _, r, _ in done]
    # each op's median over the passes; the percentile is taken across ops
    ops = [
        statistics.median(runner.meter.scaled(*span) for span in spans) * 1e3
        for spans in zip(*(r.ops for r in results))
    ]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(runner.wall_s(r) for r in results),
        "op_p90_ms": statistics.quantiles(ops, n=10)[8] if len(ops) > 1 else ops[0],
        "heavy_op_s": statistics.median(runner.meter.scaled(*r.heavy) for r in results),
        "peak_rss_mb": runner.peak_rss_mb,
        "ok_rate": 1 - len(runner.errors) / runner.attempted,
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    done = runner.passes(seconds, [False, True])
    plain = [r for traced, r, _ in done if not traced]
    traced = [(r, t) for is_traced, r, t in done if is_traced]
    # span self times take the scale of the pass they ran in
    layers = [layer_metrics(t.spans, runner.wall_s(r) / (r.span[1] - r.span[0])) for r, t in traced]
    for other in layers[1:]:
        for name in COUNTS:
            if other.get(name, 0) != layers[0].get(name, 0):
                runner.errors.append(f"{name} differs between traced passes")
    metrics = {name: statistics.median(m.get(name, 0) for m in layers) for name in PER_LAYER}
    for check in CHECK_IDS:
        metrics[f"theorems.check_s.{check}"] = statistics.median(
            runner.meter.scaled(*r.checks[check]) if check in r.checks else 0.0 for r in plain
        )
    metrics["trace.overhead_s"] = statistics.median(runner.wall_s(r) for r, _ in traced) - statistics.median(
        runner.wall_s(r) for r in plain
    )
    write_spans(traced[-1][1].spans, workload, seed)
    return metrics


def write_spans(spans: list, workload: str, seed: int) -> None:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps(["name", "start", "end", "parent", "op", "error", "facts"]) + "\n")
        for s in spans:
            f.write(json.dumps(s) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return

    gl = import_library()
    runner = Runner(gl, args.workload, args.seed)
    if args.trace:
        values, units = per_layer(runner, args.workload, args.seed, args.seconds), PER_LAYER
    else:
        values, units = end_to_end(runner, args.workload, args.seed, args.seconds), END_TO_END
    for msg in runner.errors[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {
            name: {"value": int(values[name]) if unit == "count" else values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))


if __name__ == "__main__":
    main()
