"""Checks of the benchmark itself (slow: two traced passes per workload).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import COUNTS, END_TO_END, HERE, PER_LAYER, ROOT, import_library  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_key, large_check_keys, spec_key, survey_keys  # noqa: E402

gl = import_library()


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


def test_goldens_cover_every_instance_a_seed_can_draw():
    with open(os.path.join(HERE, "goldens.json")) as f:
        goldens = json.load(f)
    assert set(goldens["survey"]) == {spec_key(*s) for s in survey_keys()}
    recorded = set(goldens["large-check"])
    keys = {check_key(*k) for k in large_check_keys()}
    # the op that must be refused has nothing to record
    assert recorded <= keys
    assert all(k.startswith("zn:9 mat:1x3") and k.endswith("associative exhaustive") for k in keys - recorded)
    assert set(goldens["suite"]["checks"]) == set(gl.CHECKS)


def test_tracer_patches_every_rebinding_and_restores_it():
    from groupoidlab import cli, demos, groupoid, identities, structure, theorems

    bindings = [
        (gl, "build"), (groupoid, "build"), (theorems, "build"), (demos, "build"), (cli, "build"),
        (identities, "check_identity"), (theorems, "check_identity"), (structure, "check_identity"),
        (cli, "check_identity"), (demos, "check_identity"), (cli, "analyze"), (cli, "run_suite"),
        (theorems, "enumerate_ideals"), (demos, "smarandache"), (gl, "analyze"),
    ]
    before = [getattr(m, name) for m, name in bindings]
    index_table = groupoid.Groupoid.index_table
    with Tracer():
        for (m, name), old in zip(bindings, before):
            assert getattr(m, name) is not old and getattr(m, name).__wrapped__ is old, (m.__name__, name)
        assert groupoid.Groupoid.index_table is not index_table
    assert [getattr(m, name) for m, name in bindings] == before
    assert groupoid.Groupoid.index_table is index_table


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat_across_two_passes_of_one_seed(workload):
    wl = WORKLOADS[workload](gl, 7)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            res = wl.run_pass(tracer)
        assert wl.verify(res, {}) == {}
        metrics = layer_metrics(tracer.spans)
        counts.append({name: metrics.get(name, 0) for name in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["groupoid.tables_compiled"] > 0
    assert counts[0]["identities.refusals"] == (1 if workload == "large-check" else 0)
    if workload == "survey":
        # five power-set sweeps per analyze at orders 16, 18 and 20
        assert counts[0]["structure.powerset_sweeps"] == 5 * 10
        assert counts[0]["structure.closure_generators"] > 0
