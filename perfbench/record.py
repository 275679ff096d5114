"""Record perfbench/goldens.json: the outputs every benchmark op is checked against.

    python3 perfbench/record.py [suite|survey|large-check ...]

Covers every instance any seed can draw (the pools are fixed; seeds only pick
from them), so each op of each seed has a recorded answer. Re-record only
when a change is meant to alter the program's output, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import HERE, import_library
from workloads import (
    SUITE_ARGV,
    Suite,
    analyze_json,
    check_key,
    digest,
    large_check_keys,
    parse_spec,
    spec_key,
    survey_keys,
    verdict_record,
)


def record_suite(gl) -> dict:
    wl = Suite(gl, 0)
    res = wl.run_pass()
    code, stdout = res.outputs[0]
    if code != 0:
        sys.exit(f"verify exited {code}")
    doc = json.loads(stdout)
    return {
        "argv": SUITE_ARGV + ["--seed", "<SEED>"],
        "stdout": digest(stdout.replace('"seed": 0\n', '"seed": <SEED>\n', 1)),
        "checks": {e["check"]: digest(json.dumps(e, sort_keys=True)) for e in doc["checks"]},
    }


def record_survey(gl) -> dict:
    out = {}
    for spec in survey_keys():
        c, s, t, u, kw = parse_spec(gl, *spec)
        g = gl.build(c, s, t, u, **kw)
        start = time.perf_counter()
        out[spec_key(*spec)] = digest(analyze_json(gl.analyze(g)))
        print(f"{spec_key(*spec)}: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return out


def record_large_check(gl) -> dict:
    out = {}
    built = {}
    for spec, ident, mode in large_check_keys():
        if spec not in built:
            c, s, t, u, kw = parse_spec(gl, *spec)
            built[spec] = gl.build(c, s, t, u, **kw)
        g = built[spec]
        key = check_key(spec, ident, mode)
        start = time.perf_counter()
        if mode == "cross":
            report = gl.cross_validate(g, gl.IdentityId(ident))
            out[key] = digest(json.dumps(report.to_json(), sort_keys=True))
        else:
            try:
                verdict = gl.check_identity(g, gl.IdentityId(ident), gl.CheckMode(mode))
                out[key] = digest(json.dumps(verdict_record(verdict)))
            except gl.BudgetExceeded:
                continue  # the expected refusal has no recorded output
        print(f"{key}: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return out


RECORDERS = {"suite": record_suite, "survey": record_survey, "large-check": record_large_check}


def main() -> None:
    gl = import_library()
    path = os.path.join(HERE, "goldens.json")
    with open(path) as f:
        goldens = json.load(f)
    for name in sys.argv[1:] or list(RECORDERS):
        goldens[name] = RECORDERS[name](gl)
        with open(path, "w") as f:
            json.dump(goldens, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
