"""Smoke runs of the scripts in ``scripts/``, each in its own interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from groupoidlab import CheckMode, IdentityId, Modular, PureNeutrosophic, Scalar, build, check_identity

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )


def test_identity_atlas_emits_json():
    r = run_script("identity_atlas.py", "--n", "3", "4", "--carrier", "zni", "--json")
    data = json.loads(r.stdout)
    assert data["carrier"] == "zni" and [a["n"] for a in data["atlases"]] == [3, 4]


@pytest.mark.parametrize("token,carrier_cls", [("zn", Modular), ("zni", PureNeutrosophic)])
def test_identity_atlas_json_matches_per_pair_checks_byte_for_byte(token, carrier_cls):
    """The atlas takes one sweep per identity per modulus; its document is
    the one a per-pair ``check_identity`` loop prints."""
    short = ("idem", "comm", "assoc", "lalt", "ralt", "p", "mouf", "bol")
    atlases = []
    for n in (3, 4, 5):
        rows = []
        for t in range(n):
            for u in range(n):
                if (t, u) != (0, 0):
                    g = build(carrier_cls(n), Scalar(), t, u)
                    holds = [check_identity(g, i, CheckMode.EXHAUSTIVE).holds for i in IdentityId]
                    rows.append({"pair": [t, u], **dict(zip(short, holds))})
        atlases.append({"n": n, "rows": rows})
    want = json.dumps({"carrier": token, "atlases": atlases}, indent=2) + "\n"
    r = run_script("identity_atlas.py", "--n", "3", "4", "5", "--carrier", token, "--json")
    assert r.stdout == want


def test_idempotent_parity_sweep_verifies_every_modulus():
    r = run_script("idempotent_parity_sweep.py", "--min-n", "2", "--max-n", "8", "--carrier", "zni")
    assert "all moduli verified" in r.stdout
