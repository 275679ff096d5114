"""Smoke runs of the scripts in ``scripts/``, each in its own interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_idempotent_parity_sweep_verifies_every_modulus():
    r = run_script("idempotent_parity_sweep.py", "--min-n", "2", "--max-n", "8", "--carrier", "zni")
    assert "all moduli verified" in r.stdout
