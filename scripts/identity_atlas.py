#!/usr/bin/env python3
"""Chart which identities hold for every parameter pair over small moduli.

Produces one table per modulus: rows are ordered pairs (t, u), columns are
the eight identities, cells show a dot (fails) or a filled marker (holds).
The verdicts are exact linear verdicts (``linear_failures``, one call per
identity and modulus, with no groupoid and no table), held to the per-pair
exhaustive check by the test
``test_identity_atlas_json_matches_per_pair_checks_byte_for_byte``. A
summary line counts, for each identity, how many pairs satisfy it — a quick
way to spot which laws are abundant and which are rare as n varies.

Usage: python3 scripts/identity_atlas.py [--n 4 5 6] [--carrier zn] [--json]
"""

import argparse
import json

from groupoidlab import (
    IdentityId,
    Modular,
    PureNeutrosophic,
    Scalar,
    linear_failures,
)

CARRIERS = {"zn": Modular, "zni": PureNeutrosophic}
COLUMNS = list(IdentityId)
SHORT = {
    IdentityId.IDEMPOTENT: "idem",
    IdentityId.COMMUTATIVE: "comm",
    IdentityId.ASSOCIATIVE: "assoc",
    IdentityId.LEFT_ALTERNATIVE: "lalt",
    IdentityId.RIGHT_ALTERNATIVE: "ralt",
    IdentityId.P_IDENTITY: "p",
    IdentityId.MOUFANG: "mouf",
    IdentityId.BOL: "bol",
}


def atlas_for(carrier_cls, n: int) -> dict:
    pairs = [(t, u) for t in range(n) for u in range(n) if (t, u) != (0, 0)]
    ts, us = [t for t, _ in pairs], [u for _, u in pairs]
    columns = {SHORT[i]: linear_failures(carrier_cls(n), Scalar(), ts, us, i) for i in COLUMNS}
    rows = [
        {"pair": [t, u], **{name: found[p] is None for name, found in columns.items()}}
        for p, (t, u) in enumerate(pairs)
    ]
    return {"n": n, "rows": rows}


def render(entry: dict) -> None:
    n = entry["n"]
    names = [SHORT[i] for i in COLUMNS]
    print(f"\nmodulus {n}")
    print(f"{'pair':>8} " + " ".join(f"{c:>5}" for c in names))
    totals = {c: 0 for c in names}
    for row in entry["rows"]:
        marks = []
        for c in names:
            totals[c] += row[c]
            marks.append(f"{'#' if row[c] else '.':>5}")
        t, u = row["pair"]
        print(f"({t:>2},{u:>2}) " + " ".join(marks))
    print(f"{'holds':>8} " + " ".join(f"{totals[c]:>5}" for c in names))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[4, 5, 6])
    ap.add_argument("--carrier", choices=sorted(CARRIERS), default="zn")
    ap.add_argument("--json", action="store_true", help="emit one JSON document instead of tables")
    args = ap.parse_args()

    carrier_cls = CARRIERS[args.carrier]
    entries = [atlas_for(carrier_cls, n) for n in args.n]
    if args.json:
        print(json.dumps({"carrier": args.carrier, "atlases": entries}, indent=2))
    else:
        for entry in entries:
            render(entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
