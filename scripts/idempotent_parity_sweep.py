#!/usr/bin/env python3
"""Survey idempotent parameter pairs over a range of moduli.

For each modulus n the script counts the ordered pairs (t, u) with
t + u = 1 (mod n) — exactly the pairs whose groupoid satisfies x*x = x
everywhere — and confirms two facts by brute force:

* the count's parity equals n mod 2 (the diagonal pair t = u exists iff
  2t = 1 (mod n) is solvable, i.e. iff n is odd);
* every counted pair really is idempotent, and every omitted pair is not,
  re-checked exhaustively on the order-n groupoid, every pair of one
  modulus in one ``linear_failures`` call.

Usage: python3 scripts/idempotent_parity_sweep.py [--max-n 40] [--carrier zn]
"""

import argparse
import sys

from groupoidlab import (
    IdentityId,
    Modular,
    PureNeutrosophic,
    Scalar,
    count_class,
    linear_failures,
)

CARRIERS = {"zn": Modular, "zni": PureNeutrosophic}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=40)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--carrier", choices=sorted(CARRIERS), default="zn")
    args = ap.parse_args()

    carrier_cls = CARRIERS[args.carrier]
    print(f"{'n':>4} {'count':>6} {'parity':>7} {'n mod 2':>8}  verified")
    bad = 0
    for n in range(args.min_n, args.max_n + 1):
        carrier = carrier_cls(n)
        count = count_class(carrier, "idempotent_pairs", equal_pairs_included=True)

        pairs = [(t, u) for t in range(n) for u in range(n) if (t, u) != (0, 0)]
        ts, us = [t for t, _ in pairs], [u for _, u in pairs]
        verified = 0
        for (t, u), found in zip(pairs, linear_failures(carrier, Scalar(), ts, us, IdentityId.IDEMPOTENT)):
            holds, predicted = found is None, (t + u) % n == 1
            if holds != predicted:
                print(f"  DISAGREEMENT at n={n} pair=({t},{u})", file=sys.stderr)
                bad += 1
            # the counting class ranges over nonzero coefficients only
            if holds and t > 0 and u > 0:
                verified += 1

        parity_ok = count % 2 == n % 2
        count_ok = verified == count
        if not (parity_ok and count_ok):
            bad += 1
        flag = "ok" if parity_ok and count_ok else "MISMATCH"
        print(f"{n:>4} {count:>6} {count % 2:>7} {n % 2:>8}  {flag}")

    if bad:
        print(f"{bad} mismatches", file=sys.stderr)
        return 1
    print("all moduli verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
