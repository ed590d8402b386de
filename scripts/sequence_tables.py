#!/usr/bin/env python3
"""Print the exact rational tables for every built-in sequence.

Usage: python3 scripts/sequence_tables.py [--n N]
"""

import argparse
import math

from floorconvex import sequences as sq


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8, help="largest index to print")
    args = ap.parse_args()

    for name in sorted(sq.SEQUENCE_NAMES):
        print(f"== {name} ==")
        for k, v in enumerate(sq.sequence(name, args.n).values):
            print(f"  n={k:>3}  {str(v):>24}  = {float(v):.12g}")
        print()

    trend = float(sq.s_closed(10_000)) * math.sqrt(10_001)
    print(f"s_n sqrt(n+1) at n=10^4: {trend:.6f}"
          f"   (sqrt(pi)/2 = {math.sqrt(math.pi) / 2:.6f})")


if __name__ == "__main__":
    main()
