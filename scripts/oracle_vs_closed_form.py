"""Pit the closed-form gate fidelity against the variational oracle.

For seeded random qubit gate pairs, minimizes the branch overlap
numerically (Wolfe's certified min-norm point over the eigenphases of the
full tensor power) and compares with cos^2 of the covering-arc half-width
at one to six parallel uses.  Prints worst-case error and timing per copy
count.

Usage:
    python scripts/oracle_vs_closed_form.py --pairs 25 --seed 3
"""

import argparse
import math
import time

from gatediscrim import gate_distance, haar_sample_su2, oracle_min_overlap, su2_from_params


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    gates = [su2_from_params(p) for p in haar_sample_su2(args.seed, 2 * args.pairs)]
    pairs = list(zip(gates[::2], gates[1::2]))

    print(f"{'n':>3} {'worst |closed - oracle|':>24} {'seconds':>9}")
    for n in (1, 2, 3, 4, 5, 6):
        worst = 0.0
        start = time.perf_counter()
        for u1, u2 in pairs:
            delta = gate_distance(u1, u2)
            closed = 0.0 if n * delta >= math.pi / 2 else math.cos(n * delta) ** 2
            numeric = oracle_min_overlap(u1, u2, n=n)
            worst = max(worst, abs(closed - numeric))
        elapsed = time.perf_counter() - start
        print(f"{n:>3} {worst:>24.3e} {elapsed:>9.2f}")


if __name__ == "__main__":
    main()
