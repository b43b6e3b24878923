"""Sanity-check the invariant-measure sampler for qubit gates.

Draws parameter triples, compares the theta1 marginal against its known
CDF sin^2(theta1), checks the mean squared trace against an independent
quadrature of the same integral, and (optionally) writes the marginal
histogram to CSV for plotting.

Usage:
    python scripts/haar_sampling_check.py --n 100000 --seed 7 --out marginal.csv
"""

import argparse
import math

import numpy as np
from scipy import integrate, stats

from gatediscrim import haar_sample_su2


def trace_quadrature() -> float:
    # E[|tr U|^2] with |tr U|^2 = 4 cos^2(t1) cos^2(t2) and density
    # sin(2 t1) / (2 pi)^2 on [0, pi/2] x [0, 2pi)^2; the third angle
    # integrates out.
    val, _ = integrate.dblquad(
        lambda t1, t2: 4.0 * np.cos(t1) ** 2 * np.cos(t2) ** 2
        * np.sin(2.0 * t1) / (2.0 * math.pi),
        0.0, 2.0 * math.pi, 0.0, math.pi / 2,
    )
    return val


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=48)
    ap.add_argument("--out", type=str, default=None, help="CSV path for the theta1 histogram")
    args = ap.parse_args()

    params = haar_sample_su2(seed=args.seed, n=args.n)
    t1, t2 = params.theta1, params.theta2

    ks = stats.kstest(t1, lambda x: np.sin(x) ** 2)
    print(f"samples            : {args.n}")
    print(f"theta1 KS statistic: {ks.statistic:.5f}  (p = {ks.pvalue:.3f})")

    mc = float(np.mean(4.0 * np.cos(t1) ** 2 * np.cos(t2) ** 2))
    ref = trace_quadrature()
    print(f"mean |tr U|^2      : {mc:.5f}  (quadrature {ref:.6f}, diff {abs(mc - ref):.2e})")

    if args.out:
        density, edges = np.histogram(t1, bins=args.bins, range=(0.0, math.pi / 2), density=True)
        centers = (edges[:-1] + edges[1:]) / 2.0
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("theta1,empirical,expected\n")
            for c, d in zip(centers, density):
                fh.write(f"{c:.6f},{d:.6f},{math.sin(2.0 * c):.6f}\n")
        print(f"wrote {args.bins}-bin marginal to {args.out}")


if __name__ == "__main__":
    main()
