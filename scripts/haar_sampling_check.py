"""Sanity-check the invariant-measure sampler for qubit gates.

Draws parameter triples, compares the theta1 marginal against its known
CDF sin^2(theta1) by the Kolmogorov-Smirnov statistic, next to its
asymptotic 1% critical value 1.628/sqrt(n), checks the mean squared trace
against an independent Gauss-Legendre quadrature of the same integral, and
(optionally) writes the marginal histogram to CSV for plotting.  It needs
numpy only.

Usage:
    python scripts/haar_sampling_check.py --n 100000 --seed 7 --out marginal.csv
"""

import argparse
import math

import numpy as np

from gatediscrim import haar_sample_su2

KS_CRITICAL_1PCT = 1.628  # sqrt(n) D_n exceeds it with probability 0.01 as n grows


def ks_statistic(sample: np.ndarray) -> float:
    # sup |F_n - F| for F = sin^2, read at the jumps of the empirical CDF
    x = np.sort(sample)
    n = x.size
    cdf = np.sin(x) ** 2
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()))


def trace_quadrature() -> float:
    # E[|tr U|^2] with |tr U|^2 = 4 cos^2(t1) cos^2(t2) and density
    # sin(2 t1) / (2 pi)^2 on [0, pi/2] x [0, 2pi)^2; the third angle
    # integrates out.  A 32 x 32 Gauss-Legendre product rule.
    x, w = np.polynomial.legendre.leggauss(32)
    t1, t2 = (x + 1.0) * math.pi / 4, (x + 1.0) * math.pi
    f = (4.0 * np.cos(t1[:, None]) ** 2 * np.cos(t2[None, :]) ** 2
         * np.sin(2.0 * t1[:, None]) / (2.0 * math.pi))
    return float(w @ f @ w * (math.pi / 4) * math.pi)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=48)
    ap.add_argument("--out", type=str, default=None, help="CSV path for the theta1 histogram")
    args = ap.parse_args()

    params = haar_sample_su2(seed=args.seed, n=args.n)
    t1, t2 = params.theta1, params.theta2

    ks, critical = ks_statistic(t1), KS_CRITICAL_1PCT / math.sqrt(args.n)
    print(f"samples            : {args.n}")
    print(f"theta1 KS statistic: {ks:.5f}  (1% critical value {critical:.5f})")

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
