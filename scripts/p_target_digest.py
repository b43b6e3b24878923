"""Print a sha256 digest of every round's p_target over a seeded elimination corpus.

The gates are built from Haar-distributed angles (`haar_sample_su2` and
`su2_from_params`), so no LAPACK call forms them.  Each set of k = 3..16
gates runs against every in-set truth and two out-of-set gates, at two
seeds, and the digest covers each round's pair, copies, outcome and the
bytes of its p_target.  Running it under different BLAS kernels
(OPENBLAS_CORETYPE) and comparing the printed digests shows whether the
round probabilities depend on the kernel.

Usage:
    python scripts/p_target_digest.py --sets 300 --seed 0
"""

import argparse
import hashlib
import struct

import numpy as np

from gatediscrim import (
    HypothesisSet,
    haar_sample_su2,
    plan_elimination,
    simulate_elimination,
    su2_from_params,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=300, help="number of hypothesis sets")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    digest, rounds = hashlib.sha256(), 0
    for s in range(args.sets):
        k = 3 + s % 14
        sample = haar_sample_su2(int(rng.integers(2**63)), k + 2)
        gates = [su2_from_params(p) for p in sample]
        h = HypothesisSet(tuple(gates[:k]))
        plan = plan_elimination(h)
        runs = [{"true_index": t} for t in range(k)] + [{"true_gate": g} for g in gates[k:]]
        for kwargs in runs:
            for seed in range(2):
                for r in simulate_elimination(plan, h, seed=seed, **kwargs).trace:
                    digest.update(struct.pack("<3q?d", *r.pair, r.copies, r.outcome_target,
                                              r.p_target))
                    rounds += 1
    print(f"{digest.hexdigest()}  {rounds} rounds over {args.sets} sets")


if __name__ == "__main__":
    main()
