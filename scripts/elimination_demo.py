"""Walk through the pairwise-elimination identification protocol.

Builds a hypothesis set of qubit gates (random, or the orthogonal triple
{1, i*sigma_x, i*sigma_z} with --triple), runs one narrated simulation,
then aggregates identification statistics over many seeded trials.  Every
true gate is drawn from the set, so the protocol must identify it each
time: the script exits 1 if any run (the narrated one included) does not.

Usage:
    python scripts/elimination_demo.py --k 4 --trials 200 --seed 11
    python scripts/elimination_demo.py --triple --trials 500
"""

import argparse
import sys
from collections import Counter

import numpy as np

from gatediscrim import (
    Gate,
    HypothesisSet,
    haar_sample_su2,
    plan_elimination,
    simulate_elimination,
    su2_from_params,
)


def build_set(args, rng: np.random.Generator) -> HypothesisSet:
    if args.triple:
        return HypothesisSet((
            Gate(np.eye(2)),
            Gate(1j * np.array([[0.0, 1.0], [1.0, 0.0]])),
            Gate(1j * np.diag([1.0, -1.0])),
        ))
    sample = haar_sample_su2(int(rng.integers(2**63)), args.k)
    return HypothesisSet(tuple(su2_from_params(p) for p in sample))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=4, help="number of random hypotheses")
    ap.add_argument("--triple", action="store_true", help="use the orthogonal gate triple")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    h = build_set(args, rng)
    plan = plan_elimination(h)

    print(f"hypotheses: {len(h)}  planned tests: {len(plan.tests)}")
    for t in plan.tests:
        print(f"  test pair {t.pair}: {t.copies} parallel uses")

    true_idx = int(rng.integers(len(h)))
    res = simulate_elimination(plan, h, true_index=true_idx, seed=args.seed)
    print(f"\nnarrated run (true gate = {true_idx}):")
    for rec in res.trace:
        print(f"  tested {rec.pair} with {rec.copies} uses -> discarded {rec.discarded}")
    print(f"  identified {res.identified_index} after {res.total_runs} total uses")

    wrong = 0
    runs = Counter()
    for trial in range(args.trials):
        idx = int(rng.integers(len(h)))
        out = simulate_elimination(plan, h, true_index=idx, seed=1_000_000 + trial)
        wrong += out.identified_index != idx
        runs[out.total_runs] += 1
    print(f"\n{args.trials} trials: {wrong} misidentifications")
    print("total-use distribution:", dict(sorted(runs.items())))
    wrong += res.identified_index != true_idx
    if wrong:
        print(f"error: {wrong} runs misidentified an in-set true gate", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
