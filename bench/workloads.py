"""Seeded inputs and the four benchmark workloads.

Operations are drawn in blocks.  Each block holds the workload's discrete
mix in fixed proportion (hypothesis counts, set sizes, in-set and
out-of-set true gates, gate dimensions), in a seeded order.  The
continuous parameter that drives an op's cost (the half-arc delta of a
qubit pair) is drawn by inverse CDF from a golden-ratio sequence with a
seeded offset: each draw has exactly the stated distribution, and every
prefix of the stream covers it evenly, so the mix of one run does not
drift from seed to seed.  Everything else (Haar gates, eigenbases,
simulation seeds) is drawn independently from the seed.

Operation inputs are plain numpy arrays and integers.  `run` turns them
into library objects and calls the library; `check` looks only at the
returned values, so checking is not part of the timed work.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Acceptance-criterion tolerances (tests/test_acceptance.py) used per op.
ORACLE_TOL = 1e-6  # criterion 1: oracle vs closed-form fidelity
PROBE_TOL = 1e-10  # criterion 2: optimal single-use probes attain the fidelity
NCOPY_OVERLAP_TOL = 1e-16  # criterion 3: overlap at N = min_copies
MC_SIGMAS = 5.0  # criterion 5: Monte-Carlo estimate within this many std errors

STREAM_OPS, STREAM_WARMUP, STREAM_SETUP, STREAM_CLI = 0, 1, 2, 3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Input generator


def block_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator for block `index` of input stream `stream`."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def even_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start+count-1 of a golden-ratio sequence on [0, 1)
    with a seeded offset: each is uniform, and any run of them is spread
    evenly over [0, 1)."""
    offset = np.random.default_rng(np.random.SeedSequence([seed, stream])).random()
    return np.mod(offset + _GOLDEN * np.arange(start, start + count), 1.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(d): QR of a complex Ginibre matrix, phases of R moved into Q."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_special_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar SU(d): a Haar U(d) draw with its determinant divided out."""
    q = haar_unitary(d, rng)
    return q * np.linalg.det(q) ** (-1.0 / d)


def pair_with_delta(delta: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Qubit pair U1, U2 = U1 W diag(e^{i delta}, e^{-i delta}) W^dag, U1 Haar SU(2), W Haar U(2)."""
    u1 = haar_special_unitary(2, rng)
    w = haar_unitary(2, rng)
    rel = (w * np.exp([1j * delta, -1j * delta])) @ w.conj().T
    return u1, u1 @ rel


def haar_su2_angle(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the eigenphase angle a of a Haar SU(2) gate.

    A Haar SU(2) gate is W diag(e^{ia}, e^{-ia}) W^dag with W Haar and a on
    [0, pi] of density (2/pi) sin^2(a), so pair_with_delta at this angle
    gives a pair of independent Haar gates.  Solved by bisection.
    """
    lo, hi = np.zeros_like(u), np.full_like(u, math.pi)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        below = (2.0 * mid - np.sin(2.0 * mid)) / (2.0 * math.pi) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# CLI input files


def matrix_doc(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]),
            "rows": [[[float(v.real), float(v.imag)] for v in row] for row in m]}


def write_matrix(path: Path, m: np.ndarray) -> str:
    path.write_text(json.dumps(matrix_doc(m)))
    return str(path)


def write_set(path: Path, mats) -> str:
    path.write_text(json.dumps({"gates": [matrix_doc(m) for m in mats]}))
    return str(path)


def discrimination_ok(result: dict, true_index: int, k: int) -> bool:
    """Check of a CLI `discriminate` result against its true index."""
    trace = result["trace"]
    return (
        result["identified"] == true_index
        and result["total_runs"] == sum(r["copies"] for r in trace)
        and len(trace) == k - 1
    )


def discriminate_call(workdir: Path, mats, rng: np.random.Generator):
    k = len(mats)
    path = write_set(workdir / "set.json", mats)
    true_index, sim_seed = int(rng.integers(k)), int(rng.integers(2**31))
    argv = ["discriminate", "--set", path, "--true", str(true_index), "--seed", str(sim_seed)]
    return argv, lambda result: discrimination_ok(result, true_index, k)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One benchmark workload: setup state, a seeded op stream, run and check."""

    name = ""
    block_size = 1
    # Nominal untraced ops/s on a 2-core x86 box; sizes the traced run only.
    nominal_ops_per_s = 1.0

    def __init__(self, gd, seed: int):
        self.gd = gd
        self.seed = seed

    def ops(self, stream: int = STREAM_OPS):
        """Endless op stream, one block (a list of ops) at a time."""
        b = 0
        while True:
            yield self.block(block_rng(self.seed, stream, b), stream, b)
            b += 1

    def block(self, rng: np.random.Generator, stream: int, b: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> bool:
        raise NotImplementedError

    def cli_call(self, workdir: Path):
        """CLI argv (after `python -m gatediscrim.cli`) matching this
        workload, and a check of the "result" field of its output."""
        raise NotImplementedError


class EliminationFresh(Workload):
    """Build, plan and simulate a fresh k-gate elimination per op.

    k = 8 has twice the odds of 3, 5 and 16, so that the median op lies
    inside the k = 8 group and p95 inside the k = 16 group; with equal odds
    the median falls in the gap between k = 5 and k = 8 and jumps from run
    to run.
    """

    name = "elimination_fresh"
    KS = (3, 5, 8, 8, 16)
    block_size = len(KS)
    nominal_ops_per_s = 15.0

    def block(self, rng, stream, b):
        out = []
        for k in rng.permutation(self.KS):
            mats = [haar_special_unitary(2, rng) for _ in range(k)]
            out.append((mats, int(rng.integers(k)), int(rng.integers(2**31))))
        return out

    def run(self, op):
        gd = self.gd
        mats, true_index, sim_seed = op
        h = gd.HypothesisSet(tuple(gd.Gate(m) for m in mats))
        plan = gd.plan_elimination(h)
        return gd.simulate_elimination(plan, h, true_index=true_index, seed=sim_seed)

    def check(self, op, res):
        mats, true_index, _ = op
        return (
            res.identified_index == true_index
            and res.total_runs == sum(r.copies for r in res.trace)
            and len(res.trace) == len(mats) - 1
        )

    def cli_call(self, workdir):
        rng = block_rng(self.seed, STREAM_CLI, 0)
        return discriminate_call(workdir, [haar_special_unitary(2, rng) for _ in range(8)], rng)


class EliminationReuse(Workload):
    """Simulate against hypothesis sets built and planned once, in setup.

    One op is one simulate_elimination against a k = 8 set and one against
    a k = 16 set; 1 op in 4 is driven by an out-of-set Haar gate.  The
    cost of a simulation depends on how often its rounds must be
    re-planned, which depends on the set, so there are sixteen sets of each
    size and the ops cycle through them.
    """

    name = "elimination_reuse"
    KS = (8, 16)
    SETS_PER_K = 16
    INSET = (True, True, True, False)
    block_size = len(INSET)
    nominal_ops_per_s = 25.0

    def __init__(self, gd, seed):
        super().__init__(gd, seed)
        rng = block_rng(seed, STREAM_SETUP, 0)
        self.sets = {}
        for k in self.KS:
            self.sets[k] = []
            for _ in range(self.SETS_PER_K):
                h = gd.HypothesisSet(tuple(gd.Gate(haar_special_unitary(2, rng)) for _ in range(k)))
                self.sets[k].append((h, gd.plan_elimination(h)))

    def block(self, rng, stream, b):
        out = []
        for j, inset in enumerate(rng.permutation(self.INSET)):
            s = (b * self.block_size + j) % self.SETS_PER_K
            outside = None if inset else haar_special_unitary(2, rng)
            sims = tuple((k, s, int(rng.integers(k)), int(rng.integers(2**31))) for k in self.KS)
            out.append((sims, outside))
        return out

    def run(self, op):
        gd = self.gd
        sims, outside = op
        true_gate = None if outside is None else gd.Gate(outside)
        results = []
        for k, s, true_index, sim_seed in sims:
            h, plan = self.sets[k][s]
            if true_gate is None:
                results.append(gd.simulate_elimination(plan, h, true_index=true_index, seed=sim_seed))
            else:
                results.append(gd.simulate_elimination(plan, h, true_gate=true_gate, seed=sim_seed))
        return results

    def check(self, op, results):
        sims, outside = op
        for (k, _, true_index, _), res in zip(sims, results):
            if len(res.trace) != k - 1 or res.true_in_set != (outside is None):
                return False
            if outside is None and res.identified_index != true_index:
                return False
        return True

    def cli_call(self, workdir):
        h = self.sets[8][0][0]
        return discriminate_call(workdir, [g.matrix for g in h.gates],
                                 block_rng(self.seed, STREAM_CLI, 0))


class PairAnalysis(Workload):
    """Distance, fidelities, min_copies and every probe of one qubit pair.

    delta is log-uniform on [1e-3, pi/2), so N = min_copies reaches 1571.
    """

    name = "pair_analysis"
    DELTA_MIN = 1e-3
    CLI_DELTA = 0.01  # N = 158 copies
    block_size = 16
    nominal_ops_per_s = 80.0

    def block(self, rng, stream, b):
        u = even_uniforms(self.seed, stream, b * self.block_size, self.block_size)
        deltas = self.DELTA_MIN * np.exp(math.log(math.pi / 2.0 / self.DELTA_MIN) * u)
        return [pair_with_delta(float(d), rng) for d in deltas]

    def run(self, op):
        gd = self.gd
        u1, u2 = gd.Gate(op[0]), gd.Gate(op[1])
        gd.gate_distance(u1, u2)
        fid = gd.gate_fidelity_su2(u1, u2)
        gd.gate_fidelity_sud(u1, u2)
        n = gd.min_copies(u1, u2)
        ent = gd.probe_overlap(u1, u2, gd.optimal_probe_single(u1, u2, entangled=True), 1)
        sep = gd.probe_overlap(u1, u2, gd.optimal_probe_single(u1, u2, entangled=False), 1)
        at_n = gd.probe_overlap(u1, u2, gd.optimal_probe_ncopies(u1, u2), n)
        return fid, ent, sep, at_n

    def check(self, op, res):
        fid, ent, sep, at_n = res
        return (at_n <= NCOPY_OVERLAP_TOL and abs(ent - fid) <= PROBE_TOL
                and abs(sep - fid) <= PROBE_TOL)

    def cli_call(self, workdir):
        u1, u2 = pair_with_delta(self.CLI_DELTA, block_rng(self.seed, STREAM_CLI, 0))
        argv = ["probe", "--u1", write_matrix(workdir / "u1.json", u1),
                "--u2", write_matrix(workdir / "u2.json", u2), "--kind", "ncopies"]
        copies = math.ceil(math.pi / (2.0 * self.CLI_DELTA))
        return argv, lambda r: r["copies"] == copies and r["overlap"] <= NCOPY_OVERLAP_TOL


class Verify(Workload):
    """Independent numerics checked against the closed forms.

    3 ops in 4: a Haar qubit pair, checked by the oracle at n = 1 and at
    n = N (N <= 4), by a Monte-Carlo average fidelity and by a Haar sampler
    batch.  1 op in 4: an SU(d) pair, d in 3, 8, 32 in equal shares, checked
    by the oracle at n = 1.  The qubit pair's relative angle comes from the
    even sequence, since the oracle's cost climbs steeply as delta nears
    pi/2.
    """

    name = "verify"
    QUBIT_OPS = 9  # per block, beside one SU(d) op of each dimension
    DIMS = (3, 8, 32)
    block_size = QUBIT_OPS + len(DIMS)
    nominal_ops_per_s = 12.0
    MC_SAMPLES = 20_000
    HAAR_DRAWS = 10_000
    ORACLE_MAX_N = 4  # n = N oracle only while the tensor power stays at d <= 16

    def block(self, rng, stream, b):
        u = even_uniforms(self.seed, stream, b * self.QUBIT_OPS, self.QUBIT_OPS)
        out = [("qubit", *pair_with_delta(float(a), rng), int(rng.integers(2**31)))
               for a in haar_su2_angle(u)]
        out += [("sud", haar_special_unitary(d, rng), haar_special_unitary(d, rng), 0)
                for d in self.DIMS]
        return [out[i] for i in rng.permutation(len(out))]

    def run(self, op):
        gd = self.gd
        kind, m1, m2, seed = op
        u1, u2 = gd.Gate(m1), gd.Gate(m2)
        if kind == "sud":
            return gd.oracle_min_overlap(u1, u2, 1), gd.gate_fidelity_sud(u1, u2)
        fid = gd.gate_fidelity_su2(u1, u2)
        oracle_1 = gd.oracle_min_overlap(u1, u2, 1)
        n = gd.min_copies(u1, u2)
        oracle_n = gd.oracle_min_overlap(u1, u2, n) if n <= self.ORACLE_MAX_N else None
        mc = gd.avg_fidelity_mc(u1, u2, samples=self.MC_SAMPLES, seed=seed)
        closed = gd.avg_fidelity_su2_closed(u1, u2)
        params = gd.haar_sample_su2(seed, self.HAAR_DRAWS)
        return fid, oracle_1, oracle_n, mc, closed, params

    def check(self, op, res):
        if op[0] == "sud":
            oracle_1, fid = res
            return abs(oracle_1 - fid) <= ORACLE_TOL
        fid, oracle_1, oracle_n, mc, closed, params = res
        if abs(oracle_1 - fid) > ORACLE_TOL:
            return False
        if oracle_n is not None and oracle_n > ORACLE_TOL:
            return False
        if abs(mc.estimate - closed) > MC_SIGMAS * mc.stderr:
            return False
        # sin^2(theta1) of a Haar draw is uniform on [0, 1]: mean 1/2, variance 1/12.
        s2 = np.sin(np.array([p.theta1 for p in params])) ** 2
        return abs(s2.mean() - 0.5) <= MC_SIGMAS * math.sqrt(1.0 / 12.0 / s2.size)

    def cli_call(self, workdir):
        rng = block_rng(self.seed, STREAM_CLI, 0)
        m1, m2 = haar_special_unitary(2, rng), haar_special_unitary(2, rng)
        fid = self.gd.gate_fidelity_su2(self.gd.Gate(m1), self.gd.Gate(m2))
        argv = ["oracle", "--u1", write_matrix(workdir / "u1.json", m1),
                "--u2", write_matrix(workdir / "u2.json", m2), "--n", "1"]
        return argv, lambda r: abs(r - fid) <= ORACLE_TOL


WORKLOADS = {w.name: w for w in (EliminationFresh, EliminationReuse, PairAnalysis, Verify)}
