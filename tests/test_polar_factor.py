"""Gates accepted at a tolerance are stored as their unitary polar factor.

Every quantity below raises a gate's non-unitary part to the N-th power, or
diagonalizes a relative gate that is not normal, if the gate keeps the
matrix it was given: a round of N copies kept a true set member scaled by
1 - s with probability only (1 - s)^(4N), and loosely accepted d = 32 pairs
failed the eigensolver with exit 3.
"""
import math

import numpy as np
import pytest

import gatediscrim as gd
from gatediscrim.gates import _probe_amplitude
from gatediscrim.numkit import DEFAULT_TOL
from helpers import gram_defect, haar_unitary

U = 2.0**-53


def round_is_sound(h, record, truth: int) -> bool:
    """Whether a round against in-set `truth` keeps it with certainty, up to rounding.

    A round whose pair holds the truth reads p_target = 1 or 0 without
    contracting, so the check contracts the round's probe itself, with the
    set's U_i^dag U_truth.  Against pair[0] that is N copies of U0^dag U0 =
    1 + G, G the stored gate's Gram defect, with ||G||_2 <= d ||G||_max <=
    16 d^2 u = 64 u (u = 2**-53), so the contraction may fall short of 1 by
    rounding that grows with N: at most 2 N 64 u (measured at most 64 N u, on
    the loose sets below).  Against pair[1] the branches are orthogonal.
    """
    i, j = record.pair
    if truth not in (i, j):
        return True
    p = min(1.0, abs(_probe_amplitude(h._tests[i, j].probe, h._rels[i, truth])) ** 2)
    if i == truth:
        return record.p_target == 1.0 and p >= 1.0 - 128 * record.copies * U
    return record.p_target == 0.0 and p <= 1e-9


def rotation(delta: float, rng) -> np.ndarray:
    """V diag(e^{i delta}, e^{-i delta}) V^dag for a Haar V: half-arc delta from the identity."""
    v = haar_unitary(2, rng)
    return (v * np.exp([1j * delta, -1j * delta])) @ v.conj().T


def svd_polar(m: np.ndarray) -> np.ndarray:
    """The unitary polar factor from an SVD, a reference independent of the library."""
    left, _, right = np.linalg.svd(m)
    return left @ right


@pytest.mark.parametrize("tol, s, delta", [
    (DEFAULT_TOL, 4.9e-11, 1e-6),
    (DEFAULT_TOL, 4.9e-11, 1e-7),
    (DEFAULT_TOL, 4.9e-11, 1e-8),
    (1e-6, 4.5e-7, 1e-7),
])
def test_a_scaled_member_is_kept_with_certainty(tol, s, delta):
    # the set {(1 - s) W, W R(delta)}: a round of N = pi / (2 delta) copies
    # used to land on the target with probability (1 - s)^(4N) when the truth
    # was the scaled member (0.99969, 0.99693, 0.96968 and e^-28 here, where
    # rounding allows shortfalls of 2.2e-8, 2.2e-7, 2.2e-6 and 2.2e-7)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        w = haar_unitary(2, rng)
        h = gd.HypothesisSet((gd.Gate((1.0 - s) * w, tol), gd.Gate(w @ rotation(delta, rng), tol)))
        plan = gd.plan_elimination(h)
        for truth in (0, 1):
            res = gd.simulate_elimination(plan, h, true_index=truth, seed=seed)
            (record,) = res.trace
            assert record.pair == (0, 1) and res.identified_index == truth
            assert round_is_sound(h, record, truth), record


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_the_ncopy_probe_of_a_scaled_pair_is_perfect(tol):
    # the second gate scaled by 1 + tol / 2.1: the overlap at N = 15707964
    # used to read 9.6e-12 to 8.6e-11 at tol 1e-6, and 1.0 or an
    # OverflowError at tol 1e-4 (measured at most 6.9e-18 now)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        w = haar_unitary(2, rng)
        u1 = gd.Gate(w, tol)
        u2 = gd.Gate((1.0 + tol / 2.1) * w @ rotation(1e-7, rng), tol)
        probe = gd.optimal_probe_ncopies(u1, u2)
        assert probe.copies == 15707964
        assert gd.probe_overlap(u1, u2, probe, probe.copies) <= 1e-16


def loose_gate(d: int, rng) -> tuple[np.ndarray, float]:
    """A d x d matrix off unitary by up to ~1e-2, and 1.01 times its deviation:
    a Haar unitary rounded to 2-5 decimals, or W F (1 + a J / d) with F the DFT,
    J all ones and a log-uniform in [1e-6, 1e-2], whose M M^dag - 1 has entries
    up to d times those of M^dag M - 1."""
    w = haar_unitary(d, rng)
    if rng.random() < 0.5:
        m = np.round(w, int(rng.integers(2, 6)))
    else:
        dft = np.exp(2j * np.pi * np.outer(range(d), range(d)) / d) / np.sqrt(d)
        m = w @ dft @ (np.eye(d) + 10.0 ** rng.uniform(-6.0, -2.0) * np.ones((d, d)) / d)
    return m, 1.01 * gram_defect(m)


def test_loosely_accepted_qudit_pairs_have_a_distance():
    # 2 of these 50 pairs used to raise ConvergenceError (exit 3); the distance
    # is the polar factors', here against an SVD (measured within 2.3e-14)
    rng = np.random.default_rng(0)
    for _ in range(50):
        (m1, t1), (m2, t2) = loose_gate(32, rng), loose_gate(32, rng)
        u1, u2 = gd.Gate(m1, t1), gd.Gate(m2, t2)
        phases = np.angle(np.linalg.eigvals(svd_polar(m1).conj().T @ svd_polar(m2)))
        expected = min(gd.minimal_covering_arc(phases).delta, math.pi / 2)
        assert abs(gd.gate_distance(u1, u2) - expected) <= 1e-12
        for u, m in ((u1, m1), (u2, m2)):
            assert gram_defect(u.matrix) <= 16 * 32 * U
            assert np.abs(u.matrix - svd_polar(m)).max() <= 1e-13


def test_elimination_convicts_the_true_gate_in_sets_accepted_at_a_loose_tol():
    # criterion 9 on sets whose members are each scaled by up to 1 -/+ 4.5e-7
    # and accepted at tol 1e-6, with pairs as close as 1e-7 apart
    rng = np.random.default_rng(1009)
    failures = 0
    for trial in range(300):
        k = int(rng.integers(2, 6))
        w = haar_unitary(2, rng)
        mats = [(1.0 + rng.uniform(-4.5e-7, 4.5e-7)) * w @ rotation(10.0 ** rng.uniform(-7, -1), rng)
                for _ in range(k)]
        gates = [gd.Gate(m, 1e-6) for m in mats]
        h = gd.HypothesisSet(tuple(gates))
        truth = int(rng.integers(k))
        res = gd.simulate_elimination(gd.plan_elimination(h), h, true_index=truth,
                                      seed=9000 + trial)
        failures += res.identified_index != truth
        assert res.total_runs == sum(gd.min_copies(gates[i], gates[j])
                                     for i, j in (rec.pair for rec in res.trace))
        assert all(round_is_sound(h, rec, truth) for rec in res.trace), res.trace
    pauli = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]
    h = gd.HypothesisSet(tuple(gd.Gate((1.0 + 4.5e-7 * (-1) ** i) * np.array(m), 1e-6)
                               for i, m in enumerate(pauli)))
    plan = gd.plan_elimination(h)
    for seed in range(20):
        for truth in range(4):
            res = gd.simulate_elimination(plan, h, true_index=truth, seed=seed)
            failures += (res.identified_index, res.total_runs) != (truth, 3)
    assert failures == 0
