"""Statistics of the invariant-measure parameter sampler: a Kolmogorov-Smirnov
test of its marginal, a two-sample test of its left invariance, and a
quadrature of the mean of |tr U|^2."""
import math

import numpy as np

from gatediscrim import Gate, haar_sample_su2
from helpers import gauss_legendre_2d, haar_unitary, ks_statistic, ks_statistic_2samp


def test_haar_theta1_marginal():
    # inverse-transform construction: theta1 ~ sin(2 theta1) d theta1,
    # i.e. CDF sin^2
    t1 = haar_sample_su2(11, 100_000).theta1
    assert ks_statistic(t1, lambda x: np.sin(x) ** 2) <= 0.01


def test_haar_left_invariance_of_fidelity_distribution():
    # the fidelity to ANY fixed gate is identically distributed
    n = 100_000
    rng = np.random.default_rng(34)
    v1 = Gate(haar_unitary(2, rng, special=True))
    v2 = Gate(haar_unitary(2, rng, special=True))

    def fids(v: Gate, seed: int) -> np.ndarray:
        params = haar_sample_su2(seed, n)
        t1, t2, t3 = params.theta1, params.theta2, params.theta3
        u11 = np.cos(t1) * np.exp(1j * t2)
        u12 = np.sin(t1) * np.exp(1j * t3)
        m = v.matrix.conj()
        tr = m[0, 0] * u11 + m[1, 0] * (-np.conj(u12)) + m[0, 1] * u12 + m[1, 1] * np.conj(u11)
        return np.abs(tr) ** 2 / 4.0

    assert ks_statistic_2samp(fids(v1, 35), fids(v2, 36)) <= 0.02


def test_mean_trace_squared_is_one():
    # Monte-Carlo mean of |tr U|^2 under the invariant measure vs quadrature
    params = haar_sample_su2(42, 100_000)
    t1, t2 = params.theta1, params.theta2
    mc = np.mean(4.0 * np.cos(t1) ** 2 * np.cos(t2) ** 2)

    ref = gauss_legendre_2d(
        lambda t1_, t2_: 4.0 * np.cos(t1_) ** 2 * np.cos(t2_) ** 2 * np.sin(2.0 * t1_)
        / (2.0 * math.pi),
        (0.0, math.pi / 2), (0.0, 2.0 * math.pi))
    assert abs(ref - 1.0) <= 1e-9
    assert abs(mc - ref) <= 0.02
