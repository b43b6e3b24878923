"""Shared random-object generators and dense references for the test suite.

Every generator takes an explicit Generator so tests stay reproducible.  The
dense references (reduced states, probe images, two-probe amplitudes, the
spectral reconstruction) and the any-d average fidelity check the library's
results; the library itself needs none of them.  The reference probe
contraction and N-copy probe arrays keep the library's earlier arithmetic,
which the current code must match bit for bit.  The Kolmogorov-Smirnov
statistics and the Gauss-Legendre rule check the sampler with numpy alone.
"""
import dataclasses
import itertools
import math

import numpy as np

from gatediscrim import DimensionError, Gate, ValidationError
from gatediscrim.numkit import DEFAULT_TOL


def haar_unitary(dim: int, rng: np.random.Generator, special: bool = False) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    With special=True the determinant is normalized to 1 (a d-th root is
    divided out, which does not disturb the distribution on the quotient).
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d)).conj()
    if special:
        q = q * np.linalg.det(q) ** (-1.0 / dim)
    return q


def rotated_pair(delta: float, rng: np.random.Generator):
    """Gates {W, W V diag(e^{i delta}, e^{-i delta}) V^dag}, W and V Haar U(2):
    a qubit pair at half-arc delta, N = min_copies about pi / (2 delta)."""
    w, v = haar_unitary(2, rng), haar_unitary(2, rng)
    return Gate(w), Gate(w @ (v * np.exp([1j * delta, -1j * delta])) @ v.conj().T)


def loose_tolerance_pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    """Two matrix pairs whose gates pass at tol 1e-6, each a half-circle apart.

    F (1 + a J / 3) against the identity, F the 3 x 3 DFT and J all ones:
    U U^dag - 1 has entries three times those of U^dag U - 1.  H (1 + b J / 2)
    against 1 + b J / 2, H the Hadamard matrix: U1^dag U2 is off unitary by
    more than twice 1e-6.
    """
    dft = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    near_one = np.eye(2) + 0.99e-6 * np.ones((2, 2)) / 2
    return [(dft @ (np.eye(3) + 1.485e-6 * np.ones((3, 3)) / 3), np.eye(3)),
            (hadamard @ near_one, near_one)]


def gram_defect(m) -> float:
    """||M^dag M - 1||_max of a square matrix M: how far it is from unitary."""
    m = np.asarray(m)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def rand_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rand_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state: normalized GG^dag with G of shape (dim, rank)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random POVM: positive pieces A_i whitened so they sum to the identity."""
    pieces = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in pieces]


def rand_prob(dim: int, rng: np.random.Generator, floor: float = 0.0) -> np.ndarray:
    p = rng.random(dim) + floor
    return p / p.sum()


def partial_trace_b(psi, dim_a: int) -> np.ndarray:
    """Reduced density matrix on subsystem A of a pure state normalized within DEFAULT_TOL.

    `psi` lives on C^dim_a (x) C^dim_b with dim_b inferred from the length.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    size = vec.size
    if dim_a < 1 or size % dim_a != 0:
        raise DimensionError(f"length {size} does not factor through dim_a={dim_a}")
    if abs(np.linalg.norm(vec) - 1.0) > DEFAULT_TOL:
        raise ValidationError("state is not normalized within tolerance")
    coeff = vec.reshape(dim_a, size // dim_a)
    rho = coeff @ coeff.conj().T
    return (rho + rho.conj().T) / 2.0


def system_density(probe) -> np.ndarray:
    """Reduced density matrix of a `ProbeState` on its gate-side (system) factor."""
    return partial_trace_b(probe.to_vector(), dim_a=probe.dim**probe.copies)


def apply_copies(gate, probe):
    """Image of a `ProbeState` under gate^(x)copies (x) 1, through the public constructor."""
    return dataclasses.replace(probe, system=probe.system @ gate.matrix.T)


def term_amplitude(a, b, op: np.ndarray | None = None) -> complex:
    """<a| op^(x)copies (x) 1 |b> for two `ProbeState`s of one factor structure
    (op None: identity), summed term pair by term pair and factor by factor."""
    total = 0.0 + 0.0j
    for s, t in itertools.product(range(a.coeffs.size), range(b.coeffs.size)):
        amp = np.conj(a.coeffs[s]) * b.coeffs[t]
        for x, y in zip(np.repeat(a.system[s], a.counts, axis=0),
                        np.repeat(b.system[t], b.counts, axis=0), strict=True):
            amp *= np.vdot(x, y if op is None else op @ y)
        if a.ancilla is not None:
            for x, y in zip(a.ancilla[s], b.ancilla[t], strict=True):
                amp *= np.vdot(x, y)
        total += amp
    return complex(total)


def reference_factor_gram(x: np.ndarray, y: np.ndarray, counts=1) -> np.ndarray:
    """(Tx, Ty) matrix of prod_j <x[s, j]|y[t, j]>**counts[j] for factor stacks (T, K, d),
    as the library formed it before single-use columns skipped the power and
    the product: every column raised to its count, then multiplied across."""
    xc = x.conj()
    g = xc[:, None, :, 0] * y[None, :, :, 0]
    for i in range(1, x.shape[2]):
        g += xc[:, None, :, i] * y[None, :, :, i]
    return (g**counts).prod(axis=2)


def reference_probe_amplitude(probe, op: np.ndarray | None) -> complex:
    """<p| op^(x)copies (x) 1 |p> as the library contracted it before the ancilla
    Gram was stored: every Gram formed on every call (op None: identity)."""
    right = probe.system if op is None else probe.system @ op.T
    gram = reference_factor_gram(probe.system, right, probe.counts)
    if probe.ancilla is not None:
        gram = gram * reference_factor_gram(probe.ancilla, probe.ancilla)
    return complex(probe.coeffs.conj() @ gram @ probe.coeffs)


def reference_ncopies_arrays(delta: float, eigenbasis, n: int):
    """(coeffs, system, counts) of the N-copy probe as the library built them
    before its terms had one description: weights, clamp, dust rule and
    columns formed in one pass over Python scalars."""
    w_plus, w_minus = eigenbasis
    parity = n % 2
    c_par, c_n = math.cos(parity * delta), math.cos(n * delta)
    q = 0.0 if n == 1 else c_par / (2.0 * (c_par - c_n))
    q = min(max(q, 0.0), 0.5)
    terms = [(q, (w_plus, w_plus)), (q, (w_minus, w_minus))] if q > 0.0 else []
    rem = 0.5 - q if parity == 1 else 1.0 - 2.0 * q
    if rem > 1e-15:
        terms += ([(rem, (w_plus, w_minus)), (rem, (w_minus, w_plus))] if parity == 1
                  else [(rem, (w_plus, w_minus))])
    counts = [(n + 1) // 2, n // 2] if n > 1 else [1]
    return (np.array([math.sqrt(weight) for weight, _ in terms], complex),
            np.array([columns[: len(counts)] for _, columns in terms], complex),
            np.array(counts, np.int64))


def reconstruct(eig) -> np.ndarray:
    """The unitary sum_k exp(i phases[k]) |v_k><v_k| of the (phases, vectors)
    pair `numkit._eig_unitary` returns."""
    phases, vectors = eig
    return (vectors * np.exp(1j * phases)) @ vectors.conj().T


def avg_fidelity_exact(u1, u2) -> float:
    """(d + |tr R|^2) / (d (d+1)) with R = U1^dag U2: the average of |<psi|R|psi>|^2
    over uniform pure states in any dimension d (Horodecki, Horodecki & Horodecki,
    PRA 60, 1888 (1999); Nielsen, Phys. Lett. A 303, 249 (2002))."""
    rel = np.asarray(u1).conj().T @ np.asarray(u2)
    d = rel.shape[0]
    return float((d + abs(np.trace(rel)) ** 2) / (d * (d + 1)))


def ks_statistic(sample, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F| of `sample` against `cdf`.

    The empirical CDF jumps at the sorted sample, so the supremum is the
    largest of i/n - F(x_i) and F(x_i) - (i - 1)/n (Kolmogorov 1933); the
    same terms as `scipy.stats.kstest`'s statistic, which it matches bit for bit.
    """
    x = np.sort(sample)
    n = x.size
    cdf_vals = cdf(x)
    return float(max((np.arange(1.0, n + 1) / n - cdf_vals).max(),
                     (cdf_vals - np.arange(0.0, n) / n).max()))


def ks_statistic_2samp(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b| over the pooled sample.

    Both empirical CDFs are read at every pooled point by `searchsorted`, as
    `scipy.stats.ks_2samp` does.  It matches scipy's statistic bit for bit
    when either sample has more than 10 000 points; below that, scipy's exact
    path rounds it to the nearest multiple of 1/lcm(len(a), len(b)).
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / a.size
            - np.searchsorted(b, pooled, side="right") / b.size)
    return float(max(-diff.min(), diff.max()))


def gauss_legendre_2d(f, x_range, y_range) -> float:
    """Integral of f(x, y) over a rectangle by the 32 x 32 Gauss-Legendre product rule.

    `f` takes arrays.  The rule is exact for polynomials of degree 63 in
    each variable, and the smooth trigonometric integrands of the sampler
    checks converge far faster than that.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    (x0, x1), (y0, y1) = x_range, y_range
    x = (x1 - x0) / 2.0 * nodes + (x1 + x0) / 2.0
    y = (y1 - y0) / 2.0 * nodes + (y1 + y0) / 2.0
    values = f(x[:, None], y[None, :])
    return float(weights @ values @ weights * (x1 - x0) * (y1 - y0) / 4.0)
