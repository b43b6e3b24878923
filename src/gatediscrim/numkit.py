"""Dense complex linear algebra helpers underlying gates and states.

The library's one unitarity check (`_unitary_factor`, which `Gate` runs)
is private, as are the eigendecomposition of a d > 2 pair's relative gate
(`_eig_unitary`) and the eigenvalues of a pair's tensor power
(`_unitary_phases`); those two take matrices formed from accepted gates
and check nothing again.  The public `tensor_power` takes anything
`np.asarray` accepts, including `Gate`, which exposes ``__array__``.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError, SizeLimitError, ValidationError

DEFAULT_TOL = 1e-10
# Largest dense dimension materialized for tensor powers and probe vectors.
MAX_TENSOR_DIM = 4096
# Most random values one seeded draw may hold: 2**25 float64 values, 256 MiB.
MAX_DRAW_VALUES = 2**25
# The Hermitian mixing weight of _eig_unitary: a fixed scalar, the first draw
# of np.random.default_rng(0x1D5A3).uniform(0.3, 1.7), written out so that the
# decomposition is a pure function of its input and neither a call nor the
# import builds a generator (importing numpy.random alone takes ~14 ms).
_MIX_WEIGHT = 1.5082927390849898
# _eig_unitary's clusters: eigenvalues of H1 + gamma*H2 closer than this.  An
# eigenvector of an eigenvalue g away from all others is accurate to about
# 4 u / g (u = 2**-53; residual times gap measured up to 3.7 u on 10**4 Haar
# unitaries at d = 32), and its residual on U moves by as much when its
# neighbour's phase is far from its own, so outside clusters residuals stay
# near 4e-12 or below, well under DEFAULT_TOL.
_CLUSTER_GAP = 1e-4
# A Gram defect ||M^dag M - 1||_max at or below _ROUNDING_DEFECT * d is
# rounding, and `_unitary_factor` keeps such a matrix as it is.  The floor
# ends its loop: a Newton-Schulz step from a matrix unitary to rounding left
# at most 10 u (u = 2**-53) at d <= 32, and 15 u at d = 64, under each of the
# OpenBLAS Haswell, SkylakeX, Sandybridge, Nehalem and Prescott kernels.
# The gates the benchmark builds measure at most 21 u (d = 2), so none of
# them takes a step.
_ROUNDING_DEFECT = 16 * 2.0**-53


def _as_square(m) -> np.ndarray:
    """M as a complex array; DimensionError unless it is a square matrix of dimension >= 1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionError("expected a matrix of dimension >= 1, got shape (0, 0)")
    return m


def _check_size(base: int, n: int, cap: int, what: str) -> None:
    """Refuse base**n > cap, or n > MAX_TENSOR_DIM factors, with SizeLimitError.
    A base >= 2 exceeds the cap once n passes its bit length, so base**n is
    only formed for small n; a power takes n - 1 steps whatever its base, so
    base 1 is refused past MAX_TENSOR_DIM factors."""
    if base > 1 and n > cap.bit_length() or base**n > cap:
        raise SizeLimitError(f"{what} {base}^{n} exceeds the cap {cap}")
    if n > MAX_TENSOR_DIM:
        raise SizeLimitError(f"{what} {base}^{n} has {n} factors, above the cap "
                             f"{MAX_TENSOR_DIM}")


def _check_draw(values: int, what: str) -> None:
    """Refuse, before drawing, a draw of more than MAX_DRAW_VALUES random values
    with SizeLimitError (CLI exit 2), where numpy would raise MemoryError or
    fill the machine's memory."""
    if values > MAX_DRAW_VALUES:
        raise SizeLimitError(f"{what} needs {values} random values, above the cap "
                             f"{MAX_DRAW_VALUES}")


def _check_int(value, what: str, least: int) -> None:
    """Refuse anything but an `int` or numpy integer >= `least` with
    ValidationError (CLI exit 2), where a float would otherwise reach numpy
    or `range` and end in a bare TypeError."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")


def _rng(seed: int) -> np.random.Generator:
    """numpy's generator for `seed`.  A seed that is not an integer >= 0,
    which numpy refuses with a plain TypeError or ValueError, raises
    ValidationError (CLI exit 2)."""
    _check_int(seed, "seed", 0)
    return np.random.default_rng(seed)


def _gram_defect(m: np.ndarray) -> tuple[np.ndarray, float]:
    """G = M^dag M - 1 and ||G||_max for a square complex 2-D array M."""
    d = m.shape[0]
    gram = m.conj().T @ m
    gram.reshape(d * d)[:: d + 1] -= 1.0  # M^dag M - 1, in place
    return gram, np.abs(gram).max()


def _unitary_factor(m, tol: float) -> np.ndarray:
    """The unitary polar factor Q of a square matrix M accepted at `tol`.

    The library's one unitarity check.  M is refused with DimensionError
    unless it is a square matrix of dimension >= 1 (`_as_square`), then
    with ValidationError unless `tol` is finite and >= 0, unless ||G||_max
    <= tol, G = M^dag M - 1, and, when it is not unitary to rounding,
    unless ||G||_F <= 1/2.  While ||G||_max > _ROUNDING_DEFECT * d, Newton-Schulz
    steps M <- M - M G / 2 (Higham, Functions of Matrices, SIAM 2008, ch. 8)
    move every singular value s of M to s (3 - s^2) / 2: with e = 1 - s^2
    the next e is e^2 (3 + e) / 4, so from |e| <= ||G||_F <= 1/2 the defect
    falls quadratically and reaches rounding within 6 steps.  A gate
    accepted at tol <= 1/(2d), DEFAULT_TOL included, is never refused, as
    ||G||_F <= d ||G||_max.  A matrix unitary to rounding is returned as it
    is, with no numpy call beyond its Gram product and its largest entry.
    """
    m = _as_square(m)
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tol!r}")
    gram, defect = _gram_defect(m)
    if not defect <= tol:
        raise ValidationError("matrix is not unitary within tolerance")
    floor = _ROUNDING_DEFECT * m.shape[0]
    if defect > floor and (defect > 0.5 or np.linalg.norm(gram) > 0.5):
        raise ValidationError("matrix is too far from unitary: ||M^dag M - 1||_F > 1/2")
    while defect > floor:
        m = m - m @ gram / 2.0
        gram, defect = _gram_defect(m)
    return m


def _principal(phi: np.ndarray) -> np.ndarray:
    """Map angles to the principal branch (-pi, pi]."""
    out = np.mod(np.asarray(phi, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(out <= -np.pi, np.pi, out)


def _fix_gauge(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    phase = lead / np.where(np.abs(lead) == 0, 1.0, np.abs(lead))
    return vecs / phase


def _split_clusters(values: np.ndarray, gap: float) -> list[slice]:
    """Contiguous index ranges of `values` (sorted) separated by more than `gap`."""
    edges = [0]
    for k in range(1, len(values)):
        if values[k] - values[k - 1] > gap:
            edges.append(k)
    edges.append(len(values))
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _eig_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and orthonormal eigenvectors of a square matrix unitary to rounding.

    Returns read-only (phases, vectors), the order of `np.linalg.eigh`:
    phases sorted ascending in (-pi, pi], vectors[:, k] the eigenvector of
    phases[k] with its largest-magnitude entry real positive, so that
    sum_k exp(i phases[k]) |v_k><v_k| is U.  U is not checked: callers pass
    a matrix formed from accepted gates (`Gate`, the one unitarity check),
    which is unitary to rounding.
    Reduces to a Hermitian problem: with H1 = (U + U^dag)/2 and
    H2 = (U - U^dag)/(2i), the matrix H1 + gamma*H2 is Hermitian and shares
    eigenvectors with U, so `eigh` applies; gamma is the fixed
    `_MIX_WEIGHT`.  A cluster of H1 + gamma*H2 eigenvalues (gaps
    below `_CLUSTER_GAP`) may still mix distinct eigenphases (cos a +
    gamma*sin a can collide), so inside each cluster U's compression, a
    normal matrix of the cluster's size, is diagonalized as a second stage
    and its eigenvectors made orthonormal again; whatever its phases, this
    mixes only eigenvectors of nearly equal phases, which moves no residual.
    Phases come from Rayleigh quotients, and every pair (phase, vector) must
    pass the residual check ||U v - exp(i*phi) v|| <= DEFAULT_TOL, or
    ConvergenceError is raised.
    """
    h1 = (m + m.conj().T) / 2.0
    h2 = (m - m.conj().T) / 2.0j
    w, vecs = np.linalg.eigh(h1 + _MIX_WEIGHT * h2)
    for cl in _split_clusters(w, _CLUSTER_GAP):
        if cl.stop - cl.start < 2:
            continue
        block = vecs[:, cl]
        # Second stage: diagonalize U's compression to the cluster, then
        # restore orthonormality of the rotated block.
        _, rot = np.linalg.eig(block.conj().T @ m @ block)
        q, _ = np.linalg.qr(block @ rot)
        vecs[:, cl] = q
    mv = m @ vecs
    phases = _principal(np.angle(np.einsum("ik,ik->k", vecs.conj(), mv)))
    residual = np.abs(mv - vecs * np.exp(1j * phases)).max()
    if not residual <= DEFAULT_TOL:
        raise ConvergenceError(f"eigendecomposition residual {residual:.3e} above "
                               f"{DEFAULT_TOL:.1e} (dim {m.shape[0]})")
    order = np.argsort(phases, kind="stable")
    out_vecs = _fix_gauge(vecs[:, order])
    out_vecs.setflags(write=False)
    out_phases = phases[order]
    out_phases.setflags(write=False)
    return out_phases, out_vecs


def _unitary_phases(m: np.ndarray) -> np.ndarray:
    """Eigenphases in [-pi, pi] of a square matrix unitary to rounding, unsorted, without vectors.

    One LAPACK eigenvalue call (zgeev through `np.linalg.eigvals`), with no
    unitarity check: callers pass a matrix they formed from accepted gates,
    which are unitary to rounding.  zgeev is backward stable, so each phase
    is off by O(u ||M||), u = 2**-53, from one of a unitary's.  A
    LinAlgError (no convergence) raises ConvergenceError.
    """
    try:
        return np.angle(np.linalg.eigvals(m))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalues did not converge (dim {m.shape[0]})") from exc


def tensor_power(u, n: int) -> np.ndarray:
    """Kronecker power U^(x)n; refuses results larger than MAX_TENSOR_DIM.

    Each step forms the products out[i, j] * u[k, l] that `np.kron` forms,
    broadcast straight into the (i, k, j, l) layout, so the result is
    `np.kron`'s byte for byte without its reshaping overhead (~15 -> ~3 us
    at a qubit's n = 2).  An `n` that is not an integer >= 1 raises
    ValidationError.
    """
    m = _as_square(u)
    _check_int(n, "tensor power", 1)
    _check_size(m.shape[0], n, MAX_TENSOR_DIM, "dimension")
    out = m
    for _ in range(n - 1):
        size = out.shape[0] * m.shape[0]
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(size, size)
    return out
