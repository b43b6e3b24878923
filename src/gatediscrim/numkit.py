"""Dense complex linear algebra helpers underlying gates and states.

Everything here works on plain ndarrays (anything `np.asarray` accepts,
including `Gate`, which exposes ``__array__``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, SizeLimitError, ValidationError

DEFAULT_TOL = 1e-10
# Largest dense dimension materialized for tensor powers and probe vectors.
MAX_TENSOR_DIM = 4096
# Most random values one seeded draw may hold: 2**25 float64 values, 256 MiB.
MAX_DRAW_VALUES = 2**25
# Mixing weights eig_unitary tries before raising ConvergenceError.
_EIG_ATTEMPTS = 6

# The Hermitian mixing weights eig_unitary tries, in order.  Fixed so that
# the decomposition is a pure function of its input: they are the scalar
# draws np.random.default_rng(0x1D5A3).uniform(0.3, 1.7), written out so that
# neither a call nor the import builds a generator (importing numpy.random
# alone takes ~14 ms).
_MIX_WEIGHTS = (1.5082927390849898, 1.2087984074136136, 0.5729704267355618,
                0.74334567301566, 0.30234106209316886, 1.4212000157430702)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_size(base: int, n: int, cap: int, what: str) -> None:
    """Refuse base**n > cap with SizeLimitError.  A base >= 2 exceeds the cap once n
    passes its bit length, so base**n is only formed for small n."""
    if base > 1 and n > cap.bit_length() or base**n > cap:
        raise SizeLimitError(f"{what} {base}^{n} exceeds the cap {cap}")


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


def validate_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True when ||M^dag M - 1||_max <= tol, for every matrix of a (..., d, d) stack.

    Raises DimensionError on non-square input, ValidationError unless `tol`
    is finite and >= 0 (Gate and eig_unitary check `tol` through here).
    """
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tol!r}")
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[-1]
    gram = m.conj().swapaxes(-1, -2) @ m
    gram.reshape(*gram.shape[:-2], d * d)[..., :: d + 1] -= 1.0  # M^dag M - 1, in place
    return bool(np.abs(gram).max() <= tol)


@dataclass(frozen=True, eq=False)
class UnitaryEigen:
    """Spectral data of a unitary: ``sum_k exp(i*phases[k]) |v_k><v_k|``.

    ``phases`` are sorted ascending in (-pi, pi]; ``vectors[:, k]`` is the
    orthonormal eigenvector for ``phases[k]``.
    """

    phases: np.ndarray
    vectors: np.ndarray


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


def eig_unitary(u, tol: float = DEFAULT_TOL) -> UnitaryEigen:
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    Reduces to a Hermitian problem: with H1 = (U + U^dag)/2 and
    H2 = (U - U^dag)/(2i), the matrix H1 + gamma*H2 is Hermitian and shares
    eigenvectors with U, so `eigh` applies.  A cluster of H1 + gamma*H2
    eigenvalues may still mix distinct eigenphases (cos a + gamma*sin a can
    collide), so inside each cluster the compression of H2 is diagonalized as
    a second stage; the pair (cos, sin) separates any two distinct phases.
    Phases come from Rayleigh quotients and every pair (phase, vector) must
    pass the residual check ||U v - exp(i*phi) v|| <= tol.  Up to
    `_EIG_ATTEMPTS` mixing weights (`_MIX_WEIGHTS`) are tried before
    ConvergenceError.
    """
    m = _as_square(u)
    if not validate_unitary(m, tol):
        raise ValidationError("matrix is not unitary within tolerance")
    d = m.shape[0]
    h1 = (m + m.conj().T) / 2.0
    h2 = (m - m.conj().T) / 2.0j
    last_residual = np.inf
    for gamma in _MIX_WEIGHTS[:_EIG_ATTEMPTS]:
        w, vecs = np.linalg.eigh(h1 + gamma * h2)
        for cl in _split_clusters(w, 1e-8):
            if cl.stop - cl.start < 2:
                continue
            block = vecs[:, cl]
            # Second stage: split the cluster by the sine part, then restore
            # orthonormality of the rotated block.
            _, rot = np.linalg.eigh(block.conj().T @ h2 @ block)
            q, _ = np.linalg.qr(block @ rot)
            vecs[:, cl] = q
        mv = m @ vecs
        phases = _principal(np.angle(np.einsum("ik,ik->k", vecs.conj(), mv)))
        residual = np.abs(mv - vecs * np.exp(1j * phases)).max()
        if residual <= tol:
            order = np.argsort(phases, kind="stable")
            out_vecs = _fix_gauge(vecs[:, order])
            out_vecs.setflags(write=False)
            out_phases = phases[order]
            out_phases.setflags(write=False)
            return UnitaryEigen(phases=out_phases, vectors=out_vecs)
        last_residual = residual
    raise ConvergenceError(
        f"eigendecomposition residual {last_residual:.3e} above {tol:.1e} "
        f"after {_EIG_ATTEMPTS} attempts (dim {d})"
    )


def _unitary_phases(m: np.ndarray) -> np.ndarray:
    """Eigenphases in [-pi, pi] of a square matrix near unitary, unsorted, without vectors.

    One LAPACK eigenvalue call (zgeev through `np.linalg.eigvals`), with no
    unitarity check: callers pass a matrix they formed from validated gates.
    Accuracy: with ||M^dag M - 1||_2 <= e, M lies within e of its unitary
    polar factor Q, and zgeev is backward stable, so the computed eigenvalues
    are exact for M + E with ||E|| = O(u ||M||), u = 2**-53.  Q is normal,
    so by Bauer-Fike every computed eigenvalue, and so every phase, lies
    within O(e + u) of one of Q's.  For the n-fold tensor power of R =
    U1^dag U2 of d x d gates accepted at tolerances up to t, e = ||(R^dag
    R)^(x)n - 1||_2 <= (1 + e1)^n - 1, about 2 n d t, where e1 = d t (2 + d t)
    bounds ||R^dag R - 1||_2 (`gates._pair_tol`).  A LinAlgError (no
    convergence) raises ConvergenceError.
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
