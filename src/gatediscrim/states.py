"""Density matrices, pure states and their fidelities.

These serve the CLI's `state-fidelity` command: `mixed_fidelity` on two
validated density matrices, which reduces to `pure_fidelity` on rank-1
inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError
from .numkit import DEFAULT_TOL


def _require_finite(arr: np.ndarray, what: str) -> None:
    # every comparison with NaN is false, so the checks below would pass it
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has non-finite entries")


def _with_hermitian_part(rho) -> tuple[np.ndarray, np.ndarray]:
    """rho as a complex array and its Hermitian part; every check of `as_density` but PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    _require_finite(rho, "density matrix")
    if np.abs(rho - rho.conj().T).max() > DEFAULT_TOL:
        raise ValidationError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > DEFAULT_TOL or abs(np.trace(rho).imag) > DEFAULT_TOL:
        raise ValidationError(f"density matrix has trace {np.trace(rho)!r}")
    return rho, (rho + rho.conj().T) / 2.0


def _require_psd(w: np.ndarray) -> None:
    if w.min() < -DEFAULT_TOL:
        raise ValidationError(f"density matrix has eigenvalue {w.min():.3e}")


def as_density(rho) -> np.ndarray:
    """Validate a density matrix: finite; Hermitian, unit trace and PSD within DEFAULT_TOL."""
    rho, herm = _with_hermitian_part(rho)
    _require_psd(np.linalg.eigvalsh(herm))
    return rho


def as_state_vector(psi) -> np.ndarray:
    """Validate a finite pure-state vector, normalized within DEFAULT_TOL."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size == 0:
        raise DimensionError("empty state vector")
    _require_finite(v, "state vector")
    if abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
        raise ValidationError("state vector is not normalized within tolerance")
    return v


def pure_fidelity(psi1, psi2) -> float:
    """|<psi1|psi2>|^2 for normalized vectors."""
    v1, v2 = as_state_vector(psi1), as_state_vector(psi2)
    if v1.size != v2.size:
        raise DimensionError(f"dimension mismatch {v1.size} vs {v2.size}")
    return float(min(1.0, abs(np.vdot(v1, v2)) ** 2))


def mixed_fidelity(rho1, rho2) -> float:
    """(tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2; reduces to pure_fidelity on rank-1 inputs."""
    # rho1's one eigh gives both its PSD check and its root
    r1, herm1 = _with_hermitian_part(rho1)
    w, v = np.linalg.eigh(herm1)
    _require_psd(w)
    r2 = as_density(rho2)
    if r1.shape != r2.shape:
        raise DimensionError("density matrices must share a dimension")
    # eigenvalues below -DEFAULT_TOL were refused; clip the rounding rest
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    root = (root + root.conj().T) / 2.0
    inner = root @ r2 @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    # Eigenvalues at rounding-noise scale would contribute sqrt(eps) each to
    # the trace of the root; zero them so rank-deficient inputs stay exact.
    floor = w.size * 8.0 * np.finfo(float).eps * max(float(w.max()), 0.0)
    w = np.where(w > floor, w, 0.0)
    val = float(np.sqrt(w).sum())
    return min(1.0, val * val)
