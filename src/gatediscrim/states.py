"""Density matrices, POVMs, and state-level fidelities."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import classical, numkit
from .errors import DimensionError, ValidationError
from .numkit import DEFAULT_TOL


def _require_finite(arr: np.ndarray, what: str) -> None:
    # every comparison with NaN is false, so the checks below would pass it
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has non-finite entries")


def as_density(rho) -> np.ndarray:
    """Validate a density matrix: finite; Hermitian, unit trace and PSD within DEFAULT_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    _require_finite(rho, "density matrix")
    if np.abs(rho - rho.conj().T).max() > DEFAULT_TOL:
        raise ValidationError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > DEFAULT_TOL or abs(np.trace(rho).imag) > DEFAULT_TOL:
        raise ValidationError(f"density matrix has trace {np.trace(rho)!r}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w.min() < -DEFAULT_TOL:
        raise ValidationError(f"density matrix has eigenvalue {w.min():.3e}")
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


def as_povm(elements: Sequence) -> list[np.ndarray]:
    """Validate a POVM: finite Hermitian PSD elements that sum to the identity.

    Per-element checks use DEFAULT_TOL; the completeness sum is allowed a looser
    1e-9 since it accumulates error across elements.
    """
    if len(elements) == 0:
        raise DimensionError("a POVM needs at least one element")
    mats = [np.asarray(m, dtype=complex) for m in elements]
    d = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape != (d, d):
            raise DimensionError("POVM elements must be square and same-dimensional")
        _require_finite(m, "POVM element")
        if np.abs(m - m.conj().T).max() > DEFAULT_TOL:
            raise ValidationError("POVM element is not Hermitian within tolerance")
        if np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() < -DEFAULT_TOL:
            raise ValidationError("POVM element has a negative eigenvalue")
    if np.abs(sum(mats) - np.eye(d)).max() > 1e-9:
        raise ValidationError("POVM elements do not sum to the identity")
    return mats


def povm_probabilities(rho, elements: Sequence) -> np.ndarray:
    """Outcome distribution tr(M_i rho); always a valid probability vector."""
    rho = as_density(rho)
    mats = as_povm(elements)
    if mats[0].shape[0] != rho.shape[0]:
        raise DimensionError("POVM and state dimensions differ")
    probs = np.array([np.trace(m @ rho).real for m in mats])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def pure_fidelity(psi1, psi2) -> float:
    """|<psi1|psi2>|^2 for normalized vectors."""
    v1, v2 = as_state_vector(psi1), as_state_vector(psi2)
    if v1.size != v2.size:
        raise DimensionError(f"dimension mismatch {v1.size} vs {v2.size}")
    return float(min(1.0, abs(np.vdot(v1, v2)) ** 2))


def mixed_fidelity(rho1, rho2) -> float:
    """(tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2; reduces to pure_fidelity on rank-1 inputs."""
    r1, r2 = as_density(rho1), as_density(rho2)
    if r1.shape != r2.shape:
        raise DimensionError("density matrices must share a dimension")
    root = numkit.sqrt_psd(r1)
    inner = root @ r2 @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    # Eigenvalues at rounding-noise scale would contribute sqrt(eps) each to
    # the trace of the root; zero them so rank-deficient inputs stay exact.
    floor = w.size * 8.0 * np.finfo(float).eps * max(float(w.max()), 0.0)
    w = np.where(w > floor, w, 0.0)
    val = float(np.sqrt(w).sum())
    return min(1.0, val * val)


def state_distance(rho1, rho2) -> float:
    """arccos(sqrt(F)) on density matrices; same angle as classical_distance."""
    f = mixed_fidelity(rho1, rho2)
    return float(np.arccos(np.clip(np.sqrt(f), 0.0, 1.0)))


def fubini_study_form(psi, dpsi) -> float:
    """Squared line element <dpsi|dpsi> - |<psi|dpsi>|^2 of the projective metric."""
    v = as_state_vector(psi)
    dv = np.asarray(dpsi, dtype=complex).reshape(-1)
    if dv.size != v.size:
        raise DimensionError("tangent vector dimension mismatch")
    val = float(np.vdot(dv, dv).real - abs(np.vdot(v, dv)) ** 2)
    return max(0.0, val)
