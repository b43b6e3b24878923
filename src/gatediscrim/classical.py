"""Classical statistics on finite outcome distributions.

The gate-level distance reduces to these primitives: measuring a probe
turns a pair of gates into a pair of outcome distributions, and the
natural distance between those is arccos of the Bhattacharyya overlap.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, ValidationError

PROB_TOL = 1e-12


def as_prob_dist(weights: Sequence[float]) -> np.ndarray:
    """Validate and return a probability vector (entries >= 0, sum 1 within PROB_TOL)."""
    p = np.asarray(weights, dtype=float).reshape(-1)
    if p.size == 0:
        raise DimensionError("empty probability vector")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probability vector has non-finite entries")
    if p.min() < 0.0:
        raise ValidationError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def _common_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p, q = as_prob_dist(p), as_prob_dist(q)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch {p.size} vs {q.size}")
    return p, q


def classical_fidelity(p, q) -> float:
    """Squared Bhattacharyya coefficient (sum sqrt(p_i q_i))^2, in [0, 1]."""
    p, q = _common_pair(p, q)
    root = float(np.sqrt(p * q).sum())
    return min(1.0, root * root)


def classical_distance(p, q) -> float:
    """Angle arccos(sqrt(F)) between distributions; in [0, pi/2]."""
    return float(np.arccos(np.clip(np.sqrt(classical_fidelity(p, q)), 0.0, 1.0)))


def relative_entropy(p, q, g: Callable[[float], float]) -> float:
    """Generalized divergence sum_i p_i g(p_i / q_i) for convex g with g(1) = 0.

    Terms with p_i = 0 contribute nothing; p_i > 0 against q_i = 0 makes the
    divergence infinite, returned as math.inf rather than raised.
    """
    p, q = _common_pair(p, q)
    if not abs(g(1.0)) <= 1e-12:  # NaN fails too
        raise ValidationError("g(1) must vanish for a divergence generator")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * g(pi / qi)
    return total
