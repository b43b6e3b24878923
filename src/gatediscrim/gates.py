"""Unitary gates and their statistical distinguishability.

The measures here answer one question: how well can two unknown unitary
operations be told apart by a single use (or N parallel uses) of the black
box, optimizing over input probe states and measurements?  For qubit gates
the answer is closed form; for higher dimensions it reduces to the minimal
arc covering the eigenphases of the relative gate U1^dag U2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numkit
from .errors import (
    ConvergenceError,
    DimensionError,
    IdenticalGatesError,
    ValidationError,
)
from .numkit import DEFAULT_TOL

# Gates whose distance falls below this are treated as identical (up to a
# global phase) and admit no discriminating measurement.
IDENTICAL_TOL = 1e-12
_HALF_PI = math.pi / 2.0
# A distance off by a few units of roundoff moves pi / (2 distance) by about
# 2**-53 ratio^2: within 8 times that, min_copies reads the ratio as an integer.
_RATIO_ROUNDING = 8 * 2.0**-53
# Half-arcs computed from eigenphases in (-pi, pi] lie on a grid of half an
# ulp of 2*pi, so the eigenphase path resolves nothing finer.  The qubit
# closed form reads half-arcs below this as 0, so that the rounding noise of
# U1^dag U2 (about 1e-16 for U1 = U2) never reads as a distance.
_ARC_RESOLUTION = math.ulp(2.0 * math.pi) / 2.0
# Branch weights at or below this are rounding dust: at N delta = pi/2
# exactly the remaining weight reads 0 or ~2e-16 depending on the last bit
# of delta, and would otherwise add terms with coefficients of ~1e-8.
_WEIGHT_DUST = 1e-15
# How far a library-built probe's factors may stray from unit norm and
# orthogonality, and its branch weights from summing to 1: about 90 units of
# roundoff (2**-53).  Unit orthonormal factors with unit weight sum make the
# norm 1 at every N, so this replaces the full N-copy contraction, which
# raises each factor's rounding to the power N.
_FACTOR_NORM_TOL = 1e-14
# The oracle's duality-gap tolerance and major-iteration cap.
_WOLFE_GAP_TOL = 1e-14
_WOLFE_MAX_ITER = 100
# Largest tensor-power dimension the oracle diagonalizes.  Its cost grows as
# the cube of the dimension: a qubit pair took 0.7 / 5.6 / 49 s at n = 9 / 10
# / 11 (dimension 512 / 1024 / 2048) on a 2-core x86-64 host.
_ORACLE_MAX_DIM = 1024


def _freeze(arr, dtype=complex) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class Gate:
    """A unitary operation on C^dim: a validated, read-only matrix.

    The matrix is checked for unitarity within `tol` on construction and
    stored as a read-only copy.  `matrix`, `dim` and `tol` are read-only
    properties, so a gate never changes after validation and the pair memo
    `_pair`, keyed on the gate objects, never outlives the matrices it was
    formed from; a pair's spectrum is checked at a tolerance its gates can
    meet (`_pair_tol`).  Callers read what they need from `matrix`: the
    spectrum of a pair's relative gate through `_pair_spectrum`, the
    determinant in `sphere_embed`.
    """

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"gate matrix must be square, got {m.shape}")
        if not numkit.validate_unitary(m, tol):
            raise ValidationError("gate matrix is not unitary within tolerance")
        self._matrix = _freeze(m)
        self._dim = int(m.shape[0])
        self._tol = float(tol)

    @property
    def matrix(self) -> np.ndarray:
        """The validated matrix, a read-only array."""
        return self._matrix

    @property
    def dim(self) -> int:
        """The dimension d of C^d the gate acts on."""
        return self._dim

    @property
    def tol(self) -> float:
        """The unitarity tolerance the matrix was accepted at."""
        return self._tol

    @classmethod
    def identity(cls, dim: int) -> "Gate":
        return cls(np.eye(dim))

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._matrix, dtype=dtype if dtype is not None else complex)
        return self._matrix if dtype is None else self._matrix.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"Gate(dim={self.dim})"


@dataclass(frozen=True)
class GateSU2Params:
    """Angles (theta1, theta2, theta3) coordinatizing a qubit special unitary.

    theta1 in [0, pi/2] mixes the diagonal/off-diagonal magnitudes; theta2
    and theta3 in [0, 2pi) carry the phases.
    """

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        if not 0.0 <= self.theta1 <= _HALF_PI:
            raise ValidationError(f"theta1={self.theta1!r} outside [0, pi/2]")
        for name in ("theta2", "theta3"):
            val = getattr(self, name)
            if not 0.0 <= val < 2.0 * math.pi:
                raise ValidationError(f"{name}={val!r} outside [0, 2*pi)")


def su2_from_params(params: GateSU2Params) -> Gate:
    """Qubit gate [[cos t1 e^{i t2}, sin t1 e^{i t3}], [-sin t1 e^{-i t3}, cos t1 e^{-i t2}]].

    Special-unitary by construction: det = cos^2 t1 + sin^2 t1 = 1.
    """
    c, s = math.cos(params.theta1), math.sin(params.theta1)
    e2, e3 = np.exp(1j * params.theta2), np.exp(1j * params.theta3)
    m = np.array([[c * e2, s * e3], [-s / e3, c / e2]])
    return Gate(m)


def _check_pair(u1: Gate, u2: Gate, dim: int | None = None):
    if not isinstance(u1, Gate) or not isinstance(u2, Gate):
        raise ValidationError("expected Gate instances")
    if u1.dim != u2.dim:
        raise DimensionError(f"gate dimensions differ: {u1.dim} vs {u2.dim}")
    if dim is not None and u1.dim != dim:
        raise DimensionError(f"operation requires dimension {dim}, got {u1.dim}")


def _pair_tol(u1: Gate, u2: Gate) -> float:
    """Unitarity tolerance for U1^dag U2: 2 max(tol1, tol2) + DEFAULT_TOL.

    Each factor's deviation from unitarity carries into the product, so a
    pair of gates accepted at a loose `tol` is diagonalized at a tolerance
    its relative gate can meet; the DEFAULT_TOL term covers rounding.
    """
    return 2.0 * max(u1.tol, u2.tol) + DEFAULT_TOL


def gate_fidelity_su2(u1: Gate, u2: Gate) -> float:
    """Single-use fidelity |tr(U1^dag U2)|^2 / 4 for any two qubit gates.

    This is the smallest overlap any probe (entangled probes included) can
    retain between the two branches, so 0 means one-shot perfect
    distinguishability.  It is the d = 2 case of `gate_fidelity_sud`, cos^2
    of the half-arc, whose cosine is |tr(U1^dag U2)|/2: a global phase on
    either gate leaves it unchanged, and a gate against itself reads 1.
    """
    _check_pair(u1, u2, dim=2)
    return gate_fidelity_sud(u1, u2)


# ---------------------------------------------------------------------------
# Eigenphase arcs


@dataclass(frozen=True)
class ArcResult:
    """Minimal arc of the unit circle covering a set of phases.

    delta is the half-width in [0, pi]; center and the two extreme phases
    are principal values in (-pi, pi].  Every input phase lies within delta
    of the center (circularly).
    """

    delta: float
    center: float
    extremes: tuple[float, float]


def minimal_covering_arc(phases: Sequence[float]) -> ArcResult:
    """Smallest circular arc containing all the given phases.

    Found by sorting the phases and removing the largest circular gap; the
    arc is the complement of that gap.  Ties between equally large gaps are
    broken toward the smallest center phase.
    """
    ph = np.asarray(phases, dtype=float).reshape(-1)
    if ph.size == 0:
        raise ValidationError("need at least one phase")
    if not np.all(np.isfinite(ph)):
        raise ValidationError("phases must be finite")
    s = np.sort(numkit._principal(ph))
    m = s.size
    if m == 1:
        v = float(s[0])
        return ArcResult(delta=0.0, center=v, extremes=(v, v))
    gaps = np.empty(m)
    gaps[: m - 1] = np.diff(s)
    gaps[m - 1] = s[0] + 2.0 * math.pi - s[m - 1]
    gmax = gaps.max()
    delta = (2.0 * math.pi - gmax) / 2.0
    delta = min(max(delta, 0.0), math.pi)
    ties = np.flatnonzero(gaps == gmax)
    starts = s[(ties + 1) % m]
    centers = numkit._principal(starts + delta)
    k = int(np.argmin(centers))  # the first smallest centre
    return ArcResult(delta=delta, center=float(centers[k]),
                     extremes=(float(starts[k]), float(s[ties[k]])))


def convex_min_overlap(phases: Sequence[float]) -> float:
    """min over probability weights w of |sum_k w_k exp(i phase_k)|^2.

    The feasible set is the convex hull of points on the unit circle: the
    minimum is 0 as soon as the phases span a closed half-circle
    (arc half-width >= pi/2), and otherwise sits at the midpoint of the
    chord joining the two extremal phases.
    """
    arc = minimal_covering_arc(phases)
    if arc.delta >= _HALF_PI:
        return 0.0
    a, b = arc.extremes
    amp = 0.5 * abs(np.exp(1j * a) + np.exp(1j * b))
    return float(min(1.0, amp * amp))


def _su2_frame(rel):
    """The qubit frame (delta, 2 alpha, 2 beta) of relative gates R = U1^dag U2 in U(2).

    Takes one 2x2 matrix or a stack of shape (..., 2, 2) and returns three
    arrays of shape (...).  The one place the frame is formed: c =
    conj(sqrt(det R)) removes the global phase, and c R = [[alpha, beta],
    [-conj(beta), conj(alpha)]] is in SU(2) with eigenphases +/-a, cos a =
    Re alpha and sin a = |(Im alpha, beta)|, so the covering half-arc delta =
    min(a, pi - a) <= pi/2 is atan2(hypot(Im alpha, |beta|), |Re alpha|); the
    other root negates alpha and beta.  Reading them from both rows drops the
    part of R that is not unitary (rounding, or a looser `Gate` tolerance), so
    U^dag U reads 0.  A pair and a stack take one numpy path and give the same
    bits; half-arcs below _ARC_RESOLUTION read as 0.  The eigenbasis is
    `_su2_folded_eigenbasis(2 alpha, 2 beta)`.
    """
    rel = np.asarray(rel)
    r00, r01, r10, r11 = rel[..., 0, 0], rel[..., 0, 1], rel[..., 1, 0], rel[..., 1, 1]
    # both orders of r01 r10, so that U2^dag U1 = R^dag gives the same bits
    c = np.conj(np.sqrt(r00 * r11 - (r01 * r10 + r10 * r01) / 2.0))
    alpha2 = r00 * c + np.conj(r11 * c)
    beta2 = r01 * c - np.conj(r10 * c)
    delta = np.arctan2(np.hypot(alpha2.imag, np.abs(beta2)), np.abs(alpha2.real))
    return delta * (delta >= _ARC_RESOLUTION), alpha2, beta2


def _relative_matrix(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """U1^dag U2 for matrices of shape (..., d, d) of already validated gates.

    The one place a pair's relative gate is formed.  Validation stays at the
    `Gate` boundary, at the tolerance each gate was accepted with; the
    product is not checked again here.  A single pair and a stack of pairs go through the same
    contraction, so they give the same bits.
    """
    return np.einsum("...ji,...jk->...ik", m1.conj(), m2)


@functools.lru_cache(maxsize=1)
def _pair(u1: Gate, u2: Gate) -> tuple[np.ndarray, tuple | None]:
    """U1^dag U2 of a checked pair, read-only, and for qubits its `_su2_frame`.

    The one place a pair function forms them: `gate_distance` (and through
    it both fidelities and `min_copies`), the probe builders,
    `probe_overlap`, `oracle_min_overlap` and `geometry.overlap_samples`
    read the pair here (for d > 2 through `_pair_spectrum`), so the functions
    of one pair form U1^dag U2 and its frame once.  The memo holds only the
    last pair, keyed on the two `Gate` objects by identity; a `Gate` cannot
    change after validation, and the memo keeps both alive, so a hit always
    returns what a miss would form.
    Callers run `_check_pair` first.  `HypothesisSet` and
    `simulate_elimination` keep their own stacked arrays and do not come
    through here.  The frame is None for d > 2.
    """
    rel = _relative_matrix(u1.matrix, u2.matrix)
    rel.setflags(write=False)
    return rel, (_su2_frame(rel) if u1.dim == 2 else None)


@functools.lru_cache(maxsize=1)
def _pair_spectrum(u1: Gate, u2: Gate) -> numkit.UnitaryEigen:
    """`numkit.eig_unitary` of a checked pair's U1^dag U2, at `_pair_tol`.

    The one place a pair is diagonalized: `gate_distance` and
    `optimal_probe_separable` for d > 2, and `oracle_min_overlap` at n = 1
    (where the power is U1^dag U2 itself), so the functions of one pair run
    one eigendecomposition.  Like `_pair`, it holds only the last pair, keyed
    on the two `Gate` objects by identity; the spectrum is read-only.
    """
    return numkit.eig_unitary(_pair(u1, u2)[0], _pair_tol(u1, u2))


def gate_distance(u1: Gate, u2: Gate) -> float:
    """Statistical angle between gates: min(arc half-width, pi/2).

    The arc is the minimal one covering the eigenphases of U1^dag U2, so a
    global phase on either gate leaves it unchanged and any determinant is
    accepted.  The cap at pi/2 marks perfect distinguishability.

    For qubits the distance has a closed form without eigenphases: with
    U1^dag U2 = e^{i phi} [[alpha, beta], [-conj(beta), conj(alpha)]] it is
    atan2(hypot(|Im alpha|, |beta|), |Re alpha|), which equals
    arccos(|tr(U1^dag U2)|/2).  The atan2 form is used because arccos loses
    all precision near the identity: at distance 1e-9, |tr|/2 rounds to 1
    and arccos returns 0, while atan2 keeps full relative accuracy.  Other
    dimensions diagonalize U1^dag U2 and take its minimal covering arc.
    """
    _check_pair(u1, u2)
    frame = _pair(u1, u2)[1]
    if frame is not None:
        return float(frame[0])
    return min(minimal_covering_arc(_pair_spectrum(u1, u2).phases).delta, _HALF_PI)


def gate_fidelity_sud(u1: Gate, u2: Gate) -> float:
    """cos^2 of the gate distance in any dimension; `gate_fidelity_su2` is its d = 2 case."""
    d = gate_distance(u1, u2)
    if d >= _HALF_PI:
        return 0.0  # perfectly distinguishable; avoid cos(pi/2) rounding dust
    return float(math.cos(d) ** 2)


def min_copies(u1: Gate, u2: Gate) -> int:
    """Fewest parallel uses N with N * distance >= pi/2 (perfect discrimination).

    The ratio pi / (2 distance) is read as its nearest integer m when
    |ratio - m| <= max(1e-12, 8 u ratio^2), u = 2**-53, and rounded up
    otherwise, so that exact integer ratios (distance pi/4 -> 2 copies, pi /
    (2m) -> m) do not round up spuriously.  The distance carries an absolute
    rounding error of a few u, which moves the ratio by about u ratio^2
    (measured up to 0.82 u m^2 for m >= 16); m copies then leave an overlap
    cos^2(m distance) of at most (4 pi u m)^2.
    """
    return _copies_for_distance(gate_distance(u1, u2))


def _copies_for_distance(d: float) -> int:
    if d <= IDENTICAL_TOL:
        raise IdenticalGatesError(
            "gates coincide up to global phase; no copy count discriminates them"
        )
    ratio = _HALF_PI / d
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= max(1e-12, _RATIO_ROUNDING * ratio * ratio):
        return int(nearest)
    return int(math.ceil(ratio))


# ---------------------------------------------------------------------------
# Probe states


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Pure input state fed (in N copies) through an unknown gate.

    A sum of product terms, the only storage form,

        sum_t coeffs[t] system[t, 0]^(x)counts[0] (x) ... (x)
            system[t, K-1]^(x)counts[K-1] (x) ancilla[t, 0] (x) ... (x) ancilla[t, m-1],

    with ``coeffs`` of shape (T,), ``system`` of shape (T, K, dim) and
    ``ancilla`` of shape (T, m, a), or None when there is no ancilla.
    System column k stands for ``counts[k]`` consecutive copies (all ones
    when counts is omitted), so N copies that repeat a few factors store
    each once: N-copy probes keep at most two columns at any N.  `copies`
    (the sum of counts), `dim`, `ancilla_dim` (a**m, 1 without an ancilla)
    and `separable` (no ancilla) are read from the arrays.  Of the library's
    probes only the entangled single-use one has an ancilla.  Every stored
    array is read-only.  `ProbeState(...)` stores read-only copies of its
    inputs, refuses non-finite entries and checks the full norm within
    1e-10.  The probes the library builds itself (`_library_probe`) keep
    the arrays they were built from, and their builders check the factors
    instead: unit, orthogonal and with branch weights summing to 1, within
    `_FACTOR_NORM_TOL`.
    """

    coeffs: np.ndarray
    system: np.ndarray
    ancilla: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        coeffs, system = _freeze(self.coeffs), _freeze(self.system)
        ancilla = None if self.ancilla is None else _freeze(self.ancilla)
        if coeffs.ndim != 1 or system.ndim != 3 or system.shape[0] != coeffs.size:
            raise DimensionError(f"system factors {system.shape} do not match {coeffs.size} terms")
        if ancilla is not None and (ancilla.ndim != 3 or ancilla.shape[0] != coeffs.size):
            raise DimensionError(f"ancilla {ancilla.shape} does not match {coeffs.size} terms")
        counts = np.asarray(np.ones(system.shape[1], int) if self.counts is None else self.counts)
        if (counts.shape != system.shape[1:2] or counts.dtype.kind not in "iu"
                or min(counts.tolist(), default=1) < 1):
            raise DimensionError(f"counts {counts} are not positive integers, one per column")
        for name, value in (("coeffs", coeffs), ("system", system), ("ancilla", ancilla),
                            ("counts", _freeze(counts, np.int64))):
            object.__setattr__(self, name, value)
        if self.copies < 1 or self.dim < 2:
            raise ValidationError(f"need copies >= 1 and dim >= 2, got {self.copies}, {self.dim}")
        if not all(np.isfinite(a).all() for a in (coeffs, system, ancilla) if a is not None):
            raise ValidationError("probe state has non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):  # large entries overflow
            norm2 = _probe_amplitude(self, None).real
        if not abs(norm2 - 1.0) <= 1e-10:  # NaN and infinity fail too
            raise ValidationError(f"probe state norm^2 = {norm2!r}, not 1")

    @property
    def copies(self) -> int:
        return sum(self.counts.tolist())

    @property
    def dim(self) -> int:
        return self.system.shape[2]

    @property
    def ancilla_dim(self) -> int:
        return 1 if self.ancilla is None else self.ancilla.shape[2] ** self.ancilla.shape[1]

    @property
    def separable(self) -> bool:
        return self.ancilla is None

    @property
    def total_dim(self) -> int:
        return self.dim**self.copies * self.ancilla_dim

    def to_vector(self) -> np.ndarray:
        """Dense vector of the probe; refuses dimensions above numkit.MAX_TENSOR_DIM."""
        numkit._check_size(self.dim, self.copies, numkit.MAX_TENSOR_DIM // self.ancilla_dim,
                           "probe system dimension")
        system = np.repeat(self.system, self.counts, axis=1)
        # without an ancilla each term has zero ancilla factors
        ancilla = self.ancilla if self.ancilla is not None else system[:, :0]
        out = np.zeros(self.total_dim, dtype=complex)
        for coeff, sys_factors, anc_factors in zip(self.coeffs, system, ancilla):
            acc = np.array([coeff])
            for f in (*sys_factors, *anc_factors):
                acc = np.kron(acc, f)
            out += acc
        return out


def _library_probe(coeffs: np.ndarray, system: np.ndarray,
                   counts: np.ndarray | None = None) -> ProbeState:
    """A separable `ProbeState` of arrays the library has just made and never touches again.

    The arrays are made read-only in place and set without `__post_init__`:
    no copy, no shape check and no norm contraction.  Callers pass `coeffs`
    as complex128 and `counts` as int64 (all ones when None), the dtypes the
    public constructor stores, and check their factors' norms themselves.
    """
    if counts is None:
        counts = np.ones(system.shape[1], np.int64)
    for value in (coeffs, system, counts):
        value.setflags(write=False)
    probe = object.__new__(ProbeState)
    probe.__dict__.update(coeffs=coeffs, system=system, ancilla=None, counts=counts)
    return probe


def _check_factor_norm(deviation: float) -> None:
    """Refuse a library-built probe whose factors stray from unit norm by more than
    `_FACTOR_NORM_TOL` (`deviation` is the largest such residual)."""
    if not deviation <= _FACTOR_NORM_TOL:
        raise ValidationError(f"probe factors off unit norm by {deviation!r}")


def _factor_gram(x: np.ndarray, y: np.ndarray, counts=1) -> np.ndarray:
    """(Tx, Ty) matrix of prod_j <x[s, j]|y[t, j]>**counts[j] for factor stacks (T, K, d).

    Inner products are summed over d explicitly and count-1 columns enter
    unchanged, so single-use overlaps keep their bits; a column covering n
    copies enters as the n-th power of its inner product, so no array grows with n.
    """
    xc = x.conj()
    g = xc[:, None, :, 0] * y[None, :, :, 0]
    for i in range(1, x.shape[2]):
        g += xc[:, None, :, i] * y[None, :, :, i]
    return (g**counts).prod(axis=2)


def _probe_amplitude(probe: ProbeState, op: np.ndarray | None) -> complex:
    """<p| op^(x)copies (x) 1 |p> for a probe p (op None: identity).

    The Gram matrices of every factor column come from one batched
    contraction, raised to the column counts and multiplied across columns;
    the coefficients then close the sum over term pairs.
    """
    right = probe.system if op is None else probe.system @ op.T
    gram = _factor_gram(probe.system, right, probe.counts)
    if probe.ancilla is not None:
        gram = gram * _factor_gram(probe.ancilla, probe.ancilla)
    return complex(probe.coeffs.conj() @ gram @ probe.coeffs)


def probe_overlap(u1: Gate, u2: Gate, probe: ProbeState, n: int) -> float:
    """Branch overlap |<psi| (U1^dag U2)^(x)n (x) 1 |psi>|^2 for a probe psi.

    This is the quantity whose vanishing makes the two gate hypotheses
    perfectly distinguishable with n parallel uses.
    """
    _check_pair(u1, u2)
    if not isinstance(probe, ProbeState):
        raise ValidationError("expected a ProbeState")
    if n != probe.copies:
        raise DimensionError(f"probe holds {probe.copies} copies, got n={n}")
    if probe.dim != u1.dim:
        raise DimensionError(f"probe dimension {probe.dim} != gate dimension {u1.dim}")
    amp = _probe_amplitude(probe, _pair(u1, u2)[0])
    return min(1.0, abs(amp) ** 2)


def _su2_folded_eigenbasis(alpha2, beta2) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Eigenvectors (w_plus, w_minus) of a relative qubit gate R, folded to its half-arc.

    Closed form, no eigendecomposition, read from the frame (2 alpha, 2 beta)
    of `_su2_frame(R)`, one pair's scalars.  S = c R = cos a 1 + i sin a
    (n . sigma) has sin a = s = |(Im alpha, beta)|, n_z = Im alpha / s and
    n_x + i n_y = i conj(beta) / s, ratios that the factor 2 leaves alone.
    S has phase +a on w_plus, the +1 eigenvector of n . sigma, read from
    (1 + n_z, n_x + i n_y) or (n_x - i n_y, 1 - n_z), whichever is longer,
    and phase -a on its orthogonal partner w_minus.  When a > pi/2 (Re alpha
    < 0) S is a global phase away from one with phases +/-(pi - a), so the
    vectors trade roles.  The other root negates S, which only swaps w_plus
    and w_minus; no probe's overlap changes under that swap.  Both vectors
    carry the gauge of `numkit.eig_unitary` (largest entry real positive).
    For S = +/-1 (s = 0) the standard basis is returned.  The vectors are
    pairs of Python scalars, so callers form their arrays once.
    """
    alpha2, beta2 = complex(alpha2), complex(beta2)
    s = math.hypot(alpha2.imag, abs(beta2))
    n_z, n_xy = (alpha2.imag / s, 1j * beta2.conjugate() / s) if s > 0.0 else (1.0, 0j)
    p, q = (1.0 + n_z, n_xy) if n_z >= 0.0 else (n_xy.conjugate(), 1.0 - n_z)
    norm, vecs = math.hypot(abs(p), abs(q)), []
    for a, b in ((p, q), (-q.conjugate(), p.conjugate())):
        lead = a if abs(a) >= abs(b) else b  # numkit._fix_gauge's choice, in scalars
        scale = abs(lead) / (lead * norm)
        if scale.imag:  # only at the |p| = |q| tie, where Python's complex multiply
            # rounds unlike numpy's, whose bits the probes have always carried
            vecs.append(tuple((np.array([a, b]) * scale).tolist()))
        else:
            vecs.append((a * scale, b * scale))
    return (vecs[1], vecs[0]) if alpha2.real < 0.0 else (vecs[0], vecs[1])


def optimal_probe_separable(u1: Gate, u2: Gate) -> ProbeState:
    """Equal superposition of the two extremal eigenvectors of U1^dag U2.

    The single-copy probe (|v_a> + |v_b>)/sqrt(2), built from the
    eigenvectors at the two ends of the minimal covering arc, retains
    overlap cos^2(delta) and needs no ancilla.  For qubit gates delta <=
    pi/2 always, so this separable probe already achieves the optimal
    fidelity; its two eigenvectors come from the closed form of
    `_su2_folded_eigenbasis`, other dimensions diagonalize U1^dag U2.
    """
    _check_pair(u1, u2)
    frame = _pair(u1, u2)[1]
    if frame is not None:
        v_a, v_b = np.array(_su2_folded_eigenbasis(*frame[1:]))
    else:
        eig = _pair_spectrum(u1, u2)
        arc = minimal_covering_arc(eig.phases)
        diffs = np.abs(numkit._principal(eig.phases - arc.extremes[0]))
        idx_a = int(np.argmin(diffs))
        diffs_b = np.abs(numkit._principal(eig.phases - arc.extremes[1]))
        diffs_b[idx_a] = np.inf
        idx_b = int(np.argmin(diffs_b))
        v_a, v_b = eig.vectors[:, idx_a], eig.vectors[:, idx_b]
    psi = (v_a + v_b) / math.sqrt(2.0)
    _check_factor_norm(abs(np.vdot(psi, psi) - 1.0))
    return _library_probe(np.ones(1, complex), psi[None, None, :])


# The maximally entangled qubit probe (|0>|0> + |1>|1>)/sqrt(2) does not
# depend on the gates, so it is built and norm-checked once, at import.
_BELL_BASIS = np.eye(2)[:, None, :]  # terms |0>|0> and |1>|1>
_BELL_PROBE = ProbeState(coeffs=np.full(2, 1.0 / math.sqrt(2.0)), system=_BELL_BASIS,
                         ancilla=_BELL_BASIS)


def optimal_probe_single(u1: Gate, u2: Gate, entangled: bool) -> ProbeState:
    """Optimal single-use qubit probe, entangled or separable.

    Both choices leave the reduced state with weight 1/2 on each eigenvector
    of the relative gate, which is what minimizes the branch overlap for one
    use; the entangled probe is the maximally entangled pair state, the
    separable one lives in the system factor alone.  The entangled probe
    does not depend on the pair: every call returns the one read-only
    `ProbeState` built when the module is imported.
    """
    _check_pair(u1, u2, dim=2)
    if entangled:
        return _BELL_PROBE
    return optimal_probe_separable(u1, u2)


def optimal_probe_ncopies(u1: Gate, u2: Gate) -> ProbeState:
    """Separable N-copy probe achieving zero overlap at N = min_copies.

    With relative eigenphases +/-delta, the N-fold product states
    w+^N, w-^N (phases +/-N delta) and the mixed products (phase
    +/-(N mod 2) delta) are superposed with weights q, q, 1/2-q, 1/2-q where

        q = cos((N mod 2) delta) / 2(cos((N mod 2) delta) - cos(N delta)),

    chosen so the weighted eigenphase sum cancels exactly.  For even N the
    two middle branches merge into one eigenvalue-1 product state carrying
    weight 1 - 2q.  The state is a sum of at most four product terms, none
    with an ancilla, and every term is constant on the first ceil(N/2)
    copies and on the last floor(N/2): it is stored as at most two counted
    columns, each term picking w+ or w- per column, so its size does not
    grow with N.  U1^dag U2 and its `_su2_frame` are read from `_pair`, and
    `_ncopies_probe` builds the state from that frame and checks its
    factors, not the N-copy norm (`_library_probe`).  The tests check that
    the residual overlap stays within 1e-8 and each branch weight within
    [0, 1/2].
    """
    _check_pair(u1, u2, dim=2)
    return _ncopies_probe(*_pair(u1, u2)[1])


def _ncopies_probe(delta, alpha2, beta2) -> ProbeState:
    """The probe of `optimal_probe_ncopies` for one pair's frame `_su2_frame(R)`.

    Callers that hold the frame already (the frames of
    `protocol.HypothesisSet`) pass it in.  N comes from delta, and (w+, w-)
    from the closed form `_su2_folded_eigenbasis(alpha2, beta2)`.  Every step
    runs on Python scalars, and `coeffs`, `system` and `counts` are each
    formed by one `np.array` call.  The norm is checked on the scalars, in a
    form N cannot amplify: w+ and w- unit and orthogonal, and the branch
    weights summing to 1, each within `_FACTOR_NORM_TOL`.
    """
    delta = float(delta)  # a numpy scalar would make every step below a numpy call
    n = _copies_for_distance(delta)
    w_plus, w_minus = _su2_folded_eigenbasis(alpha2, beta2)
    parity = n % 2
    c_par, c_n = math.cos(parity * delta), math.cos(n * delta)
    q = 0.0 if n == 1 else c_par / (2.0 * (c_par - c_n))
    q = min(max(q, 0.0), 0.5)  # at N delta = pi/2, rounding puts q a few ulps past 1/2
    # (weight, factor per column): the columns are the first ceil(N/2) copies
    # and the last floor(N/2), and each term picks w+ or w- per column
    terms = [(q, (w_plus, w_plus)), (q, (w_minus, w_minus))] if q > 0.0 else []
    rem = 0.5 - q if parity == 1 else 1.0 - 2.0 * q
    if rem > _WEIGHT_DUST:
        terms += ([(rem, (w_plus, w_minus)), (rem, (w_minus, w_plus))] if parity == 1
                  else [(rem, (w_plus, w_minus))])
    (p0, p1), (m0, m1) = w_plus, w_minus
    _check_factor_norm(max(abs(abs(p0) ** 2 + abs(p1) ** 2 - 1.0),
                           abs(abs(m0) ** 2 + abs(m1) ** 2 - 1.0),
                           abs(p0.conjugate() * m0 + p1.conjugate() * m1),
                           abs(sum(weight for weight, _ in terms) - 1.0)))
    counts = [(n + 1) // 2, n // 2] if n > 1 else [1]
    return _library_probe(
        np.array([math.sqrt(weight) for weight, _ in terms], complex),
        np.array([columns[: len(counts)] for _, columns in terms], complex),
        np.array(counts, np.int64),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle


def _affine_min_weights(pts: np.ndarray) -> np.ndarray:
    """Affine weights of the point nearest 0 on the affine hull of 1-3 unit vectors."""
    if len(pts) < 3:  # the hull of equal-norm points comes nearest at their mean
        return np.full(len(pts), 1.0 / len(pts))
    # three points span the plane: barycentric coordinates of the origin
    a, b = np.roll(pts, -1, axis=0), np.roll(pts, -2, axis=0)
    c = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return c / c.sum()


def _wolfe_min_norm(phases: np.ndarray) -> tuple[float, float, int]:
    """Certified min over the simplex of |sum_k w_k exp(i phi_k)|^2.

    Wolfe's min-norm-point algorithm (Math. Programming 11, 1976) on the
    points z_k = (cos phi_k, sin phi_k), whose corral holds at most three
    points in the plane, stopped once |x|^2 - min_k <x, z_k> <= _WOLFE_GAP_TOL.
    Returns (upper, lower, iterations): upper = |x|^2 for the primal point x,
    lower = max(0, min_k <x/|x|, z_k>)^2 (0 when x = 0), which no hull point
    undercuts.  Raises ConvergenceError past _WOLFE_MAX_ITER iterations.
    """
    pts = np.stack([np.cos(phases), np.sin(phases)], axis=1)
    corral, w = [0], np.ones(1)
    for iteration in range(1, _WOLFE_MAX_ITER + 1):
        x = w @ pts[corral]
        upper = float(x @ x)
        dots = pts @ x
        j = int(np.argmin(dots))
        gap = upper - float(dots[j])
        if gap <= _WOLFE_GAP_TOL:
            lower = max(0.0, float(dots[j])) ** 2 / upper if upper > 0.0 else 0.0
            return upper, lower, iteration
        corral, w = corral + [j], np.append(w, 0.0)
        while (v := _affine_min_weights(pts[corral])).min() <= 0.0:
            # Step from w towards v until a weight reaches 0; drop that point.
            neg = np.flatnonzero(v <= 0.0)
            ratios = w[neg] / (w[neg] - v[neg])
            w = w + ratios.min() * (v - w)
            w[neg[np.argmin(ratios)]] = 0.0
            corral, w = [k for k, wk in zip(corral, w) if wk > 0.0], w[w > 0.0]
        w = v
    raise ConvergenceError(f"min-norm point: gap {gap:.3e} still open after "
                           f"{_WOLFE_MAX_ITER} iterations")


def oracle_min_overlap(u1: Gate, u2: Gate, n: int) -> float:
    """Numerical minimum branch overlap over probes, independent of closed forms.

    Wolfe's min-norm-point algorithm for the squared distance from the
    origin to the convex hull of exp(i phi_k), where phi_k are the
    eigenphases of the n-fold tensor power of U1^dag U2; every weight vector
    on the simplex is realizable by some entangled probe, so this spans the
    true feasible set.  It stops on a duality gap of at most 1e-14 and
    raises ConvergenceError if that gap stays open.  The full tensor power is
    diagonalized: single-copy phases are never added up, and no phases are
    sorted into a covering arc.  The power's deviation from unitarity grows
    n-fold, so it is checked at n times the pair's `_pair_tol`; at n = 1 the
    power is U1^dag U2 itself, and its spectrum is the pair's
    `_pair_spectrum`.  Powers above `_ORACLE_MAX_DIM` are refused with
    SizeLimitError before any is formed; an `n` that is not an integer >= 1
    raises ValidationError.
    """
    _check_pair(u1, u2)
    numkit._check_int(n, "copy count", 1)
    numkit._check_size(u1.dim, n, _ORACLE_MAX_DIM, "oracle dimension")
    if n == 1:
        eig = _pair_spectrum(u1, u2)
    else:
        big = numkit.tensor_power(_pair(u1, u2)[0], n)
        eig = numkit.eig_unitary(big, n * _pair_tol(u1, u2))
    upper, _, _ = _wolfe_min_norm(eig.phases)
    return upper


# ---------------------------------------------------------------------------
# A three-level family with a forced-zero matrix element


def su3_example_gate(gamma1: float, gamma2: float, phases: Sequence[float]) -> Gate:
    """Special-unitary (by construction) 3x3 family with a (1,1) entry pinned to zero.

    Since <e1|U|e1> = 0, the probe e1 makes the outcome distribution of this
    gate disjoint from the identity's: the convex hull of its eigenvalues
    contains the origin, the covering arc is at least a half-circle, and the
    fidelity against the identity vanishes for every parameter choice.

    `phases` supplies five angles for signature stability; the first one
    would multiply only the matrix entry this family pins to zero, so it
    never influences the result.
    """
    if not 0.0 <= gamma1 <= _HALF_PI or not 0.0 <= gamma2 <= _HALF_PI:
        raise ValidationError("gamma angles must lie in [0, pi/2]")
    ph = np.asarray(phases, dtype=float).reshape(-1)
    if ph.size != 5:
        raise DimensionError(f"need exactly 5 phase angles, got {ph.size}")
    if np.any(ph < 0.0) or np.any(ph >= 2.0 * math.pi):
        raise ValidationError("phase angles must lie in [0, 2*pi)")
    _, p2, p3, p4, p5 = (float(x) for x in ph)
    s1, c1 = math.sin(gamma1), math.cos(gamma1)
    s2, c2 = math.sin(gamma2), math.cos(gamma2)
    e = lambda x: np.exp(1j * x)  # noqa: E731
    m = np.array(
        [
            [0.0, s1 * e(p3), c1 * e(p4)],
            [s2 * e(-(p4 + p5)), c1 * c2 * e(p2), -s1 * c2 * e(p2 - p3 + p4)],
            [-c2 * e(-(p2 + p4)), c1 * s2 * e(p5), -s1 * s2 * e(-(p3 - p4 - p5))],
        ]
    )
    return Gate(m)
