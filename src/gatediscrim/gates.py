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
from dataclasses import dataclass, field
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
# The oracle's duality-gap tolerance and major-iteration cap.
_WOLFE_GAP_TOL = 1e-14
_WOLFE_MAX_ITER = 100
# Largest tensor-power dimension whose eigenvalues the oracle computes.  Its
# cost grows as the cube of the dimension: a qubit pair took 0.10 / 0.54 s at
# n = 9 / 10 (dimension 512 / 1024), and the eigenvalue call alone 3.6 s at
# n = 11 (dimension 2048), on a 2-core x86-64 host.
_ORACLE_MAX_DIM = 1024


def _freeze(arr, dtype=complex) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class Gate:
    """A unitary operation on C^dim: a validated, read-only unitary matrix.

    The matrix M is accepted when ||M^dag M - 1||_max <= `tol`, and the gate
    stores its unitary polar factor, the nearest unitary matrix
    (`numkit._unitary_factor`), as a read-only array: M itself, byte for
    byte, when M is unitary to rounding.  M with ||M^dag M - 1||_F > 1/2 is
    refused, which a tol <= 1/(2 dim) never does.  `tol` is the library's
    one settable tolerance, and it is not kept.  This is the library's
    only unitarity check: what it forms from gates (relative gates, their
    eigendecompositions and tensor powers, probe factors) is therefore
    unitary to rounding and is not checked again.
    `matrix` and `dim` are read-only properties, so a gate never changes
    after validation and the pair memo `_pair`, keyed on the gate objects,
    never outlives the matrices it was formed from.  Callers read what they
    need from `matrix`: the spectrum of a pair's relative gate, the
    determinant in `sphere_embed`.
    """

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        self._matrix = _freeze(numkit._unitary_factor(matrix, tol))
        self._dim = self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The unitary polar factor of the accepted matrix, a read-only array."""
        return self._matrix

    @property
    def dim(self) -> int:
        """The dimension d of C^d the gate acts on."""
        return self._dim

    @classmethod
    def identity(cls, dim: int) -> "Gate":
        return cls(np.eye(dim))

    def __array__(self, dtype=None, copy=None):
        return np.array(self._matrix, dtype=dtype, copy=copy)

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
    part of R that is not unitary by rounding, so U^dag U reads 0.  A pair
    and a stack take one numpy path and give the same bits; half-arcs below
    _ARC_RESOLUTION read as 0.  The eigenbasis is
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
    """U1^dag U2 for matrices of shape (..., d, d) of already accepted gates.

    The one place a pair's relative gate is formed.  Gates are unitary to
    rounding (`Gate`), so the product is too and is not checked here.  A
    single pair and a stack of pairs go through the same contraction, so
    they give the same bits.
    """
    return np.einsum("...ji,...jk->...ik", m1.conj(), m2)


@functools.lru_cache(maxsize=1)
def _pair(u1: Gate, u2: Gate) -> tuple[np.ndarray, tuple | None]:
    """U1^dag U2 of a checked pair, read-only, and for qubits its `_su2_frame`.

    The one place a pair function forms them: `gate_distance` (and through
    it both fidelities and `min_copies`), the probe builders,
    `probe_overlap`, `oracle_min_overlap` and `geometry.overlap_samples`
    read the pair here (for d != 2 `gate_distance`, `optimal_probe_separable`
    and the oracle at n = 1 through `_pair_spectrum`, for d = 2 both probe
    builders through `_pair_eigenbasis`), so the functions of one pair form
    U1^dag U2 and its frame once.  The memo holds only the
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
def _pair_spectrum(u1: Gate, u2: Gate) -> tuple[np.ndarray, np.ndarray]:
    """(phases, vectors) of a checked pair's U1^dag U2, for d != 2 (`numkit._eig_unitary`).

    The one place a pair is diagonalized: `gate_distance`,
    `optimal_probe_separable` and `oracle_min_overlap` at n = 1 (where the
    power is U1^dag U2 itself) for d != 2, so the functions of one pair run
    one eigendecomposition.  Both gates are unitary to rounding, so U1^dag
    U2 is too, whatever tolerance they were accepted at, and it is not
    checked again.  Qubit pairs never come here: their distance and probes
    come from `_su2_frame`, and their oracle reads eigenvalues only.
    Like `_pair`, it holds only the last pair, keyed on the two `Gate`
    objects by identity; both arrays are read-only.
    """
    return numkit._eig_unitary(_pair(u1, u2)[0])


@functools.lru_cache(maxsize=1)
def _pair_eigenbasis(u1: Gate, u2: Gate) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """(w+, w-) of a checked qubit pair's U1^dag U2 (`_su2_folded_eigenbasis` of its frame).

    The qubit twin of `_pair_spectrum`: `optimal_probe_separable` and
    `optimal_probe_ncopies` both read it, so the probes of one pair form
    the eigenbasis once.  Like `_pair`, it holds only the last pair, keyed
    on the two `Gate` objects by identity; the vectors are tuples of Python
    scalars, so no caller can change them.
    """
    return _su2_folded_eigenbasis(*_pair(u1, u2)[1][1:])


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
    return min(minimal_covering_arc(_pair_spectrum(u1, u2)[0]).delta, _HALF_PI)


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
    cos^2(m distance) of at most (4 pi u m)^2.  Contracted in float64, the
    overlap `optimal_probe_ncopies` leaves at N is at most (c N u)^2, c <=
    10, from the error model of `probe_overlap`; an elimination round's
    `p_target` carries the same amplitude error of at most c N u.
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
    1e-10.  No gate acts on the ancilla, so its (T, T) Gram matrix is the
    same in every contraction: the constructor forms it once, read-only, in
    the private `_ancilla_gram` (None without an ancilla).  The probes the
    library builds itself (`_library_probe`) have no ancilla and keep the
    arrays they were built from, unchecked: their factors are unit and
    orthogonal, and their branch weights sum to 1, by construction, so the
    norm is 1 at every N (the test suite checks the factors and the norm).
    """

    coeffs: np.ndarray
    system: np.ndarray
    ancilla: np.ndarray | None = None
    counts: np.ndarray | None = None
    _ancilla_gram: np.ndarray | None = field(init=False, repr=False, default=None)

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
            if ancilla is not None:
                gram = _freeze(_factor_gram(ancilla, ancilla, None))
                object.__setattr__(self, "_ancilla_gram", gram)
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
                acc = np.multiply.outer(acc, f).reshape(-1)  # np.kron's products
            out += acc
        return out


def _library_probe(coeffs: np.ndarray, system: np.ndarray, counts: np.ndarray) -> ProbeState:
    """A separable `ProbeState` of arrays the library has just made and never touches again.

    The arrays are made read-only in place and set without `__post_init__`:
    no copy, no shape check and no norm contraction.  Callers pass `coeffs`
    as complex128 and `counts` as int64, the dtypes the public constructor
    stores, and factors of unit norm.
    """
    for value in (coeffs, system, counts):
        value.setflags(write=False)
    probe = object.__new__(ProbeState)
    probe.__dict__.update(coeffs=coeffs, system=system, ancilla=None, counts=counts)
    return probe


def _factor_gram(x: np.ndarray, y: np.ndarray, counts: np.ndarray | None) -> np.ndarray:
    """(Tx, Ty) matrix of prod_j <x[s, j]|y[t, j]>**counts[j] for factor stacks (T, K, d).

    Inner products are summed over d explicitly.  A column covering n copies
    enters as the n-th power of its inner product, so no array grows with
    n.  When no count exceeds 1 (counts None: every column is one copy) the
    power is skipped, and a single column is taken as it is, without a
    product over columns: both would return their input unchanged, so
    single-use overlaps keep their bits either way.
    """
    xc = x.conj()
    g = xc[:, None, :, 0] * y[None, :, :, 0]
    for i in range(1, x.shape[2]):
        g += xc[:, None, :, i] * y[None, :, :, i]
    if counts is not None and max(counts.tolist()) > 1:
        g = g**counts
    return g[:, :, 0] if g.shape[2] == 1 else g.prod(axis=2)


def _probe_amplitude(probe: ProbeState, op: np.ndarray | None) -> complex:
    """<p| op^(x)copies (x) 1 |p> for a probe p (op None: identity).

    The Gram matrices of every system column come from one batched
    contraction, raised to the column counts where a count exceeds 1 and
    multiplied across columns (`_factor_gram`); the ancilla's Gram, which
    no gate changes, is the one the constructor stored.  The coefficients
    then close the sum over term pairs.
    """
    right = probe.system if op is None else probe.system @ op.T
    gram = _factor_gram(probe.system, right, probe.counts)
    if probe.ancilla is not None:
        gram = gram * probe._ancilla_gram
    return complex(probe.coeffs.conj() @ gram @ probe.coeffs)


def probe_overlap(u1: Gate, u2: Gate, probe: ProbeState, n: int) -> float:
    """Branch overlap |<psi| (U1^dag U2)^(x)n (x) 1 |psi>|^2 for a probe psi.

    This is the quantity whose vanishing makes the two gate hypotheses
    perfectly distinguishable with n parallel uses.

    Error model: the amplitude <psi| (U1^dag U2)^(x)n (x) 1 |psi> carries a
    relative error of at most c n u (u = 2**-53), since every copy's factor
    enters with an error of a few u: the stored gates are unitary only to
    rounding (`Gate`), and each column's inner product is rounded once
    before its count-th power.  On 200 seeded N-copy pairs at delta = 1e-4
    ... 1e-8 (N = 15 708 ... 1.6e8) c read 7.0 / 9.0 / 8.0 / 7.5 / 8.0, and
    the tests assert c <= 10.  An overlap that is 0 in exact arithmetic
    therefore reads up to (c n u)^2: about 2e-14 at N = 1.6e8, above 1e-16
    once N passes about 1e7.  This is a float64 limit of the stored gates:
    a 60-digit evaluation of the same stored gates reads about the same.
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
    carry the gauge of `numkit._eig_unitary` (largest entry real positive).
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


# The one term and the one copy of every single-use separable probe.
_ONE_COEFF = _freeze([1.0])
_ONE_COUNT = _freeze([1], np.int64)


def optimal_probe_separable(u1: Gate, u2: Gate) -> ProbeState:
    """Equal superposition of the two extremal eigenvectors of U1^dag U2.

    The single-copy probe (|v_a> + |v_b>)/sqrt(2), built from the
    eigenvectors at the two ends of the minimal covering arc, retains
    overlap cos^2(delta) and needs no ancilla.  For qubit gates delta <=
    pi/2 always, so this separable probe already achieves the optimal
    fidelity; its two eigenvectors come from the closed form of
    `_su2_folded_eigenbasis`, other dimensions diagonalize U1^dag U2.  Either
    way v_a and v_b are orthonormal, so the factor is unit.  Gates of
    dimension 1 have a single eigenvector and no probe: DimensionError.
    """
    _check_pair(u1, u2)
    if u1.dim < 2:
        raise DimensionError(f"a probe needs dimension >= 2, got {u1.dim}")
    if u1.dim == 2:
        v_a, v_b = np.array(_pair_eigenbasis(u1, u2))
    else:
        phases, vectors = _pair_spectrum(u1, u2)
        arc = minimal_covering_arc(phases)
        diffs = np.abs(numkit._principal(phases - arc.extremes[0]))
        idx_a = int(np.argmin(diffs))
        diffs_b = np.abs(numkit._principal(phases - arc.extremes[1]))
        diffs_b[idx_a] = np.inf
        idx_b = int(np.argmin(diffs_b))
        v_a, v_b = vectors[:, idx_a], vectors[:, idx_b]
    psi = (v_a + v_b) / math.sqrt(2.0)
    return _library_probe(_ONE_COEFF, psi[None, None, :], _ONE_COUNT)



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
    grow with N.  delta is read from `_pair` and (w+, w-) from
    `_pair_eigenbasis`; `_ncopies_terms` describes the state from them and
    N, and `_ncopies_probe` builds it (`_library_probe`).
    The tests check that the residual overlap stays within 1e-8, each branch
    weight within [0, 1/2], and the factors and the norm within rounding.
    In float64 the residual overlap at N is not 0 but at most (c N u)^2,
    u = 2**-53, from a relative amplitude error of at most c N u, c <= 10
    (the error model of `probe_overlap`): about 2e-14 at delta = 1e-8.
    """
    _check_pair(u1, u2, dim=2)
    delta = float(_pair(u1, u2)[1][0])  # a numpy scalar would make every step a numpy call
    return _ncopies_probe(
        _ncopies_terms(delta, _pair_eigenbasis(u1, u2), _copies_for_distance(delta)))


def _ncopies_terms(delta: float, eigenbasis: tuple, n: int) -> tuple:
    """The one term description of `optimal_probe_ncopies`' probe, on Python scalars.

    `eigenbasis` is the pair (w+, w-) of `_su2_folded_eigenbasis`, delta a
    Python float and n = `_copies_for_distance(delta)`:
    `optimal_probe_ncopies` reads them from the pair memos, and
    `protocol.EliminationTest` forms them from the frame it keeps.  Returns
    (eigenbasis, terms, counts): counts = (ceil(N/2), floor(N/2)) are the
    copies of the two columns, and each term is (coefficient, choices), its
    coefficient the square root of its branch weight and its choices the
    index into (w+, w-) that it picks on each column.  The q clamp and the
    `_WEIGHT_DUST` rule are applied here, once, for both readers:
    `_ncopies_probe` builds the arrays and `_ncopies_amplitude` contracts the
    terms as they are.  w+ and w- are unit and orthogonal, and the branch
    weights sum to 1, by construction.
    """
    parity = n % 2
    c_par, c_n = math.cos(parity * delta), math.cos(n * delta)
    q = 0.0 if n == 1 else c_par / (2.0 * (c_par - c_n))
    q = min(max(q, 0.0), 0.5)  # at N delta = pi/2, rounding puts q a few ulps past 1/2
    terms = ()
    if q > 0.0:
        c = math.sqrt(q)
        terms = ((c, (0, 0)), (c, (1, 1)))
    rem = 0.5 - q if parity == 1 else 1.0 - 2.0 * q
    if rem > _WEIGHT_DUST:
        c = math.sqrt(rem)
        terms += ((c, (0, 1)), (c, (1, 0))) if parity == 1 else ((c, (0, 1)),)
    return eigenbasis, terms, ((n + 1) // 2, n // 2)


def _ncopies_probe(terms: tuple) -> ProbeState:
    """The `ProbeState` of an `_ncopies_terms` description (`_library_probe`).

    The column of no copies at N = 1 is left out, and `coeffs`, `system`
    and `counts` are each formed by one `np.array` call.
    """
    basis, terms, counts = terms
    columns = 2 if counts[1] else 1
    return _library_probe(
        np.array([coeff for coeff, _ in terms], complex),
        np.array([[basis[a], basis[b]][:columns] for _, (a, b) in terms], complex),
        np.array(counts[:columns], np.int64),
    )


def _ncopies_amplitude(terms: tuple, rel: np.ndarray) -> complex:
    """<p| R^(x)N |p> for the probe p of an `_ncopies_terms` description, R = `rel` (2x2).

    The probe's N-copy contraction without its arrays: with M = W^dag R W,
    W = (w+ w-), four inner products, a term pair (s, t) contributes
    c_s c_t M[s0][t0]^ceil(N/2) M[s1][t1]^floor(N/2), and the at most 16
    pairs are summed.  Everything after `rel.tolist()` runs on Python
    scalars, so no BLAS kernel takes part and the bits do not depend on one.
    Against `_probe_amplitude` of the same probe the amplitude carries the
    error model of `probe_overlap`, a relative error of at most c N u.
    """
    ((p0, p1), (m0, m1)), terms, (n0, n1) = terms
    (r00, r01), (r10, r11) = rel.tolist()
    rp0, rp1 = r00 * p0 + r01 * p1, r10 * p0 + r11 * p1  # R w+
    rm0, rm1 = r00 * m0 + r01 * m1, r10 * m0 + r11 * m1  # R w-
    p0, p1, m0, m1 = p0.conjugate(), p1.conjugate(), m0.conjugate(), m1.conjugate()
    pp, pm = p0 * rp0 + p1 * rp1, p0 * rm0 + p1 * rm1  # the rows of M
    mp, mm = m0 * rp0 + m1 * rp1, m0 * rm0 + m1 * rm1
    first = ((pp**n0, pm**n0), (mp**n0, mm**n0))
    last = ((pp**n1, pm**n1), (mp**n1, mm**n1))
    amp = 0j
    for c_s, (s0, s1) in terms:
        row0, row1 = first[s0], last[s1]
        for c_t, (t0, t1) in terms:
            amp += c_s * c_t * row0[t0] * row1[t1]
    return amp


# ---------------------------------------------------------------------------
# Brute-force oracle


def _affine_min_weights(pts: list) -> list:
    """Affine weights of the point nearest 0 on the affine hull of 1-3 unit
    vectors, given as (x, y) pairs of floats."""
    if len(pts) < 3:  # the hull of equal-norm points comes nearest at their mean
        return [1.0 / len(pts)] * len(pts)
    # three points span the plane: barycentric coordinates of the origin
    (x0, y0), (x1, y1), (x2, y2) = pts
    c = (x1 * y2 - y1 * x2, x2 * y0 - y2 * x0, x0 * y1 - y0 * x1)
    total = c[0] + (c[1] + c[2])
    return [ck / total for ck in c]


def _wolfe_min_norm(phases: np.ndarray) -> tuple[float, float, int]:
    """Certified min over the simplex of |sum_k w_k exp(i phi_k)|^2.

    Wolfe's min-norm-point algorithm (Math. Programming 11, 1976) on the
    points z_k = (cos phi_k, sin phi_k), whose corral holds at most three
    points in the plane, stopped once |x|^2 - min_k <x, z_k> <= _WOLFE_GAP_TOL
    or once the corral holds three points.  Returns (upper, lower,
    iterations): upper = |x|^2 for the primal point x, lower = max(0,
    min_k <x/|x|, z_k>)^2 (0 when x = 0), which no hull point undercuts.
    Three corral points are kept only with positive affine weights for the
    origin, so the origin is in their hull and lower = 0; the rounded x may
    still leave a gap above the tolerance, and a fourth point would not fit
    the plane.
    Raises ConvergenceError past _WOLFE_MAX_ITER iterations.
    The points are Python float pairs, and <x, z_k> = c_k x0 + s_k x1 is
    taken in Python: the same IEEE multiply, multiply and add per point as
    numpy's, the first minimum the one `np.argmin` picks, so the result is
    numpy's to the bit: ~3x faster at 2 phases and ~1.1x at 16, a qubit
    power's count at n = 4; slower past ~20 phases (0.4 against 0.04 ms at
    1024), where the eigenvalue call takes ~0.5 s.
    """
    points = list(zip(np.cos(phases).tolist(), np.sin(phases).tolist()))
    corral, w = [points[0]], [1.0]
    for iteration in range(1, _WOLFE_MAX_ITER + 1):
        x0 = x1 = 0.0
        for wk, (c, s) in zip(w, corral):
            x0, x1 = x0 + wk * c, x1 + wk * s
        upper = x0 * x0 + x1 * x1
        if len(corral) == 3:
            return upper, 0.0, iteration
        dots = [c * x0 + s * x1 for c, s in points]
        j = min(range(len(dots)), key=dots.__getitem__)
        gap = upper - dots[j]
        if gap <= _WOLFE_GAP_TOL:
            lower = max(0.0, dots[j]) ** 2 / upper if upper > 0.0 else 0.0
            return upper, lower, iteration
        corral, w = corral + [points[j]], w + [0.0]
        while min(v := _affine_min_weights(corral)) <= 0.0:
            # Step from w towards v until a weight reaches 0; drop that point.
            neg = [i for i, vi in enumerate(v) if vi <= 0.0]
            ratios = [w[i] / (w[i] - v[i]) for i in neg]
            step = min(ratios)
            w = [wi + step * (vi - wi) for wi, vi in zip(w, v)]
            w[neg[ratios.index(step)]] = 0.0
            keep = [i for i, wi in enumerate(w) if wi > 0.0]
            corral, w = [corral[i] for i in keep], [w[i] for i in keep]
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
    raises ConvergenceError if that gap stays open.  The full tensor power's
    eigenvalues are computed (`numkit._unitary_phases`, one LAPACK call with
    no eigenvectors): single-copy phases are never added up, and no phases
    are sorted into a covering arc.  The power is formed here from an
    accepted pair, unitary to rounding, and is not checked again.  At n = 1
    a pair with d != 2 reads the spectrum `gate_distance` forms
    (`_pair_spectrum`) instead.
    Powers above `_ORACLE_MAX_DIM` are refused with SizeLimitError before
    any is formed; an `n` that is not an integer >= 1 raises
    ValidationError.
    """
    _check_pair(u1, u2)
    numkit._check_int(n, "copy count", 1)
    numkit._check_size(u1.dim, n, _ORACLE_MAX_DIM, "oracle dimension")
    if n == 1 and u1.dim != 2:
        phases = _pair_spectrum(u1, u2)[0]
    else:
        big = numkit.tensor_power(_pair(u1, u2)[0], n)
        phases = numkit._unitary_phases(big)
    upper, _, _ = _wolfe_min_norm(phases)
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
