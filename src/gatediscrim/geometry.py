"""Riemannian geometry of the qubit gate manifold and Haar averages.

The local squared line element induced by gate distinguishability is, up to
normalization, the round metric of a three-sphere; the angle coordinates of
`GateSU2Params` realize it as dt1^2 + cos^2(t1) dt2^2 + sin^2(t1) dt3^2,
which fixes the invariant (Haar) density sin(2 t1) / (4 pi^2).
"""
from __future__ import annotations

import math
import warnings
from collections import abc
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import Gate, GateSU2Params, _check_pair, _pair, gate_fidelity_su2, su2_from_params
from .numkit import _check_draw, _check_int, _rng


@dataclass(frozen=True)
class TangentIncrement:
    """Coordinate increments (dtheta1, dtheta2, dtheta3) at a parameter point."""

    dtheta1: float
    dtheta2: float
    dtheta3: float


@dataclass(frozen=True)
class SphereCoords:
    """Embedding of a qubit special unitary as a point on the unit 3-sphere.

    Components are (Re a, Im a, Re b, Im b) for the top matrix row (a, b);
    unitarity plus det 1 force the bottom row, so the four reals carry the
    whole gate and satisfy a1^2 + a2^2 + b1^2 + b2^2 = 1.
    """

    a_re: float
    a_im: float
    b_re: float
    b_im: float

    def __post_init__(self):
        norm2 = self.a_re**2 + self.a_im**2 + self.b_re**2 + self.b_im**2
        if not abs(norm2 - 1.0) <= 1e-12:  # NaN fails too
            raise ValidationError(f"sphere coordinates have norm^2 {norm2!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a_re, self.a_im, self.b_re, self.b_im])


# Relative anti-Hermitian residual above which metric_form_matrix warns.
_TANGENT_SOFT_TOL = 1e-6
# Samples overlap_samples evaluates at a time, on both paths, so a block's
# temporaries stay small next to the draw.  In loops of 2e4-sample
# calls at d = 2, 3 and 8, and in a loop mixing oracle, Monte-Carlo and Haar
# calls over d = 2..32, blocks of 1024 to 4096 fault no pages in, and 4096 is
# the fastest for d = 2 (~0.46 ms a qubit call); at 8192 and above both the
# mixed and a qubit-only loop faulted ~2700 pages in per pass of 18 qubit
# calls, as glibc handed the heap top back after each call.
_MC_BLOCK = 4096
# Column multiple the qubit kernel pads each block's product to, so that
# BLAS's blocking, and with it a sample's bits, do not depend on the block.
_QUBIT_PAD = 16


def metric_form_matrix(u: Gate, du) -> float:
    """Squared line element (1/4)(2 tr(dU dU^dag) - |tr(U^dag dU)|^2).

    `du` should be (close to) a tangent matrix, i.e. U^dag dU
    anti-Hermitian; a Hermitian residual above `_TANGENT_SOFT_TOL` (relative
    to the largest entry of dU, at least 1) only triggers a warning since
    finite-difference increments violate it at second order.  A `du` with a
    NaN or infinite entry raises ValidationError.
    """
    if not isinstance(u, Gate) or u.dim != 2:
        raise DimensionError("metric_form_matrix expects a 2x2 Gate")
    dm = np.asarray(du, dtype=complex)
    if dm.shape != (2, 2):
        raise DimensionError(f"tangent matrix must be 2x2, got {dm.shape}")
    if not np.isfinite(dm).all():
        raise ValidationError("tangent matrix entries must be finite")
    rel = u.matrix.conj().T @ dm
    herm_residual = np.abs(rel + rel.conj().T).max()
    scale = max(1.0, float(np.abs(dm).max()))
    if herm_residual > _TANGENT_SOFT_TOL * scale:
        warnings.warn(
            f"increment is far from tangent: anti-Hermitian residual {herm_residual:.3e}",
            stacklevel=2,
        )
    val = 0.5 * float(np.trace(dm @ dm.conj().T).real) - 0.25 * abs(np.trace(rel)) ** 2
    return max(0.0, val)


def metric_form_coords(params: GateSU2Params, t: TangentIncrement) -> float:
    """Same line element in angle coordinates: dt1^2 + cos^2 t1 dt2^2 + sin^2 t1 dt3^2."""
    c, s = math.cos(params.theta1), math.sin(params.theta1)
    return t.dtheta1**2 + (c * t.dtheta2) ** 2 + (s * t.dtheta3) ** 2


def su2_tangent(params: GateSU2Params, t: TangentIncrement) -> np.ndarray:
    """Exact directional derivative of the parameterized gate along t."""
    c, s = math.cos(params.theta1), math.sin(params.theta1)
    e2, e3 = np.exp(1j * params.theta2), np.exp(1j * params.theta3)
    d1 = np.array([[-s * e2, c * e3], [-c / e3, -s / e2]])
    d2 = np.array([[1j * c * e2, 0.0], [0.0, -1j * c / e2]])
    d3 = np.array([[0.0, 1j * s * e3], [1j * s / e3, 0.0]])
    return t.dtheta1 * d1 + t.dtheta2 * d2 + t.dtheta3 * d3


def sphere_embed(u: Gate) -> SphereCoords:
    """Top-row coordinates of a qubit gate with |det - 1| <= 1e-8 on the unit 3-sphere.

    A gate is unitary to rounding (`Gate`), so its top row (a, b) is a unit vector.
    """
    if not isinstance(u, Gate) or u.dim != 2:
        raise DimensionError("sphere_embed expects a 2x2 Gate")
    if abs(np.linalg.det(u.matrix) - 1.0) > 1e-8:
        raise ValidationError("sphere_embed requires a special-unitary gate")
    a, b = complex(u.matrix[0, 0]), complex(u.matrix[0, 1])
    return SphereCoords(a_re=a.real, a_im=a.imag, b_re=b.real, b_im=b.imag)


@dataclass(frozen=True, eq=False)
class SU2ParamSample(abc.Sequence):
    """Qubit gate parameter draws held as three read-only angle arrays.

    Indexing or iterating yields `GateSU2Params`, so the sample reads like a
    list of them; vectorized consumers read `theta1`, `theta2`, `theta3`.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray

    def __len__(self) -> int:
        return self.theta1.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return GateSU2Params(float(self.theta1[i]), float(self.theta2[i]), float(self.theta3[i]))


def haar_sample_su2(seed: int, n: int) -> SU2ParamSample:
    """n invariant-measure draws of qubit gate parameters.

    theta1 = arcsin(sqrt(u)) realizes the marginal density sin(2 theta1) on
    [0, pi/2] by inverse transform; the two phases are uniform.  A seed that
    is not an integer >= 0, or a count that is not an integer >= 1, raises
    ValidationError; a count whose 3 n draws exceed `numkit.MAX_DRAW_VALUES`
    raises SizeLimitError before anything is drawn.
    """
    _check_int(n, "sample count", 1)
    _check_draw(3 * int(n), f"sample count {n}")
    # one draw of 3 n uniforms, the stream of random(n) and two uniform(0, 2 pi, n)
    # calls, which return 0 + 2 pi r: the same bits
    t = _rng(seed).random((3, int(n)))
    np.arcsin(np.sqrt(t[0], out=t[0]), out=t[0])
    t[1:] *= 2.0 * math.pi
    # in range by construction: random() < 1, and 2 pi r rounds below 2 pi for every r < 1
    t.setflags(write=False)
    return SU2ParamSample(t[0], t[1], t[2])


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean, its standard error, and the sample count behind them."""

    estimate: float
    stderr: float
    samples: int

    @classmethod
    def from_samples(cls, vals: np.ndarray) -> "MonteCarloEstimate":
        """Mean and standard error of a 1-D array of at least two samples."""
        n = vals.size
        if n < 2:
            raise ValidationError(f"a standard error needs at least 2 samples, got {n}")
        mean = vals.mean()
        # vals.std(ddof=1) to the bit, without forming the mean a second time
        dev = vals - mean
        np.multiply(dev, dev, out=dev)
        err = float(np.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n))
        return cls(estimate=float(mean), stderr=err, samples=n)


def _qubit_overlaps(rel: np.ndarray):
    """The d = 2 block kernel: elementwise arithmetic on two uniforms, then one real product.

    The state z = (sqrt(u), sqrt(1 - u) e^{i phi}) with phi = 2 pi (v - 1/2)
    gives z^dag R z = R11 + (R00 - R11) u + sqrt(u (1 - u)) ((R01 + R10) cos phi
    + i (R01 - R10) sin phi).  With t = tan(phi / 2) and h = sqrt(u (1 - u)) /
    (1 + t^2), sqrt(u (1 - u)) cos phi = h (2 - (1 + t^2)) and sqrt(u (1 - u))
    sin phi = 2 t h, so the block takes one tan and no sin, cos or complex exp.
    The rows 1, u, sqrt(u (1 - u)) cos phi and sqrt(u (1 - u)) sin phi / 2 are
    written into one (4, b') array, b' the block length b rounded up to a
    multiple of `_QUBIT_PAD` with zero columns, and one real (2, 4) @ (4, b')
    product with R's four coefficients gives the real and imaginary parts.
    BLAS's last bits depend on where a column falls within the kernel's
    blocking; padded to 16 columns a sample's bits do not depend on the block
    under any OpenBLAS kernel tried (Haswell, Zen, SkylakeX, Sandybridge,
    Nehalem, Prescott), unpadded they moved under Nehalem.
    """
    (r00, r01), (r10, r11) = rel.tolist()
    cols = (r11, r00 - r11, r01 + r10, 2j * (r01 - r10))
    coef = np.array([[z.real for z in cols], [z.imag for z in cols]])

    def kernel(xb, out):
        u, v = xb
        b = u.size
        rows = np.empty((4, -(-b // _QUBIT_PAD) * _QUBIT_PAD))
        rows[:, b:] = 0.0  # pad columns: garbage squared could overflow
        rows[0, :b] = 1.0
        rows[1, :b] = u
        w, t = rows[2, :b], rows[3, :b]
        np.subtract(v, 0.5, out=t)
        t *= math.pi
        np.tan(t, out=t)  # tan(phi / 2)
        np.multiply(t, t, out=w)
        w += 1.0
        h = 1.0 - u
        h *= u
        np.sqrt(h, out=h)
        h /= w
        np.subtract(2.0, w, out=w)
        w *= h  # sqrt(u (1 - u)) cos phi
        t *= h  # sqrt(u (1 - u)) sin phi / 2
        amp = coef @ rows
        amp *= amp
        np.add(amp[0, :b], amp[1, :b], out=out)

    return kernel


def _complex_overlaps(rel: np.ndarray):
    """The block kernel of any other d: z R^T and two contractions, all in einsum.

    einsum's own loops, not BLAS: zgemm's `z @ R^T` moved samples by up to
    7.8e-16 with the block under OpenBLAS's Haswell kernel, einsum's sums
    take each row alone.
    """

    def kernel(xb, out):
        z = np.empty(xb.shape[1:], dtype=complex)
        z.real, z.imag = xb
        amp = np.einsum("si,si->s", z.conj(), np.einsum("si,ji->sj", z, rel))
        zv = z.view(float)
        norm2 = np.einsum("si,si->s", zv, zv)
        np.divide(amp.real ** 2 + amp.imag ** 2, norm2 * norm2, out=out)

    return kernel


def overlap_samples(u1: Gate, u2: Gate, samples: int, seed: int) -> np.ndarray:
    """Draw |<psi|U1^dag U2|psi>|^2 over uniform pure states.

    With R = U1^dag U2 read through `gates._pair` (the R the other functions
    of the same pair read), samples are evaluated in blocks of `_MC_BLOCK`,
    so the temporaries stay small next to the draw, and a sample does not
    depend on the block size, nor on the OpenBLAS kernel: a tail, one
    sample included, is a block like any other.  A qubit state takes two
    uniforms, drawn in one call of shape (2, samples): z = (sqrt(u),
    sqrt(1 - u) e^{i phi}) with u = x[0] and phi = 2 pi (x[1] - 1/2), unit
    by construction, and each sample is |z^dag R z|^2 from real elementwise
    arithmetic and one padded real matrix product (`_qubit_overlaps`).  Its
    coefficients are read from R's four entries, not from the `_su2_frame`
    that criterion 5's closed form reads, so the sampler stays an
    independent check of that form.  Any other d draws complex Gaussian
    vectors z = x[0] + i x[1], the unitarily invariant ensemble in any
    dimension, in one call of shape (2, samples, d), the same values in
    the same order as a draw of the real parts followed by one of the
    imaginary parts; z is never normalized: each sample is |z^dag R z|^2 /
    |z|^4, contracted in einsum's own loops (`_complex_overlaps`).
    A sample count that is not an integer >= 1, or a seed that is not an
    integer >= 0, raises ValidationError; a count whose draw (2 values per
    qubit sample, 2 d normals otherwise) exceeds `numkit.MAX_DRAW_VALUES`
    raises SizeLimitError before anything is drawn.
    """
    _check_pair(u1, u2)
    _check_int(samples, "sample count", 1)
    qubit = u1.dim == 2
    shape = (2, int(samples)) if qubit else (2, int(samples), u1.dim)
    _check_draw(math.prod(shape), f"sample count {samples}")
    rel = _pair(u1, u2)[0]
    rng = _rng(seed)
    if qubit:
        kernel, x = _qubit_overlaps(rel), rng.random(shape)
    else:
        kernel, x = _complex_overlaps(rel), rng.standard_normal(shape)
    out = np.empty(samples)
    block = _MC_BLOCK
    for start in range(0, samples, block):
        kernel(x[:, start:start + block], out[start:start + block])
    return out


def avg_fidelity_mc(u1: Gate, u2: Gate, samples: int, seed: int) -> MonteCarloEstimate:
    """Monte-Carlo average of |<psi|U1^dag U2|psi>|^2 over uniform pure states."""
    return MonteCarloEstimate.from_samples(overlap_samples(u1, u2, samples, seed))


def avg_fidelity_su2_closed(u1: Gate, u2: Gate) -> float:
    """Closed-form uniform-state average for qubit gates: 1/3 + (2/3) F."""
    return 1.0 / 3.0 + 2.0 / 3.0 * gate_fidelity_su2(u1, u2)
