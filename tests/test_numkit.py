import dataclasses
import functools
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatediscrim import (
    ConvergenceError,
    DimensionError,
    SizeLimitError,
    ValidationError,
    numkit,
    tensor_power,
)
import gatediscrim as gd
from gatediscrim.numkit import _eig_unitary
from helpers import gram_defect, haar_unitary, partial_trace_b, rand_state, reconstruct


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # an infinite tolerance would accept any square matrix as unitary; the
    # shape is checked first
    with pytest.raises(ValidationError, match="tolerance"):
        gd.Gate(np.ones((2, 2)), tol=tol)
    with pytest.raises(DimensionError, match="square"):
        gd.Gate(np.ones((2, 3)), tol=tol)
    assert np.array_equal(gd.Gate(np.eye(2), tol=0.0).matrix, np.eye(2))
    assert np.array_equal(_eig_unitary(np.eye(2))[0], [0.0, 0.0])


def test_empty_matrices_are_refused():
    # a 0 x 0 matrix used to end in numpy's bare ValueError (the maximum of an
    # empty Gram defect) or, through tensor_power, in an empty power
    empty = np.zeros((0, 0))
    for call in (lambda: gd.Gate(empty), lambda: gd.Gate.identity(0),
                 lambda: tensor_power(empty, 2)):
        with pytest.raises(DimensionError, match="dimension >= 1"):
            call()


def householder_to_e0(d: int) -> np.ndarray:
    """The real reflector V with V f = e0, f the unit all-ones vector."""
    w = np.ones(d) / np.sqrt(d) - np.eye(d)[0]
    return np.eye(d) - 2.0 * np.outer(w, w) / (w @ w)


@pytest.mark.parametrize("dim", [3, 8, 32])
def test_eig_unitary_diagonalizes_the_polar_factor_of_a_non_normal_matrix(dim):
    # U = W V (1 + a J / d) has U^dag U - 1 = (2a + a^2) J / d, largest entry
    # 0.99 tol, but U U^dag - 1 = (2a + a^2) W e0 e0^dag W^dag, up to d times
    # larger: the residual of U's own eigenvectors used to exceed tol (exit 3)
    rng = np.random.default_rng(5)
    for tol in (1e-8, 1e-6, 1e-3):
        a = np.sqrt(1.0 + 0.99 * dim * tol) - 1.0
        for _ in range(4):
            q = haar_unitary(dim, rng) @ householder_to_e0(dim)  # U's polar factor
            phases, vectors = _eig_unitary(
                gd.Gate(q @ (np.eye(dim) + a * np.ones((dim, dim)) / dim), tol).matrix)
            # residuals on Q measured up to 4.5e-12, at d = 32
            assert np.abs(q @ vectors - vectors * np.exp(1j * phases)).max() <= 1e-11
            assert np.abs(phases - np.sort(np.angle(np.linalg.eigvals(q)))).max() <= 1e-14


def test_eig_unitary_separates_close_and_colliding_phases():
    # with one mixing weight gamma, H1 + gamma H2 has eigenvalues R cos(a - t0),
    # t0 = atan(gamma): phases t0 + t and t0 - t - dt collide there, which a
    # cluster gap of 1e-8 missed; and phases near +/-pi/2 split by 1e-10 ..
    # 1e-7 barely move the sine part that used to split a cluster, leaving
    # residuals up to 2.9e-9 at the default tol even with six weights
    rng = np.random.default_rng(0)
    t0 = np.arctan(numkit._MIX_WEIGHT)
    spectra = [[c, c + split, 0.3, -2.0] for c in (np.pi / 2, -np.pi / 2, t0)
               for split in (1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 1e-10)]
    spectra += [[t0 + t, t0 - t - dt, 0.3, -2.0] for t in (0.1, 0.7, 1.5, np.pi / 2, 2.5, 3.1)
                for dt in (0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4)]
    for phases in spectra:
        for _ in range(3):
            v = haar_unitary(4, rng)
            u = (v * np.exp(1j * np.array(phases))) @ v.conj().T
            got, vectors = _eig_unitary(u)
            assert np.abs(u @ vectors - vectors * np.exp(1j * got)).max() <= 1e-11
            assert np.abs(got - np.sort(numkit._principal(phases))).max() <= 1e-14


def counted_gram_defects(monkeypatch) -> list:
    """Record each Gram defect `numkit._unitary_factor` forms: the input's, then one a step."""
    defects, original = [], numkit._gram_defect

    def counted(m):
        out = original(m)
        defects.append(out[1])
        return out

    monkeypatch.setattr(numkit, "_gram_defect", counted)
    return defects


@pytest.mark.parametrize("dim", [2, 3, 8, 32])
def test_newton_schulz_reaches_rounding_within_six_steps_at_the_bound(dim, monkeypatch):
    # ||M^dag M - 1||_F = 1/2 on one singular value s^2 = 1/2, the slowest case:
    # e = 1 - s^2 goes 0.5, 0.22, 0.042, 1.5e-3, 2.1e-6, 3.7e-12, then rounding
    rng = np.random.default_rng(dim)
    w = haar_unitary(dim, rng)
    scale = np.ones(dim)
    scale[0] = np.sqrt(0.5)
    m = w * scale
    assert 0.5 - 1e-15 <= np.linalg.norm(m.conj().T @ m - np.eye(dim)) <= 0.5
    defects = counted_gram_defects(monkeypatch)
    q = gd.Gate(m, tol=0.5).matrix
    assert len(defects) - 1 <= 6
    assert defects[-1] <= 16 * dim * 2.0**-53 < defects[-2]
    assert np.abs(q - w).max() <= 1e-14  # W diag(s) has polar factor W
    # just past the bound, or with every entry of M^dag M - 1 small but
    # ||M^dag M - 1||_F > 1/2, the matrix is refused before any step
    scale[0] = np.sqrt(0.5 - 1e-9)
    with pytest.raises(ValidationError, match="too far from unitary"):
        gd.Gate(w * scale, tol=1.0)
    near = w * np.sqrt(1.0 - 0.6 / np.sqrt(dim))  # ||.||_max = 0.6 / sqrt(d), ||.||_F = 0.6
    with pytest.raises(ValidationError, match="too far from unitary"):
        gd.Gate(near, tol=0.6)


def test_matrices_unitary_to_rounding_are_stored_byte_for_byte(monkeypatch):
    # a Gram defect at most 16 d u takes no step and no numpy call past the
    # Gram product and its largest entry; one above it is stepped to rounding
    rng = np.random.default_rng(8)
    defects = counted_gram_defects(monkeypatch)
    for dim in (1, 2, 3, 4, 8, 32):
        floor = 16 * dim * 2.0**-53
        for _ in range(20):
            m = haar_unitary(dim, rng)
            assert gram_defect(m) <= floor
            for kept in (m, m * (1.0 + 2.0**-53)):
                assert gd.Gate(kept).matrix.tobytes() == kept.tobytes()
            stepped = gd.Gate(m * (1.0 + 2 * floor)).matrix
            assert gram_defect(stepped) <= floor and np.abs(stepped - m).max() <= 4 * floor
    del defects[:]
    gd.Gate(np.eye(3))
    assert len(defects) == 1


def test_eig_unitary_diagonal_case():
    phases = np.array([-2.0, 0.3, 1.1])
    u = np.diag(np.exp(1j * phases))
    got, vectors = _eig_unitary(u)
    assert np.allclose(np.sort(got), np.sort(phases), atol=1e-12)
    # eigenvectors of a diagonal matrix are the basis vectors (up to order/phase)
    assert np.allclose(np.abs(vectors), np.eye(3)[:, np.argsort(phases)], atol=1e-12)


def test_eig_unitary_reconstruction_random():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 6):
        for _ in range(25):
            u = haar_unitary(dim, rng)
            phases, vectors = eig = _eig_unitary(u)
            assert np.abs(reconstruct(eig) - u).max() <= 1e-9
            # orthonormal eigenbasis
            g = vectors.conj().T @ vectors
            assert np.abs(g - np.eye(dim)).max() <= 1e-9
            # phases sorted, principal branch
            assert np.all(np.diff(phases) >= 0)
            assert np.all(phases > -np.pi - 1e-12)
            assert np.all(phases <= np.pi + 1e-12)


def test_eig_unitary_degenerate_spectra():
    rng = np.random.default_rng(5)
    cases = [
        np.eye(4),
        -np.eye(3),
        np.diag([1, 1, -1, -1]).astype(complex),
        np.kron(np.eye(2), haar_unitary(2, rng)),
    ]
    # repeated eigenphase hidden in a random basis
    v = haar_unitary(4, rng)
    cases.append((v * np.exp(1j * np.array([0.7, 0.7, 0.7, -1.2]))) @ v.conj().T)
    for u in cases:
        assert np.abs(reconstruct(_eig_unitary(u)) - u).max() <= 1e-9


def test_eig_unitary_output_is_read_only():
    phases, vectors = _eig_unitary(np.eye(2))
    with pytest.raises(ValueError):
        phases[0] = 1.0
    with pytest.raises(ValueError):
        vectors[0, 0] = 1.0


def test_eig_unitary_convergence_error_path(monkeypatch):
    # An honest non-convergence is hard to trigger; exercise the guard with a
    # Hermitian solver that returns the right eigenvalues in a wrong basis.
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0], np.eye(h.shape[0], dtype=complex)))
    with pytest.raises(ConvergenceError, match="residual"):
        _eig_unitary(haar_unitary(3, np.random.default_rng(0)))


def test_unitary_phases_match_eig_unitary_and_share_its_checks(monkeypatch):
    rng = np.random.default_rng(2)
    for dim in (1, 2, 3, 8, 32):
        u = haar_unitary(dim, rng)
        got = np.sort(numkit._unitary_phases(u))
        assert np.abs(got - _eig_unitary(u)[0]).max() <= 1e-13

    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(ConvergenceError, match="did not converge"):
        numkit._unitary_phases(np.eye(4))


def test_eig_unitary_mixing_weights_are_fixed_draws(monkeypatch):
    # the one weight is the first scalar draw of a generator seeded 0x1D5A3,
    # and no call builds one
    assert numkit._MIX_WEIGHT == np.random.default_rng(0x1D5A3).uniform(0.3, 1.7)
    u = haar_unitary(3, np.random.default_rng(1))

    def forbidden(*args, **kwargs):
        raise AssertionError("_eig_unitary built a generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    assert np.abs(reconstruct(_eig_unitary(u)) - u).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_eig_unitary_reconstruction_property(seed, dim):
    u = haar_unitary(dim, np.random.default_rng(seed))
    assert np.abs(reconstruct(_eig_unitary(u)) - u).max() <= 1e-9


def _phase_multiset_close(a, b, tol=1e-8):
    """Compare two phase multisets modulo 2*pi.

    Both are reduced to the principal branch and sorted; elements straddling
    the branch cut can shift the sorted order cyclically, so every cyclic
    alignment is tried.
    """
    a = np.sort(np.angle(np.exp(1j * np.asarray(a, dtype=float))))
    b = np.sort(np.angle(np.exp(1j * np.asarray(b, dtype=float))))
    if a.size != b.size:
        return False
    for k in range(a.size):
        diff = np.angle(np.exp(1j * (a - np.roll(b, k))))
        if np.abs(diff).max() <= tol:
            return True
    return False


def test_tensor_power_eigenphases_match_sums():
    rng = np.random.default_rng(23)
    for dim in (2, 3):
        for n in (2, 3, 4):
            if dim**n > 64:
                continue
            u = haar_unitary(dim, rng)
            base = _eig_unitary(u)[0]
            sums = base.copy()
            for _ in range(n - 1):
                sums = np.add.outer(sums, base).reshape(-1)
            big = tensor_power(u, n)
            got = _eig_unitary(big)[0]
            assert _phase_multiset_close(got, sums)
            # independent oracle: general eigensolver on the Kronecker power
            ref = np.angle(np.linalg.eigvals(big))
            assert _phase_multiset_close(got, ref)


def test_tensor_power_is_kron_to_the_byte():
    # Each step broadcasts the products np.kron forms, so the powers are
    # np.kron's byte for byte, unitary or not.  Up to the oracle's cap of
    # dimension 1024, the largest power the library itself forms; a
    # 4096 x 4096 complex power alone takes 256 MiB.
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for m in (haar_unitary(d, rng), general):
            n = 1
            while d**n <= gd.gates._ORACLE_MAX_DIM:
                ref = functools.reduce(np.kron, [m] * n)
                assert tensor_power(m, n).tobytes() == ref.tobytes(), (d, n)
                n += 1


def test_tensor_power_validation():
    u = np.eye(2)
    assert np.allclose(tensor_power(u, 1), u)
    with pytest.raises(ValidationError):
        tensor_power(u, 0)
    with pytest.raises(ValidationError, match="must be an integer"):
        tensor_power(u, 2.5)  # not a bare TypeError from range
    with pytest.raises(SizeLimitError):
        tensor_power(u, 13)  # 2^13 > 4096
    with pytest.raises(SizeLimitError, match=r"2\^1000000000000 exceeds the cap 4096"):
        tensor_power(u, 10**12)  # refused without forming 2^(10^12)


NON_FINITE_PAST_TOLERANCE = {  # each would pass a check written as `residual > tol`
    "probe-coeff-nan": lambda: gd.ProbeState(coeffs=[np.nan], system=[[[1.0, 0.0]]]),
    "probe-factor-inf": lambda: gd.ProbeState(coeffs=[1.0], system=[[[np.inf, 0.0]]]),
    "sphere-nan": lambda: gd.SphereCoords(np.nan, 0.0, 0.0, 0.0),
    "divergence-g1-nan": lambda: gd.relative_entropy(
        [0.5, 0.5], [0.25, 0.75], lambda t: np.nan if t == 1.0 else t - 1.0),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PAST_TOLERANCE))
def test_non_finite_residuals_fail_the_tolerance_checks(case):
    with pytest.raises(ValidationError):
        NON_FINITE_PAST_TOLERANCE[case]()

def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    a, b = rand_state(3, rng), rand_state(3, rng)
    rho = partial_trace_b(np.kron(a, b), dim_a=3)
    assert np.allclose(rho, np.outer(a, a.conj()), atol=1e-12)


def test_partial_trace_maximally_entangled():
    d = 4
    psi = np.eye(d).reshape(-1) / np.sqrt(d)
    rho = partial_trace_b(psi, dim_a=d)
    assert np.allclose(rho, np.eye(d) / d, atol=1e-12)


def test_partial_trace_properties_random():
    rng = np.random.default_rng(17)
    for da, db in [(2, 2), (2, 5), (4, 3)]:
        psi = rand_state(da * db, rng)
        rho = partial_trace_b(psi, dim_a=da)
        assert rho.shape == (da, da)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_partial_trace_validation():
    with pytest.raises(DimensionError):
        partial_trace_b(np.ones(6) / np.sqrt(6.0), dim_a=4)
    with pytest.raises(ValidationError):
        partial_trace_b(np.ones(4), dim_a=2)  # unnormalized


def test_fixed_settings_are_constants_not_parameters():
    # each of these reads a module constant at call time; only Gate takes a
    # tolerance (below)
    removed = {
        gd.tensor_power: "max_dim",
        gd.ProbeState.to_vector: "max_dim",
        gd.as_density: "tol",
        gd.as_state_vector: "tol",
        gd.as_prob_dist: "tol",
        gd.metric_form_matrix: "soft_tol",
    }
    for func, name in removed.items():
        assert name not in inspect.signature(func).parameters, func.__qualname__
    # dense references no library path uses live in the tests' helpers
    assert "partial_trace_b" not in gd.__all__
    assert not hasattr(gd, "partial_trace_b") and not hasattr(numkit, "partial_trace_b")
    # state-level functions nothing read are gone, and mixed_fidelity takes its own root
    for module, name in ((gd.states, "as_povm"), (gd.states, "povm_probabilities"),
                         (gd.states, "state_distance"), (gd.states, "fubini_study_form"),
                         (gd.classical, "ProbDist"), (numkit, "sqrt_psd")):
        assert name not in gd.__all__ and not hasattr(gd, name), name
        assert not hasattr(module, name), (module.__name__, name)
    for cls, member in ((gd.ProbeState, "system_density"), (gd.EliminationTest, "target"),
                        (gd.EliminationTest, "povm")):
        assert not hasattr(cls, member), (cls.__name__, member)
    assert [f.name for f in dataclasses.fields(gd.EliminationTest)] == [
        "pair", "copies", "_frame", "_p_target"]
    # the one unitarity check is Gate's; a pair's spectrum is private and unchecked
    for module, name in itertools.product((gd, numkit), ("validate_unitary", "eig_unitary",
                                                          "UnitaryEigen")):
        assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(gd.Gate, "tol") and not hasattr(gd.Gate(np.eye(2)), "_tol")
    # every exported function, class constructor and public method: a new
    # tolerance parameter anywhere but Gate(matrix, tol) fails here
    takes_tol = []
    for name in gd.__all__:
        obj = getattr(gd, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                       if attr == "__init__" or not attr.startswith("_")]
        else:
            members = [(name, obj)]
        for qualname, member in members:
            # a property's getter, a cached property's or a classmethod's function
            for wrapped in ("fget", "func", "__func__"):
                member = getattr(member, wrapped, member)
            if inspect.isfunction(member):
                takes_tol += [(qualname, p) for p in inspect.signature(member).parameters
                              if "tol" in p]
    assert takes_tol == [("Gate.__init__", "tol")]
