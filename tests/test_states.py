import math

import numpy as np
import pytest

from gatediscrim import (
    ValidationError,
    as_density,
    as_state_vector,
    classical_fidelity,
    mixed_fidelity,
    pure_fidelity,
)
from helpers import haar_unitary, rand_density, rand_povm, rand_state


def test_as_density_validation():
    assert np.allclose(as_density(np.eye(2) / 2), np.eye(2) / 2)
    with pytest.raises(ValidationError):
        as_density(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        as_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        as_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_as_state_vector_validation():
    v = as_state_vector([1.0, 0.0])
    assert np.allclose(v, [1, 0])
    with pytest.raises(ValidationError):
        as_state_vector([1.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
def test_non_finite_entries_are_refused(bad):
    # NaN passes every comparison-based check; inf warns inside them
    rho = np.diag([bad, 0.5])
    with pytest.raises(ValidationError, match="non-finite"):
        as_density(rho)
    with pytest.raises(ValidationError, match="non-finite"):
        as_state_vector([bad, 0.0])
    with pytest.raises(ValidationError, match="non-finite"):
        mixed_fidelity(rho, np.eye(2) / 2)


def test_pure_fidelity_basics():
    e0, e1 = np.eye(2)
    assert pure_fidelity(e0, e0) == 1.0
    assert pure_fidelity(e0, e1) == 0.0
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs(pure_fidelity(e0, plus) - 0.5) <= 1e-12


def test_mixed_fidelity_reduces_to_pure():
    rng = np.random.default_rng(31)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        a, b = rand_state(dim, rng), rand_state(dim, rng)
        f_pure = pure_fidelity(a, b)
        f_mixed = mixed_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert abs(f_pure - f_mixed) <= 1e-10


def test_mixed_fidelity_known_value():
    # maximally mixed qubit vs a pure state: F = <0|(1/2)|0> = 1/2
    f = mixed_fidelity(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert abs(f - 0.5) <= 1e-12


def test_mixed_fidelity_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(41)
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        r1, r2 = rand_density(dim, rng), rand_density(dim, rng)
        f = mixed_fidelity(r1, r2)
        assert abs(f - mixed_fidelity(r2, r1)) <= 1e-9
        u = haar_unitary(dim, rng)
        fu = mixed_fidelity(u @ r1 @ u.conj().T, u @ r2 @ u.conj().T)
        assert abs(f - fu) <= 1e-9
        assert 0.0 <= f <= 1.0 + 1e-12


def test_measurement_cannot_beat_state_fidelity():
    # any POVM's outcome distributions are at least as hard to distinguish
    # as the underlying states
    rng = np.random.default_rng(51)
    for _ in range(60):
        dim = int(rng.integers(2, 4))
        r1, r2 = rand_density(dim, rng), rand_density(dim, rng)
        m = rand_povm(dim, int(rng.integers(2, 6)), rng)
        p1, p2 = (np.clip([np.trace(e @ r).real for e in m], 0.0, None) for r in (r1, r2))
        fc = classical_fidelity(p1 / p1.sum(), p2 / p2.sum())
        assert fc >= mixed_fidelity(r1, r2) - 1e-9
