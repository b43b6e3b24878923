import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatediscrim import (
    DimensionError,
    Gate,
    GateSU2Params,
    HypothesisSet,
    IdenticalGatesError,
    ProbeState,
    SizeLimitError,
    ValidationError,
    convex_min_overlap,
    gate_distance,
    gate_fidelity_su2,
    gate_fidelity_sud,
    min_copies,
    minimal_covering_arc,
    optimal_probe_ncopies,
    optimal_probe_separable,
    optimal_probe_single,
    oracle_min_overlap,
    plan_elimination,
    probe_overlap,
    simulate_elimination,
    su2_from_params,
    su3_example_gate,
    tensor_power,
)
from gatediscrim.gates import (
    _pair,
    _relative_matrix,
    _su2_folded_eigenbasis,
    _probe_amplitude,
    _su2_frame,
    _wolfe_min_norm,
)
from gatediscrim import gates as gates_mod
from gatediscrim import geometry, numkit
from gatediscrim.numkit import _eig_unitary
from helpers import (apply_copies, gram_defect, haar_unitary, loose_tolerance_pairs,
                     rotated_pair, system_density, term_amplitude)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def rot(a: float) -> Gate:
    """diag(e^{ia}, e^{-ia}) — an SU(2) gate with half-arc a."""
    return Gate(np.diag([np.exp(1j * a), np.exp(-1j * a)]))


def su2_pair(rng) -> tuple[Gate, Gate]:
    return (
        Gate(haar_unitary(2, rng, special=True)),
        Gate(haar_unitary(2, rng, special=True)),
    )


# ---------------------------------------------------------------------------
# Gate / parameterization


def test_gate_validation():
    with pytest.raises(ValidationError):
        Gate(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        Gate(np.ones((2, 3)))


def test_gate_matrix_read_only_and_array():
    g = Gate(np.eye(2))
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 2.0
    assert np.asarray(g).shape == (2, 2)
    # numpy's __array__ protocol: no copy unless asked or needed, and a copy
    # that copy=False forbids raises ValueError instead of happening silently
    assert np.asarray(g) is g.matrix and np.array(g, copy=False) is g.matrix
    copied = np.array(g)
    assert copied is not g.matrix and copied.flags.writeable
    assert np.array_equal(copied, g.matrix)
    assert np.asarray(g, dtype=np.complex64).dtype == np.complex64
    with pytest.raises(ValueError):
        np.array(g, copy=False, dtype=np.complex64)


def test_gate_keeps_no_tolerance():
    # the tolerance only decides acceptance: gates accepted at different
    # tolerances hold the same polar factor and nothing else
    m = (1.0 + 4e-11) * np.diag([1.0, 1j])
    loose, default = Gate(m, tol=1e-6), Gate(m)
    assert loose.matrix.tobytes() == default.matrix.tobytes()
    assert vars(loose).keys() == {"_matrix", "_dim"}
    assert not hasattr(loose, "tol")


def test_gate_matrix_and_dim_are_read_only_properties():
    # the pair memo is keyed on the gate objects, so a gate must not change
    g = Gate(np.eye(2))
    for name, value in (("matrix", np.diag([1.0, -1.0])), ("dim", 3)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g.dim == 2 and np.array_equal(g.matrix, np.eye(2))


def test_gate_identity_and_tensor_power():
    g = Gate.identity(3)
    assert np.allclose(g.matrix, np.eye(3))


def test_qubit_pair_and_its_embedding_agree():
    # Cross-path: a qubit pair takes the closed form, its d = 4 embedding
    # U (x) 1_2 _eig_unitary and the covering arc, with every relative phase
    # doubled.  On 3000 Haar pairs the distances differed by at most 6.7e-16
    # (3 ulp of 1) and min_copies never; the bound leaves 1.5x of that.
    rng = np.random.default_rng(47)
    eye = np.eye(2)
    for _ in range(300):
        a, b = haar_unitary(2, rng), haar_unitary(2, rng)
        qubit = Gate(a), Gate(b)
        embedded = Gate(np.kron(a, eye)), Gate(np.kron(b, eye))
        assert abs(gate_distance(*qubit) - gate_distance(*embedded)) <= 1e-15
        assert min_copies(*qubit) == min_copies(*embedded)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_distance_is_invariant_under_two_sided_products_and_global_phases(dim):
    # delta(V U1 W, V U2 W) = delta(U1, U2): the relative gate becomes
    # W^dag (U1^dag U2) W, with the same eigenphases; and delta(e^{i phi} U1, U2)
    # = delta(U1, U2).  U2 is near U1, so the distance stays below pi/2.  On
    # 3000 seeded pairs per dimension, both differed by at most 1.3e-15
    # (12 u, u = 2**-53); the bound leaves 1.5x of that.
    rng = np.random.default_rng(61 + dim)
    for _ in range(100):
        u1, v, w = (haar_unitary(dim, rng) for _ in range(3))
        u2 = near_gate(u1, 10.0 ** rng.uniform(-6.0, 0.0), rng)
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
        ref = gate_distance(Gate(u1), Gate(u2))
        for a, b in ((v @ u1 @ w, v @ u2 @ w), (phase * u1, u2), (u1, phase * u2)):
            assert abs(gate_distance(Gate(a), Gate(b)) - ref) <= 2e-15


def test_su2_params_validation():
    GateSU2Params(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        GateSU2Params(-0.1, 0.0, 0.0)
    with pytest.raises(ValidationError):
        GateSU2Params(2.0, 0.0, 0.0)  # theta1 > pi/2
    with pytest.raises(ValidationError):
        GateSU2Params(0.3, 2 * math.pi, 0.0)
    with pytest.raises(ValidationError):
        GateSU2Params(0.3, 0.0, -0.5)


def test_su2_from_params_examples():
    assert np.allclose(su2_from_params(GateSU2Params(0, 0, 0)).matrix, np.eye(2))
    anti = su2_from_params(GateSU2Params(math.pi / 2, 0, 0)).matrix
    assert np.allclose(anti, np.array([[0, 1], [-1, 0]]), atol=1e-15)
    g = su2_from_params(GateSU2Params(0.3, 1.1, 2.0))
    assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-12


def test_constructed_gates_are_special():
    # Gate.identity and su3_example_gate have det 1 by construction (for
    # su2_from_params see the next test); Gate itself takes no determinant
    rng = np.random.default_rng(30)
    gates = [Gate.identity(d) for d in (1, 2, 3, 8)]
    for _ in range(50):
        g1, g2 = rng.uniform(0, math.pi / 2, 2)
        gates.append(su3_example_gate(g1, g2, rng.uniform(0, 2 * math.pi, 5)))
    for g in gates:
        assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-12


def test_su2_from_params_random_always_special():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = GateSU2Params(
            rng.uniform(0, math.pi / 2),
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, 2 * math.pi),
        )
        g = su2_from_params(p)
        assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Fidelity / distance closed forms


def test_pair_functions_build_no_gate(monkeypatch):
    # U1^dag U2 is a bare matrix from _relative_matrix: measuring a qutrit
    # pair or simulating an elimination builds (and re-validates) no Gate
    rng = np.random.default_rng(32)
    u1, u2 = Gate(haar_unitary(3, rng)), Gate(haar_unitary(3, rng))
    h = HypothesisSet(tuple(Gate(haar_unitary(2, rng)) for _ in range(5)))
    plan, stranger = plan_elimination(h), Gate(haar_unitary(2, rng))
    built, init = [], Gate.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counting_init)
    gate_distance(u1, u2)
    optimal_probe_separable(u1, u2)
    oracle_min_overlap(u1, u2, 2)
    for true_index in range(len(h)):
        simulate_elimination(plan, h, true_index=true_index, seed=true_index)
    simulate_elimination(plan, h, seed=1, true_gate=stranger)
    assert built == []


def test_products_of_accepted_gates_are_not_revalidated():
    # each input passes at the default tolerance (|s^2 - 1| = 9e-11) and is
    # stored as its polar factor, unitary to rounding, so their relative gate
    # is too; it is a product of accepted gates and is not checked again
    s = 1.0 + 4.5e-11
    u1, u2 = Gate(s * np.eye(2)), Gate(s * rot(0.3).matrix)
    for m in (u1.matrix, u2.matrix, _relative_matrix(u1.matrix, u2.matrix)):
        assert gram_defect(m) <= 32 * 2.0**-53
    assert abs(gate_fidelity_su2(u1, u2) - math.cos(0.3) ** 2) <= 1e-9
    assert abs(gate_distance(u1, u2) - 0.3) <= 1e-9
    assert min_copies(u1, u2) == 6
    probe = optimal_probe_ncopies(u1, u2)
    assert probe.copies == 6 and probe_overlap(u1, u2, probe, 6) <= 1e-16
    assert abs(probe_overlap(u1, u2, optimal_probe_separable(u1, u2), 1)
               - math.cos(0.3) ** 2) <= 1e-9
    assert HypothesisSet((u1, u2)).distances[0, 1] == gate_distance(u1, u2)


def test_pair_spectra_are_taken_at_the_gates_tolerance():
    # s = 1 + 1e-9 passes Gate(tol=1e-6) but not the default 1e-10; the gates
    # store their polar factors, so U1^dag U2 is unitary to rounding, and
    # neither its eigendecomposition nor its powers are checked again
    s = 1.0 + 1e-9
    u1 = Gate(s * np.eye(3), tol=1e-6)
    u2 = Gate(s * np.diag(np.exp(1j * np.array([0.3, 0.1, -0.4]))), tol=1e-6)
    assert abs(gate_distance(u1, u2) - 0.35) <= 1e-9
    assert abs(gate_fidelity_sud(u1, u2) - math.cos(0.35) ** 2) <= 1e-9
    probe = optimal_probe_separable(u1, u2)
    assert abs(probe_overlap(u1, u2, probe, 1) - math.cos(0.35) ** 2) <= 1e-8
    for n in (1, 2, 3):  # extremes 0.3 n and -0.4 n
        assert abs(oracle_min_overlap(u1, u2, n) - math.cos(0.35 * n) ** 2) <= 1e-9
    q1 = Gate(np.eye(2), tol=1e-6)
    q2 = Gate(s * np.diag([np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)]), tol=1e-6)
    for n in (1, 2, 3, 4):
        closed = 0.0 if n > 1 else 0.25
        assert abs(oracle_min_overlap(q1, q2, n) - closed) <= 1e-9
    # pairs whose relative gates drift further from unitary than 2 max(tol1, tol2)
    for m1, m2 in loose_tolerance_pairs():
        u1, u2 = Gate(m1, tol=1e-6), Gate(m2, tol=1e-6)
        assert abs(gate_distance(u1, u2) - math.pi / 2) <= 1e-12
        assert probe_overlap(u1, u2, optimal_probe_separable(u1, u2), 1) <= 1e-11
        for n in (1, 2, 3):
            assert oracle_min_overlap(u1, u2, n) <= 1e-12


def test_a_qudit_pair_is_diagonalized_once(monkeypatch):
    # distance, fidelity, copies, separable probe and the oracle at n = 1 of one
    # SU(3) pair share one eigendecomposition of U1^dag U2; n = 2 reads only the
    # eigenvalues of its power; none of them checks unitarity again (Gate did)
    calls, phase_calls, defects = [], [], []
    original, original_phases = numkit._eig_unitary, numkit._unitary_phases
    original_defect = numkit._gram_defect

    def counted(u):
        calls.append(u.shape)
        return original(u)

    def counted_phases(m):
        phase_calls.append(m.shape)
        return original_phases(m)

    def counted_defect(m):
        defects.append(m.shape)
        return original_defect(m)

    rng = np.random.default_rng(33)
    u1, u2 = (Gate(haar_unitary(3, rng, special=True)) for _ in range(2))
    expected = (gate_distance(u1, u2), optimal_probe_separable(u1, u2).system,
                oracle_min_overlap(u1, u2, 1))
    u1, u2 = Gate(u1.matrix), Gate(u2.matrix)  # new objects: the memo misses
    monkeypatch.setattr(numkit, "_eig_unitary", counted)
    monkeypatch.setattr(numkit, "_unitary_phases", counted_phases)
    monkeypatch.setattr(numkit, "_gram_defect", counted_defect)
    got = (gate_distance(u1, u2), optimal_probe_separable(u1, u2).system,
           oracle_min_overlap(u1, u2, 1))
    gate_fidelity_sud(u1, u2)
    min_copies(u1, u2)
    assert calls == [(3, 3)] and phase_calls == []
    assert got[0] == expected[0] and got[2] == expected[2]
    assert np.array_equal(got[1], expected[1])
    oracle_min_overlap(u1, u2, 2)
    assert calls == [(3, 3)]
    assert phase_calls == [(9, 9)]
    assert defects == []
    Gate(u1.matrix)  # the check itself: one Gram defect, no step
    assert defects == [(3, 3)]


def test_accepted_gate_coincides_with_itself_up_to_phase():
    # unitary only to ~1e-10, so U^dag U = diag(1 + 8e-11, 1) is not the identity;
    # that error is not a rotation and must not read as a distance
    for m in (np.diag([1.0 + 4e-11, 1.0]), np.array([[1.0, 4e-11], [4e-11, 1.0]])):
        u = Gate(m)
        for v in (u, Gate(np.exp(0.7j) * m), Gate(-1j * m)):
            assert gate_distance(u, v) == 0.0 and gate_distance(v, u) == 0.0
            with pytest.raises(IdenticalGatesError):
                min_copies(u, v)
            with pytest.raises(ValidationError):
                HypothesisSet((u, v))


def test_distance_table_matches_both_orders_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(30):
        h = HypothesisSet(tuple(Gate(haar_unitary(2, rng)) for _ in range(12)))
        for i, j in itertools.permutations(range(len(h)), 2):
            assert h.distances[i, j] == gate_distance(h.gates[i], h.gates[j])


def test_fidelity_su2_examples():
    u = Gate(haar_unitary(2, np.random.default_rng(3), special=True))
    assert gate_fidelity_su2(u, u) == 1.0
    assert abs(gate_fidelity_su2(Gate.identity(2), rot(math.pi / 3)) - 0.25) <= 1e-15
    assert gate_fidelity_su2(Gate.identity(2), Gate(1j * SX)) <= 1e-30


def test_fidelity_su2_of_a_gate_with_itself_is_one():
    rng = np.random.default_rng(0)
    for _ in range(5000):
        u = Gate(haar_unitary(2, rng))
        assert gate_fidelity_su2(u, u) == 1.0


def test_fidelity_su2_rejects():
    with pytest.raises(DimensionError):
        gate_fidelity_su2(Gate.identity(3), Gate.identity(3))


def test_gate_distance_examples():
    u = Gate(haar_unitary(2, np.random.default_rng(4), special=True))
    assert gate_distance(u, u) == 0.0
    assert abs(gate_distance(Gate.identity(2), Gate(1j * SX)) - math.pi / 2) <= 1e-12
    assert abs(gate_distance(Gate.identity(2), rot(math.pi / 3)) - math.pi / 3) <= 1e-12
    with pytest.raises(DimensionError):
        gate_distance(u, Gate.identity(3))


def test_distance_equals_arccos_trace_on_qubits():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u1, u2 = su2_pair(rng)
        tr = abs(np.trace(u1.matrix.conj().T @ u2.matrix)) / 2.0
        expect = math.acos(min(1.0, tr))
        assert abs(gate_distance(u1, u2) - expect) <= 1e-10


def eigenphase_distance(u1: Gate, u2: Gate) -> float:
    """Reference: the minimal arc covering the eigenphases of U1^dag U2."""
    return minimal_covering_arc(_eig_unitary(u1.matrix.conj().T @ u2.matrix)[0]).delta


def pair_at_distance(delta: float, rng) -> tuple[Gate, Gate]:
    """U1 Haar SU(2) and U2 = U1 W diag(e^{i delta}, e^{-i delta}) W^dag, W Haar U(2)."""
    u1 = haar_unitary(2, rng, special=True)
    w = haar_unitary(2, rng)
    rel = (w * np.exp([1j * delta, -1j * delta])) @ w.conj().T
    return Gate(u1), Gate(u1 @ rel)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_qubit_closed_form_matches_eigenphase_arc(seed):
    u1, u2 = su2_pair(np.random.default_rng(seed))
    assert abs(gate_distance(u1, u2) - eigenphase_distance(u1, u2)) <= 1e-12


@pytest.mark.parametrize("delta", [1e-9, 1e-6])
def test_qubit_closed_form_near_identity(delta):
    rng = np.random.default_rng(13)
    for _ in range(20):
        u1, u2 = pair_at_distance(delta, rng)
        d = gate_distance(u1, u2)
        assert abs(d - delta) <= 1e-6 * delta
        assert abs(d - eigenphase_distance(u1, u2)) <= 1e-6 * delta


def test_qubit_closed_form_at_perfect_distinguishability():
    one, isx = Gate.identity(2), Gate(1j * SX)
    assert gate_distance(one, isx) == math.pi / 2
    assert gate_distance(isx, one) == math.pi / 2
    assert min_copies(one, isx) == 1


def near_gate(m: np.ndarray, scale: float, rng) -> np.ndarray:
    """m exp(i scale H), H Hermitian with Gaussian entries: a gate close to m."""
    g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    return m @ ((v * np.exp(1j * scale * w)) @ v.conj().T)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_distance_obeys_the_triangle_inequality_on_near_triples(dim):
    # each side against the other two, steps from 1e-6 to 0.3
    rng = np.random.default_rng(31 + dim)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-6.0, -0.5)
        a = haar_unitary(dim, rng)
        b = near_gate(a, scale, rng)
        c = near_gate(b, scale, rng)
        ab, bc, ac = (gate_distance(Gate(x), Gate(y)) for x, y in ((a, b), (b, c), (a, c)))
        for x, y, z in ((ab, bc, ac), (ab, ac, bc), (ac, bc, ab)):
            assert z <= x + y + 4.0 * math.ulp(x + y)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3]),
    a=st.floats(-math.pi, math.pi),
    b=st.floats(-math.pi, math.pi),
)
def test_measures_ignore_global_phases(seed, dim, a, b):
    """d(e^{ia} U1, e^{ib} U2) = d(U1, U2), whatever the determinants.

    The second phased pair makes det(U1^dag U2) = -1, where the diagonal of
    a qubit U1^dag U2 read as [[alpha, .], [., conj(alpha)]] cancels.
    """
    rng = np.random.default_rng(seed)
    m1, m2 = haar_unitary(dim, rng), haar_unitary(dim, rng)
    u1, u2 = Gate(m1), Gate(m2)
    turn = np.exp(1j * (math.pi - np.angle(np.linalg.det(m1.conj().T @ m2))) / dim)
    sep_ref = optimal_probe_separable(u1, u2)
    for p1, p2 in ((Gate(np.exp(1j * a) * m1), Gate(np.exp(1j * b) * m2)), (u1, Gate(turn * m2))):
        assert abs(gate_distance(p1, p2) - gate_distance(u1, u2)) <= 1e-13
        assert min_copies(p1, p2) == min_copies(u1, u2)
        assert abs(gate_fidelity_sud(p1, p2) - gate_fidelity_sud(u1, u2)) <= 1e-13
        sep = optimal_probe_separable(p1, p2)
        assert abs(probe_overlap(p1, p2, sep, 1) - probe_overlap(u1, u2, sep_ref, 1)) <= 1e-12
        if dim == 2:
            assert abs(gate_fidelity_su2(p1, p2) - gate_fidelity_su2(u1, u2)) <= 1e-13
            probe = optimal_probe_ncopies(p1, p2)
            assert probe.copies == min_copies(u1, u2)
            assert probe_overlap(p1, p2, probe, probe.copies) <= 1e-16


def test_pauli_x_vs_z_despite_determinant_minus_one():
    x, z = Gate(SX), Gate(SZ)
    assert gate_distance(x, z) == math.pi / 2
    assert min_copies(x, z) == 1
    assert gate_fidelity_su2(x, z) == 0.0
    # det(U1^dag U2) = -1 for the last two pairs
    for u1, u2 in ((x, z), (Gate.identity(2), x), (Gate.identity(2), z)):
        probe = optimal_probe_ncopies(u1, u2)
        assert probe.copies == 1 and probe_overlap(u1, u2, probe, 1) <= 1e-30


def test_su2_and_sud_fidelities_agree():
    rng = np.random.default_rng(6)
    for _ in range(100):
        u1, u2 = su2_pair(rng)
        assert abs(gate_fidelity_su2(u1, u2) - gate_fidelity_sud(u1, u2)) <= 1e-10


def test_fidelity_invariant_under_common_factors():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(25):
            u1 = Gate(haar_unitary(dim, rng, special=True))
            u2 = Gate(haar_unitary(dim, rng, special=True))
            v = Gate(haar_unitary(dim, rng, special=True))
            w = Gate(haar_unitary(dim, rng, special=True))
            f = gate_fidelity_sud(u1, u2)
            right = gate_fidelity_sud(Gate(u1.matrix @ v.matrix), Gate(u2.matrix @ v.matrix))
            left = gate_fidelity_sud(Gate(w.matrix @ u1.matrix), Gate(w.matrix @ u2.matrix))
            assert abs(f - right) <= 1e-10
            assert abs(f - left) <= 1e-10
            if dim == 2:
                assert abs(gate_fidelity_su2(u1, u2) - f) <= 1e-10


def test_sud_diagonal_example():
    u = Gate(np.diag(np.exp(1j * np.array([0.2, 0.5, -0.7]))))
    f = gate_fidelity_sud(Gate.identity(3), u)
    assert abs(f - math.cos(0.6) ** 2) <= 1e-12
    assert abs(f - convex_min_overlap([0.2, 0.5, -0.7])) <= 1e-12
    assert abs(gate_distance(Gate.identity(3), u) - 0.6) <= 1e-12


# ---------------------------------------------------------------------------
# Arcs and the convex minimum


def test_minimal_covering_arc_examples():
    assert minimal_covering_arc([0.0]).delta == 0.0
    arc = minimal_covering_arc([math.pi / 3, -math.pi / 3])
    assert abs(arc.delta - math.pi / 3) <= 1e-12
    assert np.allclose(sorted(arc.extremes), [-math.pi / 3, math.pi / 3])
    arc4 = minimal_covering_arc([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert abs(arc4.delta - 3 * math.pi / 4) <= 1e-12
    with pytest.raises(ValidationError):
        minimal_covering_arc([])


def test_minimal_covering_arc_exhaustive_gap_oracle():
    # delta from the largest-gap rule must match a brute-force scan over
    # which sorted phase starts the arc
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        phases = np.angle(np.exp(1j * rng.uniform(-4, 4, n)))
        got = minimal_covering_arc(phases).delta
        srt = np.sort(phases)
        widths = []
        for k in range(n):
            rolled = np.concatenate([srt[k:], srt[:k] + 2 * math.pi])
            widths.append(rolled[-1] - rolled[0])
        assert abs(got - min(widths) / 2.0) <= 1e-12


def test_minimal_covering_arc_contains_all_phases():
    rng = np.random.default_rng(9)
    for _ in range(200):
        phases = rng.uniform(-math.pi, math.pi, int(rng.integers(1, 7)))
        arc = minimal_covering_arc(phases)
        off = np.angle(np.exp(1j * (phases - arc.center)))
        assert np.abs(off).max() <= arc.delta + 1e-12


def test_minimal_covering_arc_tie_break_deterministic():
    # a square of phases has four equally large gaps; the reported arc must
    # be the same on every call
    phases = [0.0, math.pi / 2, math.pi, -math.pi / 2]
    first = minimal_covering_arc(phases)
    for _ in range(5):
        again = minimal_covering_arc(phases)
        assert again.center == first.center
        assert again.extremes == first.extremes


def test_convex_min_overlap_examples():
    assert convex_min_overlap([0.0]) == 1.0
    assert abs(convex_min_overlap([math.pi / 3, -math.pi / 3]) - 0.25) <= 1e-12
    assert abs(convex_min_overlap([0.0, math.pi / 4, math.pi / 3]) - 0.75) <= 1e-12
    # half-circle spread or more: the hull contains the origin
    assert convex_min_overlap([0.0, math.pi]) == 0.0
    assert convex_min_overlap([0.0, 2.0, 4.0]) == 0.0


def test_convex_min_overlap_grid_oracle():
    # dense grid over the 2-simplex for three-phase inputs
    rng = np.random.default_rng(10)
    ticks = np.linspace(0.0, 1.0, 101)
    for _ in range(20):
        phases = rng.uniform(-1.2, 1.2, 3)
        z = np.exp(1j * phases)
        best = 1.0
        for a in ticks:
            for b in np.linspace(0.0, 1.0 - a, max(2, int(101 * (1 - a)))):
                lam = np.array([a, b, 1.0 - a - b])
                best = min(best, abs(lam @ z) ** 2)
        closed = convex_min_overlap(phases)
        assert closed <= best + 1e-12
        assert abs(closed - best) <= 1e-3  # grid resolution


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
def test_convex_min_overlap_bounds_property(phases):
    val = convex_min_overlap(phases)
    assert 0.0 <= val <= 1.0
    # achievable: never below the best vertex or above the uniform mixture
    uniform = abs(np.exp(1j * np.array(phases)).mean()) ** 2
    assert val <= uniform + 1e-12


# ---------------------------------------------------------------------------
# Copy counts


def test_min_copies_examples():
    assert min_copies(Gate.identity(2), Gate(1j * SX)) == 1
    assert min_copies(Gate.identity(2), rot(math.pi / 5)) == 3
    assert min_copies(Gate.identity(2), rot(math.pi / 4)) == 2  # exact boundary


def test_min_copies_at_exact_boundaries():
    # pairs at distance pi / (2m) up to rounding: the distance's few units of
    # roundoff move the ratio by up to ~u m^2, which once read m + 1 for about
    # half the pairs at m >= 1571; m copies already leave no overlap
    for m in (2, 16, 1571, 10**4, 10**6):
        rng = np.random.default_rng(m)
        half_arc = np.exp([0.5j * math.pi / m, -0.5j * math.pi / m])
        for _ in range(300):
            u1, w = haar_unitary(2, rng, special=True), haar_unitary(2, rng)
            g1, g2 = Gate(u1), Gate(u1 @ (w * half_arc) @ w.conj().T)
            assert min_copies(g1, g2) == m
            assert probe_overlap(g1, g2, optimal_probe_ncopies(g1, g2), m) <= 1e-16


def test_min_copies_identical_gates():
    u = Gate(haar_unitary(2, np.random.default_rng(11), special=True))
    with pytest.raises(IdenticalGatesError):
        min_copies(u, u)
    # a cube root of unity times the identity is still "the same gate"
    omega = np.exp(2j * math.pi / 3)
    w = Gate(omega * np.eye(3))
    assert gate_distance(Gate.identity(3), w) == 0.0
    with pytest.raises(IdenticalGatesError):
        min_copies(Gate.identity(3), w)


def test_min_copies_matches_distance_bound():
    rng = np.random.default_rng(12)
    for _ in range(100):
        u1, u2 = su2_pair(rng)
        try:
            n = min_copies(u1, u2)
        except IdenticalGatesError:
            continue
        d = gate_distance(u1, u2)
        assert n * d >= math.pi / 2 - 1e-9
        if n > 1:
            assert (n - 1) * d < math.pi / 2 + 1e-12


# ---------------------------------------------------------------------------
# Probes


def test_probe_state_validation():
    e0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(TypeError):
        ProbeState()  # no terms
    with pytest.raises(ValidationError):
        ProbeState(coeffs=np.ones(1), system=np.ones((1, 1, 2)))  # norm^2 = 2
    with pytest.raises(ValidationError):
        ProbeState(coeffs=np.ones(1), system=np.ones((1, 0, 2)))  # no copies
    with pytest.raises(ValidationError):
        ProbeState(coeffs=np.ones(1), system=np.ones((1, 1, 1)))  # dimension 1
    probe = ProbeState(coeffs=np.ones(1), system=e0[None, None, :])
    assert (probe.copies, probe.dim, probe.ancilla_dim, probe.separable) == (1, 2, 1, True)
    assert probe.total_dim == 2
    assert np.allclose(probe.to_vector(), e0)


def test_probe_state_norm_overflow_is_refused_without_a_warning():
    # a norm that overflows is refused like any other, with no numpy
    # RuntimeWarning first (an error under -W error); valid probes keep their bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs, system in (([1.0], [[[1e200, 0.0]]]), ([1e200], [[[1.0, 0.0]]]),
                               ([1e200, 1e200], [[[1.0, 0.0]], [[1e200, -1e200]]])):
            with pytest.raises(ValidationError, match="probe state norm"):
                ProbeState(coeffs=coeffs, system=system)
        probe = ProbeState(coeffs=np.full(2, 2**-0.5), system=np.eye(2)[:, None, :])
    assert np.array_equal(probe.coeffs, np.full(2, 2**-0.5))
    assert abs(_probe_amplitude(probe, None) - 1.0) <= 1e-15


def test_probe_to_vector_size_cap():
    e0 = np.array([1.0, 0.0], dtype=complex)
    for n in (20, 10**12):  # 2^(10^12) is refused without being formed
        big = ProbeState(coeffs=np.ones(1), system=e0[None, None, :], counts=np.array([n]))
        assert big.copies == n
        with pytest.raises(SizeLimitError, match=f"2\\^{n} exceeds the cap 4096"):
            big.to_vector()


def test_probe_overlap_trivial_and_errors():
    u = Gate(haar_unitary(2, np.random.default_rng(13), special=True))
    probe = optimal_probe_single(u, u, entangled=True)
    assert abs(probe_overlap(u, u, probe, 1) - 1.0) <= 1e-12
    with pytest.raises(DimensionError):
        probe_overlap(u, u, probe, 2)
    with pytest.raises(DimensionError):
        probe_overlap(Gate.identity(3), Gate.identity(3), probe, 1)


def test_entangled_probe_achieves_su2_fidelity():
    rng = np.random.default_rng(14)
    for _ in range(100):
        u1, u2 = su2_pair(rng)
        probe = optimal_probe_single(u1, u2, entangled=True)
        assert not probe.separable
        got = probe_overlap(u1, u2, probe, 1)
        assert abs(got - gate_fidelity_su2(u1, u2)) <= 1e-10


def test_separable_probe_matches_entangled_value():
    rng = np.random.default_rng(15)
    for _ in range(60):
        u1, u2 = su2_pair(rng)
        probe = optimal_probe_single(u1, u2, entangled=False)
        assert probe.separable
        # reduced state carries weight 1/2 on each eigenvector: check via
        # the overlap value, which must equal the entangled optimum
        got = probe_overlap(u1, u2, probe, 1)
        assert abs(got - gate_fidelity_su2(u1, u2)) <= 1e-10


def test_separable_probe_reduced_weights_are_half():
    rng = np.random.default_rng(16)
    u1, u2 = su2_pair(rng)
    for entangled in (True, False):
        probe = optimal_probe_single(u1, u2, entangled=entangled)
        rho = system_density(probe)
        _, vectors = _eig_unitary(u1.matrix.conj().T @ u2.matrix)
        w = np.einsum("ik,ij,jk->k", vectors.conj(), rho, vectors).real
        assert np.allclose(w, 0.5, atol=1e-10)


def test_separable_probe_diagonal_gate_is_plus_state():
    probe = optimal_probe_single(Gate.identity(2), rot(0.7), entangled=False)
    vec = probe.to_vector()
    assert probe.ancilla is None and probe.ancilla_dim == 1
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # global phase free
    inner = abs(np.vdot(plus, vec))
    assert abs(inner - 1.0) <= 1e-10


def test_ncopies_probe_boundary_case():
    # half-arc pi/4: two copies, weight sits entirely on the two pure branches
    probe = optimal_probe_ncopies(Gate.identity(2), rot(math.pi / 4))
    assert probe.copies == 2
    assert len(probe.coeffs) == 2
    coeffs = sorted(abs(c) ** 2 for c in probe.coeffs)
    assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)


def test_ncopies_probe_weight_formula():
    # half-arc pi/5: three copies; q makes the weighted cosine sum vanish
    a = math.pi / 5
    probe = optimal_probe_ncopies(Gate.identity(2), rot(a))
    assert probe.copies == 3
    q = max(abs(c) ** 2 for c in probe.coeffs)
    assert abs(q - math.cos(a) / (2 * (math.cos(a) - math.cos(3 * a)))) <= 1e-12
    assert abs(2 * q * math.cos(3 * a) + (1 - 2 * q) * math.cos(a)) <= 1e-12


def test_ncopies_probe_norm_and_orthogonality():
    rng = np.random.default_rng(17)
    for _ in range(60):
        u1, u2 = su2_pair(rng)
        try:
            n = min_copies(u1, u2)
        except IdenticalGatesError:
            continue
        if n > 64:
            continue
        probe = optimal_probe_ncopies(u1, u2)
        assert probe.copies == n
        assert probe.separable
        assert probe_overlap(u1, u2, probe, n) <= 1e-16


def test_ncopies_probe_dense_agreement():
    # structured evaluation equals the dense tensor contraction when small
    u1, u2 = Gate.identity(2), rot(0.5)
    probe = optimal_probe_ncopies(u1, u2)
    n = probe.copies
    vec = probe.to_vector()
    dense = tensor_power(u1.matrix.conj().T @ u2.matrix, n) @ vec
    a = probe_overlap(u1, u2, probe, n)
    b = abs(np.vdot(vec, dense)) ** 2
    assert abs(a - b) <= 1e-12


def test_large_gap_pair_folds_phases():
    # relative gate with raw half-phase above pi/2 must fold: the pair is a
    # global phase away from a small-angle gate
    a = 2.8  # > pi/2; folded delta = pi - 2.8
    u2 = rot(a)
    delta = math.pi - a
    assert abs(gate_distance(Gate.identity(2), u2) - delta) <= 1e-12
    n = min_copies(Gate.identity(2), u2)
    assert n == math.ceil(math.pi / (2 * delta) - 1e-12)
    probe = optimal_probe_ncopies(Gate.identity(2), u2)
    assert probe_overlap(Gate.identity(2), u2, probe, n) <= 1e-16


def _eig_folded_basis(rel: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reference: (delta, w+, w-) read from _eig_unitary, whose phases sort as (-a, a)."""
    phases, vectors = _eig_unitary(rel)
    a = float(phases[1])
    v_minus, v_plus = vectors[:, 0], vectors[:, 1]
    if a <= math.pi / 2:
        return a, v_plus, v_minus
    return math.pi - a, v_minus, v_plus


def _phase_distance(v: np.ndarray, ref: np.ndarray) -> float:
    """|v - e^{i phi} ref| for the phase phi that best aligns ref with v."""
    ip = np.vdot(ref, v)
    return float(np.linalg.norm(v - ip / abs(ip) * ref))


def test_closed_form_basis_matches_eig_unitary():
    # R and -R: one has a <= pi/2, the other a > pi/2, where w+ and w- trade roles
    rng = np.random.default_rng(28)
    for _ in range(200):
        u1, u2 = su2_pair(rng)
        rel = _relative_matrix(u1.matrix, u2.matrix)
        for r in (rel, -rel):
            delta, alpha2, beta2 = _su2_frame(r)
            w_plus, w_minus = _su2_folded_eigenbasis(alpha2, beta2)
            ref_delta, ref_plus, ref_minus = _eig_folded_basis(r)
            assert abs(delta - ref_delta) <= 1e-12
            # both carry the _eig_unitary gauge, so the vectors compare entry by entry
            assert np.abs(w_plus - ref_plus).max() <= 1e-12
            assert np.abs(w_minus - ref_minus).max() <= 1e-12


@pytest.mark.parametrize(
    "delta", [1e-9, 1e-6, math.pi / 4, math.pi / 2 - 1e-12, math.pi / 2]
)
def test_closed_form_basis_at_boundaries(delta):
    # rounding in R moves its eigenvectors by about eps / sin(delta)
    tol = 1e-12 + 1e-14 / math.sin(delta)
    rng = np.random.default_rng(29)
    for _ in range(20):
        w = haar_unitary(2, rng)
        rel = (w * np.exp([1j * delta, -1j * delta])) @ w.conj().T
        got_delta, alpha2, beta2 = _su2_frame(rel)
        w_plus, w_minus = _su2_folded_eigenbasis(alpha2, beta2)
        _, ref_plus, ref_minus = _eig_folded_basis(rel)
        assert abs(got_delta - delta) <= 1e-15
        if delta == math.pi / 2:
            # phases +/-pi/2 are one global phase apart: the vectors may trade places
            if _phase_distance(w_plus, w[:, 0]) > 0.5:
                w_plus, w_minus = w_minus, w_plus
            if _phase_distance(ref_plus, w[:, 0]) > 0.5:
                ref_plus, ref_minus = ref_minus, ref_plus
        for got, ref in ((w_plus, w[:, 0]), (w_minus, w[:, 1]), (w_plus, ref_plus), (w_minus, ref_minus)):
            assert _phase_distance(got, ref) <= tol
        if delta < math.pi / 4:
            continue  # N is far beyond any probe
        u1, u2 = Gate.identity(2), Gate(rel)
        probe = optimal_probe_ncopies(u1, u2)
        assert probe_overlap(u1, u2, probe, probe.copies) <= 1e-16
        if delta == math.pi / 2:
            # whichever vector leads, the probe is (w+ + w-)/sqrt(2) in the reference gauge
            assert probe.copies == 1
            expect = (ref_plus + ref_minus) / math.sqrt(2.0)
            for built in (probe, optimal_probe_separable(u1, u2)):
                assert np.abs(built.to_vector() - expect).max() <= 1e-12


def test_ncopies_probe_term_count_at_exact_boundaries():
    # at N delta = pi/2 exactly the leftover branch weight is rounding dust
    # (0 or ~2e-16 by the last bit of delta) and must add no terms
    one = Gate.identity(2)
    cases = [(one, Gate(np.diag(np.exp([-1j * a, 1j * a])))) for a in (math.pi / 8, math.pi / 12)]
    rng = np.random.default_rng(30)
    for delta in (math.pi / 4, math.pi / 6, math.pi / 8):
        cases += [pair_at_distance(delta, rng) for _ in range(40)]
    for u1, u2 in cases:
        probe = optimal_probe_ncopies(u1, u2)
        assert probe.coeffs.size == 2
        assert probe_overlap(u1, u2, probe, probe.copies) <= 1e-16


def _branch_amplitude_limits(probe: ProbeState) -> np.ndarray:
    """Per term, the largest coefficient that keeps each branch weight <= 1/2.

    The coefficients are square roots of the branch weights (q, q, 1/2 - q,
    1/2 - q), so the limit is sqrt(1/2), compared without squaring.  At even
    N the two mixed branches share one term, whose two columns hold
    different vectors; its weight 1 - 2q covers both, so its limit is 1.
    """
    limits = np.full(probe.coeffs.size, math.sqrt(0.5))
    if probe.copies % 2 == 0:
        merged = [not np.array_equal(*factors) for factors in probe.system]
        limits[merged] = 1.0
    return limits


def test_ncopies_probe_residual_and_branch_weights():
    # Haar pairs, near-identity pairs (delta from 1e-3, N = 1571) and pairs
    # with N delta = pi/2 exactly, where q reads 1/2 + ~5e-15 before its clamp
    rng = np.random.default_rng(31)
    pairs = [su2_pair(rng) for _ in range(200)]
    pairs += [pair_at_distance(delta, rng) for delta in np.geomspace(1e-3, 0.1, 60)]
    pairs += [pair_at_distance(math.pi / (2 * n), rng) for n in range(1, 200)]
    assert max(min_copies(u1, u2) for u1, u2 in pairs) == 1571
    for u1, u2 in pairs:
        probe = optimal_probe_ncopies(u1, u2)
        # |<psi| R^(x)N |psi>| <= 1e-8
        assert probe_overlap(u1, u2, probe, probe.copies) <= 1e-16
        # no NaN from a negative weight, none above 1/2
        assert np.all(np.abs(probe.coeffs) <= _branch_amplitude_limits(probe))


# The full-norm property of library-built probes, checked here rather than on
# every build: <psi|psi> - 1 within _NORM_C * N * u, u = 2**-53.  Unit factors
# that stray by e carry into the norm as about N e, and the pow that raises a
# column's inner product to its count adds a few u.  Measured worst cases:
# 4.0 N u for the rotated qubit pairs below (all of them, N up to 1.6e8) and
# 19 u for the separable SU(8) probes.
_NORM_C = 32.0
# The builders check none of this: their factors are unit and orthogonal, and
# their branch weights sum to 1, by construction, within 90 u each.
_FACTOR_ROUNDING = 90 * 2.0**-53


def _norm_residual(probe: ProbeState) -> float:
    return abs(_probe_amplitude(probe, None) - 1.0)


def _assert_unit_factors(probe: ProbeState, factors) -> None:
    """Every system factor of `probe` is one of `factors`, which are orthonormal,
    and the branch weights |coeffs|^2 sum to 1, within _FACTOR_ROUNDING."""
    factors = np.array(factors, complex)
    assert all(any(np.array_equal(f, g) for g in factors)
               for f in probe.system.reshape(-1, probe.dim))
    gram = factors.conj() @ factors.T
    assert np.abs(gram - np.eye(len(factors))).max() <= _FACTOR_ROUNDING
    assert abs(np.sum(np.abs(probe.coeffs) ** 2) - 1.0) <= _FACTOR_ROUNDING


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8])
def test_library_probe_full_norm_within_rounding_of_copies(delta):
    # every rotated pair builds, also where N-fold rounding of <w|w> = 1 +/- ulp
    # reads past the public constructor's 1e-10 (N = 1570797 and up)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u1, u2 = pair_at_distance(delta, rng)
        probe = optimal_probe_ncopies(u1, u2)
        assert probe.copies == min_copies(u1, u2)
        assert _norm_residual(probe) <= _NORM_C * probe.copies * 2.0**-53
        _assert_unit_factors(probe, _su2_folded_eigenbasis(*_pair(u1, u2)[1][1:]))


@pytest.mark.parametrize("dim", [3, 8])
def test_separable_probe_full_norm_within_rounding(dim):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u1 = Gate(haar_unitary(dim, rng, special=True))
        u2 = Gate(haar_unitary(dim, rng, special=True))
        probe = optimal_probe_separable(u1, u2)
        assert _norm_residual(probe) <= _NORM_C * 2.0**-53
        _assert_unit_factors(probe, probe.system[0])


def test_separable_probe_refuses_dimension_one():
    # two 1 x 1 gates have one eigenvector, which the probe took twice: a
    # factor sqrt(2) v of norm^2 2, as ProbeState(...) would refuse at dim 1
    u1, u2 = Gate(np.eye(1)), Gate([[1j]])
    with pytest.raises(DimensionError, match="dimension >= 2"):
        optimal_probe_separable(u1, u2)
    assert gate_distance(u1, u2) == 0.0


def test_small_angle_rotated_pair_builds():
    # I against V diag(e^{i delta}, e^{-i delta}) V^dag at delta = 1e-6: the
    # N-fold norm reads 0.99999999983, which ProbeState(...) refuses
    c, s, e = math.cos(0.3), math.sin(0.3), np.exp(0.7j)
    v = np.array([[c, -s / e], [s * e, c]])
    u1, u2 = Gate.identity(2), Gate((v * np.exp([1e-6j, -1e-6j])) @ v.conj().T)
    probe = optimal_probe_ncopies(u1, u2)
    assert probe.copies == 1570797
    assert probe_overlap(u1, u2, probe, probe.copies) <= 1e-16
    with pytest.raises(ValidationError, match="norm"):
        ProbeState(coeffs=probe.coeffs, system=probe.system, counts=probe.counts)


def test_library_probes_match_the_public_constructor():
    # the builder skips the copies and the norm contraction, nothing else:
    # same dtypes, same bits, read-only, wherever ProbeState(...) accepts
    rng = np.random.default_rng(5)
    pairs = [su2_pair(rng) for _ in range(20)]
    pairs += [pair_at_distance(delta, rng) for delta in (1e-3, 0.1, math.pi / 6)]
    pairs += [(Gate(haar_unitary(3, rng)), Gate(haar_unitary(3, rng))) for _ in range(5)]
    for u1, u2 in pairs:
        built = [optimal_probe_separable(u1, u2)]
        if u1.dim == 2:
            built.append(optimal_probe_ncopies(u1, u2))
        for probe in built:
            public = ProbeState(coeffs=probe.coeffs, system=probe.system, counts=probe.counts)
            assert probe.ancilla is None
            for name in ("coeffs", "system", "counts"):
                ours, theirs = getattr(probe, name), getattr(public, name)
                assert ours.dtype == theirs.dtype and not ours.flags.writeable
                assert _bits(ours) == _bits(theirs)


def test_probe_arrays_are_read_only():
    factor = np.array([1.0, 0.0], dtype=complex)
    counts = np.array([1])
    probe = ProbeState(
        coeffs=np.ones(1), system=factor[None, None, :], ancilla=factor[None, None, :],
        counts=counts,
    )
    factor[:] = [0.0, 1.0]  # the probe keeps its own copy
    counts[0] = 2
    assert np.array_equal(probe.to_vector(), [1.0, 0.0, 0.0, 0.0])
    assert probe.copies == 1 and probe.ancilla_dim == 2 and not probe.separable
    built = optimal_probe_ncopies(Gate.identity(2), rot(0.5))
    assert built.ancilla is None and built.ancilla_dim == 1
    entangled = optimal_probe_single(Gate.identity(2), rot(0.5), entangled=True)
    for arr in (probe.coeffs, probe.system, probe.ancilla, probe.counts, built.coeffs,
                built.system, built.counts, entangled.ancilla):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_probe_array_structure_errors():
    e0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(TypeError):
        ProbeState(coeffs=np.ones(1))  # system factors are required
    with pytest.raises(DimensionError):
        ProbeState(coeffs=np.ones(2), system=e0[None, None, :])
    with pytest.raises(DimensionError):
        ProbeState(coeffs=np.ones(1), system=e0)
    with pytest.raises(DimensionError):
        ProbeState(coeffs=np.ones(1), system=e0[None, None, :], ancilla=np.ones((2, 1, 2)))
    with pytest.raises(DimensionError):
        ProbeState(coeffs=np.ones(1), system=e0[None, None, :], ancilla=e0[None, :])


@pytest.mark.parametrize(
    "counts", [[2], [1, 1, 1], [0, 2], [-1, 3], [1.0, 1.0], [True, True], [[1, 1]]]
)
def test_probe_counts_must_be_positive_and_match_columns(counts):
    e0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(DimensionError):
        ProbeState(coeffs=np.ones(1), system=np.stack([e0, e0])[None], counts=np.array(counts))


def test_ncopies_probe_expands_to_its_product_terms():
    # for every N <= 12 the counted columns expand to the N-factor products
    # w_a^(x)ceil(N/2) (x) w_b^(x)floor(N/2) of the probe's own column vectors
    for n in range(1, 13):
        u2 = rot(math.pi / (2 * n) * (1.0 + 1e-3 if n > 1 else 1.0))
        probe = optimal_probe_ncopies(Gate.identity(2), u2)
        assert probe.copies == n
        assert probe.system.shape[1] == min(n, 2)
        assert probe.counts.tolist() == ([(n + 1) // 2, n // 2] if n > 1 else [1])
        expected = 0
        for coeff, cols in zip(probe.coeffs, probe.system):
            factors = [cols[0]] * ((n + 1) // 2) + [cols[-1]] * (n // 2)
            expected = expected + functools.reduce(np.kron, factors, np.array([coeff]))
        assert np.array_equal(probe.to_vector(), expected)


def _spectral_weight_overlap(u1: Gate, u2: Gate, probe: ProbeState) -> float:
    """|sum_i w_i exp(i phi_i)|^2, with phi_i the eigenphases of (U1^dag U2)^(x)n
    and w_i the weights of the probe's reduced state on their eigenvectors."""
    base_phases, base_vecs = _eig_unitary(u1.matrix.conj().T @ u2.matrix)
    vecs, phases = base_vecs, base_phases
    for _ in range(probe.copies - 1):
        vecs = np.kron(vecs, base_vecs)
        phases = (phases[:, None] + base_phases[None, :]).reshape(-1)
    rho = system_density(probe)
    weights = np.clip(np.einsum("ik,ij,jk->k", vecs.conj(), rho, vecs).real, 0.0, None)
    return abs((weights * np.exp(1j * phases)).sum()) ** 2


def test_overlap_matches_spectral_weights():
    # the overlap equals its eigenweight form for every optimal probe whose
    # dense dimension is at most 256 (N-copy probes up to N = 4)
    rng = np.random.default_rng(26)
    ncopies_checked = 0
    for _ in range(100):
        u1, u2 = su2_pair(rng)
        probes = [optimal_probe_single(u1, u2, entangled=True), optimal_probe_separable(u1, u2)]
        if min_copies(u1, u2) <= 4:
            probes.append(optimal_probe_ncopies(u1, u2))
            ncopies_checked += 1
        for probe in probes:
            direct = probe_overlap(u1, u2, probe, probe.copies)
            assert abs(_spectral_weight_overlap(u1, u2, probe) - direct) <= 1e-9
    assert ncopies_checked >= 50


def test_ncopy_overlap_stays_within_its_error_model():
    # the N-copy amplitude carries a relative error of at most c N u: on the
    # 200 seeded pairs {W, W V diag(e^{i delta}, e^{-i delta}) V^dag} of
    # test_a_certain_round_keeps_the_truth_at_any_copy_count, c reads 7.0 /
    # 9.0 / 8.0 / 7.5 / 8.0 at delta = 1e-4 ... 1e-8, and the overlap 1.9e-14
    # at 1e-8, above criterion 3's 1e-16 on 158 of the pairs
    u = 2.0**-53
    for delta in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        for seed in range(200):
            u1, u2 = rotated_pair(delta, np.random.default_rng(seed))
            probe = optimal_probe_ncopies(u1, u2)
            n = probe.copies
            assert abs(n - math.pi / (2 * delta)) <= 4
            assert probe_overlap(u1, u2, probe, n) <= (10 * n * u) ** 2


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_ncopies_probe_large_n(delta):
    # N = 158 and N = 1571: far beyond any dense representation
    rng = np.random.default_rng(27)
    u1 = Gate(haar_unitary(2, rng, special=True))
    w = haar_unitary(2, rng)
    u2 = Gate(u1.matrix @ (w * np.exp([1j * delta, -1j * delta])) @ w.conj().T)
    probe = optimal_probe_ncopies(u1, u2)
    n = math.ceil(math.pi / (2 * delta))
    assert probe.copies == n and probe.counts.sum() == n
    assert probe.system.shape[1] <= 2  # the arrays do not grow with N
    assert abs(term_amplitude(probe, probe) - 1.0) <= 1e-10
    assert probe_overlap(u1, u2, probe, n) <= 1e-16
    # the contraction agrees with the factor-by-factor loop to n rounding steps
    rel = u1.matrix.conj().T @ u2.matrix
    assert abs(_probe_amplitude(probe, rel) - term_amplitude(probe, probe, rel)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_terms=st.integers(1, 4),
    copies=st.integers(1, 5),
    dim=st.sampled_from([2, 3]),
    anc_factors=st.integers(0, 2),
    anc_len=st.sampled_from([2, 3]),
)
def test_term_contraction_matches_dense(seed, n_terms, copies, dim, anc_factors, anc_len):
    rng = np.random.default_rng(seed)

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # split the copies into columns of random counts
    cuts = np.sort(rng.choice(np.arange(1, copies), rng.integers(0, copies), replace=False))
    counts = np.diff([0, *cuts, copies])
    coeffs, system = cvec(n_terms), cvec(n_terms, counts.size, dim)
    ancilla = cvec(n_terms, anc_factors, anc_len) if anc_factors else None
    anc_dim = anc_len**anc_factors
    factors = [
        [f for f, c in zip(system[t], counts) for _ in range(c)]
        + [*(ancilla[t] if anc_factors else [])]
        for t in range(n_terms)
    ]
    dense = sum(c * functools.reduce(np.kron, fs) for c, fs in zip(coeffs, factors))
    coeffs = coeffs / np.linalg.norm(dense)
    dense = dense / np.linalg.norm(dense)
    probe = ProbeState(coeffs=coeffs, system=system, ancilla=ancilla, counts=counts)
    assert (probe.copies, probe.dim, probe.ancilla_dim) == (copies, dim, anc_dim)
    assert np.allclose(probe.to_vector(), dense, atol=1e-12)

    u1, u2 = Gate(haar_unitary(dim, rng)), Gate(haar_unitary(dim, rng))

    def image(m):  # (m^(x)copies (x) 1) dense
        return (tensor_power(m, copies) @ dense.reshape(dim**copies, anc_dim)).reshape(-1)

    expected = abs(np.vdot(dense, image(u1.matrix.conj().T @ u2.matrix))) ** 2
    assert abs(probe_overlap(u1, u2, probe, copies) - expected) <= 1e-12
    assert np.allclose(apply_copies(u1, probe).to_vector(), image(u1.matrix), atol=1e-12)


# ---------------------------------------------------------------------------
# One relative gate per pair


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _count_calls(monkeypatch, name) -> list:
    calls = []
    original = getattr(gates_mod, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gates_mod, name, counted)
    return calls


def _every_pair_function(u1, u2):
    n = min_copies(u1, u2)
    gate_distance(u1, u2)
    gate_fidelity_sud(u1, u2)
    probes = [(optimal_probe_separable(u1, u2), 1)]
    if u1.dim == 2:
        gate_fidelity_su2(u1, u2)
        probes += [(optimal_probe_single(u1, u2, entangled=True), 1),
                   (optimal_probe_single(u1, u2, entangled=False), 1),
                   (optimal_probe_ncopies(u1, u2), n)]
    for probe, copies in probes:
        probe_overlap(u1, u2, probe, copies)
    oracle_min_overlap(u1, u2, 1)
    geometry.avg_fidelity_mc(u1, u2, samples=64, seed=3)


@pytest.mark.parametrize("dim, frames", [(2, 1), (3, 0)])
def test_one_pair_forms_its_relative_gate_and_frame_once(monkeypatch, dim, frames):
    rng = np.random.default_rng(61)
    u1, u2 = Gate(haar_unitary(dim, rng)), Gate(haar_unitary(dim, rng))
    rels = _count_calls(monkeypatch, "_relative_matrix")
    su2_frames = _count_calls(monkeypatch, "_su2_frame")
    _every_pair_function(u1, u2)
    assert (len(rels), len(su2_frames)) == (1, frames)
    _every_pair_function(u2, u1)  # the reversed pair is another pair
    assert (len(rels), len(su2_frames)) == (2, 2 * frames)


def test_the_pair_memo_never_goes_stale():
    rng = np.random.default_rng(62)
    a, b, c = (Gate(haar_unitary(2, rng)) for _ in range(3))
    for x, y in ((a, b), (b, a), (a, b), (a, c), (a, b), (b, a), (c, a), (a, c)):
        rel, frame = _pair(x, y)
        fresh = _relative_matrix(x.matrix, y.matrix)
        assert _bits(rel) == _bits(fresh)
        assert [_bits(f) for f in frame] == [_bits(f) for f in _su2_frame(fresh)]
        assert _bits(gate_distance(x, y)) == _bits(float(_su2_frame(fresh)[0]))
        probe = optimal_probe_ncopies(x, y)
        delta, alpha2, beta2 = _su2_frame(fresh)
        delta = float(delta)
        assert gates_mod._pair_eigenbasis(x, y) == _su2_folded_eigenbasis(alpha2, beta2)
        direct = gates_mod._ncopies_probe(delta, _su2_folded_eigenbasis(alpha2, beta2),
                                          gates_mod._copies_for_distance(delta))
        for name in ("coeffs", "system", "counts"):
            assert _bits(getattr(probe, name)) == _bits(getattr(direct, name))


def test_the_pair_memo_is_read_only_and_holds_one_pair():
    rng = np.random.default_rng(63)
    gates = [Gate(haar_unitary(d, rng)) for d in (2, 2, 3, 3)]
    for u1, u2 in itertools.permutations(gates, 2):
        if u1.dim == u2.dim:
            gate_distance(u1, u2)
            optimal_probe_separable(u1, u2)
            rel, frame = _pair(u1, u2)
            assert not rel.flags.writeable and (frame is None) == (u1.dim != 2)
            with pytest.raises(ValueError):
                rel[0, 0] = 0.0
            assert _pair.cache_info().currsize <= 1
            assert gates_mod._pair_eigenbasis.cache_info().currsize <= 1


def test_entangled_probe_is_one_shared_constant():
    rng = np.random.default_rng(64)
    first = optimal_probe_single(*su2_pair(rng), entangled=True)
    second = optimal_probe_single(*su2_pair(rng), entangled=True)
    assert first is second
    for arr in (first.coeffs, first.system, first.ancilla, first.counts):
        assert not arr.flags.writeable
    assert (first.copies, first.ancilla_dim, first.separable) == (1, 2, False)


# ---------------------------------------------------------------------------
# Oracle agreement


def test_oracle_trivial_cases():
    rng = np.random.default_rng(18)
    for d, n in itertools.product((2, 3, 8), (1, 2)):
        for _ in range(20):
            u = Gate(haar_unitary(d, rng))
            assert oracle_min_overlap(u, u, n) == 1.0
    assert oracle_min_overlap(Gate.identity(2), Gate(1j * SX), 1) <= 1e-8
    with pytest.raises(ValidationError):
        oracle_min_overlap(u, u, 0)
    for n in (2.0, 1.5, "1", None):  # a bare TypeError before
        with pytest.raises(ValidationError, match="copy count must be an integer"):
            oracle_min_overlap(u, u, n)
    assert oracle_min_overlap(u, u, np.int64(2)) == 1.0


def test_oracle_matches_closed_form_multi_copy():
    rng = np.random.default_rng(19)
    for _ in range(34):
        u1, u2 = su2_pair(rng)
        rel = u1.matrix.conj().T @ u2.matrix
        for n in (1, 2, 3):
            phases_n = np.angle(np.linalg.eigvals(tensor_power(rel, n)))
            closed = convex_min_overlap(phases_n)
            got = oracle_min_overlap(u1, u2, n)
            assert abs(closed - got) <= 1e-6


def _assert_certified(phases, closed=None):
    phases = np.asarray(phases, dtype=float)
    closed = convex_min_overlap(phases) if closed is None else closed
    upper, lower, iterations = _wolfe_min_norm(phases)
    assert 1 <= iterations <= 3  # every case here closes its gap by the third test
    assert lower >= 0.0
    assert lower - 1e-12 <= closed <= upper + 1e-12
    assert upper - lower <= 1e-12
    return upper, lower


def test_oracle_certified_interval_haar_and_sud():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):  # n >= 2: the repeated phases of tensor powers
        for _ in range(25):
            u1, u2 = su2_pair(rng)
            _assert_certified(_eig_unitary(tensor_power(u1.matrix.conj().T @ u2.matrix, n))[0])
    for d in (3, 8, 32):
        for _ in range(4):
            u1, u2 = Gate(haar_unitary(d, rng)), Gate(haar_unitary(d, rng))
            _assert_certified(_eig_unitary(u1.matrix.conj().T @ u2.matrix)[0])


def test_oracle_certified_interval_boundaries():
    rng = np.random.default_rng(24)
    quarter = math.pi / 4
    for delta in (quarter - 1e-12, quarter, quarter + 1e-12, math.pi / 3, math.pi / 2, 1e-9):
        w = haar_unitary(2, rng)
        rel = (w * np.exp(1j * np.array([delta, -delta]))) @ w.conj().T
        for n in (1, 2, 3):
            closed = 0.0 if n * delta >= math.pi / 2 else math.cos(n * delta) ** 2
            phases = _eig_unitary(tensor_power(rel, n))[0]
            upper, _ = _assert_certified(phases, closed)
            u1, u2 = Gate.identity(2), Gate(rel)
            got = oracle_min_overlap(u1, u2, n)
            # the oracle's own eigensolver gives the upper bound it must meet exactly;
            # the _eig_unitary phases give one within rounding of it
            oracle_upper, _ = _assert_certified(
                numkit._unitary_phases(tensor_power(rel, n)),
                closed)
            assert got <= oracle_upper
            assert abs(got - upper) <= 1e-15
    # identical gates: every phase equal, the minimum is 1
    assert _assert_certified(np.zeros(8), 1.0) == (1.0, 1.0)
    assert _assert_certified(np.full(5, 2.5), 1.0)[0] == pytest.approx(1.0, abs=1e-15)
    # repeated phases {a, a, -2a} and their tensor powers
    lam = np.exp(1j * np.array([0.7, 0.7, -1.4]))
    for n in (1, 2, 3):
        _assert_certified(_eig_unitary(tensor_power(np.diag(lam), n))[0])


def test_oracle_agrees_with_wolfe_on_the_eig_unitary_phases():
    # the oracle reads eigenvalues only; the full eigendecomposition of the same
    # power gives the same minimum up to rounding
    rng = np.random.default_rng(27)
    cases = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 5)] + [(8, 1), (8, 2)]
    for d, n in cases:
        for _ in range(3):
            u1, u2 = Gate(haar_unitary(d, rng)), Gate(haar_unitary(d, rng))
            big = tensor_power(u1.matrix.conj().T @ u2.matrix, n)
            want, _, _ = _wolfe_min_norm(_eig_unitary(big)[0])
            assert abs(oracle_min_overlap(u1, u2, n) - want) <= 1e-14


def _qubit_power_phases(phi: float, delta: float, n: int) -> list[float]:
    """phi + (n - 2k) delta, each C(n, k) times for k = 0..n: the eigenphases of
    the n-fold power of a qubit relative gate with phases (phi / n) +/- delta."""
    return [phi + (n - 2 * k) * delta for k in range(n + 1) for _ in range(math.comb(n, k))]


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=40),
    st.builds(_qubit_power_phases, st.floats(-math.pi, math.pi), st.floats(0.0, math.pi),
              st.integers(1, 5)),
))
# the power at n = 2 of I against an exactly unitary qubit gate at N = 2: a
# thin three-point corral whose rounded x leaves a gap of 1.6e-14
@example([2.795790325959624, -0.3450683946542091, -0.34653626060612985, 2.795790325959624])
def test_wolfe_interval_holds_the_convex_minimum_property(phases):
    upper, lower, _ = _wolfe_min_norm(np.array(phases))
    assert 0.0 <= lower
    assert lower - 1e-12 <= convex_min_overlap(phases) <= upper + 1e-12


def test_random_probes_never_undercut_certified_lower_bound():
    # random bipartite probes, evaluated on the tensor power itself without
    # its eigenphases, bound the minimum from above: none may read below
    # Wolfe's certified lower bound by more than its gap tolerance
    rng = np.random.default_rng(26)
    cases = [(2, n) for n in (1, 2, 3, 4)] + [(3, 1), (3, 2), (8, 1)]
    for d, n in cases:
        for k in range(12):
            u1 = Gate(haar_unitary(d, rng))
            u2 = u1 if k == 0 else Gate(haar_unitary(d, rng))
            big = tensor_power(u1.matrix.conj().T @ u2.matrix, n)
            _, lower, _ = _wolfe_min_norm(_eig_unitary(big)[0])
            z = rng.standard_normal((32, 2, *big.shape))
            coeff = z[:, 0] + 1j * z[:, 1]
            coeff /= np.linalg.norm(coeff, axis=(1, 2), keepdims=True)
            probes = np.abs(np.einsum("bij,bij->b", coeff.conj(), big @ coeff)) ** 2
            assert probes.min() >= lower - 1e-14


def test_oracle_refuses_powers_above_its_cap(monkeypatch):
    # the cap is checked before U1^dag U2 or its power is formed
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle built a power above its cap")

    u1, u2 = Gate.identity(2), Gate(SX)
    monkeypatch.setattr(numkit, "tensor_power", forbidden)
    monkeypatch.setattr(gates_mod, "_relative_matrix", forbidden)
    for d, n in ((2, 11), (2, 12), (2, 10**12), (3, 7)):
        with pytest.raises(SizeLimitError, match="exceeds the cap 1024"):
            oracle_min_overlap(Gate.identity(d), Gate.identity(d), n)
    monkeypatch.setattr(gates_mod, "_ORACLE_MAX_DIM", 4)  # read at call time
    with pytest.raises(SizeLimitError, match=r"2\^3 exceeds the cap 4"):
        oracle_min_overlap(u1, u2, 3)
    monkeypatch.undo()
    monkeypatch.setattr(gates_mod, "_ORACLE_MAX_DIM", 4)
    assert oracle_min_overlap(u1, u2, 2) <= 1e-16
    # a one-dimensional power never grows
    assert oracle_min_overlap(Gate.identity(1), Gate(-np.eye(1)), 12) == 1.0


def test_one_dimensional_powers_are_capped_by_their_factor_count():
    # 1^n never exceeds a dimension cap, but forming it still takes n - 1
    # steps: past MAX_TENSOR_DIM factors it is refused before any is taken
    u1, u2 = Gate.identity(1), Gate(1j * np.eye(1))
    cap = numkit.MAX_TENSOR_DIM
    assert oracle_min_overlap(u1, u2, cap) == 1.0
    assert tensor_power(u2, cap).shape == (1, 1)
    for n in (cap + 1, 10**6, 10**12):
        with pytest.raises(SizeLimitError, match=rf"1\^{n} has {n} factors, above the cap {cap}"):
            oracle_min_overlap(u1, u2, n)
        with pytest.raises(SizeLimitError, match="above the cap 4096"):
            tensor_power(u2, n)


def test_oracle_deterministic():
    u1, u2 = su2_pair(np.random.default_rng(20))
    assert oracle_min_overlap(u1, u2, 2) == oracle_min_overlap(u1, u2, 2)


# ---------------------------------------------------------------------------
# Degeneracy invariance


def test_results_depend_only_on_phases_under_degeneracy():
    # relative spectrum {a, a, -2a}: outputs must not care which basis the
    # eigensolver picks inside the repeated eigenspace
    rng = np.random.default_rng(21)
    a = 0.4
    lam = np.exp(1j * np.array([a, a, -2 * a]))
    results = []
    for _ in range(6):
        v = haar_unitary(3, rng, special=True)
        u2 = Gate((v * lam) @ v.conj().T)
        d = gate_distance(Gate.identity(3), u2)
        f = gate_fidelity_sud(Gate.identity(3), u2)
        probe = optimal_probe_separable(Gate.identity(3), u2)
        ov = probe_overlap(Gate.identity(3), u2, probe, 1)
        results.append((d, f, ov))
    base = (1.5 * a, math.cos(1.5 * a) ** 2, math.cos(1.5 * a) ** 2)
    for d, f, ov in results:
        assert abs(d - base[0]) <= 1e-9
        assert abs(f - base[1]) <= 1e-9
        assert abs(ov - base[2]) <= 1e-9


def test_separable_probe_general_dimension():
    rng = np.random.default_rng(22)
    for _ in range(20):
        u1 = Gate(haar_unitary(3, rng, special=True))
        u2 = Gate(haar_unitary(3, rng, special=True))
        probe = optimal_probe_separable(u1, u2)
        got = probe_overlap(u1, u2, probe, 1)
        d = gate_distance(u1, u2)
        delta = minimal_covering_arc(_eig_unitary(u1.matrix.conj().T @ u2.matrix)[0]).delta
        # the two-extremal-eigenvector probe realizes cos^2(delta); when the
        # arc exceeds a half circle it still measures the chord of the
        # extremal pair, which is what the convex minimum would use
        assert abs(got - math.cos(min(delta, math.pi / 2)) ** 2) <= 1e-9 or delta > math.pi / 2


# ---------------------------------------------------------------------------
# The three-level family


def test_su3_example_explicit_matrix():
    g = su3_example_gate(math.pi / 4, math.pi / 4, [0.0] * 5)
    r = math.sqrt(2) / 2
    expect = np.array(
        [
            [0.0, r, r],
            [r, 0.5, -0.5],
            [-r, 0.5, -0.5],
        ]
    )
    assert np.abs(g.matrix - expect).max() <= 1e-12


def test_su3_example_properties_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g1, g2 = rng.uniform(0, math.pi / 2, 2)
        ph = rng.uniform(0, 2 * math.pi, 5)
        g = su3_example_gate(g1, g2, ph)
        assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(3)).max() <= 1e-10
        assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-8
        assert abs(g.matrix[0, 0]) <= 1e-12
        assert gate_fidelity_sud(Gate.identity(3), g) == 0.0
        assert abs(gate_distance(Gate.identity(3), g) - math.pi / 2) <= 1e-12


def test_su3_example_first_phase_inert():
    rng = np.random.default_rng(24)
    g1, g2 = 0.7, 1.1
    ph = rng.uniform(0, 2 * math.pi, 5)
    a = su3_example_gate(g1, g2, ph)
    ph2 = ph.copy()
    ph2[0] = (ph[0] + 1.0) % (2 * math.pi)
    b = su3_example_gate(g1, g2, ph2)
    assert np.abs(a.matrix - b.matrix).max() == 0.0


def test_su3_example_validation():
    with pytest.raises(ValidationError):
        su3_example_gate(-0.1, 0.5, [0.0] * 5)
    with pytest.raises(ValidationError):
        su3_example_gate(0.5, 2.0, [0.0] * 5)
    with pytest.raises(DimensionError):
        su3_example_gate(0.5, 0.5, [0.0] * 4)
    with pytest.raises(ValidationError):
        su3_example_gate(0.5, 0.5, [0.0, 0.0, 7.0, 0.0, 0.0])


def test_su3_probe_e1_separates_from_identity():
    # the computational basis state e1, no ancilla, gives orthogonal images
    g = su3_example_gate(0.9, 0.2, [0.1, 5.0, 2.2, 3.3, 4.4])
    e1 = np.zeros(3, dtype=complex)
    e1[0] = 1.0
    probe = ProbeState(coeffs=np.ones(1), system=e1[None, None, :])
    assert probe_overlap(Gate.identity(3), g, probe, 1) <= 1e-24


# ---------------------------------------------------------------------------
# Sharpness of the copy count


def test_min_copies_is_sharp():
    rng = np.random.default_rng(25)
    checked = 0
    for _ in range(100):
        u1, u2 = su2_pair(rng)
        try:
            n = min_copies(u1, u2)
        except IdenticalGatesError:
            continue
        delta = gate_distance(u1, u2)
        if n > 1:
            # (n-1) copies cannot cancel: the convex minimum stays positive
            phases = delta * np.arange(-(n - 1), n - 0.5, 2.0)
            val = convex_min_overlap(phases)
            assert val > 1e-6
            checked += 1
    assert checked >= 50
