"""The probe contraction keeps its bits.

`gates._probe_amplitude` reads the ancilla Gram the constructor stored and
skips the power and the product over columns where they would return their
input unchanged.  Every amplitude must still equal, bit for bit, the one the
reference contraction in `helpers` forms with every step taken on every
call.  `system @ op.T` is a BLAS product, so this runs under each OpenBLAS
kernel too.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gatediscrim import Gate, ProbeState, optimal_probe_ncopies, optimal_probe_separable
from gatediscrim.gates import _BELL_PROBE, _probe_amplitude
from helpers import haar_unitary, rand_state, reference_probe_amplitude, rotated_pair


def assert_same_bits(probe, ops) -> None:
    for op in (None, *ops):
        ours, theirs = _probe_amplitude(probe, op), reference_probe_amplitude(probe, op)
        assert np.array(ours).tobytes() == np.array(theirs).tobytes(), (ours, theirs)


def test_ncopies_probes_keep_their_bits():
    # delta log-uniform in [1e-3, pi/2), so N runs from 2 to 1571, and at
    # pi/2 (N = 1, one single-use column) and 1e-8
    rng = np.random.default_rng(71)
    deltas = 1e-3 * np.exp(math.log(math.pi / 2e-3) * rng.random(300))
    copies = set()
    for delta in [*deltas.tolist(), math.pi / 2, 1e-8]:
        u1, u2 = rotated_pair(delta, rng)
        probe = optimal_probe_ncopies(u1, u2)
        copies.add(probe.copies)
        rel = u1.matrix.conj().T @ u2.matrix
        assert_same_bits(probe, [rel, haar_unitary(2, rng), haar_unitary(2, rng)])
    assert 1 in copies and max(copies) > 10**8 and any(1000 < n <= 1571 for n in copies)


@pytest.mark.parametrize("dim", [2, 3, 12])
def test_separable_probes_keep_their_bits(dim):
    # at d = 12 a pairwise sum over d would round unlike the explicit one
    rng = np.random.default_rng(72 + dim)
    for _ in range(50):
        u1, u2 = Gate(haar_unitary(dim, rng)), Gate(haar_unitary(dim, rng))
        probe = optimal_probe_separable(u1, u2)
        rel = u1.matrix.conj().T @ u2.matrix
        assert_same_bits(probe, [rel, haar_unitary(dim, rng), haar_unitary(dim, rng)])


def test_the_entangled_probe_keeps_its_bits():
    rng = np.random.default_rng(75)
    assert_same_bits(_BELL_PROBE, [haar_unitary(2, rng) for _ in range(50)])


@pytest.mark.parametrize("terms, dim, counts, ancilla", [
    (3, 2, [1], (2, 2)),  # one single-use column and an ancilla
    (2, 3, [1, 1, 1], (1, 3)),  # single-use columns: no power, a product
    (4, 2, [5], None),  # one counted column: a power, no product
    (3, 3, [2, 7], None),
    (2, 2, [3, 1, 4], (3, 2)),  # counted columns and an ancilla
])
def test_hand_built_probes_keep_their_bits(terms, dim, counts, ancilla):
    rng = np.random.default_rng(76)
    for _ in range(20):
        system = np.array([[rand_state(dim, rng) for _ in counts] for _ in range(terms)])
        anc = None if ancilla is None else np.array(
            [[rand_state(ancilla[1], rng) for _ in range(ancilla[0])] for _ in range(terms)])
        coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        unnormed = SimpleNamespace(coeffs=coeffs, system=system, ancilla=anc,
                                   counts=np.array(counts))
        coeffs = coeffs / math.sqrt(reference_probe_amplitude(unnormed, None).real)
        probe = ProbeState(coeffs=coeffs, system=system, ancilla=anc, counts=np.array(counts))
        assert_same_bits(probe, [haar_unitary(dim, rng) for _ in range(3)])
