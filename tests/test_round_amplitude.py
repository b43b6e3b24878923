"""An elimination round contracts its N-copy terms on Python scalars.

`gates._ncopies_amplitude` contracts the term description of
`gates._ncopies_terms`, the one the probe's arrays are built from, and no
BLAS kernel takes part.  Its amplitudes are tied here to the one
contraction of an arbitrary `ProbeState`, `gates._probe_amplitude`, by the
error model of `probe_overlap`: each amplitude carries a relative error of
at most c N u (u = 2**-53, c <= 10), so two contractions of one probe
differ by at most 2 c N u and their probabilities by at most 4 c N u.
This runs under each OpenBLAS kernel too.
"""
import math

import numpy as np

from gatediscrim import Gate, HypothesisSet, plan_elimination, simulate_elimination
from gatediscrim.gates import (
    _copies_for_distance,
    _ncopies_amplitude,
    _ncopies_probe,
    _ncopies_terms,
    _probe_amplitude,
    _relative_matrix,
    _su2_folded_eigenbasis,
    _su2_frame,
)
from helpers import haar_unitary, reference_ncopies_arrays, rotated_pair

U = 2.0**-53
C = 10  # the error model's constant, c <= 10


def assert_rounds_match_the_probe_contraction(h, runs, seeds) -> list[int]:
    """Check every contracted round of the runs on `h`; return the rounds' copy counts."""
    plan = plan_elimination(h)
    checked = []
    for kwargs in runs:
        truth = kwargs.get("true_index")
        rels = (h._rels[:, truth] if truth is not None
                else _relative_matrix(h._mats, kwargs["true_gate"].matrix))
        for seed in seeds:
            for record in simulate_elimination(plan, h, seed=seed, **kwargs).trace:
                i, j = record.pair
                if truth in (i, j):
                    continue  # read, 1 or 0, not contracted
                ref = abs(_probe_amplitude(h._tests[i, j].probe, rels[i])) ** 2
                assert abs(record.p_target - ref) <= 4 * C * record.copies * U, (record, ref)
                checked.append(record.copies)
    return checked


def test_round_probabilities_stay_within_the_error_model_on_haar_sets():
    rng = np.random.default_rng(81)
    checked = []
    for k in range(3, 17):
        h = HypothesisSet(gates=tuple(Gate(haar_unitary(2, rng)) for _ in range(k)))
        runs = [{"true_index": t} for t in range(k)]
        runs += [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(2)]
        checked += assert_rounds_match_the_probe_contraction(h, runs, range(2))
    assert len(checked) > 500


def test_round_probabilities_stay_within_the_error_model_down_to_delta_1e_8():
    # a rotated pair and a third Haar gate: against an out-of-set gate the
    # rotated pair's own round, N up to 1.6e8, is reached whenever the third
    # gate goes first
    rng = np.random.default_rng(82)
    deltas = 1e-8 * np.exp(math.log(1e8) * rng.random(60))
    checked = []
    for delta in [*deltas.tolist(), 1e-8]:
        u1, u2 = rotated_pair(delta, rng)
        h = HypothesisSet(gates=(u1, u2, Gate(haar_unitary(2, rng))))
        runs = [{"true_index": t} for t in range(3)]
        runs += [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(2)]
        checked += assert_rounds_match_the_probe_contraction(h, runs, range(4))
    assert max(checked) > 10**8 and sum(n > 10**4 for n in checked) > 50


def test_amplitudes_stay_within_the_error_model_of_the_probe_contraction():
    # the pair's own relative gate, the identity (the norm) and Haar gates
    rng = np.random.default_rng(83)
    deltas = 1e-8 * np.exp(math.log(math.pi / 2e-8) * rng.random(200))
    for delta in [*deltas.tolist(), math.pi / 2, 1e-8]:
        u1, u2 = rotated_pair(delta, rng)
        delta, alpha2, beta2 = (x.item() for x in _su2_frame(u1.matrix.conj().T @ u2.matrix))
        n = _copies_for_distance(delta)
        terms = _ncopies_terms(delta, _su2_folded_eigenbasis(alpha2, beta2), n)
        probe = _ncopies_probe(terms)
        rel = u1.matrix.conj().T @ u2.matrix
        for op in (rel, np.eye(2, dtype=complex), haar_unitary(2, rng), haar_unitary(2, rng)):
            ours, ref = _ncopies_amplitude(terms, op), _probe_amplitude(probe, op)
            assert abs(ours - ref) <= 2 * C * n * U, (delta, ours, ref)


def test_the_probe_arrays_are_the_ones_its_terms_describe():
    # and the ones the library built before the terms had one description
    rng = np.random.default_rng(84)
    deltas = 1e-8 * np.exp(math.log(math.pi / 2e-8) * rng.random(300))
    sizes = set()
    for delta in [*deltas.tolist(), math.pi / 2, math.pi / 4, math.pi / 6, 1e-8]:
        u1, u2 = rotated_pair(delta, rng)
        delta, alpha2, beta2 = (x.item() for x in _su2_frame(u1.matrix.conj().T @ u2.matrix))
        n = _copies_for_distance(delta)
        terms = _ncopies_terms(delta, _su2_folded_eigenbasis(alpha2, beta2), n)
        basis, described, counts = terms
        probe = _ncopies_probe(terms)
        columns = [k for k, count in enumerate(counts) if count]  # N = 1 fills one
        coeffs = np.array([coeff for coeff, _ in described], complex)
        system = np.array([[basis[choices[k]] for k in columns] for _, choices in described],
                          complex)
        assert probe.ancilla is None and counts == ((n + 1) // 2, n // 2)
        for arrays in ((coeffs, system, np.array([counts[k] for k in columns], np.int64)),
                       reference_ncopies_arrays(delta, basis, n)):
            for ours, theirs in zip((probe.coeffs, probe.system, probe.counts), arrays):
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
        sizes.add((len(described), len(columns)))
    # two terms on one column (N = 1), two to four on two columns (N >= 2;
    # two when the middle branch's weight is rounding dust)
    assert sizes == {(2, 1), (2, 2), (3, 2), (4, 2)}
