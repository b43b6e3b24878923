import dataclasses
import math

import numpy as np
import pytest

import gatediscrim.gates
import gatediscrim.protocol
from gatediscrim import (
    Gate,
    HypothesisSet,
    ValidationError,
    gate_distance,
    min_copies,
    optimal_probe_ncopies,
    plan_elimination,
    probe_overlap,
    simulate_elimination,
)
from gatediscrim.gates import _term_amplitude
from gatediscrim.protocol import _apply_copies, _most_distant_pair
from helpers import haar_unitary

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)

PAULI_SET = HypothesisSet(gates=(Gate.identity(2), Gate(1j * SX), Gate(1j * SZ)))
FOUR_PAULI_SET = HypothesisSet(
    gates=(Gate.identity(2), Gate(1j * SX), Gate(1j * SY), Gate(1j * SZ))
)


def random_set(k: int, rng) -> HypothesisSet:
    return HypothesisSet(
        gates=tuple(Gate(haar_unitary(2, rng, special=True)) for _ in range(k))
    )


def test_hypothesis_set_validation():
    with pytest.raises(ValidationError):
        HypothesisSet(gates=(Gate.identity(2),))  # k < 2
    with pytest.raises(ValidationError):
        HypothesisSet(gates=(Gate.identity(2), np.eye(2)))  # not a Gate
    with pytest.raises(ValidationError):
        HypothesisSet(gates=(Gate.identity(3), Gate.identity(3)))  # wrong dim
    u = Gate(haar_unitary(2, np.random.default_rng(1), special=True))
    with pytest.raises(ValidationError):
        HypothesisSet(gates=(u, u))  # coincident pair
    assert len(PAULI_SET) == 3


def test_set_with_determinant_minus_one_identifies_every_index():
    h = HypothesisSet(gates=(Gate.identity(2), Gate(SX), Gate(SZ)))
    plan = plan_elimination(h)
    for true_index in range(len(h)):
        for seed in range(5):
            sim = simulate_elimination(plan, h, true_index=true_index, seed=seed)
            assert sim.identified_index == true_index
            assert sim.total_runs == 2


def test_elimination_test_stores_pair_probe_and_gate():
    for t in plan_elimination(FOUR_PAULI_SET).tests:
        assert [f.name for f in dataclasses.fields(t)] == ["pair", "probe", "gate"]
        assert t.gate is FOUR_PAULI_SET.gates[t.pair[0]]
        assert t.copies == t.probe.copies
        np.testing.assert_array_equal(t.target.system, _apply_copies(t.gate, t.probe).system)


def test_plan_shape_and_orthogonal_images():
    rng = np.random.default_rng(2)
    for k in (2, 3, 4, 5):
        h = random_set(k, rng)
        plan = plan_elimination(h)
        assert len(plan.tests) == k - 1
        for t in plan.tests:
            i, j = t.pair
            assert 0 <= i < j < k
            gi, gj = h.gates[i], h.gates[j]
            assert t.copies == min_copies(gi, gj)
            assert t.copies * gate_distance(gi, gj) >= math.pi / 2 - 1e-9
            # the two hypothesis images of the probe are orthogonal
            assert probe_overlap(gi, gj, t.probe, t.copies) <= 1e-16


def test_plan_picks_most_distant_pair_first():
    # distances: d(1, isx) = d(1, isz) = pi/2, d(isx, isz) = pi/2 -- all tie;
    # lexicographic tie-break means the first test is (0, 1)
    plan = plan_elimination(PAULI_SET)
    assert plan.tests[0].pair == (0, 1)
    # an asymmetric set: the far pair must come first
    h = HypothesisSet(
        gates=(
            Gate.identity(2),
            Gate(np.diag([np.exp(0.2j), np.exp(-0.2j)])),
            Gate(1j * SX),
        )
    )
    first = plan_elimination(h).tests[0].pair
    assert first in [(0, 2), (1, 2)]
    d02 = gate_distance(h.gates[0], h.gates[2])
    d12 = gate_distance(h.gates[1], h.gates[2])
    expect = (0, 2) if d02 >= d12 else (1, 2)
    assert first == expect


def test_pauli_set_always_two_runs():
    for seed in range(50):
        for true_index in (0, 1, 2):
            plan = plan_elimination(PAULI_SET)
            sim = simulate_elimination(plan, PAULI_SET, true_index=true_index, seed=seed)
            assert sim.identified_index == true_index
            assert sim.total_runs == 2
            assert sim.true_in_set


def test_simulation_identifies_truth_random_sets():
    rng = np.random.default_rng(3)
    for trial in range(200):
        k = int(rng.integers(2, 6))
        h = random_set(k, rng)
        true_index = int(rng.integers(0, k))
        plan = plan_elimination(h)
        sim = simulate_elimination(plan, h, true_index=true_index, seed=trial)
        assert sim.identified_index == true_index
        assert len(sim.trace) == k - 1
        assert sim.total_runs == sum(r.copies for r in sim.trace)
        # the true gate is never discarded, and every record matches its plan
        discarded = [r.discarded for r in sim.trace]
        assert true_index not in discarded
        assert len(set(discarded)) == k - 1
        for r in sim.trace:
            assert r.copies == min_copies(h.gates[r.pair[0]], h.gates[r.pair[1]])
            assert r.discarded in r.pair


def test_adaptive_replanning_consistency():
    # every tested pair must consist of gates still alive at that round
    rng = np.random.default_rng(4)
    for trial in range(50):
        k = 5
        h = random_set(k, rng)
        true_index = int(rng.integers(0, k))
        sim = simulate_elimination(plan_elimination(h), h, true_index=true_index, seed=trial)
        alive = set(range(k))
        for r in sim.trace:
            assert set(r.pair) <= alive
            alive.discard(r.discarded)
        assert alive == {sim.identified_index}


def test_out_of_set_true_gate():
    rng = np.random.default_rng(5)
    stranger = Gate(haar_unitary(2, rng, special=True))
    plan = plan_elimination(PAULI_SET)
    sim = simulate_elimination(plan, PAULI_SET, true_gate=stranger, seed=9)
    assert not sim.true_in_set
    assert sim.identified_index in range(3)
    assert len(sim.trace) == 2


def test_simulate_argument_validation():
    plan = plan_elimination(PAULI_SET)
    with pytest.raises(ValidationError):
        simulate_elimination(plan, PAULI_SET, seed=0)  # neither
    with pytest.raises(ValidationError):
        simulate_elimination(
            plan, PAULI_SET, true_index=0, true_gate=Gate.identity(2), seed=0
        )  # both
    with pytest.raises(ValidationError):
        simulate_elimination(plan, PAULI_SET, true_index=7, seed=0)
    with pytest.raises(ValidationError):
        simulate_elimination(plan, PAULI_SET, true_gate=Gate.identity(3), seed=0)


def test_plan_for_another_set_is_refused():
    # an equal set is still another set: its test cache and indices are its own
    twin = HypothesisSet(gates=PAULI_SET.gates)
    plan = plan_elimination(twin)
    with pytest.raises(ValidationError, match="another hypothesis set"):
        simulate_elimination(plan, PAULI_SET, true_index=0, seed=0)
    with pytest.raises(ValidationError, match="another hypothesis set"):
        simulate_elimination(plan_elimination(FOUR_PAULI_SET), PAULI_SET,
                             true_gate=Gate.identity(2), seed=0)
    assert simulate_elimination(plan, twin, true_index=0, seed=0).identified_index == 0


def test_simulation_deterministic_given_seed():
    rng = np.random.default_rng(6)
    h = random_set(4, rng)
    plan = plan_elimination(h)
    a = simulate_elimination(plan, h, true_index=2, seed=11)
    b = simulate_elimination(plan, h, true_index=2, seed=11)
    assert a == b


def test_povm_of_planned_test():
    plan = plan_elimination(PAULI_SET)
    elems = plan.tests[0].povm()
    assert len(elems) == 2
    total = elems[0] + elems[1]
    assert np.abs(total - np.eye(total.shape[0])).max() <= 1e-10
    for e in elems:
        assert np.linalg.eigvalsh(e).min() >= -1e-10


def test_close_pair_uses_many_copies():
    # a barely-rotated gate forces a large copy count; the structured probe
    # representation keeps this cheap
    a = 0.011
    h = HypothesisSet(
        gates=(Gate.identity(2), Gate(np.diag([np.exp(1j * a), np.exp(-1j * a)])))
    )
    n = min_copies(*h.gates)
    assert n == math.ceil(math.pi / (2 * a))
    assert n > 100
    sim = simulate_elimination(plan_elimination(h), h, true_index=1, seed=3)
    assert sim.identified_index == 1
    assert sim.total_runs == n


def test_distance_table():
    h = random_set(8, np.random.default_rng(7))
    d = h.distances
    assert d.shape == (8, 8)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    with pytest.raises(ValueError):
        d[0, 1] = 0.0
    for i in range(8):
        for j in range(8):
            assert d[i, j] == gate_distance(h.gates[i], h.gates[j])


def test_planning_and_simulation_read_the_table(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("distance recomputed outside the table")

    for module in (gatediscrim.gates, gatediscrim.protocol):
        for name in ("gate_distance", "min_copies"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    rng = np.random.default_rng(8)
    h = random_set(8, rng)
    # tests take their half-arc from the table too
    for module in (gatediscrim.gates, gatediscrim.protocol):
        monkeypatch.setattr(module, "_su2_half_arc", boom)
    plan = plan_elimination(h)
    planned = set(plan.pairs)
    replanned = 0
    for true_index in range(8):
        for seed in range(3):
            sim = simulate_elimination(plan, h, true_index=true_index, seed=seed)
            assert sim.identified_index == true_index
            replanned += sum(r.pair not in planned for r in sim.trace)
    stranger = Gate(haar_unitary(2, rng, special=True))
    sim = simulate_elimination(plan, h, true_gate=stranger, seed=0)
    assert len(sim.trace) == 7
    assert replanned > 0


@pytest.mark.parametrize(
    "h, plan_pairs, traces",
    [
        (
            PAULI_SET,
            [(0, 1), (0, 2)],
            {
                0: [((0, 1), True, 1), ((0, 2), True, 2)],
                1: [((0, 1), False, 0), ((1, 2), True, 2)],
                2: [((0, 1), True, 1), ((0, 2), False, 0)],
            },
        ),
        (
            FOUR_PAULI_SET,
            [(0, 1), (0, 2), (0, 3)],
            {
                0: [((0, 1), True, 1), ((0, 2), True, 2), ((0, 3), True, 3)],
                1: [((0, 1), False, 0), ((1, 2), True, 2), ((1, 3), True, 3)],
                2: [((0, 1), False, 0), ((1, 2), False, 1), ((2, 3), True, 3)],
                3: [((0, 1), True, 1), ((0, 2), True, 2), ((0, 3), False, 0)],
            },
        ),
    ],
)
def test_tied_sets_follow_greedy_scan_order(h, plan_pairs, traces):
    # every distance is pi/2: the first pair in scan order wins each round
    assert np.all(h.distances[~np.eye(len(h), dtype=bool)] == math.pi / 2)
    plan = plan_elimination(h)
    assert [t.pair for t in plan.tests] == plan_pairs
    assert all(t.copies == 1 for t in plan.tests)
    for true_index, expect in traces.items():
        for seed in range(5):
            sim = simulate_elimination(plan, h, true_index=true_index, seed=seed)
            got = [(r.pair, r.outcome_target, r.discarded) for r in sim.trace]
            assert got == expect


def test_most_distant_pair_matches_the_strict_scan():
    # reference: the row-major scan that keeps the first strictly larger distance
    def scan(h, surviving):
        best, best_d = None, -1.0
        for a, i in enumerate(surviving):
            for j in surviving[a + 1:]:
                if h.distances[i, j] > best_d:
                    best, best_d = (i, j), h.distances[i, j]
        return best

    rng = np.random.default_rng(12)
    sets = [PAULI_SET, FOUR_PAULI_SET] + [random_set(k, rng) for k in (3, 5, 8, 16)]
    for h in sets:
        for _ in range(20):
            size = int(rng.integers(2, len(h) + 1))
            surviving = sorted(rng.choice(len(h), size, replace=False).tolist())
            assert _most_distant_pair(h, surviving) == scan(h, surviving)


def test_round_probability_is_one_contraction_of_the_probe(monkeypatch):
    # each round's p_target, <probe|(U_i^dag U_true)^(x)N|probe>, equals the
    # overlap of the test's target with the probe's image under the true gate
    amplitudes = []
    original = gatediscrim.protocol._term_amplitude

    def recorded(a, b, op):
        amp = original(a, b, op)
        amplitudes.append((a, amp))
        return amp

    monkeypatch.setattr(gatediscrim.protocol, "_term_amplitude", recorded)
    rng = np.random.default_rng(9)
    checked = 0
    for k in (3, 5, 8):
        h = random_set(k, rng)
        plan = plan_elimination(h)
        truths = [(h.gates[t], {"true_index": t}) for t in range(k)]
        strangers = [Gate(haar_unitary(2, rng, special=True)) for _ in range(2)]
        truths += [(g, {"true_gate": g}) for g in strangers]
        for seed, (g_true, kwargs) in enumerate(truths):
            amplitudes.clear()
            sim = simulate_elimination(plan, h, seed=seed, **kwargs)
            assert len(amplitudes) == len(sim.trace)
            for record, (probe, amp) in zip(sim.trace, amplitudes):
                target = _apply_copies(h.gates[record.pair[0]], probe)
                old = _term_amplitude(target, _apply_copies(g_true, probe), None)
                assert abs(amp - old) <= 1e-12
                checked += 1
    assert checked > 100


def test_planning_builds_no_probe(monkeypatch):
    def boom(self):
        raise AssertionError("a probe was built while planning")

    monkeypatch.setattr(gatediscrim.gates.ProbeState, "__post_init__", boom)
    rng = np.random.default_rng(13)
    # fresh sets: the module-level ones may hold tests built by other tests
    for gates in (PAULI_SET.gates, FOUR_PAULI_SET.gates,
                  random_set(8, rng).gates, random_set(16, rng).gates):
        h = HypothesisSet(gates=gates)
        plan = plan_elimination(h)
        assert plan.hypotheses is h
        assert len(plan.pairs) == len(h) - 1
        assert h._tests == {}


def test_each_test_is_built_once_per_set(monkeypatch):
    built = []
    used = []
    original_test = gatediscrim.protocol.EliminationTest
    original_amplitude = gatediscrim.protocol._term_amplitude

    def recorded_test(**kwargs):
        built.append(original_test(**kwargs))
        return built[-1]

    def recorded_amplitude(a, b, op):
        used.append(a)
        return original_amplitude(a, b, op)

    monkeypatch.setattr(gatediscrim.protocol, "EliminationTest", recorded_test)
    monkeypatch.setattr(gatediscrim.protocol, "_term_amplitude", recorded_amplitude)
    rng = np.random.default_rng(14)
    h = random_set(8, rng)
    plan = plan_elimination(h)
    assert built == []
    strangers = [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(3)]
    for kwargs in [{"true_index": t} for t in range(len(h))] + strangers:
        for seed in range(4):
            used.clear()
            sim = simulate_elimination(plan, h, seed=seed, **kwargs)
            # each round ran the cached test of its pair, a planned one included
            for record, probe in zip(sim.trace, used, strict=True):
                assert probe is h._tests[record.pair].probe
                if record.pair in plan.pairs:
                    assert probe is plan.tests[plan.pairs.index(record.pair)].probe
    # reading the plan builds what the runs skipped, once, and then only reads
    tests = plan.tests
    assert all(a is b for a, b in zip(tests, plan.tests, strict=True))
    pairs = [t.pair for t in built]
    assert len(pairs) == len(set(pairs)) == len(h._tests) <= len(h) * (len(h) - 1) // 2
    assert all(h._tests[t.pair] is t for t in built)


def test_cached_probes_match_the_public_builder():
    rng = np.random.default_rng(15)
    sets = [PAULI_SET, FOUR_PAULI_SET, HypothesisSet(gates=(Gate.identity(2), Gate(SX), Gate(SZ)))]
    sets += [random_set(k, rng) for k in (3, 5, 8, 16) for _ in range(3)]
    sets += [HypothesisSet(gates=tuple(Gate(haar_unitary(2, rng)) for _ in range(5)))]
    for h in sets:
        plan = plan_elimination(h)
        for true_index in range(len(h)):
            simulate_elimination(plan, h, true_index=true_index, seed=true_index)
        assert len(plan.tests) == len(h) - 1  # builds the planned tests no run reached
        for (i, j), test in h._tests.items():
            assert test.pair == (i, j) and test.gate is h.gates[i]
            ref = optimal_probe_ncopies(h.gates[i], h.gates[j])
            for name in ("coeffs", "system", "counts"):
                assert np.array_equal(getattr(test.probe, name), getattr(ref, name))
            assert test.probe.ancilla is None and ref.ancilla is None
