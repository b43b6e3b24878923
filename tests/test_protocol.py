import dataclasses
import hashlib
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
from gatediscrim.gates import _probe_amplitude, _relative_matrix, _su2_frame
from gatediscrim.protocol import _next_alive
from helpers import apply_copies, haar_unitary, term_amplitude

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
U = 2.0**-53

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


def test_elimination_test_stores_pair_and_probe():
    # the candidate a test's target is formed with is h.gates[pair[0]]; the
    # test keeps the pair, its copy count and the pair's frame, and builds
    # its probe from them on first read, once
    h = HypothesisSet(gates=FOUR_PAULI_SET.gates)
    for t in plan_elimination(h).tests:
        fields = dataclasses.fields(t)
        assert [f.name for f in fields if f.init] == ["pair", "copies", "_frame"]
        assert [f.name for f in fields if f.repr] == ["pair", "copies"]
        # the one other field is the private memo of round probabilities
        (memo,) = [f for f in fields if not f.init]
        assert memo.name == "_p_target" and not (memo.repr or memo.compare)
        assert type(t.copies) is int
        assert [type(x) for x in t._frame] == [float, complex, complex]
        assert "probe" not in t.__dict__
        probe = t.probe
        assert t.__dict__["probe"] is probe and t.probe is probe
        assert t.copies == probe.copies


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
    for index in (1.0, 2.5, "1", [1]):  # an index, as for a plan's pairs
        with pytest.raises(ValidationError, match="true_index"):
            simulate_elimination(plan, PAULI_SET, true_index=index, seed=0)
    sim = simulate_elimination(plan, PAULI_SET, true_index=np.int64(2), seed=0)
    assert sim.identified_index == 2
    with pytest.raises(ValidationError):
        simulate_elimination(plan, PAULI_SET, true_gate=Gate.identity(3), seed=0)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        simulate_elimination(plan, PAULI_SET, true_index=0, seed=-1)


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
    # the dense pair {P, 1 - P}, P onto the probe's image under candidate
    # pair[0], is a measurement, and P has each truth's round probability
    plan = plan_elimination(PAULI_SET)
    test = plan.tests[0]
    v = apply_copies(PAULI_SET.gates[test.pair[0]], test.probe).to_vector()
    proj = np.outer(v, v.conj())
    elems = [proj, np.eye(v.size) - proj]
    total = elems[0] + elems[1]
    assert np.abs(total - np.eye(total.shape[0])).max() <= 1e-10
    for e in elems:
        assert np.linalg.eigvalsh(e).min() >= -1e-10
    for t, g_true in enumerate(PAULI_SET.gates):
        (first, *_) = simulate_elimination(plan, PAULI_SET, true_index=t).trace
        image = apply_copies(g_true, test.probe).to_vector()
        assert first.pair == test.pair
        assert abs(np.vdot(image, proj @ image).real - first.p_target) <= 1e-12


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


def _same_bits(got, ref) -> bool:
    return all(np.array_equal(g, r) for g, r in zip(got, ref, strict=True))


def test_a_pair_read_alone_gives_the_stored_frame():
    # the set keeps every ordered pair's U_i^dag U_j and (delta, 2 alpha, 2 beta)
    # from stacked calls; builds and in-set rounds read them there, so they
    # must be what a single pair's _relative_matrix and _su2_frame give
    rng = np.random.default_rng(16)
    tiny = np.diag(np.exp([1e-9j, -1e-9j]))
    mats = [np.eye(2), SX, SY, SZ, tiny, 1j * SX @ tiny]
    mats += [haar_unitary(2, rng) for _ in range(10)]
    stack, (rows, cols) = np.stack(mats), np.triu_indices(len(mats), 1)
    rels = _relative_matrix(stack[rows], stack[cols])
    # U against itself, and -R, which negates 2 alpha and 2 beta and keeps delta
    rels = np.concatenate([rels, -rels, [m.conj().T @ m for m in mats]])
    stacked = _su2_frame(rels)
    for m, rel in enumerate(rels):
        assert _same_bits(_su2_frame(rel), [x[m] for x in stacked])
    delta, alpha2, beta2 = _su2_frame(rels[: rows.size])
    assert _same_bits(_su2_frame(rels[rows.size: 2 * rows.size]), (delta, -alpha2, -beta2))
    assert np.all(stacked[0][2 * rows.size:] == 0.0)
    assert np.any(delta == math.pi / 2) and np.any(np.abs(delta / 1e-9 - 1.0) < 1e-6)
    h = HypothesisSet(gates=tuple(Gate(m) for m in mats))
    for i in range(len(mats)):
        for j in range(len(mats)):
            rel = _relative_matrix(h.gates[i].matrix, h.gates[j].matrix)
            assert np.array_equal(h._rels[i, j], rel)
            assert _same_bits([x[i, j] for x in h._frames], _su2_frame(rel))
            # the table mirrors the upper triangle, whose half-arcs are the frames'
            assert h.distances[i, j] == h._frames[0][min(i, j), max(i, j)]
    assert not any(x.flags.writeable for x in (h._rels, *h._frames))


def test_reversed_pairs_get_the_public_builders_probe():
    # a plan made by hand may test pair (j, i) with j > i; the set keeps the
    # frame of every ordered pair, so its probe is the public builder's, also
    # on the branch cut of the square root (det U_j^dag U_i = -1: {I, X, Y, Z})
    rng = np.random.default_rng(17)
    sets = [random_set(k, rng) for k in (3, 5, 8)]
    sets += [HypothesisSet(gates=(Gate.identity(2), Gate(SX), Gate(SY), Gate(SZ)))]
    for h in sets:
        k = len(h)
        reversed_pairs = tuple((j, i) for i, j in plan_elimination(h).pairs)
        plan = gatediscrim.protocol.TestPlan(pairs=reversed_pairs, hypotheses=h)
        for true_index in range(k):
            sim = simulate_elimination(plan, h, true_index=true_index, seed=true_index)
            assert sim.identified_index == true_index
        every_pair = [(j, i) for i in range(k) for j in range(i + 1, k)]
        tests = gatediscrim.protocol.TestPlan(pairs=every_pair, hypotheses=h).tests
        for test in tests:
            j, i = test.pair
            assert j > i
            assert probe_overlap(h.gates[j], h.gates[i], test.probe, test.copies) <= 1e-16
            ref = optimal_probe_ncopies(h.gates[j], h.gates[i])
            for name in ("coeffs", "system", "counts"):
                assert np.array_equal(getattr(test.probe, name), getattr(ref, name))


def test_planning_and_simulation_read_the_table(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("distance recomputed outside the table")

    for module in (gatediscrim.gates, gatediscrim.protocol):
        for name in ("gate_distance", "min_copies"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    rng = np.random.default_rng(8)
    h = random_set(8, rng)
    # tests take their half-arc and frame from the set too, and in-set rounds,
    # cold or warm, read U_i^dag U_true from the set's relative gates
    for module in (gatediscrim.gates, gatediscrim.protocol):
        monkeypatch.setattr(module, "_su2_frame", boom)
    monkeypatch.setattr(gatediscrim.protocol, "_relative_matrix", boom)
    plan = plan_elimination(h)
    planned = set(plan.pairs)
    replanned = 0
    for true_index in range(8):
        for seed in range(3):
            sim = simulate_elimination(plan, h, true_index=true_index, seed=seed)
            assert sim.identified_index == true_index
            replanned += sum(r.pair not in planned for r in sim.trace)
    assert replanned > 0
    # an out-of-set gate's relative gates to all k candidates: one stacked call
    calls = []

    def recorded(m1, m2):
        calls.append(m1.shape)
        return _relative_matrix(m1, m2)

    monkeypatch.setattr(gatediscrim.protocol, "_relative_matrix", recorded)
    stranger = Gate(haar_unitary(2, rng, special=True))
    sim = simulate_elimination(plan, h, true_gate=stranger, seed=0)
    assert len(sim.trace) == 7
    assert calls == [(8, 2, 2)]


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
        k = len(h)
        # every pair once, i < j, largest distance first
        assert sorted(h._ranked) == [(i, j) for i in range(k) for j in range(i + 1, k)]
        d = [h.distances[p] for p in h._ranked]
        assert all(a >= b for a, b in zip(d, d[1:]))
        # any survivor set: the first alive ranked pair is the scan's pair
        for _ in range(20):
            size = int(rng.integers(2, k + 1))
            surviving = sorted(rng.choice(k, size, replace=False).tolist())
            assert _next_alive(iter(h._ranked), set(surviving)) == scan(h, surviving)
        # shrinking survivors: one cursor, never rewound, agrees with a fresh scan
        # at every step.  As in a simulation, each pair it returns loses a member
        # before the next query, and planned rounds may remove anyone in between.
        for _ in range(10):
            alive, cursor = set(range(k)), iter(h._ranked)
            while len(alive) > 1:
                pair = _next_alive(cursor, alive)
                assert pair == scan(h, sorted(alive))
                alive.remove(pair[int(rng.integers(2))])
                while len(alive) > 2 and rng.random() < 0.3:
                    alive.remove(int(rng.choice(sorted(alive))))
            assert _next_alive(cursor, alive) is None


def test_distances_and_ranking_match_the_triu_reference():
    # reference: the upper triangle from np.triu mirrored, and the pairs from
    # np.triu_indices, ranked by a stable sort; the set's distances are the
    # frame's half-arc table itself, which must equal the mirror bit for bit
    # (R^dag reads the half-arc of R, U^dag U reads 0), also for gates with
    # global phases, and the ranking must give the same tie order
    s = 2**-0.5
    tie_set = [np.eye(2), SX, SY, SZ, s * (np.eye(2) + 1j * SX), s * (np.eye(2) + 1j * SY),
               s * (SX + SY), np.diag([1.0, 1j])]
    rng = np.random.default_rng(26)
    sets = [HypothesisSet(gates=tuple(Gate(m) for m in tie_set))]
    sets += [random_set(k, rng) for k in range(2, 18)]
    sets += [HypothesisSet(tuple(Gate(np.exp(2j * np.pi * rng.random()) * haar_unitary(2, rng))
                                 for _ in range(k)))
             for k in rng.integers(2, 17, size=200)]
    for h in sets:
        k = len(h)
        upper = np.triu(h._frames[0], 1)
        assert h.distances is h._frames[0] and not h.distances.flags.writeable
        assert h.distances.tobytes() == (upper + upper.T).tobytes()
        rows, cols = np.triu_indices(k, 1)
        order = np.argsort(-h._frames[0][rows, cols], kind="stable")
        assert h._ranked == tuple(zip(rows[order].tolist(), cols[order].tolist()))
    assert len(set(sets[0].distances[np.triu_indices(8, 1)].tolist())) < 28  # it has ties


def test_an_out_of_set_simulation_stacks_nothing(monkeypatch):
    # the set keeps its stacked gate matrices, so an out-of-set run forms its
    # k relative gates from them without stacking the gates again
    rng = np.random.default_rng(27)
    h = random_set(8, rng)
    plan = plan_elimination(h)
    assert np.array_equal(h._mats, [g.matrix for g in h.gates])
    assert not h._mats.flags.writeable
    stacked = []
    original = np.stack

    def counted(*args, **kwargs):
        stacked.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "stack", counted)
    for seed in range(3):
        sim = simulate_elimination(plan, h, true_gate=Gate(haar_unitary(2, rng)), seed=seed)
        assert not sim.true_in_set and len(sim.trace) == 7
    assert stacked == []


def _schedule_digest() -> str:
    """sha256 over the integer fields of a seeded corpus of plans and simulations."""
    rng = np.random.default_rng(18)
    sets = [PAULI_SET.gates, FOUR_PAULI_SET.gates]
    sets += [random_set(k, rng).gates for k in range(3, 17) for _ in range(2)]
    record = []
    for gates in sets:
        h = HypothesisSet(gates=gates)
        plan = plan_elimination(h)
        runs = [{"true_index": t} for t in range(len(h))]
        runs += [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(2)]
        sims = [simulate_elimination(plan, h, seed=seed, **kwargs)
                for kwargs in runs for seed in range(4)]
        record.append((
            [(int(i), int(j)) for i, j in plan.pairs],
            [([((int(r.pair[0]), int(r.pair[1])), r.outcome_target, int(r.discarded))
               for r in sim.trace], int(sim.identified_index), int(sim.total_runs))
             for sim in sims],
        ))
    return hashlib.sha256(repr(record).encode()).hexdigest()


def test_schedules_match_the_recorded_corpus():
    # 30 sets (the two Pauli sets and two Haar sets for each k = 3..16), every
    # in-set truth and two out-of-set gates, seeds 0..3: 1332 simulations.  The
    # digest covers plan pairs, trace pairs, outcomes, discards, the identified
    # index and the total runs.  It was recorded with the schedule that scanned
    # the survivors' distance block on every round; ranked pairs, the single
    # uniform draw and the stacked out-of-set relative matrices keep every bit.
    assert _schedule_digest() == (
        "f8ad53b0d4bd9901d90adf6f97b95c5f6dcb8103b5e9bf1ef7d9b030703db0d9")


def test_rounds_are_decided_by_one_uniform_draw():
    rng = np.random.default_rng(23)
    for k in (2, 3, 8, 16):
        h = random_set(k, rng)
        plan = plan_elimination(h)
        runs = [{"true_index": t} for t in range(k)]
        runs += [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(3)]
        for kwargs in runs:
            for seed in (0, 5, 2**40):
                sim = simulate_elimination(plan, h, seed=seed, **kwargs)
                u = np.random.default_rng(seed).random(k - 1)
                assert len(sim.trace) == k - 1
                for r, record in enumerate(sim.trace):
                    assert record.outcome_target == (u[r] < record.p_target)


def test_a_stacked_relative_matrix_gives_the_bits_of_each_pair():
    # out-of-set simulations form U_i^dag U_true for every i in one call
    rng = np.random.default_rng(24)
    for k in (2, 3, 8, 16):
        stack = np.stack([haar_unitary(2, rng) for _ in range(k)])
        m = haar_unitary(2, rng)
        rels = _relative_matrix(stack, m)
        assert rels.shape == (k, 2, 2)
        for i in range(k):
            assert np.array_equal(rels[i], _relative_matrix(stack[i], m))


def test_round_probability_is_one_contraction_of_the_probe():
    # each round's p_target, |<probe|(U_i^dag U_true)^(x)N|probe>|^2, equals the
    # overlap of the test's target with the probe's image under the true gate
    rng = np.random.default_rng(9)
    checked = 0
    for k in (3, 5, 8):
        h = random_set(k, rng)
        plan = plan_elimination(h)
        truths = [(h.gates[t], {"true_index": t}) for t in range(k)]
        strangers = [Gate(haar_unitary(2, rng, special=True)) for _ in range(2)]
        truths += [(g, {"true_gate": g}) for g in strangers]
        for seed, (g_true, kwargs) in enumerate(truths):
            sim = simulate_elimination(plan, h, seed=seed, **kwargs)
            for record in sim.trace:
                test = h._tests[record.pair]
                target = apply_copies(h.gates[test.pair[0]], test.probe)
                old = term_amplitude(target, apply_copies(g_true, test.probe))
                assert abs(record.p_target - abs(old) ** 2) <= 1e-12
                assert 0.0 <= record.p_target <= 1.0
                if "true_index" in kwargs and kwargs["true_index"] in record.pair:
                    # the true gate is one of the pair: the outcome is certain,
                    # and the round reads its probability exactly
                    assert record.p_target == float(kwargs["true_index"] == record.pair[0])
                checked += 1
    assert checked > 100


def test_planning_builds_no_probe(monkeypatch):
    def boom(*args):
        raise AssertionError("a probe was built while planning")

    # library probes are built by _library_probe, user-built ones by __post_init__
    monkeypatch.setattr(gatediscrim.gates, "_library_probe", boom)
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
    original_build = gatediscrim.protocol._build_test

    def recorded_test(*args):
        built.append(original_test(*args))
        return built[-1]

    def recorded_build(h, i, j):
        used.append(original_build(h, i, j))
        return used[-1]

    monkeypatch.setattr(gatediscrim.protocol, "EliminationTest", recorded_test)
    monkeypatch.setattr(gatediscrim.protocol, "_build_test", recorded_build)
    rng = np.random.default_rng(14)
    h = random_set(8, rng)
    plan = plan_elimination(h)
    assert built == []
    strangers = [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(3)]
    for kwargs in [{"true_index": t} for t in range(len(h))] + strangers:
        for seed in range(4):
            used.clear()
            sim = simulate_elimination(plan, h, seed=seed, **kwargs)
            ran = list(used)
            planned = dict(zip(plan.pairs, plan.tests, strict=True))
            # each round ran the cached test of its pair, a planned one included
            for record, test in zip(sim.trace, ran, strict=True):
                assert test is h._tests[record.pair]
                if record.pair in planned:
                    assert test is planned[record.pair]
                truth = kwargs.get("true_index")
                if truth in record.pair:  # certain: read, not kept
                    assert truth not in test._p_target
                elif truth is not None:
                    assert test._p_target[truth] == record.p_target
    # reading the plan builds what the runs skipped, once, and then only reads
    tests = plan.tests
    assert all(a is b for a, b in zip(tests, plan.tests, strict=True))
    pairs = [t.pair for t in built]
    assert len(pairs) == len(set(pairs)) == len(h._tests) <= len(h) * (len(h) - 1) // 2
    assert all(h._tests[t.pair] is t for t in built)


def test_in_set_round_probability_is_computed_once_per_pair_and_truth(monkeypatch):
    calls = []
    original = gatediscrim.protocol._probe_amplitude

    def recorded(probe, op):
        calls.append(probe)
        return original(probe, op)

    monkeypatch.setattr(gatediscrim.protocol, "_probe_amplitude", recorded)
    rng = np.random.default_rng(21)
    for k in (3, 8):
        h = random_set(k, rng)
        plan = plan_elimination(h)
        contracted = {}  # (pair, truth) -> contractions
        seen = {}  # (pair, truth) -> the round's p_target
        for seed in range(6):
            for t in range(k):
                calls.clear()
                sim = simulate_elimination(plan, h, true_index=t, seed=seed)
                assert len(calls) <= len(sim.trace)
                for probe in calls:
                    pair = next(p for p, test in h._tests.items()
                                if test.__dict__.get("probe") is probe)
                    contracted[pair, t] = contracted.get((pair, t), 0) + 1
                for record in sim.trace:
                    if t in record.pair:  # certain: read exactly, never contracted
                        assert record.p_target == float(t == record.pair[0])
                        continue
                    assert seen.setdefault((record.pair, t), record.p_target) == record.p_target
        assert set(contracted) == set(seen)
        assert all(n == 1 for n in contracted.values())
        stored = {(pair, t): p for pair, test in h._tests.items()
                  for t, p in test._p_target.items()}
        assert stored == seen
        assert all(len(test._p_target) <= k - 2 for test in h._tests.values())
        # an out-of-set true gate is contracted every round and never stored
        for seed in range(4):
            stranger = Gate(haar_unitary(2, rng))
            calls.clear()
            sim = simulate_elimination(plan, h, true_gate=stranger, seed=seed)
            assert len(calls) == len(sim.trace) == k - 1
            assert all(c is h._tests[r.pair].probe for c, r in zip(calls, sim.trace))
            assert {(pair, t): p for pair, test in h._tests.items()
                    for t, p in test._p_target.items()} == stored


def test_a_certain_round_keeps_the_truth_at_any_copy_count():
    # {W, W V diag(e^{i delta}, e^{-i delta}) V^dag} at delta = 1e-8: contracting
    # N = 157 079 633 copies of U0^dag U0 as formed in floating point read
    # p_target as low as 1 - 2.8e-7 against the truth 0, so about one run in
    # 3.6e6 named the other gate.  The round now reads 1 or 0 and builds no probe.
    delta = 1e-8
    for seed in range(200):
        rng = np.random.default_rng(seed)
        w, v = haar_unitary(2, rng), haar_unitary(2, rng)
        h = HypothesisSet(gates=(Gate(w), Gate(w @ (v * np.exp([1j * delta, -1j * delta]))
                                                @ v.conj().T)))
        plan = plan_elimination(h)
        for truth in (0, 1):
            sim = simulate_elimination(plan, h, true_index=truth, seed=seed)
            (record,) = sim.trace
            assert record.pair == (0, 1) and abs(record.copies - 157079633) <= 4
            assert record.p_target == float(truth == 0)
            assert sim.identified_index == truth
        (test,) = h._tests.values()
        assert "probe" not in test.__dict__ and test._p_target == {}


def test_the_contraction_a_certain_round_skips_stays_within_rounding():
    # a round whose pair holds the truth reads 1 or 0; its probe, contracted
    # anyway with the set's U_i^dag U_true, stays within 128 N u of 1 for the
    # truth pair[0], and within criterion 3's 1e-16 of 0 for the truth pair[1]
    rng = np.random.default_rng(31)
    checked = 0
    for k in range(3, 17):
        h = random_set(k, rng)
        plan = plan_elimination(h)
        for t in range(k):
            for record in simulate_elimination(plan, h, true_index=t, seed=t).trace:
                i, j = record.pair
                if t not in (i, j):
                    continue
                test = h._tests[i, j]
                p = abs(_probe_amplitude(test.probe, h._rels[i, t])) ** 2
                if t == i:
                    assert record.p_target == 1.0 and abs(p - 1.0) <= 128 * test.copies * U
                else:
                    assert record.p_target == 0.0 and p <= 1e-16
                checked += 1
    assert checked > 200


def test_an_in_set_run_builds_one_probe_per_round_without_the_truth(monkeypatch):
    built = []
    original = gatediscrim.protocol._ncopies_probe

    def recorded(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(gatediscrim.protocol, "_ncopies_probe", recorded)
    rng = np.random.default_rng(32)
    for k in (2, 3, 5, 8, 16):
        gates = random_set(k, rng).gates
        for t in range(k):
            h = HypothesisSet(gates=gates)  # fresh: no test made yet
            built.clear()
            sim = simulate_elimination(plan_elimination(h), h, true_index=t, seed=t)
            uncertain = [r.pair for r in sim.trace if t not in r.pair]
            assert len(built) == len(uncertain)
            assert {pair for pair, test in h._tests.items()
                    if "probe" in test.__dict__} == set(uncertain)
            assert {pair for pair, test in h._tests.items() if test._p_target} == set(uncertain)


def test_a_warm_set_gives_the_results_of_a_cold_one():
    rng = np.random.default_rng(22)
    for k in (3, 8, 16):
        gates = random_set(k, rng).gates
        strangers = [Gate(haar_unitary(2, rng)) for _ in range(2)]
        warm = HypothesisSet(gates=gates)
        warm_plan = plan_elimination(warm)
        # warm the memo with other seeds and with out-of-set runs
        for seed in range(100, 106):
            for t in range(k):
                simulate_elimination(warm_plan, warm, true_index=t, seed=seed)
            for g in strangers:
                simulate_elimination(warm_plan, warm, true_gate=g, seed=seed)
        assert any(test._p_target for test in warm._tests.values())
        runs = [{"true_index": t} for t in range(k)] + [{"true_gate": g} for g in strangers]
        for kwargs in runs:
            for seed in (0, 1, 7):
                cold = HypothesisSet(gates=gates)
                expect = simulate_elimination(plan_elimination(cold), cold, seed=seed, **kwargs)
                got = simulate_elimination(warm_plan, warm, seed=seed, **kwargs)
                assert got == expect  # every field, each round's p_target included


def test_plan_pairs_must_name_two_hypotheses_of_the_set():
    h = HypothesisSet(gates=PAULI_SET.gates)
    TestPlan = gatediscrim.protocol.TestPlan
    for pairs in (((0, 7),), ((0, 0),), ((-1, 0),), ((0, 1), (1, 3)), ((0,),),
                  ((0, 1, 2),), ((0.0, 1),), ([0, 1],), ("01",)):
        with pytest.raises(ValidationError):
            TestPlan(pairs=pairs, hypotheses=h)
    assert h._tests == {}
    plan = TestPlan(pairs=[(2, 0), (np.int64(1), 0)], hypotheses=h)
    assert plan.pairs == ((2, 0), (1, 0))
    assert [t.pair for t in plan.tests] == [(2, 0), (1, 0)]


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
            assert test.pair == (i, j)
            ref = optimal_probe_ncopies(h.gates[i], h.gates[j])
            for name in ("coeffs", "system", "counts"):
                assert np.array_equal(getattr(test.probe, name), getattr(ref, name))
            assert test.probe.ancilla is None and ref.ancilla is None


def test_a_test_reads_its_copy_count_once(monkeypatch):
    # N is computed once, when the test is made, and never read from a probe
    reads = []
    original = gatediscrim.gates.ProbeState.copies
    counts = []
    original_count = gatediscrim.protocol._copies_for_distance

    def counted(probe):
        reads.append(probe)
        return original.fget(probe)

    def counted_copies(delta):
        counts.append(delta)
        return original_count(delta)

    monkeypatch.setattr(gatediscrim.gates.ProbeState, "copies", property(counted))
    monkeypatch.setattr(gatediscrim.protocol, "_copies_for_distance", counted_copies)
    rng = np.random.default_rng(25)
    h = random_set(8, rng)
    plan = plan_elimination(h)
    strangers = [{"true_gate": Gate(haar_unitary(2, rng))} for _ in range(2)]
    runs = [{"true_index": t} for t in range(len(h))] + strangers

    def run_all():
        for kwargs in runs:
            for seed in range(5):
                sim = simulate_elimination(plan, h, seed=seed, **kwargs)
                assert sim.total_runs == sum(r.copies for r in sim.trace)

    run_all()  # makes every test these runs reach and runs each at least once
    built = dict(h._tests)
    assert len(counts) == len(built) and reads == []
    counts.clear()
    run_all()
    assert h._tests == built
    assert reads == [] and counts == []
