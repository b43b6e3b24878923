"""Sequential elimination among a finite set of candidate qubit gates.

Each round perfectly discriminates the two most-distant surviving
candidates: the probe from `optimal_probe_ncopies` makes the two branch
images orthogonal, so a two-outcome projective measurement removes exactly
one candidate per round and never removes the true gate.  k candidates are
identified in k-1 rounds with certainty.  Candidates are told apart up to a
global phase only, so any qubit unitaries qualify, whatever their determinants.

A plan is a schedule of pairs; it builds nothing.  Each pair's test is built
the first time a simulation runs it (or `TestPlan.tests` is read) and kept
in its hypothesis set, so every test is built at most once per set.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import (
    IDENTICAL_TOL,
    Gate,
    ProbeState,
    _ncopies_probe,
    _relative_matrix,
    _su2_half_arc,
    _term_amplitude,
)
from .numkit import MAX_TENSOR_DIM


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """Candidate qubit gates, pairwise distinct up to a global phase.

    Any unitaries are accepted; two whose distance is at most
    `gates.IDENTICAL_TOL` coincide up to a global phase and are refused.
    `distances` is the read-only k x k table of pairwise `gate_distance`
    values, symmetric with a zero diagonal.  It is computed once, on
    construction, and planning and simulation read it instead of
    recomputing distances.  The set also keeps each pair's
    `EliminationTest` once it is first built, so plans and simulations on
    the set build every test at most once (at most k(k-1)/2 of them).
    """

    gates: tuple[Gate, ...]
    distances: np.ndarray = field(init=False, repr=False)
    _tests: dict[tuple[int, int], EliminationTest] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(self.gates) < 2:
            raise ValidationError("need at least two candidate gates")
        for g in self.gates:
            if not isinstance(g, Gate):
                raise ValidationError("hypotheses must be Gate instances")
            if g.dim != 2:
                raise DimensionError("the elimination protocol handles qubit gates only")
        k = len(self.gates)
        mats = np.stack([g.matrix for g in self.gates])
        rows, cols = np.triu_indices(k, 1)
        table = np.zeros((k, k))
        table[rows, cols] = _su2_half_arc(_relative_matrix(mats[rows], mats[cols]))
        table[cols, rows] = table[rows, cols]
        table.setflags(write=False)
        object.__setattr__(self, "distances", table)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if table[i, j] <= IDENTICAL_TOL:
                raise ValidationError(
                    f"hypotheses {i} and {j} coincide up to global phase"
                )

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True, eq=False)
class EliminationTest:
    """One pairwise discrimination round.

    `gate` is candidate `pair[0]`.  `copies` (the probe's) and `target`, the
    probe's image under `gate`, are read from the stored fields when asked
    for.  The measurement is the projective pair {P, 1 - P} with P onto
    `target`.  Landing on P rules out `pair[1]` (the images are orthogonal),
    the complement rules out `pair[0]`.
    """

    pair: tuple[int, int]
    probe: ProbeState
    gate: Gate

    @property
    def copies(self) -> int:
        return self.probe.copies

    @property
    def target(self) -> ProbeState:
        return _apply_copies(self.gate, self.probe)

    def povm(self, max_dim: int = MAX_TENSOR_DIM) -> list[np.ndarray]:
        """Dense two-element projective measurement {P, 1 - P}."""
        v = self.target.to_vector(max_dim)
        proj = np.outer(v, v.conj())
        return [proj, np.eye(v.size) - proj]


@dataclass(frozen=True, eq=False)
class TestPlan:
    """Scheduled pairs of `hypotheses`, assuming the nominal (second-index) discard each time.

    The plan holds pairs only.  `tests` gives the rounds' `EliminationTest`s,
    read from the set's test cache and built there the first time a pair
    is asked for.
    """

    pairs: tuple[tuple[int, int], ...]
    hypotheses: HypothesisSet

    @property
    def tests(self) -> tuple[EliminationTest, ...]:
        return tuple(_build_test(self.hypotheses, i, j) for i, j in self.pairs)


@dataclass(frozen=True)
class TestRecord:
    pair: tuple[int, int]
    copies: int
    outcome_target: bool
    discarded: int


@dataclass(frozen=True)
class SimResult:
    """Outcome of a simulated elimination run.

    `true_in_set` is False when the simulation was driven by an out-of-set
    gate; the identification is then unverified by construction.
    """

    identified_index: int
    total_runs: int
    trace: tuple[TestRecord, ...]
    true_in_set: bool


def _apply_copies(gate: Gate, probe: ProbeState) -> ProbeState:
    """Image of a probe under gate^(x)copies (x) 1 (a test's target)."""
    return replace(probe, system=probe.system @ gate.matrix.T)


def _most_distant_pair(h: HypothesisSet, surviving: list[int]) -> tuple[int, int]:
    """The survivors' most distant pair (i, j), i before j; ties go to the first row-major."""
    # The block is symmetric with a zero diagonal and positive entries off it, so
    # its first row-major maximum lies above the diagonal: an entry below comes
    # after its mirror.
    block = h.distances[surviving][:, surviving]
    a, b = divmod(int(block.argmax()), len(surviving))
    return surviving[a], surviving[b]


def _build_test(h: HypothesisSet, i: int, j: int) -> EliminationTest:
    """Pair (i, j)'s test from the set's cache, built there on first use.

    The probe is `optimal_probe_ncopies(h.gates[i], h.gates[j])`, bit for
    bit, with delta read from the distance table instead of recomputed.
    """
    test = h._tests.get((i, j))
    if test is None:
        gi = h.gates[i]
        rel = _relative_matrix(gi.matrix, h.gates[j].matrix)
        probe = _ncopies_probe(rel, float(h.distances[i, j]))
        test = h._tests[i, j] = EliminationTest(pair=(i, j), probe=probe, gate=gi)
    return test


def plan_elimination(h: HypothesisSet) -> TestPlan:
    """Greedy schedule: test the most-distant surviving pair, k-1 rounds total.

    The static plan assumes each round discards the second index of its
    pair; the simulator re-plans whenever an actual outcome diverges.  Only
    the pairs are scheduled; no test is built here.
    """
    surviving = list(range(len(h)))
    pairs = []
    while len(surviving) > 1:
        i, j = _most_distant_pair(h, surviving)
        pairs.append((i, j))
        surviving.remove(j)
    return TestPlan(pairs=tuple(pairs), hypotheses=h)


def simulate_elimination(
    plan: TestPlan,
    h: HypothesisSet,
    true_index: int | None = None,
    seed: int = 0,
    true_gate: Gate | None = None,
) -> SimResult:
    """Run the elimination rounds against a concrete true gate.

    Outcomes are sampled from the exact measurement probabilities.  Exactly
    one of `true_index` / `true_gate` must be given; an out-of-set
    `true_gate` is allowed (robustness studies) and flagged in the result.
    `plan` must have been made for `h`.  Planned pairs are consumed while
    both survive; otherwise the round is re-planned greedily among the
    survivors.  Each round's test comes from the set's cache, so only the
    rounds that run are built, each once per set.
    """
    if plan.hypotheses is not h:
        raise ValidationError("the plan was made for another hypothesis set")
    if (true_index is None) == (true_gate is None):
        raise ValidationError("give exactly one of true_index or true_gate")
    if true_index is not None:
        if not 0 <= true_index < len(h):
            raise ValidationError(f"true_index {true_index} out of range")
        g_true, in_set = h.gates[true_index], True
    else:
        if not isinstance(true_gate, Gate) or true_gate.dim != 2:
            raise ValidationError("true_gate must be a qubit Gate")
        g_true, in_set = true_gate, False
    rng = np.random.default_rng(seed)
    surviving = list(range(len(h)))
    pending = iter(plan.pairs)
    records: list[TestRecord] = []
    total_runs = 0
    while len(surviving) > 1:
        pair = next((p for p in pending if p[0] in surviving and p[1] in surviving), None)
        i, j = pair or _most_distant_pair(h, surviving)
        test = _build_test(h, i, j)
        # <target|U_true^(x)N|probe> = <probe|(U_i^dag U_true)^(x)N|probe>
        rel = _relative_matrix(test.gate.matrix, g_true.matrix)
        p_target = min(1.0, abs(_term_amplitude(test.probe, test.probe, rel)) ** 2)
        outcome_target = bool(rng.random() < p_target)
        discarded = j if outcome_target else i
        surviving.remove(discarded)
        total_runs += test.copies
        records.append(TestRecord(pair=test.pair, copies=test.copies,
                                  outcome_target=outcome_target, discarded=discarded))
    return SimResult(
        identified_index=surviving[0],
        total_runs=total_runs,
        trace=tuple(records),
        true_in_set=in_set,
    )
