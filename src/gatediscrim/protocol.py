"""Sequential elimination among a finite set of candidate qubit gates.

Each round perfectly discriminates the two most-distant surviving
candidates: the probe from `optimal_probe_ncopies` makes the two branch
images orthogonal, so a two-outcome projective measurement removes exactly
one candidate per round and never removes the true gate.  k candidates are
identified in k-1 rounds with certainty.  Candidates are told apart up to a
global phase only, so any qubit unitaries qualify, whatever their determinants.

A plan is a schedule of pairs; it builds nothing.  Each pair's test is made
the first time a simulation runs it (or `TestPlan.tests` is read) and kept
in its hypothesis set, so every test is made at most once per set.  A test
holds its pair, its copy count and its pair's frame; its probe is built
from that frame the first time it is read, and at most once.  The set forms
every ordered relative gate U_i^dag U_j and its qubit frame once, on
construction, and an in-set round reads U_i^dag U_true from the set.
A round whose pair holds the in-set true gate needs no probe: its outcome
is certain by construction, so its target probability is read, 1 or 0, not
computed.  Any other in-set round keeps its target probability in the test,
so repeated simulations on a set contract each (pair, truth) only once; an
out-of-set true gate is contracted every round.

The most distant surviving pair is read from a ranked list of all pairs,
built once per hypothesis set.  Survivors only shrink, so a pair that is
skipped once is never alive again, and planning or re-planning walks that
list once per plan or simulation, from front to back.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import (
    IDENTICAL_TOL,
    Gate,
    ProbeState,
    _copies_for_distance,
    _ncopies_probe,
    _probe_amplitude,
    _relative_matrix,
    _su2_folded_eigenbasis,
    _su2_frame,
)
from .numkit import _rng


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """Candidate qubit gates, pairwise distinct up to a global phase.

    Any unitaries are accepted; two whose distance is at most
    `gates.IDENTICAL_TOL` coincide up to a global phase and are refused.
    `distances` is the read-only k x k table of pairwise `gate_distance`
    values, symmetric with a zero diagonal.  It is computed once, on
    construction, and planning and simulation read it instead of
    recomputing distances.  The gate matrices are stacked once and kept
    privately and read-only (`_mats`, k x 2 x 2); an out-of-set simulation
    forms its k relative gates U_i^dag U_true from them.  Every ordered
    relative gate U_i^dag U_j is formed once, in one stacked
    `gates._relative_matrix` call, and kept privately and read-only (`_rels`,
    k x k x 2 x 2), as is its frame (delta, 2 alpha, 2 beta) from one stacked
    `gates._su2_frame` call (`_frames`, three k x k arrays).  Each pair's
    probe is built from its frame, and in-set rounds read U_i^dag U_true
    from `_rels`.  `distances` is the frame's half-arc table itself: it
    is exactly symmetric, as `_su2_frame(R^dag)` reads (conj alpha, -beta)
    and so the same half-arc as R, and its diagonal reads 0, as U^dag U
    is formed exactly Hermitian, so beta = 0 and alpha is real.  The same
    table ranks every pair (i, j), i < j, once: by distance, largest first,
    ties in row-major order.  Planning and re-planning take the first
    ranked pair whose two members survive, which is the survivors' most
    distant pair.  The set also keeps each pair's `EliminationTest` once it
    is first made, so plans and simulations on the set make every test, and
    build its probe, at most once (at most k(k-1)/2 of them), and each test
    keeps at most k - 2 round probabilities, one per in-set true gate
    outside its pair.  A new set starts with none.
    """

    gates: tuple[Gate, ...]
    distances: np.ndarray = field(init=False, repr=False)
    _mats: np.ndarray = field(init=False, repr=False, compare=False)
    _rels: np.ndarray = field(init=False, repr=False, compare=False)
    _frames: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)
    _ranked: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
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
        mats = np.array([g.matrix for g in self.gates])
        rels = _relative_matrix(mats[:, None], mats[None, :])
        frames = _su2_frame(rels)
        upper = np.arange(k)[:, None] < np.arange(k)  # the pairs i < j
        rows, cols = np.nonzero(upper)  # in row-major order, as is delta
        delta = frames[0][upper]
        order = np.argsort(-delta, kind="stable")  # stable: ties keep row-major order
        for array in (mats, rels, *frames):
            array.setflags(write=False)
        self.__dict__.update(distances=frames[0], _mats=mats, _rels=rels, _frames=frames,
                             _ranked=tuple(zip(rows[order].tolist(), cols[order].tolist())))
        close = np.flatnonzero(delta <= IDENTICAL_TOL)
        if close.size:  # the first such pair in row-major order
            i, j = rows[close[0]], cols[close[0]]
            raise ValidationError(f"hypotheses {i} and {j} coincide up to global phase")

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True, eq=False)
class EliminationTest:
    """One pairwise discrimination round.

    `copies` is N = min_copies of the pair, and `_frame` the pair's qubit
    frame (delta, 2 alpha, 2 beta) from `gates._su2_frame`, as Python
    scalars.  `probe` is built from them the first time it is read, its
    eigenbasis by `gates._su2_folded_eigenbasis` of the frame
    (`optimal_probe_ncopies` of the pair, bit for bit), and kept, so a test
    whose rounds all hold the true gate builds none.  The measurement is
    the projective pair {P, 1 - P} with P onto the target, the probe's image
    under candidate `pair[0]` (`h.gates[pair[0]]`).  Landing on P rules out
    `pair[1]` (the images are orthogonal), the complement rules out
    `pair[0]`.  The probability of landing on P when candidate t is the true
    gate, |<probe|(U_pair[0]^dag U_t)^(x)N|probe>|^2, depends only on the test
    and t: it is 1 for t = pair[0] and 0 for t = pair[1], by construction,
    and `simulate_elimination` reads those; for any other in-set t it keeps
    the contracted value privately, keyed by t, the first time it runs the
    test against t (at most k - 2 entries).  Dense work on the probe goes
    through `ProbeState.to_vector`.
    """

    pair: tuple[int, int]
    copies: int
    _frame: tuple[float, complex, complex] = field(repr=False, compare=False)
    _p_target: dict[int, float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    @cached_property
    def probe(self) -> ProbeState:
        delta, alpha2, beta2 = self._frame
        return _ncopies_probe(delta, _su2_folded_eigenbasis(alpha2, beta2), self.copies)


@dataclass(frozen=True, eq=False)
class TestPlan:
    """Scheduled pairs of `hypotheses`, assuming the nominal (second-index) discard each time.

    The plan holds pairs only.  `tests` gives the rounds' `EliminationTest`s,
    read from the set's test cache and built there the first time a pair
    is asked for.  Each pair (i, j) must name two different candidates,
    0 <= i, j < k; any other pair raises ValidationError.
    """

    pairs: tuple[tuple[int, int], ...]
    hypotheses: HypothesisSet

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        k = len(self.hypotheses)
        for pair in self.pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and isinstance(pair[0], (int, np.integer)) and 0 <= pair[0] < k
                    and isinstance(pair[1], (int, np.integer)) and 0 <= pair[1] < k
                    and pair[0] != pair[1]):
                raise ValidationError(
                    f"plan pair {pair!r} must be two different indices in 0..{k - 1}")

    @property
    def tests(self) -> tuple[EliminationTest, ...]:
        return tuple(_build_test(self.hypotheses, i, j) for i, j in self.pairs)


@dataclass(frozen=True)
class TestRecord:
    """One simulated round.

    `p_target` is the probability of the target outcome (P onto the test's
    target, which discards `pair[1]`) that the round's outcome was drawn
    from: exactly 1.0 when the true gate is `pair[0]` and exactly 0.0 when
    it is `pair[1]`, values read, not contracted.  For an in-set true gate
    outside the pair it is the contracted probability.  For an out-of-set
    true gate, where neither outcome is guaranteed, it is the round's real
    risk of discarding `pair[1]`.
    """

    pair: tuple[int, int]
    copies: int
    outcome_target: bool
    discarded: int
    p_target: float


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


def _next_alive(pairs, alive: set[int]) -> tuple[int, int] | None:
    """Advance the iterator `pairs` past its first pair with both members in `alive`.

    Returns that pair, or None once `pairs` runs out.  On an iterator over a
    set's `_ranked` it is the survivors' most distant pair, ties going to the
    first in row-major order, as long as `alive` has only shrunk since the
    iterator was made: every pair it skipped has a member already gone.
    """
    for pair in pairs:
        if pair[0] in alive and pair[1] in alive:
            return pair
    return None


def _build_test(h: HypothesisSet, i: int, j: int) -> EliminationTest:
    """Pair (i, j)'s test from the set's cache, made there on first use.

    The test takes N from the pair's half-arc and keeps the frame the set
    stored for U_i^dag U_j, so no relative gate is formed and no probe is
    built here.  Its probe, built on first read, is
    `optimal_probe_ncopies(h.gates[i], h.gates[j])` bit for bit, in either
    order of the pair.
    """
    test = h._tests.get((i, j))
    if test is None:
        delta, alpha2, beta2 = (part[i, j].item() for part in h._frames)
        test = h._tests[i, j] = EliminationTest(
            (i, j), _copies_for_distance(delta), (delta, alpha2, beta2))
    return test


def plan_elimination(h: HypothesisSet) -> TestPlan:
    """Greedy schedule: test the most-distant surviving pair, k-1 rounds total.

    The static plan assumes each round discards the second index of its
    pair; the simulator re-plans whenever an actual outcome diverges.  Each
    round's pair is the first pair of the set's ranked list whose two
    members survive, found by one pass over that list for the whole plan.
    Only the pairs are scheduled; no test is built here.
    """
    alive, ranked = set(range(len(h))), iter(h._ranked)
    pairs = []
    while len(alive) > 1:
        i, j = _next_alive(ranked, alive)
        pairs.append((i, j))
        alive.remove(j)
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
    survivors, from the set's ranked list of pairs as in `plan_elimination`,
    with one pass over that list per simulation.  Each round's test comes
    from the set's cache, so only the rounds that run make a test, each once
    per set.  A round whose pair (i, j) holds the in-set true gate reads its
    target probability: 1.0 when the truth is i (the target is its image),
    0.0 when it is j (the two images are orthogonal).  It builds no probe
    and contracts nothing, so a round against an in-set truth cannot
    discard it.  Any other in-set round reads its target probability from
    the test's memo, filled the first time the test runs against that
    `true_index` from the set's U_i^dag U_true, so no relative gate is formed;
    an out-of-set `true_gate` is contracted with the probe every round and
    never stored, its relative matrices to all k candidates formed in one
    call on the set's stacked `_mats`.
    The k-1 uniforms that decide the rounds are drawn in one call: round r
    lands on the target when u[r] < p_target, with
    u = numpy.random.default_rng(seed).random(k - 1).  Cold or warm, the
    probabilities and outcomes are the same bits.  A `true_index` that is
    not an integer in 0..k-1, or a negative seed, raises ValidationError.
    """
    if plan.hypotheses is not h:
        raise ValidationError("the plan was made for another hypothesis set")
    if (true_index is None) == (true_gate is None):
        raise ValidationError("give exactly one of true_index or true_gate")
    if true_index is not None:
        if not (isinstance(true_index, (int, np.integer)) and 0 <= true_index < len(h)):
            raise ValidationError(f"true_index {true_index!r} is not an index in 0..{len(h) - 1}")
        g_true, in_set = h.gates[true_index], True
    else:
        if not isinstance(true_gate, Gate) or true_gate.dim != 2:
            raise ValidationError("true_gate must be a qubit Gate")
        g_true, in_set = true_gate, False
    k = len(h)
    uniforms = _rng(seed).random(k - 1).tolist()
    if not in_set:
        # <target|U_true^(x)N|probe> = <probe|(U_i^dag U_true)^(x)N|probe>
        rels = _relative_matrix(h._mats, g_true.matrix)
    alive, pending, ranked = set(range(k)), iter(plan.pairs), iter(h._ranked)
    records: list[TestRecord] = []
    for u in uniforms:
        i, j = _next_alive(pending, alive) or _next_alive(ranked, alive)
        test = _build_test(h, i, j)
        if true_index == i:
            p_target = 1.0
        elif true_index == j:
            p_target = 0.0
        elif (p_target := test._p_target.get(true_index)) is None:  # always for a stranger
            rel = h._rels[i, true_index] if in_set else rels[i]
            p_target = min(1.0, abs(_probe_amplitude(test.probe, rel)) ** 2)
            if in_set:
                test._p_target[true_index] = p_target
        outcome_target = u < p_target
        discarded = j if outcome_target else i
        alive.remove(discarded)
        records.append(TestRecord(test.pair, test.copies, outcome_target, discarded, p_target))
    (identified,) = alive
    return SimResult(identified, sum(r.copies for r in records), tuple(records), in_set)
