"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a single PASS/FAIL line with the measured figure next to
its tolerance; the lines are echoed in an "acceptance criteria" section at
the end of the pytest run.  Seeds are fixed; every statistical bound below
was chosen with margin against its observed value.
"""

import math

import numpy as np

import gatediscrim as gd
from conftest import ACCEPTANCE_LINES
from helpers import gauss_legendre_2d, haar_unitary, ks_statistic, rand_prob, rand_state


def report(num: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status}: criterion {num} ({title}): {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def su2(rng) -> gd.Gate:
    return gd.Gate(haar_unitary(2, rng, special=True))


def test_criterion_01_su2_closed_form_matches_oracle():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        u1, u2 = su2(rng), su2(rng)
        closed = gd.gate_fidelity_su2(u1, u2)
        numeric = gd.oracle_min_overlap(u1, u2, n=1)
        worst = max(worst, abs(closed - numeric))
    ok = worst <= 1e-6
    report(1, "single-use fidelity equals variational minimum", ok,
           f"max |closed - oracle| = {worst:.3e}, tol 1e-6, 100 pairs")
    assert ok


def test_criterion_02_optimal_probes_attain_fidelity():
    rng = np.random.default_rng(1002)
    worst_ent = worst_sep = 0.0
    for _ in range(100):
        u1, u2 = su2(rng), su2(rng)
        fid = gd.gate_fidelity_su2(u1, u2)
        ent = gd.probe_overlap(u1, u2, gd.optimal_probe_single(u1, u2, entangled=True), n=1)
        sep = gd.probe_overlap(u1, u2, gd.optimal_probe_separable(u1, u2), n=1)
        worst_ent = max(worst_ent, abs(ent - fid))
        worst_sep = max(worst_sep, abs(sep - fid))
    ok = worst_ent <= 1e-10 and worst_sep <= 1e-10
    report(2, "entangled and balanced separable probes reach the bound", ok,
           f"max dev entangled {worst_ent:.3e}, separable {worst_sep:.3e}, tol 1e-10, 100 pairs")
    assert ok


def test_criterion_03_ncopy_probe_perfect_and_sharp():
    rng = np.random.default_rng(1003)
    worst_overlap = 0.0
    worst_eq = 0.0
    min_below = math.inf
    for _ in range(100):
        while True:
            delta = float(rng.uniform(0.05, math.pi / 2 - 1e-9))
            n_exp = math.ceil(math.pi / (2.0 * delta) - 1e-12)
            # keep (n-1)*delta clear of pi/2 so the sub-minimal overlap is
            # macroscopically positive, not boundary dust
            if (n_exp - 1) * delta <= math.pi / 2 - 0.05:
                break
        u1 = su2(rng)
        w = haar_unitary(2, rng)
        rel = w @ np.diag([np.exp(1j * delta), np.exp(-1j * delta)]) @ w.conj().T
        u2 = gd.Gate(u1.matrix @ rel)
        n = gd.min_copies(u1, u2)
        probe = gd.optimal_probe_ncopies(u1, u2)
        worst_overlap = max(worst_overlap, gd.probe_overlap(u1, u2, probe, n=n))
        k = n - 1
        short_phases = delta * (k - 2.0 * np.arange(k + 1))
        below = gd.convex_min_overlap(short_phases)
        worst_eq = max(worst_eq, abs(below - math.cos(k * delta) ** 2))
        min_below = min(min_below, below)
    ok = worst_overlap <= 1e-16 and min_below > 1e-6 and worst_eq <= 1e-9
    report(3, "minimal copy count is exact and sharp", ok,
           f"max overlap at n {worst_overlap:.3e} (tol 1e-16), "
           f"min overlap at n-1 {min_below:.3e} (> 1e-6), "
           f"closed-form deviation {worst_eq:.3e} (tol 1e-9), 100 pairs")
    assert ok


def test_criterion_04_orthogonalizing_qutrit_family():
    rng = np.random.default_rng(1004)
    ident = gd.Gate(np.eye(3))
    worst_unit = worst_entry = worst_fid = 0.0
    for _ in range(50):
        g1, g2 = rng.uniform(0.05, math.pi / 2 - 0.05, size=2)
        phis = rng.uniform(0.0, 2 * math.pi, size=5)
        gate = gd.su3_example_gate(float(g1), float(g2), [float(x) for x in phis])
        m = gate.matrix
        worst_unit = max(worst_unit, float(np.abs(m.conj().T @ m - np.eye(3)).max()))
        worst_entry = max(worst_entry, abs(m[0, 0]))
        worst_fid = max(worst_fid, gd.gate_fidelity_sud(ident, gate))
    ok = worst_unit <= 1e-10 and worst_entry <= 1e-12 and worst_fid == 0.0
    report(4, "qutrit family is unitary and perfectly distinguishable", ok,
           f"max unitarity residual {worst_unit:.3e} (tol 1e-10), "
           f"max |<e1|U|e1>| {worst_entry:.3e} (tol 1e-12), max fidelity {worst_fid}, 50 draws")
    assert ok


def test_criterion_05_average_fidelity_monte_carlo():
    rng = np.random.default_rng(1005)
    worst_sigma = 0.0
    for i in range(20):
        u1, u2 = su2(rng), su2(rng)
        closed = gd.avg_fidelity_su2_closed(u1, u2)
        est = gd.avg_fidelity_mc(u1, u2, samples=100_000, seed=4000 + i)
        worst_sigma = max(worst_sigma, abs(est.estimate - closed) / est.stderr)
    flip = gd.Gate(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # fidelity 0 vs identity
    zero_est = gd.avg_fidelity_mc(gd.Gate(np.eye(2)), flip, samples=100_000, seed=5999)
    off = abs(zero_est.estimate - 1.0 / 3.0)
    ok = worst_sigma <= 3.0 and off <= 0.005
    report(5, "Monte-Carlo average fidelity matches closed form", ok,
           f"max deviation {worst_sigma:.2f} standard errors (tol 3), "
           f"zero-fidelity pair off by {off:.2e} (tol 5e-3), 20 pairs x 1e5 samples")
    assert ok


def test_criterion_06_metric_forms_distance_and_embedding():
    rng = np.random.default_rng(1006)

    def draw(margin=0.2, min_form=0.05):
        while True:
            p = gd.GateSU2Params(
                float(rng.uniform(margin, math.pi / 2 - margin)),
                float(rng.uniform(0.0, 2 * math.pi)),
                float(rng.uniform(0.0, 2 * math.pi)),
            )
            t = gd.TangentIncrement(*(float(x) for x in rng.standard_normal(3)))
            if gd.metric_form_coords(p, t) >= min_form:
                return p, t

    worst_agree = 0.0
    for _ in range(100):
        p, t = draw(min_form=0.0)
        g_coords = gd.metric_form_coords(p, t)
        g_matrix = gd.metric_form_matrix(gd.su2_from_params(p), gd.su2_tangent(p, t))
        worst_agree = max(worst_agree, abs(g_coords - g_matrix) / max(1.0, g_coords))

    eps = 1e-4
    worst_ratio = 0.0
    for _ in range(50):
        p, t = draw()
        g = gd.metric_form_coords(p, t)
        q = gd.GateSU2Params(p.theta1 + eps * t.dtheta1,
                             p.theta2 + eps * t.dtheta2,
                             p.theta3 + eps * t.dtheta3)
        d = gd.gate_distance(gd.su2_from_params(p), gd.su2_from_params(q))
        worst_ratio = max(worst_ratio, abs(d * d / (eps * eps * g) - 1.0))

    h = 1e-5
    worst_embed = 0.0
    for _ in range(50):
        p, t = draw(min_form=0.0)
        g = gd.metric_form_coords(p, t)
        plus = gd.GateSU2Params(p.theta1 + h * t.dtheta1, p.theta2 + h * t.dtheta2,
                                p.theta3 + h * t.dtheta3)
        minus = gd.GateSU2Params(p.theta1 - h * t.dtheta1, p.theta2 - h * t.dtheta2,
                                 p.theta3 - h * t.dtheta3)
        dx = (gd.sphere_embed(gd.su2_from_params(plus)).as_array()
              - gd.sphere_embed(gd.su2_from_params(minus)).as_array()) / (2 * h)
        euclid = float(dx @ dx)
        worst_embed = max(worst_embed, abs(euclid - g) / max(1.0, g))

    ok = worst_agree <= 1e-9 and worst_ratio <= 1e-3 and worst_embed <= 1e-9
    report(6, "metric forms, gate distance, and sphere embedding agree", ok,
           f"form agreement {worst_agree:.3e} (tol 1e-9), "
           f"distance ratio dev {worst_ratio:.3e} at eps 1e-4 (tol 1e-3), "
           f"embedding dev {worst_embed:.3e} (tol 1e-9)")
    assert ok


def test_criterion_07_invariant_sampler_marginal_and_trace():
    n = 100_000
    params = gd.haar_sample_su2(seed=1007, n=n)
    t1, t2 = params.theta1, params.theta2
    ks = ks_statistic(t1, lambda x: np.sin(x) ** 2)

    mc_mean = float(np.mean(4.0 * np.cos(t1) ** 2 * np.cos(t2) ** 2))
    quad = gauss_legendre_2d(
        lambda a, b: 4.0 * np.cos(a) ** 2 * np.cos(b) ** 2
        * np.sin(2.0 * a) / (2.0 * math.pi),
        (0.0, math.pi / 2), (0.0, 2.0 * math.pi),
    )
    off = abs(mc_mean - quad)
    ok = ks <= 0.01 and off <= 0.02
    report(7, "group-invariant sampler has the right density", ok,
           f"KS statistic {ks:.4f} (tol 0.01), "
           f"mean squared trace {mc_mean:.4f} vs quadrature {quad:.6f}, off {off:.2e} (tol 0.02)")
    assert ok


def test_criterion_08_mixed_fidelity_reduces_to_pure():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        a, b = rand_state(dim, rng), rand_state(dim, rng)
        mixed = gd.mixed_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        worst = max(worst, abs(mixed - gd.pure_fidelity(a, b)))
    half = gd.mixed_fidelity(np.eye(2) / 2, np.diag([1.0, 0.0]))
    off = abs(half - 0.5)
    ok = worst <= 1e-10 and off <= 1e-12
    report(8, "general state fidelity reduces to the pure-state form", ok,
           f"max rank-1 deviation {worst:.3e} (tol 1e-10), "
           f"maximally-mixed-vs-basis off {off:.3e} (tol 1e-12), 100 pairs")
    assert ok


def test_criterion_09_elimination_protocol_soundness():
    rng = np.random.default_rng(1009)
    failures = 0
    runs_mismatch = 0
    for trial in range(1000):
        k = int(rng.integers(2, 6))
        gates = [su2(rng) for _ in range(k)]
        h = gd.HypothesisSet(tuple(gates))
        true_idx = int(rng.integers(k))
        res = gd.simulate_elimination(gd.plan_elimination(h), h,
                                      true_index=true_idx, seed=9000 + trial)
        if res.identified_index != true_idx:
            failures += 1
        expected = sum(gd.min_copies(gates[i], gates[j]) for i, j in
                       (rec.pair for rec in res.trace))
        if res.total_runs != expected or res.total_runs != sum(
                rec.copies for rec in res.trace):
            runs_mismatch += 1

    pauli = gd.HypothesisSet((
        gd.Gate(np.eye(2)),
        gd.Gate(1j * np.array([[0.0, 1.0], [1.0, 0.0]])),
        gd.Gate(1j * np.diag([1.0, -1.0])),
    ))
    pauli_bad = 0
    plan = gd.plan_elimination(pauli)
    for seed in range(50):
        for idx in range(3):
            res = gd.simulate_elimination(plan, pauli, true_index=idx, seed=seed)
            if res.total_runs != 2 or res.identified_index != idx:
                pauli_bad += 1

    ok = failures == 0 and runs_mismatch == 0 and pauli_bad == 0
    report(9, "elimination always convicts the true gate", ok,
           f"{failures} misidentifications, {runs_mismatch} run-count mismatches in 1000 trials; "
           f"{pauli_bad} of 150 orthogonal-triple sims took other than 2 runs")
    assert ok


def test_criterion_10_classical_distance_and_divergences():
    rng = np.random.default_rng(1010)
    eps = 1e-5
    worst_ratio = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        p = rand_prob(dim, rng, floor=0.2 / dim)
        v = rng.standard_normal(dim)
        v -= v.mean()
        quad = 0.25 * float(np.sum(v * v / p))
        if quad < 1e-3:
            continue
        d = gd.classical_distance(p, p + eps * v)
        worst_ratio = max(worst_ratio, abs(d * d / (eps * eps * quad) - 1.0))

    gens = [math.log, lambda t: t - 1.0, lambda t: (math.sqrt(t) - 1.0) ** 2]
    min_div = math.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        p = rand_prob(dim, rng, floor=1e-3)
        q = rand_prob(dim, rng, floor=1e-3)
        for g in gens:
            min_div = min(min_div, gd.relative_entropy(p, q, g))
    ok = worst_ratio <= 1e-3 and min_div >= 0.0
    report(10, "statistical distance is Fisher length; divergences nonnegative", ok,
           f"ratio dev {worst_ratio:.3e} at eps 1e-5 (tol 1e-3), "
           f"min divergence {min_div:.3e} over 1000 pairs x 3 generators")
    assert ok
