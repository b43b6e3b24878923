import math
import tracemalloc

import numpy as np
import pytest

from gatediscrim import (
    DimensionError,
    Gate,
    GateSU2Params,
    TangentIncrement,
    ValidationError,
    avg_fidelity_mc,
    avg_fidelity_su2_closed,
    gate_distance,
    gate_fidelity_su2,
    haar_sample_su2,
    metric_form_coords,
    metric_form_matrix,
    overlap_samples,
    sphere_embed,
    su2_from_params,
    su2_tangent,
)
from gatediscrim import SizeLimitError, geometry, numkit
from helpers import avg_fidelity_exact, haar_unitary


def rand_point_tangent(rng, margin=0.05):
    p = GateSU2Params(
        float(rng.uniform(margin, math.pi / 2 - margin)),
        float(rng.uniform(margin, 2 * math.pi - margin)),
        float(rng.uniform(margin, 2 * math.pi - margin)),
    )
    t = TangentIncrement(*rng.standard_normal(3))
    return p, t


def test_metric_forms_agree():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p, t = rand_point_tangent(rng)
        via_matrix = metric_form_matrix(su2_from_params(p), su2_tangent(p, t))
        via_coords = metric_form_coords(p, t)
        assert abs(via_matrix - via_coords) <= 1e-9 * max(1.0, via_coords)


def test_metric_matrix_warns_on_non_tangent():
    with pytest.warns(UserWarning):
        metric_form_matrix(Gate.identity(2), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_metric_matrix_validation():
    with pytest.raises(DimensionError):
        metric_form_matrix(Gate.identity(3), np.eye(3))
    with pytest.raises(DimensionError):
        metric_form_matrix(Gate.identity(2), np.eye(3))
    # max(0, nan) read as 0.0 before
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        du = np.array([[0.0, 1.0], [-1.0, bad]], dtype=complex)
        with pytest.raises(ValidationError, match="finite"):
            metric_form_matrix(Gate(np.eye(2)), du)


def test_distance_squared_matches_metric_locally():
    # d(U(p), U(p + eps t))^2 / (eps^2 g(t)) -> 1
    rng = np.random.default_rng(32)
    for _ in range(25):
        p, t = rand_point_tangent(rng, margin=0.2)
        g = metric_form_coords(p, t)
        if g < 0.05:
            continue
        for eps, bound in [(1e-3, 1e-2), (1e-4, 1e-3)]:
            moved = GateSU2Params(
                p.theta1 + eps * t.dtheta1,
                p.theta2 + eps * t.dtheta2,
                p.theta3 + eps * t.dtheta3,
            )
            d = gate_distance(su2_from_params(p), su2_from_params(moved))
            ratio = d * d / (eps * eps * g)
            assert abs(ratio - 1.0) <= bound


def test_sphere_embedding_is_isometric():
    # Euclidean motion of the embedded point matches the coordinate metric
    rng = np.random.default_rng(33)
    eps = 1e-5
    for _ in range(50):
        p, t = rand_point_tangent(rng, margin=0.1)
        plus = GateSU2Params(
            p.theta1 + eps * t.dtheta1,
            p.theta2 + eps * t.dtheta2,
            p.theta3 + eps * t.dtheta3,
        )
        minus = GateSU2Params(
            p.theta1 - eps * t.dtheta1,
            p.theta2 - eps * t.dtheta2,
            p.theta3 - eps * t.dtheta3,
        )
        dx = (
            sphere_embed(su2_from_params(plus)).as_array()
            - sphere_embed(su2_from_params(minus)).as_array()
        ) / (2 * eps)
        g = metric_form_coords(p, t)
        assert abs(float(dx @ dx) - g) <= 1e-9 * max(1.0, g)


def test_sphere_embed_validation():
    with pytest.raises(ValidationError):
        sphere_embed(Gate(np.diag([1.0, -1.0])))  # det -1
    with pytest.raises(ValidationError):
        sphere_embed(Gate(np.diag([1j, 1.0])))  # det i
    with pytest.raises(DimensionError):
        sphere_embed(Gate.identity(3))
    pt = sphere_embed(Gate.identity(2))
    assert np.allclose(pt.as_array(), [1, 0, 0, 0])
    # |det - 1| = 4e-11: the gate passes its own 1e-10, and the row is scaled onto the sphere
    pt = sphere_embed(Gate((1.0 + 2e-11) * np.eye(2)))
    assert np.array_equal(pt.as_array(), [1, 0, 0, 0])
    with pytest.raises(ValidationError, match="norm"):
        geometry.SphereCoords(1.0 + 2e-11, 0.0, 0.0, 0.0)  # user-built coordinates are checked


def test_haar_sample_ranges_and_determinism():
    params = haar_sample_su2(7, 500)
    assert len(params) == 500
    for p in params:
        assert 0.0 <= p.theta1 <= math.pi / 2
        assert 0.0 <= p.theta2 < 2 * math.pi
        assert 0.0 <= p.theta3 < 2 * math.pi
    again = haar_sample_su2(7, 500)
    assert all(a == b for a, b in zip(params, again))
    with pytest.raises(ValidationError):
        haar_sample_su2(7, 0)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        haar_sample_su2(-1, 5)
    # a float count or seed raised a bare TypeError before
    with pytest.raises(ValidationError, match="sample count must be an integer"):
        haar_sample_su2(5, 2.5)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        haar_sample_su2(1.5, 5)
    same = haar_sample_su2(np.int64(7), np.int64(500))
    assert all(a == b for a, b in zip(params, same))


def test_haar_sample_arrays_back_the_sequence():
    params = haar_sample_su2(9, 300)
    cols = (params.theta1, params.theta2, params.theta3)
    for col in cols:
        assert col.shape == (300,) and not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0.0
    listed = list(params)
    assert all(type(p) is GateSU2Params for p in listed)
    assert listed == [GateSU2Params(*t) for t in zip(*(c.tolist() for c in cols))]
    assert params[-1] == listed[-1] and params[3:6] == listed[3:6]
    with pytest.raises(IndexError):
        params[300]


def test_haar_sample_is_the_three_call_draw():
    # one draw of 3 n uniforms gives the bits of random(n) and two uniform(0, 2 pi, n)
    for seed in (0, 3, 17, 99):
        for n in (1, 2, 10_000):
            rng = np.random.default_rng(seed)
            t1 = np.arcsin(np.sqrt(rng.random(n)))
            t2 = rng.uniform(0.0, 2.0 * math.pi, n)
            t3 = rng.uniform(0.0, 2.0 * math.pi, n)
            got = haar_sample_su2(seed, n)
            for want, col in zip((t1, t2, t3), (got.theta1, got.theta2, got.theta3)):
                assert np.array_equal(col, want) and not col.flags.writeable


def test_monte_carlo_estimate_is_mean_and_std_to_the_bit():
    rng = np.random.default_rng(46)
    for n in (*range(2, 40), 127, 128, 129, 1001, 4096, 4097, 20_000):
        vals = rng.random(n) ** rng.uniform(0.5, 4.0)
        est = geometry.MonteCarloEstimate.from_samples(vals)
        assert est.estimate == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1) / math.sqrt(n))
        assert est.samples == n


def test_avg_fidelity_closed_form_cases():
    u = Gate.identity(2)
    assert abs(avg_fidelity_su2_closed(u, u) - 1.0) <= 1e-12
    sx = Gate(1j * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(avg_fidelity_su2_closed(u, sx) - 1.0 / 3.0) <= 1e-12
    # at d = 2 the any-d identity is the closed form, up to rounding
    rng = np.random.default_rng(203)
    for _ in range(500):
        u1, u2 = Gate(haar_unitary(2, rng)), Gate(haar_unitary(2, rng))
        assert abs(avg_fidelity_su2_closed(u1, u2) - avg_fidelity_exact(u1, u2)) <= 1e-15


def test_avg_fidelity_mc_matches_closed_form():
    rng = np.random.default_rng(37)
    for k in range(10):
        u1 = Gate(haar_unitary(2, rng, special=True))
        u2 = Gate(haar_unitary(2, rng, special=True))
        est = avg_fidelity_mc(u1, u2, samples=40_000, seed=200 + k)
        expect = avg_fidelity_su2_closed(u1, u2)
        assert abs(est.estimate - expect) <= 4 * est.stderr
        assert est.samples == 40_000


def test_avg_fidelity_mc_higher_dimensions():
    # the complex block path against the any-d identity, on two Haar pairs per d
    # and on the cyclic shift against the identity (tr R = 0: exactly 1/(d+1)).
    # Seeds and the 4-sigma bound were fixed before the first run; for a correct
    # sampler each of the 12 checks fails with probability 6.3e-5 (two-sided
    # normal tail), so the test raises a false alarm with probability ~7.6e-4.
    rng = np.random.default_rng(38)
    seed = 39
    for d in (3, 4, 8, 32):
        shift = Gate(np.roll(np.eye(d), 1, axis=0))
        assert avg_fidelity_exact(Gate.identity(d), shift) == 1.0 / (d + 1)
        haar = [Gate(haar_unitary(d, rng, special=True)) for _ in range(4)]
        for u1, u2 in [(haar[0], haar[1]), (haar[2], haar[3]), (Gate.identity(d), shift)]:
            est = avg_fidelity_mc(u1, u2, samples=60_000, seed=seed)
            assert abs(est.estimate - avg_fidelity_exact(u1, u2)) <= 4 * est.stderr, (d, seed)
            seed += 1


def test_avg_fidelity_mc_error_scaling():
    u1 = Gate.identity(2)
    u2 = Gate(1j * np.array([[0.0, 1.0], [1.0, 0.0]]))
    lo = avg_fidelity_mc(u1, u2, samples=10_000, seed=40)
    hi = avg_fidelity_mc(u1, u2, samples=1_000_000, seed=41)
    ratio = lo.stderr / hi.stderr
    assert abs(ratio - 10.0) <= 2.0  # within 20%


def test_avg_fidelity_mc_determinism_and_validation():
    u1 = Gate.identity(2)
    u2 = Gate(np.diag([1j, -1j]))
    a = avg_fidelity_mc(u1, u2, samples=1000, seed=5)
    b = avg_fidelity_mc(u1, u2, samples=1000, seed=5)
    assert a == b
    with pytest.raises(ValidationError):
        avg_fidelity_mc(u1, u2, samples=0, seed=5)
    with pytest.raises(DimensionError):
        avg_fidelity_mc(u1, Gate.identity(3), samples=10, seed=5)
    # one sample has no standard error; overlap_samples still draws it
    with pytest.raises(ValidationError, match="at least 2 samples, got 1"):
        avg_fidelity_mc(u1, u2, samples=1, seed=5)
    assert overlap_samples(u1, u2, samples=1, seed=5).shape == (1,)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        overlap_samples(u1, u2, samples=10, seed=-1)
    # a float count or seed raised a bare TypeError before
    with pytest.raises(ValidationError, match="sample count must be an integer"):
        overlap_samples(u1, u2, 2.5, 1)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        overlap_samples(u1, u2, 100, 1.5)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        avg_fidelity_mc(u1, u2, samples=100, seed=None)
    assert np.array_equal(overlap_samples(u1, u2, np.int64(100), np.int64(5)),
                          overlap_samples(u1, u2, 100, 5))
    assert math.isfinite(avg_fidelity_mc(u1, u2, samples=2, seed=5).stderr)


def test_draws_above_the_cap_are_refused_before_drawing(monkeypatch):
    # the cap is numkit.MAX_DRAW_VALUES, read at call time: 3 values per
    # parameter draw, 2 uniforms per qubit overlap sample, 2 d normals otherwise
    u1, u2 = Gate.identity(3), Gate(np.diag([1j, -1j, 1.0]))
    q1, q2 = Gate.identity(2), Gate(np.diag([1j, -1j]))
    monkeypatch.setattr(numkit, "MAX_DRAW_VALUES", 60)
    assert len(haar_sample_su2(1, 20)) == 20
    assert overlap_samples(u1, u2, 10, 1).shape == (10,)
    assert overlap_samples(q1, q2, 30, 1).shape == (30,)

    def boom(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(geometry, "_rng", boom)
    with pytest.raises(SizeLimitError, match="sample count 21 needs 63 random values, "
                                             "above the cap 60"):
        haar_sample_su2(1, 21)
    with pytest.raises(SizeLimitError, match="needs 66 random values, above the cap 60"):
        overlap_samples(u1, u2, np.int64(11), 1)
    with pytest.raises(SizeLimitError, match="above the cap 60"):
        avg_fidelity_mc(u1, u2, samples=11, seed=1)
    with pytest.raises(SizeLimitError, match="sample count 31 needs 62 random values, "
                                             "above the cap 60"):
        overlap_samples(q1, q2, 31, 1)
    # a count far past memory is refused at the real cap, not by numpy's allocator
    monkeypatch.undo()
    with pytest.raises(SizeLimitError, match=f"above the cap {2**25}"):
        haar_sample_su2(0, 10**11)
    with pytest.raises(SizeLimitError, match=f"above the cap {2**25}"):
        overlap_samples(u1, u2, np.int64(2**62), 0)
    with pytest.raises(SizeLimitError, match=f"above the cap {2**25}"):
        overlap_samples(q1, q2, np.int64(2**62), 0)


def test_overlap_samples_match_pointwise_formula():
    u1 = Gate.identity(2)
    u2 = Gate(np.diag([np.exp(0.4j), np.exp(-0.4j)]))
    vals = overlap_samples(u1, u2, samples=2000, seed=6)
    assert vals.shape == (2000,)
    assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12
    # against the closed-form average
    expect = avg_fidelity_su2_closed(u1, u2)
    assert abs(vals.mean() - expect) <= 0.02


def _reference_overlaps(u1, u2, samples, seed):
    """The sampler's states built the plain way, each normalized, and
    |z^dag R z|^2 with R = U1^dag U2 by a dense contraction.  A qubit state is
    (sqrt(u), sqrt(1 - u) e^{i phi}) with phi = 2 pi (v - 1/2), from one draw
    of two uniforms per sample; any other d draws the real parts of Gaussian
    vectors, then the imaginary parts."""
    rng = np.random.default_rng(seed)
    d = u1.dim
    if d == 2:
        u, v = rng.random((2, samples))
        z = np.stack([np.sqrt(u), np.sqrt(1.0 - u) * np.exp(1j * (2 * np.pi * (v - 0.5)))],
                     axis=1)
    else:
        z = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    rel = u1.matrix.conj().T @ u2.matrix
    return np.abs(np.einsum("si,si->s", z.conj(), z @ rel.T)) ** 2


def _qubit_edge_pairs():
    """Qubit pairs at the edges of the d = 2 kernel: det -1, a pair equal to
    itself, a half-arc of 1e-8, and a gate off unitarity by 6e-7 at tol 1e-6."""
    c, s, e = math.cos(0.3), math.sin(0.3), np.exp(0.7j)
    v = np.array([[c, -s / e], [s * e, c]])
    return [
        (Gate(np.array([[0.0, 1.0], [1.0, 0.0]])), Gate(np.diag([1.0, -1.0]))),
        (Gate.identity(2), Gate.identity(2)),
        (Gate.identity(2), Gate((v * np.exp([1e-8j, -1e-8j])) @ v.conj().T)),
        (Gate(np.eye(2), tol=1e-6), Gate((1 + 3e-7) * v, tol=1e-6)),
    ]


def test_overlap_samples_match_normalized_states():
    # 2500 samples: not a multiple of the block
    rng = np.random.default_rng(43)
    cases = [(d, Gate(haar_unitary(d, rng)), Gate(haar_unitary(d, rng))) for d in (2, 3, 8)]
    cases += [(10 + k, u1, u2) for k, (u1, u2) in enumerate(_qubit_edge_pairs())]
    for seed, u1, u2 in cases:
        ref = _reference_overlaps(u1, u2, 2500, seed=seed)
        assert np.abs(overlap_samples(u1, u2, samples=2500, seed=seed) - ref).max() <= 1e-14
    # one draw of shape (2, S, d) holds the two draws of shape (S, d)
    x = np.random.default_rng(7).standard_normal((2, 2500, 3))
    rng = np.random.default_rng(7)
    assert np.array_equal(x, [rng.standard_normal((2500, 3)), rng.standard_normal((2500, 3))])


def _ks_distance(vals, cdf):
    """Kolmogorov-Smirnov distance between the sample's empirical CDF and `cdf`."""
    x = np.sort(vals)
    f, n = cdf(x), x.size
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


def test_qubit_overlaps_follow_the_bloch_ensemble():
    # A uniform qubit state has a Bloch vector uniform on the sphere, so each
    # component n is uniform on [-1, 1] and |<psi|P|psi>|^2 = n^2 has CDF
    # sqrt(x) for P = Z, X, Y.  Z reads u alone; X and Y read cos phi and
    # sin phi, so they catch a wrong law of the phase that the mean does not
    # (a fixed phi = pi / 4 keeps every mean at 1/3).  A unitary pair sees n
    # only through (n . m)^2, so a phase law that keeps cos^2 phi's law, such
    # as phi on half the circle, is left to the reference test above.
    # Seeds and the bound sqrt(n) D <= 2.1 were fixed before the first run;
    # for a correct sampler each check fails with probability ~2.9e-4
    # (Kolmogorov tail 2 exp(-2 * 2.1^2)), so the test raises a false alarm
    # with probability ~8.9e-4.
    samples = 20_000
    paulis = {"z": np.diag([1.0, -1.0]), "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
              "y": np.array([[0.0, -1j], [1j, 0.0]])}
    for seed, (name, p) in zip((61, 62, 63), paulis.items()):
        vals = overlap_samples(Gate.identity(2), Gate(p), samples=samples, seed=seed)
        dist = _ks_distance(vals, np.sqrt)
        assert math.sqrt(samples) * dist <= 2.1, (name, dist)


def test_qubit_overlaps_need_no_contraction(monkeypatch):
    # d = 2 is elementwise arithmetic on the draw and one real product; other
    # d take z R^T and two contractions per block, all three in einsum.  The
    # first call forms the pair's R.
    rng = np.random.default_rng(45)
    einsum, calls = np.einsum, []
    for d, expect in ((2, 0), (3, 6)):
        u1, u2 = Gate(haar_unitary(d, rng)), Gate(haar_unitary(d, rng))
        overlap_samples(u1, u2, 10, 1)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
            overlap_samples(u1, u2, 2 * geometry._MC_BLOCK, 1)
        assert len(calls) == expect, calls


def test_overlap_samples_do_not_depend_on_the_block(monkeypatch):
    # 2500 = 7 * 357 + 1 and 2049 = 2 * 1024 + 1 leave one-sample tails
    rng = np.random.default_rng(44)
    seen = []  # (kernel, block lengths) of each call
    for name in ("_qubit_overlaps", "_complex_overlaps"):
        def spy(rel, make=getattr(geometry, name), name=name):
            kernel, lengths = make(rel), []
            seen.append((name, lengths))
            return lambda xb, out: lengths.append(xb.shape[1]) or kernel(xb, out)
        monkeypatch.setattr(geometry, name, spy)
    for d in (2, 3, 8):
        u1, u2 = Gate(haar_unitary(d, rng)), Gate(haar_unitary(d, rng))
        for samples in (2500, 2049):
            runs = set()
            for block in (7, 1024, samples):
                monkeypatch.setattr(geometry, "_MC_BLOCK", block)
                runs.add(overlap_samples(u1, u2, samples=samples, seed=d).tobytes())
                name, lengths = seen[-1]
                assert name == ("_qubit_overlaps" if d == 2 else "_complex_overlaps")
                assert sum(lengths) == samples and lengths[0] == block
            assert len(runs) == 1


def test_overlap_samples_peak_memory():
    # the draw and the result, plus blocks that are small next to them
    u1, u2 = Gate.identity(2), Gate(np.diag([1j, -1j]))
    samples, d = 200_000, 2
    tracemalloc.start()
    try:
        overlap_samples(u1, u2, samples=samples, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (2 * samples * d + samples) * 8
