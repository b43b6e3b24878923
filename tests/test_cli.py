import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatediscrim import ConvergenceError, Gate, geometry, su2_from_params
from gatediscrim.cli import main
from helpers import haar_unitary, loose_tolerance_pairs


def write_matrix(path, m):
    m = np.asarray(m, dtype=complex)
    doc = {
        "dim": m.shape[0],
        "rows": [[[v.real, v.imag] for v in row] for row in m],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def off_diagonal_rotation(delta):
    """V diag(e^{i delta}, e^{-i delta}) V^dag for a fixed V that is not diagonal."""
    c, s, e = np.cos(0.3), np.sin(0.3), np.exp(0.7j)
    v = np.array([[c, -s / e], [s * e, c]])
    return (v * np.exp([1j * delta, -1j * delta])) @ v.conj().T


@pytest.fixture
def gate_files(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(
        tmp_path / "b.json",
        np.diag([np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)]),
    )
    return a, b


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fidelity_example(capsys, gate_files):
    a, b = gate_files
    code, out, _ = run(capsys, ["fidelity", "--u1", a, "--u2", b])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "fidelity"
    assert doc["inputs"]["u1"] == a
    assert abs(doc["result"] - 0.25) <= 1e-12


def test_ncopies_example(capsys, tmp_path):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(
        tmp_path / "b.json",
        np.diag([np.exp(1j * math.pi / 5), np.exp(-1j * math.pi / 5)]),
    )
    code, out, _ = run(capsys, ["ncopies", "--u1", a, "--u2", b])
    assert code == 0
    assert json.loads(out)["result"] == 3


def test_distance_and_arc(capsys, gate_files):
    a, b = gate_files
    code, out, _ = run(capsys, ["distance", "--u1", a, "--u2", b])
    assert code == 0
    assert abs(json.loads(out)["result"] - math.pi / 3) <= 1e-12

    code, out, _ = run(capsys, ["arc", "--phases", "[0.2, 0.5, -0.7]"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["delta"] - 0.6) <= 1e-12
    assert abs(doc["result"]["convex_min_overlap"] - math.cos(0.6) ** 2) <= 1e-12


def test_distance_accepts_pauli_x_vs_z(capsys, tmp_path):
    # det X = det Z = -1; the distance is defined up to a global phase
    x = write_matrix(tmp_path / "x.json", [[0.0, 1.0], [1.0, 0.0]])
    z = write_matrix(tmp_path / "z.json", np.diag([1.0, -1.0]))
    code, out, _ = run(capsys, ["distance", "--u1", x, "--u2", z])
    assert code == 0
    assert json.loads(out)["result"] == math.pi / 2


def test_probe_kinds(capsys, gate_files):
    a, b = gate_files
    _, out, _ = run(capsys, ["fidelity", "--u1", a, "--u2", b])
    fid = json.loads(out)["result"]
    assert abs(fid - 0.25) <= 1e-12
    for kind, copies in [("entangled", 1), ("separable", 1), ("ncopies", 2)]:
        code, out, _ = run(capsys, ["probe", "--u1", a, "--u2", b, "--kind", kind])
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["copies"] == copies
        assert doc["separable"] == (kind != "entangled")
        assert doc["vector"] is not None
        if kind == "ncopies":
            assert doc["overlap"] <= 1e-16
        else:
            assert abs(doc["overlap"] - fid) <= 1e-12


def test_probe_ncopies_far_past_the_cap(capsys, tmp_path):
    # the dense vector, of dimension 2^N, is refused by the size rule without
    # the integer 2^N ever being formed
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    for u2, copies in [(np.diag(np.exp([1e-10j, -1e-10j])), 15707963268),
                       (off_diagonal_rotation(1e-6), 1570797)]:
        b = write_matrix(tmp_path / "b.json", u2)
        code, out, err = run(capsys, ["probe", "--u1", a, "--u2", b, "--kind", "ncopies"])
        assert code == 0, err
        doc = json.loads(out)["result"]
        assert doc["copies"] == copies and doc["vector"] is None
        assert doc["overlap"] <= 1e-16


def test_tol_reaches_the_pair_commands(capsys, gate_files, tmp_path):
    # a gate accepted at --tol is accepted by every command that pairs it:
    # U1^dag U2 of two accepted gates is not validated a second time
    a, _ = gate_files
    scaled = (1.0 + 1e-9) * np.diag([np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)])
    b = write_matrix(tmp_path / "scaled.json", scaled)
    for argv, check in [
        (["distance"], lambda r: abs(r - math.pi / 3) <= 1e-8),
        (["ncopies"], lambda r: r == 2),
        (["fidelity"], lambda r: abs(r - 0.25) <= 1e-8),
        (["probe", "--kind", "ncopies"], lambda r: r["copies"] == 2 and r["overlap"] <= 1e-16),
        (["probe", "--kind", "separable"], lambda r: abs(r["overlap"] - 0.25) <= 1e-8),
    ]:
        code, out, err = run(capsys, [*argv, "--u1", a, "--u2", b, "--tol", "1e-6"])
        assert code == 0, err
        assert check(json.loads(out)["result"])
    code, _, _ = run(capsys, ["distance", "--u1", a, "--u2", b])
    assert code == 2  # the default tolerance still rejects the scaled gate itself


def test_tol_reaches_the_oracle(capsys, gate_files, tmp_path):
    # the n-fold power of U1^dag U2 drifts from unitarity n-fold (~2e-9 n
    # here); the oracle forms it from the accepted pair and does not check it again
    a, _ = gate_files
    scaled = (1.0 + 1e-9) * np.diag([np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)])
    b = write_matrix(tmp_path / "scaled.json", scaled)
    for n, closed in (("1", 0.25), ("2", 0.0)):
        code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", n, "--tol", "1e-6"])
        assert code == 0, err
        assert abs(json.loads(out)["result"] - closed) <= 1e-9


@pytest.mark.parametrize("m1, m2", loose_tolerance_pairs(), ids=["dft-qutrit", "hadamard-qubit"])
def test_pairs_accepted_at_tol_reach_every_command(capsys, tmp_path, m1, m2):
    # both gates pass at --tol 1e-6, so every pair command accepts the pair; the
    # two are a half-circle apart, one copy discriminates them perfectly
    a, b = write_matrix(tmp_path / "a.json", m1), write_matrix(tmp_path / "b.json", m2)
    for argv, check in [
        (["distance"], lambda r: abs(r - math.pi / 2) <= 1e-12),
        (["ncopies"], lambda r: r == 1),
        (["probe", "--kind", "separable"], lambda r: r["overlap"] <= 1e-11),
        (["oracle", "--n", "2"], lambda r: r <= 1e-12),
    ]:
        code, out, err = run(capsys, [*argv, "--u1", a, "--u2", b, "--tol", "1e-6"])
        assert code == 0, err
        assert check(json.loads(out)["result"])


def test_oracle_on_a_thin_corral(capsys, tmp_path):
    # I against an exactly unitary gate at N = 2: Wolfe's corral holds three
    # points around the origin before its rounded gap closes
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(tmp_path / "b.json", [
        [0.97892092835969 - 0.17059109371769834j, 0.009982765063411154 + 0.11186080263117326j],
        [-0.028523576813298427 - 0.108622743149754j, -0.9787946618170682 + 0.17131408358570285j],
    ])
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "2"])
    assert code == 0, err
    assert json.loads(out)["result"] <= 1e-16


def test_oracle_cap_is_bad_input(capsys, gate_files, monkeypatch):
    # refused before the power is formed
    import gatediscrim.numkit as numkit_mod

    def boom(u, n):
        raise AssertionError("formed the power before refusing")

    monkeypatch.setattr(numkit_mod, "tensor_power", boom)
    a, b = gate_files
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "11"])
    assert code == 2
    assert out == "" and "2^11 exceeds the cap 1024" in err


def test_oracle_command(capsys, gate_files):
    a, b = gate_files
    code, out, _ = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "1"])
    assert code == 0
    assert abs(json.loads(out)["result"] - 0.25) <= 1e-6


def test_oracle_takes_no_budget(capsys, gate_files):
    # the oracle reads --tol only; --seed is refused by the READS table below
    a, b = gate_files
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--budget", "4"])
    assert code == 64
    assert out == "" and "unrecognized arguments: --budget" in err


def test_state_fidelity_command(capsys, tmp_path):
    r1 = write_matrix(tmp_path / "r1.json", np.eye(2) / 2)
    r2 = write_matrix(tmp_path / "r2.json", np.diag([1.0, 0.0]))
    code, out, _ = run(capsys, ["state-fidelity", "--rho1", r1, "--rho2", r2])
    assert code == 0
    assert abs(json.loads(out)["result"] - 0.5) <= 1e-12


def test_classical_distance_command(capsys):
    code, out, _ = run(
        capsys, ["classical-distance", "--p", "[0.5, 0.5]", "--q", "[0.5, 0.5]"]
    )
    assert code == 0
    assert json.loads(out)["result"] == 0.0
    # the JSON arrays are parsed in declared order: --p is reported first
    code, out, err = run(capsys, ["classical-distance", "--q", "[0.5", "--p", "[0.5"])
    assert code == 2
    assert out == "" and err.startswith("validation error: --p is not valid JSON")


def test_avg_fidelity_command(capsys, gate_files, tmp_path):
    a, b = gate_files
    plot = tmp_path / "hist.csv"
    code, out, _ = run(
        capsys,
        [
            "avg-fidelity", "--u1", a, "--u2", b,
            "--samples", "20000", "--seed", "4", "--emit-plot", str(plot),
        ],
    )
    assert code == 0
    doc = json.loads(out)["result"]
    closed = 1.0 / 3.0 + 2.0 / 3.0 * 0.25
    assert abs(doc["closed_form"] - closed) <= 1e-12
    assert abs(doc["estimate"] - closed) <= 5 * doc["stderr"]
    assert doc["samples"] == 20000
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 65
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert all(0.0 <= x <= 1.0 for x in xs)
    # a qutrit pair takes the d > 2 path, which has no closed form
    i3 = write_matrix(tmp_path / "i3.json", np.eye(3))
    c3 = write_matrix(tmp_path / "c3.json", np.roll(np.eye(3), 1, axis=1))
    code, out, err = run(capsys, ["avg-fidelity", "--u1", i3, "--u2", c3,
                                  "--samples", "5000", "--seed", "1"])
    assert code == 0, err
    doc = json.loads(out)["result"]
    assert doc["samples"] == 5000 and doc["closed_form"] is None


def test_avg_fidelity_one_sample_exits_2(capsys, gate_files, tmp_path):
    a, b = gate_files
    plot = tmp_path / "hist.csv"
    code, out, err = run(capsys, ["avg-fidelity", "--u1", a, "--u2", b, "--samples", "1",
                                  "--emit-plot", str(plot)])
    assert code == 2
    assert out == "" and not plot.exists()
    assert "validation error: a standard error needs at least 2 samples, got 1" in err


def test_avg_fidelity_plot_draws_samples_once(capsys, gate_files, tmp_path, monkeypatch):
    a, b = gate_files
    u2 = Gate(np.diag([np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)]))
    est = geometry.avg_fidelity_mc(Gate(np.eye(2)), u2, samples=5000, seed=2)
    draws = []
    original = geometry.overlap_samples

    def counted(*args, **kwargs):
        draws.append(kwargs.get("samples"))
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "overlap_samples", counted)
    argv = ["avg-fidelity", "--u1", a, "--u2", b, "--samples", "5000", "--seed", "2",
            "--emit-plot", str(tmp_path / "hist.csv")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert draws == [5000]
    # the printed estimate is the library's, from the same single draw
    doc = json.loads(out)["result"]
    assert (doc["estimate"], doc["stderr"], doc["samples"]) == (est.estimate, est.stderr, 5000)


def test_haar_sample_command(capsys, tmp_path):
    plot = tmp_path / "marginal.csv"
    code, out, _ = run(
        capsys, ["haar-sample", "--seed", "1", "--n", "200", "--emit-plot", str(plot)]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]) == 200
    for entry in doc["result"]:
        assert 0.0 <= entry["theta1"] <= math.pi / 2
    assert plot.read_text().startswith("x,y\n")


@pytest.mark.parametrize("command, count", [("haar-sample", "--n"), ("metric-check", "--n"),
                                            ("avg-fidelity", "--samples")])
def test_draw_counts_above_the_cap_exit_2(capsys, gate_files, command, count):
    # refused before drawing; numpy would raise MemoryError (exit 1) or fill memory
    a, b = gate_files
    gates = ["--u1", a, "--u2", b] if command == "avg-fidelity" else []
    code, out, err = run(capsys, [command, *gates, count, "1000000000000"])
    assert code == 2
    assert out == "" and "validation error: sample count 1000000000000 needs" in err
    assert f"random values, above the cap {2**25}" in err


@pytest.mark.parametrize("command", ["haar-sample", "metric-check"])
def test_draw_counts_above_the_cli_cap_exit_2(capsys, monkeypatch, command):
    # both commands do Python work per draw: --n is capped at cli.MAX_CLI_DRAWS,
    # read at call time, and refused before anything is drawn
    import gatediscrim.cli as cli_mod

    def boom(seed, n):
        raise AssertionError("drew before refusing")

    with monkeypatch.context() as m:
        m.setattr(geometry, "haar_sample_su2", boom)
        code, out, err = run(capsys, [command, "--n", "100001"])
        assert code == 2
        assert out == "" and "validation error: --n 100001 is above the cap 100000" in err
        m.setattr(cli_mod, "MAX_CLI_DRAWS", 6)
        code, out, err = run(capsys, [command, "--n", "7"])
        assert code == 2
        assert out == "" and "validation error: --n 7 is above the cap 6" in err
    monkeypatch.setattr(cli_mod, "MAX_CLI_DRAWS", 6)
    code, out, _ = run(capsys, [command, "--n", "6"])
    assert code == 0 and out


def test_metric_check_command(capsys):
    code, out, _ = run(capsys, ["metric-check", "--n", "25", "--seed", "2"])
    assert code == 0
    assert json.loads(out)["result"]["max_rel_err"] <= 1e-9


def test_su3_example_command_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["su3-example", "--gamma1", "0.785398163397448", "--gamma2",
         "0.785398163397448", "--phi", "[0,0,0,0,0]"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["fidelity_vs_identity"] == 0.0
    # round-trip: the emitted matrix parses back to the same gate
    mat = doc["result"]["matrix"]
    path = tmp_path / "round.json"
    path.write_text(json.dumps(mat))
    code2, out2, _ = run(capsys, ["fidelity", "--u1", str(path), "--u2", str(path)])
    assert code2 == 0
    assert json.loads(out2)["result"] == 1.0
    parsed = np.array(
        [[complex(re, im) for re, im in row] for row in mat["rows"]]
    )
    r = math.sqrt(2) / 2
    expect = np.array([[0, r, r], [r, 0.5, -0.5], [-r, 0.5, -0.5]])
    assert np.abs(parsed - expect).max() <= 1e-15


def test_discriminate_example(capsys, tmp_path):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])

    def obj(m):
        m = np.asarray(m, dtype=complex)
        return {"dim": 2, "rows": [[[v.real, v.imag] for v in row] for row in m]}

    set_file = tmp_path / "set.json"
    set_file.write_text(
        json.dumps({"gates": [obj(np.eye(2)), obj(1j * sx), obj(1j * sz)]})
    )
    code, out, _ = run(
        capsys, ["discriminate", "--set", str(set_file), "--true", "1", "--seed", "7"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["identified"] == 1
    assert result["total_runs"] == 2
    assert result["true_in_set"] is True
    assert len(result["trace"]) == 2


@pytest.mark.parametrize("gates, total_runs", [
    ([np.eye(2), off_diagonal_rotation(1e-6)], 1570797),
    # the Paulis: det -1 and |p| = |q| ties
    ([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])], 3),
], ids=["small-angle", "pauli"])
def test_discriminate_identifies_every_member(capsys, tmp_path, gates, total_runs):
    paths = [write_matrix(tmp_path / f"g{i}.json", g) for i, g in enumerate(gates)]
    set_file = tmp_path / "set.json"
    set_file.write_text('{"gates": [%s]}' % ",".join(Path(p).read_text() for p in paths))
    for true in range(len(gates)):
        code, out, err = run(capsys, ["discriminate", "--set", str(set_file), "--true", str(true)])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert (result["identified"], result["total_runs"]) == (true, total_runs)


def test_a_separable_probe_of_one_dimensional_gates_exits_2(capsys, tmp_path):
    # it used to print the vector [[1.4142135623730949, 0]], of norm^2 2, with exit 0
    a = write_matrix(tmp_path / "a.json", [[1.0]])
    b = write_matrix(tmp_path / "b.json", [[1j]])
    code, out, err = run(capsys, ["probe", "--kind", "separable", "--u1", a, "--u2", b])
    assert (code, out) == (2, ""), out
    assert "dimension >= 2" in err, err


def test_an_oracle_power_of_one_dimensional_gates_is_capped(capsys, tmp_path):
    # 1^n never passes the dimension cap, and --n 1000000000000 used to run
    # n - 1 steps of the tensor power without bound; up to 4096 factors it answers
    a = write_matrix(tmp_path / "a.json", [[1.0]])
    b = write_matrix(tmp_path / "b.json", [[1j]])
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "1000000000000"])
    assert (code, out) == (2, ""), out
    assert "has 1000000000000 factors, above the cap 4096" in err, err
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "4096"])
    assert code == 0, err
    assert json.loads(out)["result"] == 1.0


def test_a_gate_too_far_from_unitary_exits_2_not_1(capsys, tmp_path):
    # accepted at --tol 0.5, a qubit gate scaled by 1.2 made N = 15707964
    # copies, and 1.2^(2N) overflowed: under -W error the RuntimeWarning
    # escaped main (exit 1); ||M^dag M - 1||_F = 0.62 > 1/2 is refused.  So
    # is 1e150 W at --tol 1e300, whose ||M^dag M - 1||_F used to overflow.
    w = haar_unitary(2, np.random.default_rng(0))
    a = write_matrix(tmp_path / "a.json", w)
    b = write_matrix(tmp_path / "b.json", 1.2 * w @ off_diagonal_rotation(1e-7))
    c = write_matrix(tmp_path / "c.json", 1e150 * w)
    set_file = tmp_path / "set.json"
    set_file.write_text('{"gates": [%s]}' % ",".join(Path(p).read_text() for p in (a, b)))
    for argv in (["probe", "--kind", "ncopies", "--u1", a, "--u2", b, "--tol", "0.5"],
                 ["discriminate", "--set", str(set_file), "--true", "0", "--tol", "0.5"],
                 ["distance", "--u1", c, "--u2", c, "--tol", "1e300"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, argv)
        assert code in (0, 2), err


def test_a_gate_whose_gram_product_overflows_exits_2(capsys, tmp_path):
    # entries of 1e160 overflow M^dag M in the gate check: under -W error
    # numpy's "overflow encountered in matmul" escaped main (exit 1); the
    # infinite defect is refused, even at --tol 1e300
    for name, m in (("full", np.full((2, 2), 1e160)), ("diag", 1e160 * np.eye(2))):
        path = write_matrix(tmp_path / f"{name}.json", m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["distance", "--u1", path, "--u2", path,
                                          "--tol", "1e300"])
        assert (code, out) == (2, ""), err
        assert "not unitary" in err, err


def test_determinism_byte_identical(capsys, gate_files):
    a, b = gate_files
    argv = ["oracle", "--u1", a, "--u2", b, "--n", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_seventeen_digit_floats(capsys, gate_files):
    a, b = gate_files
    _, out, _ = run(capsys, ["fidelity", "--u1", a, "--u2", b])
    text = out.split('"result":')[1].rstrip("}\n")
    # parsing the printed text recovers the double exactly (lossless emission)
    assert float(text) == json.loads(out)["result"]
    _, out, _ = run(capsys, ["distance", "--u1", a, "--u2", b])
    text = out.split('"result":')[1].rstrip("}\n")
    assert float(text) == json.loads(out)["result"]
    assert len(text.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_exit_codes(capsys, tmp_path, gate_files):
    a, _ = gate_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "rows": [[[1,0],[0,0]],[[0,0],[2,0]]]}')
    code, _, err = run(capsys, ["fidelity", "--u1", a, "--u2", str(bad)])
    assert code == 2
    assert "validation" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = run(capsys, ["fidelity", "--u1", a, "--u2", str(broken)])
    assert code == 2
    assert "line 1" in err and "column" in err  # malformed JSON with position

    code, _, err = run(capsys, ["fidelity", "--u1", a, "--u2", "/missing.json"])
    assert code == 2

    code, _, err = run(capsys, ["not-a-command"])
    assert code == 64
    assert "usage" in err

    code, _, err = run(capsys, [])
    assert code == 64

    code, _, err = run(capsys, ["fidelity", "--u1", a])  # missing --u2
    assert code == 64


BOOLEAN_INPUTS = {  # argv with one JSON boolean where a number belongs; "{bad}" is a file
    "gate-dim": (["distance", "--u1", "{bad}", "--u2", "{bad}"],
                 {"dim": True, "rows": [[[1, 0]]]}),
    "gate-entry": (["distance", "--u1", "{bad}", "--u2", "{bad}"],
                   {"dim": 2, "rows": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}),
    "state-entry": (["state-fidelity", "--rho1", "{bad}", "--rho2", "{bad}"],
                    {"dim": 2, "rows": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}),
    "phases": (["arc", "--phases", "[true, 0.5]"], None),
    "p": (["classical-distance", "--p", "[true, false]", "--q", "[0.5, 0.5]"], None),
    "q": (["classical-distance", "--p", "[0.5, 0.5]", "--q", "[false, true]"], None),
    "phi": (["su3-example", "--gamma1", "0", "--gamma2", "0", "--phi", "[0, 0, 0, 0, true]"],
            None),
}


@pytest.mark.parametrize("kind", sorted(BOOLEAN_INPUTS))
def test_json_booleans_are_not_numbers(capsys, tmp_path, kind):
    # bool subclasses int in Python, but a JSON true/false is not a number:
    # each of these inputs would be valid with 1/0 in place of the boolean
    argv, doc = BOOLEAN_INPUTS[kind]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, [arg.format(bad=bad) for arg in argv])
    assert code == 2
    assert out == "" and "validation error" in err


HUGE_INTEGER = "1" + "0" * 400  # past float range: float() of it raises OverflowError
NON_FINITE_INPUTS = {  # argv with one non-finite number; "{set}" is a two-gate set file,
    # "{rho_nan}" and "{rho_inf}" density files with one NaN or Infinity entry, "{huge}"
    # a matrix file and "{huge_set}" a set file with one HUGE_INTEGER entry
    "phi": ["su3-example", "--gamma1", "0.1", "--gamma2", "0.2", "--phi", "[NaN,0,0,0,0]"],
    "huge-integer": ["arc", "--phases", f"[{HUGE_INTEGER}]"],
    "huge-integer-gate": ["distance", "--u1", "{huge}", "--u2", "{b}"],
    "huge-integer-set": ["discriminate", "--set", "{huge_set}", "--true", "0"],
    "huge-integer-state": ["state-fidelity", "--rho1", "{half}", "--rho2", "{huge}"],
    "tol-inf": ["distance", "--u1", "{a}", "--u2", "{b}", "--tol", "inf"],
    "tol-nan": ["distance", "--u1", "{a}", "--u2", "{b}", "--tol", "nan"],
    "set-tol-inf": ["discriminate", "--set", "{set}", "--true", "0", "--tol", "inf"],
    "state-nan": ["state-fidelity", "--rho1", "{rho_nan}", "--rho2", "{half}"],
    "state-inf": ["state-fidelity", "--rho1", "{half}", "--rho2", "{rho_inf}"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(NON_FINITE_INPUTS))
def test_non_finite_inputs_exit_2(capsys, tmp_path, gate_files, kind):
    a, b = gate_files
    hyp = tmp_path / "set.json"
    hyp.write_text('{"gates": [%s, %s]}' % ((tmp_path / "a.json").read_text(),
                                             (tmp_path / "b.json").read_text()))
    states = {name: write_matrix(tmp_path / f"{name}.json", np.diag([bad, 0.5]))
              for name, bad in (("rho_nan", math.nan), ("rho_inf", math.inf), ("half", 0.5))}
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 2, "rows": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % HUGE_INTEGER)
    huge_set = tmp_path / "huge_set.json"
    huge_set.write_text('{"gates": [%s, %s]}' % ((tmp_path / "a.json").read_text(),
                                                  huge.read_text()))
    argv = [arg.format(a=a, b=b, set=hyp, huge=huge, huge_set=huge_set, **states)
            for arg in NON_FINITE_INPUTS[kind]]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and "validation error" in err


UNDECODABLE = {"not-utf8": b"\xff\xfe\x00bad", "deep": b"[" * 5000 + b"]" * 5000}
UNDECODABLE_ARGV = {  # "{bad}" is a file holding one of the UNDECODABLE bytes
    "gate": ["distance", "--u1", "{a}", "--u2", "{bad}"],
    "state": ["state-fidelity", "--rho1", "{bad}", "--rho2", "{a}"],
    "set": ["discriminate", "--set", "{bad}", "--true", "0"],
}


@pytest.mark.parametrize("where, content", [
    *((where, content) for where in UNDECODABLE_ARGV for content in sorted(UNDECODABLE)),
    ("phases", "deep"),
])
def test_undecodable_json_exits_2(capsys, tmp_path, gate_files, where, content):
    # bytes that are not UTF-8, or JSON nested past the parser's recursion limit
    a, _ = gate_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE[content])
    argv = (["arc", "--phases", UNDECODABLE["deep"].decode()] if where == "phases"
            else [arg.format(a=a, bad=bad) for arg in UNDECODABLE_ARGV[where]])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and "validation error" in err

@pytest.mark.parametrize("command", ["haar-sample", "metric-check", "avg-fidelity", "discriminate"])
def test_negative_seed_exits_2(capsys, tmp_path, gate_files, command):
    a, b = gate_files
    hyp = tmp_path / "set.json"
    hyp.write_text('{"gates": [%s, %s]}' % ((tmp_path / "a.json").read_text(),
                                             (tmp_path / "b.json").read_text()))
    required = {"avg-fidelity": ["--u1", a, "--u2", b, "--samples", "10"],
                "discriminate": ["--set", str(hyp), "--true", "0"]}
    code, out, err = run(capsys, [command, *required.get(command, []), "--seed", "-1"])
    assert code == 2
    assert out == "" and "validation error: seed must be >= 0, got -1" in err


def test_convergence_exit_code(capsys, monkeypatch, gate_files):
    a, b = gate_files
    import gatediscrim.cli as cli_mod

    def boom(args):
        raise ConvergenceError("did not settle")

    monkeypatch.setitem(cli_mod.__dict__, "_cmd_fidelity", boom)
    # rebuild parser so the handler table points at the stub
    code, _, err = run(capsys, ["fidelity", "--u1", a, "--u2", b])
    assert code == 3
    assert "non-convergence" in err


def test_oracle_iteration_cap_exit_code(capsys, monkeypatch, tmp_path):
    # at n = 2 a half-arc just below pi/4 needs two min-norm-point iterations
    import gatediscrim.gates as gates_mod

    delta = math.pi / 4 - 1e-9
    rot = np.diag([np.exp(1j * delta), np.exp(-1j * delta)])
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(tmp_path / "b.json", rot)
    code, out, _ = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "2"])
    assert code == 0
    assert json.loads(out)["result"] <= 1e-16

    monkeypatch.setattr(gates_mod, "_WOLFE_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="gap"):
        gates_mod.oracle_min_overlap(gates_mod.Gate(np.eye(2)), gates_mod.Gate(rot), 2)
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "2"])
    assert code == 3
    assert out == ""
    assert "non-convergence" in err and "gap" in err


def test_oracle_eigenvalue_failure_exit_code(capsys, monkeypatch, gate_files):
    # LAPACK's non-convergence on the power reaches the CLI as exit 3
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    a, b = gate_files
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    code, out, err = run(capsys, ["oracle", "--u1", a, "--u2", b, "--n", "2"])
    assert code == 3
    assert out == ""
    assert "non-convergence" in err


def test_identical_gates_exit_code(capsys, gate_files):
    a, _ = gate_files
    code, _, err = run(capsys, ["ncopies", "--u1", a, "--u2", a])
    assert code == 2
    assert "coincide" in err


# The shared options each command reads; every other one is a usage error.
SHARED_VALUES = {"--seed": "1", "--samples": "10", "--tol": "1e-9", "--emit-plot": "plot.csv"}
READS = {
    "fidelity": {"--tol"},
    "distance": {"--tol"},
    "ncopies": {"--tol"},
    "probe": {"--tol"},
    "arc": set(),
    "oracle": {"--tol"},
    "state-fidelity": set(),
    "classical-distance": set(),
    "avg-fidelity": {"--tol", "--samples", "--seed", "--emit-plot"},
    "haar-sample": {"--seed", "--emit-plot"},
    "metric-check": {"--seed"},
    "su3-example": set(),
    "discriminate": {"--tol", "--seed"},
}


def test_commands_take_only_the_options_they_read(capsys, tmp_path, monkeypatch, gate_files):
    from gatediscrim.cli import build_parser

    monkeypatch.chdir(tmp_path)
    a, b = gate_files
    pair = ["--u1", a, "--u2", b]
    complete = {  # every required argument of each command
        "fidelity": pair, "distance": pair, "ncopies": pair, "probe": pair, "oracle": pair,
        "avg-fidelity": pair, "arc": ["--phases", "[0.1, 0.4]"],
        "state-fidelity": ["--rho1", a, "--rho2", b],
        "classical-distance": ["--p", "[1]", "--q", "[1]"],
        "haar-sample": [], "metric-check": [], "discriminate": ["--set", a, "--true", "0"],
        "su3-example": ["--gamma1", "0", "--gamma2", "0", "--phi", "[0, 0, 0, 0, 0]"],
    }
    assert set(complete) == set(READS)
    assert sum(len(flags) for flags in READS.values()) == 14
    for command, flags in READS.items():
        for flag, value in SHARED_VALUES.items():
            argv = [command, *complete[command], flag, value]
            if flag in flags:
                build_parser().parse_args(argv)
                continue
            code, out, err = run(capsys, argv)
            assert code == 64, argv
            assert out == "" and f"unrecognized arguments: {flag}" in err
    assert not (tmp_path / "plot.csv").exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_every_command_renders_its_help(capsys, command):
    # argparse formats help strings such as %(default)g only when help is printed
    code, out, err = run(capsys, [command, "--help"])
    assert code == 0 and out.startswith(f"usage: gatediscrim {command} ") and err == ""


# The CLI contract: a fixed battery over every command and its error exits.
# Each run contributes its argv, exit code, command, full `inputs` echo, the
# result's shape (keys, integers, booleans, strings; every float masked as
# "f") and stderr up to its first ":".  None of these depend on the BLAS
# build, so the digest is the same on every machine.
CONTRACT_DIGEST = "89e2707b18be3ae97df03a69d0682d496522c81db7fea3441b3419b7031a1daa"

def _contract_battery():
    battery = []
    for u1, u2 in (("i.json", "r.json"), ("r.json", "h.json"), ("q1.json", "q2.json"),
                   ("r.json", "r.json")):
        pair = ["--u1", u1, "--u2", u2]
        for command in ("fidelity", "distance", "ncopies"):
            battery += [[command, *pair], [command, *pair, "--tol", "1e-9"]]
        battery += [["probe", *pair, "--kind", kind]
                    for kind in ("entangled", "separable", "ncopies")]
        battery += [["oracle", *pair, "--n", n] for n in ("1", "2", "11", "0")]
        battery.append(["avg-fidelity", *pair, "--samples", "500", "--seed", "3",
                        "--emit-plot", "avg.csv"])
    battery += [
        ["arc", "--phases", "[0.2, 0.5, -0.7]"],
        ["arc", "--phases", "[0.2, 0.5"],
        ["arc", "--phases", "{}"],
        ["state-fidelity", "--rho1", "rho1.json", "--rho2", "rho2.json"],
        ["state-fidelity", "--rho1", "rho1.json", "--rho2", "missing.json"],
        ["state-fidelity", "--rho1", "rho1.json", "--rho2", "notjson.json"],
        ["classical-distance", "--p", "[0.5, 0.5]", "--q", "[0.9, 0.1]"],
        ["classical-distance", "--p", "[0.5, 0.6]", "--q", "[0.9"],
        ["classical-distance", "--p", "[0.5", "--q", "[0.9"],
        ["classical-distance", "--p", "[1]", "--q", "[0.5, 0.5]"],
        ["haar-sample", "--seed", "1", "--n", "3", "--emit-plot", "haar.csv"],
        ["haar-sample", "--n", "0"],
        ["metric-check", "--seed", "2", "--n", "4"],
        ["metric-check", "--seed", "-1"],
        ["su3-example", "--gamma1", "0.7854", "--gamma2", "0.7854", "--phi", "[0,0,0,0,0]"],
        ["su3-example", "--gamma1", "0.1", "--gamma2", "0.2", "--phi", "[0,0]"],
        ["discriminate", "--set", "set.json", "--true", "1", "--seed", "7"],
        ["discriminate", "--set", "set.json", "--true", "5"],
        ["discriminate", "--set", "r.json", "--true", "0", "--tol", "1e-9"],
        ["not-a-command"],
        [],
        ["fidelity", "--u1", "i.json"],
        ["probe", "--u1", "i.json", "--u2", "r.json", "--kind", "dense"],
    ]
    return battery


def _read_floats(obj, mask: bool):
    """Each float the patched printer marked as {"f": x}: "f" if mask, else x."""
    if isinstance(obj, dict):
        if list(obj) == ["f"]:
            return "f" if mask else float(obj["f"])
        return {k: _read_floats(v, mask) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_read_floats(v, mask) for v in obj]
    return obj


def test_cli_contract_digest(capsys, tmp_path, monkeypatch):
    import gatediscrim.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(23)
    gates = {"i.json": np.eye(2),
             "r.json": np.diag([np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)]),
             "h.json": su2_from_params(geometry.haar_sample_su2(5, 1)[0]).matrix,
             "q1.json": haar_unitary(3, rng), "q2.json": haar_unitary(3, rng),
             "rho1.json": np.eye(2) / 2, "rho2.json": np.diag([0.9, 0.1])}
    for name, m in gates.items():
        write_matrix(tmp_path / name, m)
    (tmp_path / "notjson.json").write_text("{nope")
    (tmp_path / "set.json").write_text(
        '{"gates": [%s]}' % ",".join((tmp_path / name).read_text()
                                     for name in ("i.json", "r.json", "h.json")))
    # a float is printed as the text "0" or "1" when its value is integral, so
    # the printer marks floats for the duration of the battery
    fmt = cli_mod._format_float
    monkeypatch.setattr(cli_mod, "_format_float", lambda x: '{"f": %s}' % fmt(x))

    records = []
    for argv in _contract_battery():
        code, out, err = run(capsys, argv)
        record = [argv, code, err.split(":", 1)[0]]
        if out:
            doc = json.loads(out)
            record += [doc["command"], _read_floats(doc["inputs"], mask=False),
                       _read_floats(doc["result"], mask=True)]
        records.append(record)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CONTRACT_DIGEST, "\n".join(map(json.dumps, records))
