"""Command-line interface.

Every run prints exactly one JSON object to stdout:

    {"command": <name>, "inputs": <echo of arguments>, "result": ...}

All numbers are written with 17 significant digits so doubles round-trip
losslessly and identical argv (seed included) yields byte-identical output.
Exit codes: 0 success, 2 validation error (malformed JSON included),
3 numerical non-convergence, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import classical, geometry, protocol, states
from .errors import ConvergenceError, SizeLimitError, ValidationError
from .gates import (
    Gate,
    convex_min_overlap,
    gate_distance,
    gate_fidelity_sud,
    min_copies,
    minimal_covering_arc,
    optimal_probe_ncopies,
    optimal_probe_separable,
    optimal_probe_single,
    oracle_min_overlap,
    probe_overlap,
    su2_from_params,
    su3_example_gate,
)
from .numkit import DEFAULT_TOL


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------------------
# Serialization


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("cannot serialize a non-finite number")
    return format(x, ".17g")


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_obj(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "rows": [[_complex_pair(complex(v)) for v in row] for row in m],
    }


def _vector_obj(v: np.ndarray) -> list:
    return [_complex_pair(complex(x)) for x in v]


# --------------------------------------------------------------------------
# Input parsing


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_matrix(data, what: str = "matrix") -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "rows" not in data:
        raise ValidationError(f'{what} must be an object with "dim" and "rows"')
    dim = data["dim"]
    rows = data["rows"]
    # exact types: JSON true/false load as bool, a subclass of int
    if type(dim) is not int or dim < 1:
        raise ValidationError(f'{what} "dim" must be a positive integer')
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValidationError(f'{what} needs exactly {dim} rows')
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{what} row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(x) in (int, float) for x in entry)
            ):
                raise ValidationError(
                    f"{what} entry ({i},{j}) must be a [re, im] pair"
                )
            out[i, j] = complex(entry[0], entry[1])
    return out


def _parse_gate(data, what: str, tol: float) -> Gate:
    return Gate(_parse_matrix(data, what=what), tol=tol)


def _load_gate(path: str, tol: float) -> Gate:
    return _parse_gate(_load_json(path), f"gate file {path!r}", tol)


def _load_pair(args) -> tuple[Gate, Gate]:
    """The gates of a pair command's --u1 and --u2, both accepted at --tol."""
    return _load_gate(args.u1, args.tol), _load_gate(args.u2, args.tol)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        # integers parse as floats too, so a huge one reads as inf and is refused below
        data = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(type(x) is float for x in data):
        raise ValidationError(f"{what} must be a JSON array of numbers")
    if not all(map(math.isfinite, data)):
        raise ValidationError(f"{what} entries must be finite")
    return data


def _write_plot(path: str, xs, ys):
    lines = ["x,y"]
    for x, y in zip(xs, ys):
        lines.append(f"{_format_float(float(x))},{_format_float(float(y))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _histogram_series(values: np.ndarray, lo: float, hi: float, bins: int = 64):
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2.0
    width = edges[1] - edges[0]
    density = counts / (values.size * width)
    return centers, density


# --------------------------------------------------------------------------
# Handlers: each returns (inputs_echo, result)


def _cmd_fidelity(args):
    u1, u2 = _load_pair(args)
    return {"u1": args.u1, "u2": args.u2, "tol": args.tol}, gate_fidelity_sud(u1, u2)


def _cmd_distance(args):
    u1, u2 = _load_pair(args)
    return {"u1": args.u1, "u2": args.u2, "tol": args.tol}, gate_distance(u1, u2)


def _cmd_ncopies(args):
    u1, u2 = _load_pair(args)
    return {"u1": args.u1, "u2": args.u2, "tol": args.tol}, min_copies(u1, u2)


def _cmd_probe(args):
    u1, u2 = _load_pair(args)
    if args.kind == "entangled":
        probe = optimal_probe_single(u1, u2, entangled=True)
    elif args.kind == "separable":
        probe = optimal_probe_separable(u1, u2)
    else:
        probe = optimal_probe_ncopies(u1, u2)
    overlap = probe_overlap(u1, u2, probe, probe.copies)
    try:
        vector = _vector_obj(probe.to_vector())
    except SizeLimitError:
        vector = None
    result = {
        "copies": probe.copies,
        "separable": probe.separable,
        "ancilla_dim": probe.ancilla_dim,
        "overlap": overlap,
        "vector": vector,
    }
    inputs = {"u1": args.u1, "u2": args.u2, "kind": args.kind, "tol": args.tol}
    return inputs, result


def _cmd_arc(args):
    phases = _parse_float_list(args.phases, "--phases")
    arc = minimal_covering_arc(phases)
    result = {
        "delta": arc.delta,
        "center": arc.center,
        "extremes": list(arc.extremes),
        "convex_min_overlap": convex_min_overlap(phases),
    }
    return {"phases": phases}, result


def _cmd_oracle(args):
    u1, u2 = _load_pair(args)
    inputs = {"u1": args.u1, "u2": args.u2, "n": args.n, "tol": args.tol}
    return inputs, oracle_min_overlap(u1, u2, args.n)


def _cmd_state_fidelity(args):
    rho1 = _parse_matrix(_load_json(args.rho1), what=f"state file {args.rho1!r}")
    rho2 = _parse_matrix(_load_json(args.rho2), what=f"state file {args.rho2!r}")
    return {"rho1": args.rho1, "rho2": args.rho2}, states.mixed_fidelity(rho1, rho2)


def _cmd_classical_distance(args):
    p = _parse_float_list(args.p, "--p")
    q = _parse_float_list(args.q, "--q")
    return {"p": p, "q": q}, classical.classical_distance(p, q)


def _cmd_avg_fidelity(args):
    u1, u2 = _load_pair(args)
    vals = geometry.overlap_samples(u1, u2, samples=args.samples, seed=args.seed)
    est = geometry.MonteCarloEstimate.from_samples(vals)
    closed = geometry.avg_fidelity_su2_closed(u1, u2) if u1.dim == 2 else None
    if args.emit_plot:
        _write_plot(args.emit_plot, *_histogram_series(vals, 0.0, 1.0))
    result = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "samples": est.samples,
        "closed_form": closed,
    }
    inputs = {
        "u1": args.u1,
        "u2": args.u2,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
    }
    return inputs, result


def _cmd_haar_sample(args):
    params = geometry.haar_sample_su2(args.seed, args.n)
    if args.emit_plot:
        _write_plot(args.emit_plot, *_histogram_series(params.theta1, 0.0, math.pi / 2.0))
    columns = (params.theta1.tolist(), params.theta2.tolist(), params.theta3.tolist())
    result = [{"theta1": a, "theta2": b, "theta3": c} for a, b, c in zip(*columns)]
    return {"seed": args.seed, "n": args.n}, result


def _cmd_metric_check(args):
    params = geometry.haar_sample_su2(args.seed, args.n)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 1]))
    worst = 0.0
    for p in params:
        t = geometry.TangentIncrement(*rng.standard_normal(3))
        via_matrix = geometry.metric_form_matrix(
            su2_from_params(p), geometry.su2_tangent(p, t)
        )
        via_coords = geometry.metric_form_coords(p, t)
        worst = max(worst, abs(via_matrix - via_coords) / max(via_coords, 1e-30))
    return {"seed": args.seed, "n": args.n}, {"draws": args.n, "max_rel_err": worst}


def _cmd_su3_example(args):
    phi = _parse_float_list(args.phi, "--phi")
    gate = su3_example_gate(args.gamma1, args.gamma2, phi)
    result = {
        "matrix": _matrix_obj(gate.matrix),
        "fidelity_vs_identity": gate_fidelity_sud(Gate.identity(3), gate),
    }
    inputs = {"gamma1": args.gamma1, "gamma2": args.gamma2, "phi": phi}
    return inputs, result


def _cmd_discriminate(args):
    data = _load_json(args.set)
    if not isinstance(data, dict) or "gates" not in data or not isinstance(data["gates"], list):
        raise ValidationError('hypothesis set file must be {"gates": [matrix, ...]}')
    gates = tuple(_parse_gate(g, f"gate {i}", args.tol) for i, g in enumerate(data["gates"]))
    hyp = protocol.HypothesisSet(gates=gates)
    plan = protocol.plan_elimination(hyp)
    sim = protocol.simulate_elimination(plan, hyp, true_index=args.true, seed=args.seed)
    result = {
        "identified": sim.identified_index,
        "total_runs": sim.total_runs,
        "true_in_set": sim.true_in_set,
        "trace": [
            {
                "pair": list(r.pair),
                "copies": r.copies,
                "outcome_target": r.outcome_target,
                "discarded": r.discarded,
            }
            for r in sim.trace
        ],
    }
    inputs = {"set": args.set, "true": args.true, "seed": args.seed, "tol": args.tol}
    return inputs, result


# --------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="gatediscrim", description=__doc__)
    # Shared options; each command takes only those its handler reads.
    options = {
        "seed": dict(type=int, default=0, help="random seed (default 0)"),
        "samples": dict(type=int, default=100_000, help="Monte-Carlo sample count"),
        "tol": dict(type=float, default=DEFAULT_TOL,
                    help="validation tolerance (default %(default)g)"),
        "emit-plot": dict(metavar="PATH", default=None, help="write a CSV (x,y) series"),
        "u1": dict(required=True),
        "u2": dict(required=True),
    }
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, handler, help_text, *shared):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for opt in shared:
            p.add_argument(f"--{opt}", **options[opt])
        return p

    add("fidelity", _cmd_fidelity, "statistical fidelity between two gates", "tol", "u1", "u2")
    add("distance", _cmd_distance, "statistical angle between two gates", "tol", "u1", "u2")
    add("ncopies", _cmd_ncopies, "copies needed for perfect discrimination", "tol", "u1", "u2")

    p = add("probe", _cmd_probe, "optimal probe state for a gate pair", "tol", "u1", "u2")
    p.add_argument(
        "--kind", choices=["entangled", "separable", "ncopies"], default="entangled"
    )

    p = add("arc", _cmd_arc, "minimal covering arc of a phase list")
    p.add_argument("--phases", required=True, help="JSON array of phases (radians)")

    p = add("oracle", _cmd_oracle, "numerical minimum overlap (brute force)", "tol", "u1", "u2")
    p.add_argument("--n", type=int, default=1, help="copy count (default 1)")

    p = add("state-fidelity", _cmd_state_fidelity, "fidelity between density matrices")
    p.add_argument("--rho1", required=True)
    p.add_argument("--rho2", required=True)

    p = add("classical-distance", _cmd_classical_distance, "angle between distributions")
    p.add_argument("--p", required=True, help="JSON array of probabilities")
    p.add_argument("--q", required=True, help="JSON array of probabilities")

    add("avg-fidelity", _cmd_avg_fidelity, "Monte-Carlo average fidelity",
        "tol", "samples", "seed", "emit-plot", "u1", "u2")

    p = add("haar-sample", _cmd_haar_sample, "invariant-measure parameter draws",
            "seed", "emit-plot")
    p.add_argument("--n", type=int, default=10, help="number of draws (default 10)")

    p = add("metric-check", _cmd_metric_check, "coordinate vs matrix metric agreement",
            "seed")
    p.add_argument("--n", type=int, default=100, help="number of draws (default 100)")

    p = add("su3-example", _cmd_su3_example, "three-level gate with a forced-zero entry")
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)
    p.add_argument("--phi", required=True, help="JSON array of 5 phase angles")

    p = add("discriminate", _cmd_discriminate, "simulate sequential elimination",
            "tol", "seed")
    p.add_argument("--set", required=True, help='JSON file {"gates": [matrix, ...]}')
    p.add_argument("--true", type=int, required=True, help="index of the true gate")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 64
    if getattr(args, "command", None) is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 64
    try:
        inputs, result = args.handler(args)
        text = _to_json({"command": args.command, "inputs": inputs, "result": result})
    except json.JSONDecodeError as exc:
        where = getattr(exc, "args", [""])[0]
        print(f"malformed JSON: {where}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
