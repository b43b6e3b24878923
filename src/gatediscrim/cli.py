"""Command-line interface.

Every run prints exactly one JSON object to stdout:

    {"command": <name>, "inputs": <its options but --emit-plot>, "result": ...}

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
from .numkit import DEFAULT_TOL, _check_draw


# Most draws `haar-sample --n` and `metric-check --n` take, read at call time.
# Both do Python work per draw that numkit.MAX_DRAW_VALUES does not bound:
# haar-sample prints a ~570 B object per draw (~6 GB at that cap) and
# metric-check takes ~93 us per draw (~17 minutes at that cap).
MAX_CLI_DRAWS = 10**5


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise ValidationError(f"cannot decode {path!r}: {exc}") from exc


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
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError as exc:  # a JSON integer past float range
                raise ValidationError(f"{what} entry ({i},{j}): {exc}") from exc
    return out


def _parse_gate(data, what: str, tol: float) -> Gate:
    return Gate(_parse_matrix(data, what=what), tol=tol)


def _load_pair(args) -> tuple[Gate, Gate]:
    """The gates of a pair command's --u1 and --u2, both accepted at --tol."""
    return tuple(_parse_gate(_load_json(path), f"gate file {path!r}", args.tol)
                 for path in (args.u1, args.u2))


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        # integers parse as floats too, so a huge one reads as inf and is refused below
        data = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
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
# Handlers: each returns its command's result; JSON-array options arrive parsed


def _cmd_fidelity(args):
    return gate_fidelity_sud(*_load_pair(args))


def _cmd_distance(args):
    return gate_distance(*_load_pair(args))


def _cmd_ncopies(args):
    return min_copies(*_load_pair(args))


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
    return {
        "copies": probe.copies,
        "separable": probe.separable,
        "ancilla_dim": probe.ancilla_dim,
        "overlap": overlap,
        "vector": vector,
    }


def _cmd_arc(args):
    arc = minimal_covering_arc(args.phases)
    return {
        "delta": arc.delta,
        "center": arc.center,
        "extremes": list(arc.extremes),
        "convex_min_overlap": convex_min_overlap(args.phases),
    }


def _cmd_oracle(args):
    return oracle_min_overlap(*_load_pair(args), args.n)


def _cmd_state_fidelity(args):
    rho1 = _parse_matrix(_load_json(args.rho1), what=f"state file {args.rho1!r}")
    rho2 = _parse_matrix(_load_json(args.rho2), what=f"state file {args.rho2!r}")
    return states.mixed_fidelity(rho1, rho2)


def _cmd_classical_distance(args):
    return classical.classical_distance(args.p, args.q)


def _cmd_avg_fidelity(args):
    u1, u2 = _load_pair(args)
    vals = geometry.overlap_samples(u1, u2, samples=args.samples, seed=args.seed)
    est = geometry.MonteCarloEstimate.from_samples(vals)
    closed = geometry.avg_fidelity_su2_closed(u1, u2) if u1.dim == 2 else None
    if args.emit_plot:
        _write_plot(args.emit_plot, *_histogram_series(vals, 0.0, 1.0))
    return {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "samples": est.samples,
        "closed_form": closed,
    }


def _haar_draws(args) -> geometry.SU2ParamSample:
    """`haar_sample_su2(--seed, --n)`, refusing before it draws an --n above
    MAX_CLI_DRAWS with SizeLimitError; a count above the library's own draw
    cap keeps the library's message."""
    _check_draw(3 * args.n, f"sample count {args.n}")
    if args.n > MAX_CLI_DRAWS:
        raise SizeLimitError(f"--n {args.n} is above the cap {MAX_CLI_DRAWS} on draws per command")
    return geometry.haar_sample_su2(args.seed, args.n)


def _cmd_haar_sample(args):
    params = _haar_draws(args)
    if args.emit_plot:
        _write_plot(args.emit_plot, *_histogram_series(params.theta1, 0.0, math.pi / 2.0))
    columns = (params.theta1.tolist(), params.theta2.tolist(), params.theta3.tolist())
    return [{"theta1": a, "theta2": b, "theta3": c} for a, b, c in zip(*columns)]


def _cmd_metric_check(args):
    params = _haar_draws(args)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 1]))
    worst = 0.0
    for p in params:
        t = geometry.TangentIncrement(*rng.standard_normal(3))
        via_matrix = geometry.metric_form_matrix(
            su2_from_params(p), geometry.su2_tangent(p, t)
        )
        via_coords = geometry.metric_form_coords(p, t)
        worst = max(worst, abs(via_matrix - via_coords) / max(via_coords, 1e-30))
    return {"draws": args.n, "max_rel_err": worst}


def _cmd_su3_example(args):
    gate = su3_example_gate(args.gamma1, args.gamma2, args.phi)
    return {
        "matrix": _matrix_obj(gate.matrix),
        "fidelity_vs_identity": gate_fidelity_sud(Gate.identity(3), gate),
    }


def _cmd_discriminate(args):
    data = _load_json(args.set)
    if not isinstance(data, dict) or "gates" not in data or not isinstance(data["gates"], list):
        raise ValidationError('hypothesis set file must be {"gates": [matrix, ...]}')
    gates = tuple(_parse_gate(g, f"gate {i}", args.tol) for i, g in enumerate(data["gates"]))
    hyp = protocol.HypothesisSet(gates=gates)
    plan = protocol.plan_elimination(hyp)
    sim = protocol.simulate_elimination(plan, hyp, true_index=args.true, seed=args.seed)
    return {
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


# --------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    """The parser; each command is one row of `commands`, each option one spec of `options`."""
    parser = _Parser(prog="gatediscrim", description=__doc__)
    options = {
        "u1": dict(required=True),
        "u2": dict(required=True),
        "kind": dict(choices=["entangled", "separable", "ncopies"], default="entangled"),
        "phases": dict(required=True, help="JSON array of phases (radians)"),
        "rho1": dict(required=True),
        "rho2": dict(required=True),
        "p": dict(required=True, help="JSON array of probabilities"),
        "q": dict(required=True, help="JSON array of probabilities"),
        "samples": dict(type=int, default=100_000, help="Monte-Carlo sample count"),
        "seed": dict(type=int, default=0, help="random seed (default 0)"),
        "gamma1": dict(type=float, required=True),
        "gamma2": dict(type=float, required=True),
        "phi": dict(required=True, help="JSON array of 5 phase angles"),
        "set": dict(required=True, help='JSON file {"gates": [matrix, ...]}'),
        "true": dict(type=int, required=True, help="index of the true gate"),
        "tol": dict(type=float, default=DEFAULT_TOL,
                    help="validation tolerance (default %(default)g)"),
        "emit-plot": dict(metavar="PATH", default=None, help="write a CSV (x,y) series"),
    }
    commands = [  # name, handler, help, options in echo order[, the spec of its --n]
        ("fidelity", _cmd_fidelity, "statistical fidelity between two gates", "u1 u2 tol"),
        ("distance", _cmd_distance, "statistical angle between two gates", "u1 u2 tol"),
        ("ncopies", _cmd_ncopies, "copies needed for perfect discrimination", "u1 u2 tol"),
        ("probe", _cmd_probe, "optimal probe state for a gate pair", "u1 u2 kind tol"),
        ("arc", _cmd_arc, "minimal covering arc of a phase list", "phases"),
        ("oracle", _cmd_oracle, "numerical minimum overlap (brute force)", "u1 u2 n tol",
         dict(type=int, default=1, help="copy count (default 1)")),
        ("state-fidelity", _cmd_state_fidelity, "fidelity between density matrices", "rho1 rho2"),
        ("classical-distance", _cmd_classical_distance, "angle between distributions", "p q"),
        ("avg-fidelity", _cmd_avg_fidelity, "Monte-Carlo average fidelity",
         "u1 u2 samples seed tol emit-plot"),
        ("haar-sample", _cmd_haar_sample, "invariant-measure parameter draws",
         "seed n emit-plot", dict(type=int, default=10, help="number of draws (default 10)")),
        ("metric-check", _cmd_metric_check, "coordinate vs matrix metric agreement", "seed n",
         dict(type=int, default=100, help="number of draws (default 100)")),
        ("su3-example", _cmd_su3_example, "three-level gate with a forced-zero entry",
         "gamma1 gamma2 phi"),
        ("discriminate", _cmd_discriminate, "simulate sequential elimination",
         "set true seed tol"),
    ]
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, handler, help_text, declared, *n in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, declared=declared.split())
        for opt in declared.split():
            p.add_argument(f"--{opt}", **(n[0] if opt == "n" else options[opt]))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except SystemExit:  # argparse exits only after printing --help: error() raises
        return 0
    if getattr(args, "command", None) is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 64
    failures = (  # (exception type, stderr prefix, exit code)
        (json.JSONDecodeError, "malformed JSON", 2),
        (ValidationError, "validation error", 2),
        (ConvergenceError, "numerical non-convergence", 3),
        (OSError, "i/o error", 2),
    )
    try:
        for name in args.declared:
            # JSON arrays are parsed here, not by argparse, which would report
            # a ValidationError from a type= callable as a usage error
            if name in ("phases", "p", "q", "phi"):
                setattr(args, name, _parse_float_list(getattr(args, name), f"--{name}"))
        result = args.handler(args)
        # the echo: every declared option but the output path, in declared order
        inputs = {name: getattr(args, name) for name in args.declared if name != "emit-plot"}
        text = _to_json({"command": args.command, "inputs": inputs, "result": result})
    except tuple(kind for kind, _, _ in failures) as exc:
        prefix, code = next((p, c) for kind, p, c in failures if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
