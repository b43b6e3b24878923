"""Benchmark of gatediscrim: seeded workloads, checked results, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from
`src/` of that checkout.  One client calls the library back to back from
one thread (a closed loop), with BLAS pinned to one thread.

`--trace 0` prints the end-to-end metrics of the workload; `--trace 1`
prints the per-layer metrics of a traced run (see bench/README.md).  The
last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric with its sample
count, the stamp of the run and the diagnostics.  `--quick` shortens
everything for the smoke test.
"""
import os

# Pin BLAS before numpy loads, here and in every child interpreter.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 200  # op_ms_p95 needs ten samples beyond it
SETUP_REPS = 5
CLI_CALLS = 15
WARMUP_OPS = 4
CHILD_TIMEOUT_S = 60


class Settings:
    def __init__(self, quick: bool):
        self.min_ops = 0 if quick else MIN_OPS
        self.setup_reps = 2 if quick else SETUP_REPS
        self.cli_calls = 2 if quick else CLI_CALLS


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: BLAS_THREADS for v in THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# Setup, timed in fresh interpreters


def setup_child(workload: str, seed: int) -> int:
    """Import the package and set the workload up; print the two times."""
    t0 = time.perf_counter()
    import gatediscrim

    t1 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload](gatediscrim, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


def setup_once(workload: str, seed: int) -> dict:
    """One setup in a fresh interpreter: {"import_s", "setup_s"}."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-child", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Stamp and diagnostics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gatediscrim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def non_special_rejected(gd) -> int:
    """Valid gate pairs that gate_distance refuses because a det is not 1.

    Pauli X vs Z (det -1) and a det e^{i 1e-7} gate vs the identity: both
    have a well-defined distance up to global phase.  A known defect, kept
    visible here rather than avoided by the choice of inputs.
    """
    import numpy as np

    pairs = (
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])),
        (np.diag([np.exp(1e-7j), 1.0]), np.eye(2)),
    )
    rejected = 0
    for a, b in pairs:
        try:
            gd.gate_distance(gd.Gate(a), gd.Gate(b))
        except gd.ValidationError:
            rejected += 1
    return rejected


# ---------------------------------------------------------------------------
# Running ops


class Tally:
    """Attempted and failed operations, with the first failure reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            if self.failed == 0:
                print(f"# first failure: {what}", file=sys.stderr)
            self.failed += 1


def run_checked(wl, op, tally: Tally, call=None):
    """Run one op (through `call` when tracing); return its wall time in s."""
    t0 = time.perf_counter()
    try:
        res = call(wl.run, op) if call else wl.run(op)
    except Exception:  # a library exception is a failed op, not a crash
        elapsed = time.perf_counter() - t0
        tally.record(False, traceback.format_exc())
        return elapsed
    elapsed = time.perf_counter() - t0
    tally.record(bool(wl.check(op, res)), f"check failed on op {op!r:.200}")
    return elapsed


def timed_loop(wl, seconds: float, min_ops: int, tally: Tally, side_tasks):
    """Run ops back to back until `seconds` have passed and `min_ops` are
    done, stopping at a block boundary.

    Each side task is a (function returning a wall time, output list) pair.
    The tasks run between blocks, spread evenly over the run, so that they
    see the same host load as the ops; they are not part of any op's time.
    Returns the per-op times in s and the host-speed probes; every time is
    appended as a (raw, corrected) pair, corrected by the probes either side
    of its op or task.
    """
    from hostspeed import HostSpeed

    speed = HostSpeed()
    times = []
    pending = list(side_tasks)
    t0 = time.perf_counter()
    for block in wl.ops():
        for op in block:
            t = run_checked(wl, op, tally)
            times.append((t, t * speed.factor()))
        done = len(side_tasks) - len(pending)
        if pending and time.perf_counter() - t0 >= seconds * (done + 0.5) / len(side_tasks):
            run_side_task(*pending.pop(0), speed)
        if time.perf_counter() - t0 >= seconds and len(times) >= min_ops:
            break
    for task in pending:
        run_side_task(*task, speed)
    return times, speed.probes


def run_side_task(fn, out: list, speed):
    speed.factor()  # probe right before the task
    value = fn()
    out.append((value, value * speed.factor()))


def warm_up(wl, tally: Tally):
    from workloads import STREAM_WARMUP

    for op in next(wl.ops(STREAM_WARMUP))[:WARMUP_OPS]:
        run_checked(wl, op, tally)


def cli_subprocess_ms(argv, check, tally: Tally) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gatediscrim.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and check(json.loads(proc.stdout)["result"])
    tally.record(ok, f"cli {argv} exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed * 1e3


def cli_in_process(cli_main, argv, check, tally: Tally, call):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = call(cli_main, argv)
    ok = code == 0 and check(json.loads(buf.getvalue())["result"])
    tally.record(ok, f"in-process cli {argv} exit {code}")


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(wl, args, settings: Settings, tally: Tally, workdir: Path):
    """End-to-end metrics, host-speed corrected, and the same figures raw."""
    warm_up(wl, tally)
    argv, check = wl.cli_call(workdir)
    setups, cli_ms = [], []
    side = []
    for i in range(max(settings.setup_reps, settings.cli_calls)):
        if i < settings.cli_calls:
            side.append((lambda: cli_subprocess_ms(argv, check, tally), cli_ms))
        if i < settings.setup_reps:
            side.append((lambda: setup_once(args.workload, args.seed)["setup_s"], setups))
    times, probes = timed_loop(wl, args.seconds, settings.min_ops, tally, side)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(k: int) -> dict:
        ms = [t[k] * 1e3 for t in times]
        n = len(ms)
        return {
            "setup_s": (statistics.median(s[k] for s in setups), "s", len(setups)),
            "ops_per_s": (n / (sum(ms) / 1e3), "1/s", n),
            "op_ms_p50": (statistics.median(ms), "ms", n),
            "op_ms_p95": (statistics.quantiles(ms, n=20, method="inclusive")[18], "ms", n),
            "peak_rss_mb": (peak_mb, "MB", 1),
            "cli_ms_p50": (statistics.median(c[k] for c in cli_ms), "ms", len(cli_ms)),
        }

    return figures(1), figures(0), probes


def traced_op_count(wl, seconds: float) -> int:
    """Ops in the traced run: a fixed count per workload and --seconds, in
    whole blocks, so that the .calls metrics repeat exactly for a seed."""
    blocks = math.ceil(wl.nominal_ops_per_s * seconds / 4.0 / wl.block_size)
    return max(1, blocks) * wl.block_size


def per_layer(wl, args, settings: Settings, tally: Tally, workdir: Path, tracer) -> dict:
    import gatediscrim.cli as gd_cli
    from spans import SpanStats

    setups = [setup_once(args.workload, args.seed) for _ in range(settings.setup_reps)]
    warm_up(wl, tally)
    n_ops = traced_op_count(wl, args.seconds)
    ops = []
    for block in wl.ops():
        ops.extend(block)
        if len(ops) >= n_ops:
            break
    untraced = sum(run_checked(wl, op, tally) for op in ops)
    argv, check = wl.cli_call(workdir)
    tracer.install()
    try:
        traced = sum(
            run_checked(wl, op, tally, call=lambda f, o, i=i: tracer.run_op(i, f, o))
            for i, op in enumerate(ops)
        )
        access, hits = tracer.spectral_access, tracer.spectral_hits
        cli_ids = range(len(ops), len(ops) + settings.cli_calls)
        for i in cli_ids:
            cli_in_process(gd_cli.main, argv, check, tally,
                           call=lambda f, a, i=i: tracer.run_op(i, f, a))
    finally:
        tracer.uninstall()
    st = SpanStats(tracer, range(len(ops)))
    cli_st = SpanStats(tracer, cli_ids)
    n, c = len(ops), len(cli_ids)
    m = {}
    for name in ("numkit.eig_unitary", "numkit.validate_unitary", "gates.Gate",
                 "gates.relative_gate", "gates.gate_distance", "gates.min_copies",
                 "gates.minimal_covering_arc", "gates.optimal_probe_ncopies",
                 "gates.ProbeState", "gates.oracle_min_overlap"):
        m[f"{name}.calls"] = (st.count(name) / n, "count", n)
    for name in ("numkit.eig_unitary", "numkit.tensor_power", "gates.Gate",
                 "gates.gate_distance", "gates.optimal_probe_ncopies", "gates.ProbeState",
                 "gates.probe_overlap", "gates.optimal_probe_single",
                 "gates.oracle_min_overlap", "protocol.HypothesisSet",
                 "protocol.plan_elimination", "protocol.simulate_elimination",
                 "geometry.haar_sample_su2", "geometry.avg_fidelity_mc"):
        m[f"{name}.self_us"] = (st.self_us(name) / n, "us", n)
    m["gates.Gate.spectral.hit_ratio"] = (hits / access if access else 0.0, "ratio", access)
    m["protocol.replans"] = (
        st.count_inside("gates.optimal_probe_ncopies", "protocol.simulate_elimination") / n,
        "count", n)
    m["cli.main.self_us"] = (cli_st.self_us("cli.main") / c, "us", c)
    m["cli.import_ms"] = (statistics.median(s["import_s"] for s in setups) * 1e3, "ms",
                          len(setups))
    m["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%", n)
    return m


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="short smoke-test mode")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gatediscrim" / "__init__.py").is_file():
        print(f"error: no gatediscrim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args.workload, args.seed)

    import gatediscrim as gd
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(gd.__file__).resolve().parent != SRC / "gatediscrim":
        print(f"error: imported gatediscrim from {gd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 64
    # One CPU for this process and its children, so that the host-speed
    # probe runs on the CPU that the setup and CLI subprocesses run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    settings = Settings(args.quick)
    tally = Tally()
    wl = WORKLOADS[args.workload](gd, args.seed)
    print("# stamp " + json.dumps(stamp(args)))
    print(f"# diagnostic check.non_special_rejected {non_special_rejected(gd)}")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            tracer = Tracer()
            metrics = per_layer(wl, args, settings, tally, workdir, tracer)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            print(f"# spans {spans_path.relative_to(ROOT)} ({len(tracer.cols['sid'])} spans)")
        else:
            metrics, raw, probes = end_to_end(wl, args, settings, tally, workdir)
            print(f"# host probe ms: median {statistics.median(probes)!r} "
                  f"min {min(probes)!r} max {max(probes)!r} n={len(probes)}")
            for name, (value, unit, samples) in raw.items():
                print(f"# raw {name} {value!r} {unit} n={samples}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} {value!r} {unit} n={samples}")
    rate = tally.failed / tally.attempted
    print(f"metric error_rate {rate!r} ratio n={tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
