"""Smoke test of the benchmark in its short mode.

    python3 -m pytest bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed, that no
operation fails, that the traced run's .calls metrics repeat exactly, and
that the benchmark refuses to run without the package sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_all_printed(lines, result, spec_key):
    names = {m["name"] for m in SPEC[spec_key]}
    assert set(result["metrics"]) == names
    for name in names:
        assert any(line.startswith(f"metric {name} ") for line in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "metric error_rate 0.0 ratio" in "\n".join(lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_no_failures(workload):
    lines, result = result_of(run(workload, 0))
    assert_all_printed(lines, result, "end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_calls_repeat_exactly(workload):
    first_lines, first = result_of(run(workload, 1))
    _, second = result_of(run(workload, 1))
    assert_all_printed(first_lines, first, "per_layer")
    calls = [k for k in first["metrics"] if k.endswith(".calls")]
    assert calls
    for k in calls:
        assert first["metrics"][k] == second["metrics"][k], k


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
