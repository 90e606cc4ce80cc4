"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q

Every workload must print every metric BENCHMARK.json declares, with its
unit, in both modes; a truncated P6 image in a copy of the manifest must be
counted as a failed invocation rather than crash the benchmark; and without
the program's sources the command must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(workload, trace, kind):
    proc, result = run_bench("--workload", workload, "--trace", str(trace),
                             "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], float), name
        assert f"{name} " in proc.stdout, name


def test_truncated_p6_counts_as_failed_not_crash():
    proc, result = run_bench("--workload", "drive_eval", "--trace", "0",
                             "--smoke", "--truncate-first-image")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["failed_frac"] == 1.0
    assert any("eval exited 1" in f for f in detail["failures"])


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", "drive_eval", "--trace", "0",
                             cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert result is None
