"""Smoke test of the benchmark command at a tiny input size.

Each workload of ``BENCHMARK.json`` runs once untraced and ``stream-drift``
(which touches every layer but the streamed-pass consolidation) once traced.
The test asserts that the result line carries every metric
``BENCHMARK.json`` declares, with its unit, that the outputs checked out, and
that the traced run reports its coverage.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0.5",
         "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    return result, lines


def _assert_declared(metrics, declared):
    expected = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in metrics.items()} == expected


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = _result(_run(ROOT, "--workload", workload, "--trace", "0"))
    _assert_declared(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("host ") and "probe_ms_before" in line for line in lines)
    assert any(line.startswith("inputs ") for line in lines)


def test_traced_run_prints_every_per_layer_metric_and_coverage():
    result, lines = _result(_run(ROOT, "--workload", "stream-drift", "--trace", "1"))
    metrics = result["metrics"]
    _assert_declared(metrics, SPEC["per_layer"])
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert metrics["stream.checks"]["value"] > 0 and metrics["serve.requests"]["value"] > 0
    assert any(line.startswith("layers ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "fit-2d-points", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
