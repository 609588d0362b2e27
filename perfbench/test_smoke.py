"""Smoke test for the benchmark: every workload, the ladder and the README pass.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each command at its smallest setting so the benchmark cannot rot;
it measures nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(script: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_line(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_passes_its_checks(workload, trace):
    result = result_line(run("run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_ladder_smallest_sizes():
    records = result_line(run("ladder.py", "--smallest"))
    assert records and all(r["ok"] and r["median_s"] > 0 for r in records), records


def test_readme_pass():
    result = result_line(run("readme_pass.py"))
    assert result["correct"] and result["attempted"] == 6
    assert len(result["metrics"]) == 6


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("run.py", "--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
