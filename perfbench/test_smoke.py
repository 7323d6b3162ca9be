"""Smoke test of the benchmark itself: each workload's path at P <= 64, Nr = 4.

Runs ``perfbench/run.py --size tiny`` in a subprocess for every workload in
``BENCHMARK.json``, with tracing off and on, and checks that the result line
names exactly the declared metrics with their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    out = _run(HERE / "run.py", "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path / HERE.name / "run.py", "--workload", SPEC["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
