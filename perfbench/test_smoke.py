"""Smoke test of the benchmark: a tiny run of every workload, untraced and
traced, emits every metric that BENCHMARK.json names and passes the
correctness gate.

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, workload, trace, seconds="0.1"):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_every_metric_and_passes_the_gate(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last_line = proc.stdout.splitlines()
    result = json.loads(last_line)
    report = json.loads(report_line)["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    assert result["correct"] is True
    assert result["attempted"] == report["attempted"] >= 1
    assert result["failed"] == sum(report["failures"].values())
    assert "rejected_witness" not in report["failures"]
    assert "disagreement_refuted" not in report["failures"]
    assert report["digest"]["cases"] >= 1 and len(report["digest"]["sha256"]) == 64


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0, seconds="1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_attempts_and_fails_alike():
    runs = []
    for _ in range(2):
        proc = _bench(ROOT, "param-search", 0)
        assert proc.returncode == 0, proc.stderr
        *_, report_line, last_line = proc.stdout.splitlines()
        result, report = json.loads(last_line), json.loads(report_line)["report"]
        runs.append((result["attempted"], result["failed"], report["failures"], report["digest"]))
    assert runs[0] == runs[1]
