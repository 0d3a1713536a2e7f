"""Smoke test of the benchmark harness at minimal sizes.

Runs every workload once plain and once traced through the real entry point
and checks that the result line carries exactly the metrics BENCHMARK.json
declares, with every oracle passing.  Also checks that the benchmark
refuses to run, printing no result, without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_small(workload, trace):
    proc = _run(ROOT, workload, trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "wallcross", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
