"""Smoke test of the end-to-end benchmark, a few seconds per workload.

Runs ``run.py --smoke`` (tiny datasets, two-second phases) for every
workload, untraced and traced, and checks the result contract: the last
stdout line is the JSON result, its metric names and units are exactly
``BENCHMARK.json``'s, and every correctness check passes::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    out = _run(ROOT, "--workload", workload, "--smoke", "--trace", trace)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in specs
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit nonzero,
    print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    out = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"])
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
