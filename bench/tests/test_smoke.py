"""Smoke tests of the benchmark harness at tiny scale.

Run with ``python -m pytest bench/tests``; the repository's own test suite
does not collect them. Each workload runs on a one-storey building with a
few rooms, traced and untraced, and every output check must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import client  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_every_check(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "FAILED" not in done.stdout


def test_same_seed_same_plan():
    catalog = {"rooms": [vars(r) for r in workloads.make_rooms(
                   workloads._rng("start", 5, "rooms"), 1, 3)],
               "handles": [{"slab": "S" * 22, "walls": ["W" * 22] * 4, "door": "D" * 22,
                            "window": "N" * 22, "roof": None}] * 3,
               "storey_guids": ["L" * 22]}
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 5, workloads.TINY, catalog)
        assert first == workloads.generate(name, 5, workloads.TINY, catalog)
        assert first != workloads.generate(name, 6, workloads.TINY, catalog)


def test_checks_reject_wrong_results():
    results = [{"guids": ["A" * 22, "B" * 22]}]
    assert client.check_failures([["eq", "guid", "$1.guids.1"]], {"guid": "B" * 22}, results) == []
    assert client.check_failures([["eq", "guid", "$1.guids.1"]], {"guid": "A" * 22}, results)
    assert client.check_failures([["approx", "area", 2.0]], {"area": 2.1}, results)
    assert client.check_failures([["len", "results", 3]], {"results": [1]}, results)
    svg = '<g id="%s"><title>w</title><path fill="#4a4a4a"/></g>' % ("A" * 22)
    assert client.check_failures([["plan_walls", ["$1.guids.0"]]], {"svg": svg}, results) == []
    assert client.check_failures([["plan_walls", ["$1.guids"]]], {"svg": svg}, results)


def test_percentile_needs_ten_samples_beyond_a_tail():
    samples = [float(i) for i in range(1, 1001)]
    assert run.percentile(samples, 50) == 500.0
    assert run.percentile(samples, 99) == 990.0
    assert run.percentile(samples[:999], 99) is None
    assert run.percentile(samples[:100], 90) == 90.0
    assert run.percentile(samples[:99], 90) is None


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark's own files cannot produce a result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "author", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
