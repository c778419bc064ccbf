"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

Slow (a few minutes): each workload's traced pass runs twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def reference():
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    (run.ROOT / workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
    with open(run.HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    yield reference
    os.chdir(cwd)


def _traced(workload, seed, reference):
    kk = run.setup(workload, seed)
    check = run.Checker(reference, seed)
    metrics, _ = run.traced_pass(kk, workloads.build_ops(workload, seed),
                                 check, wall_s=1.0)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return counts, check.digests, check.failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_repeats_exactly(workload, reference):
    """Same seed: identical layer counts, and every call prints the same
    bytes, with no failed call."""
    seed = workloads.DEFAULT_SEED
    counts1, digests1, failures1 = _traced(workload, seed, reference)
    counts2, digests2, failures2 = _traced(workload, seed, reference)
    assert failures1 == [] and failures2 == []
    assert counts1 == counts2
    assert digests1 == digests2
    assert counts1["scenario.loads"] > 0


def test_generator_is_seeded():
    assert workloads.scenarios.generate(3, 7) == \
        workloads.scenarios.generate(3, 7)
    assert workloads.scenarios.generate(3, 7) != \
        workloads.scenarios.generate(3, 8)


def test_fails_without_sources(tmp_path):
    """Given only the benchmark's own files, it exits non-zero and prints
    no result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-lift",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
