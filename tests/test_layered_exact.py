"""The layered benchmark's exact figures, held to a committed golden.

``benchmarks/layered`` gates speed against a baseline measured elsewhere;
what *repeats exactly* — the digest of every byte a workload returns, its
per-operation counts (roundtrips, rows shipped, tuples flowed, bytes out,
...) and its virtual milliseconds — is gated here, in tier 1, on the smoke
federation.  Each workload's ``child.py`` is spawned twice, the way
``run.py`` spawns it: once on the wall clock (digest and counts) and once
on the virtual clock (the same, plus virtual time).

A change that is meant to leave results and counts alone (an optimisation,
a refactor) must leave ``tests/golden/layered_exact.json`` alone; one meant
to move them regenerates it and says so:

    PYTHONPATH=src python tests/test_layered_exact.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "layered_exact.json"
CHILD = HERE.parent / "benchmarks" / "layered" / "child.py"
WORKLOADS = ("keyed_lookup", "pushed_scan", "federated_join", "midtier_flwor",
             "cold_compile", "read_write_mix", "serving_mix")
MODES = ("plain", "virtual")


def exact_figures(workload: str, mode: str) -> dict:
    """One smoke repetition of ``workload``; only what repeats exactly."""
    done = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", "1",
         "--sizes", "smoke", "--ops", "2", "--mode", mode],
        capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"digest": result["digest"], "failed": result["failed"],
            "exact": result["exact"], "virtual_ms_per_op": result["virtual_ms_per_op"]}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_byte_and_every_count_is_the_goldens(workload, mode):
    golden = json.loads(GOLDEN.read_text())
    assert exact_figures(workload, mode) == golden[workload][mode]


def test_the_golden_covers_every_workload_of_the_benchmark():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {entry["name"] for entry in manifest["workloads"]} == set(WORKLOADS)
    assert set(json.loads(GOLDEN.read_text())) == set(WORKLOADS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {workload: {mode: exact_figures(workload, mode) for mode in MODES}
         for workload in WORKLOADS}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
