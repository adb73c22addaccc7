"""Smoke test of the layered benchmark (collected by ``make bench-smoke``).

Runs ``run.py --smoke`` twice -- a tenth-size federation, fixed operation
counts, one repetition, no timing gates -- and checks the plumbing: the
schema, every workload and metric name, zero failures, and that whatever
is declared exact repeats exactly.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _load(name: str):
    module_spec = importlib.util.spec_from_file_location(f"layered_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


spec = _load("spec")
compare = _load("compare")


def _smoke(path: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--smoke",
         "--output", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    for name, *_ in spec.END_TO_END + spec.UNGATED_END_TO_END + spec.PER_LAYER:
        assert name in done.stdout, f"{name} is not printed"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("layered")
    return _smoke(base / "a.json"), _smoke(base / "b.json")


def test_manifest_matches_spec():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))


def test_every_workload_and_metric_is_reported(runs):
    first, _second = runs
    assert list(first["workloads"]) == list(spec.WORKLOADS)
    bounded = [name for name, *_ in spec.END_TO_END]
    unbounded = [name for name, *_ in spec.UNGATED_END_TO_END]
    for workload, entry in first["workloads"].items():
        assert entry["why"] == spec.WORKLOADS[workload]
        assert list(entry["end_to_end"]) == bounded + unbounded
        assert list(entry["per_layer"]) == [name for name, *_ in spec.PER_LAYER]
        for name in bounded:
            assert entry["end_to_end"][name]["value"] > 0, (workload, name)
        for name, cell in entry["per_layer"].items():
            assert cell["value"] is not None, (workload, name)


def test_nothing_fails(runs):
    for run in runs:
        for workload, entry in run["workloads"].items():
            assert entry["failed"] == 0, (workload, entry["first_failure"])
            assert entry["end_to_end"]["failed_share"]["value"] == 0


def test_exact_metrics_repeat(runs):
    first, second = runs
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        assert a["result_digest"] == b["result_digest"], workload
        for name in spec.EXACT:
            section = "end_to_end" if name in a["end_to_end"] else "per_layer"
            assert a[section][name]["value"] == b[section][name]["value"], (workload, name)


def test_layers_light_up_where_the_issue_says(runs):
    layers = {workload: {name: cell["value"] for name, cell in entry["per_layer"].items()}
              for workload, entry in runs[0]["workloads"].items()}
    assert layers["cold_compile"]["compiler.plan_cache_hit_ratio"] == 0
    assert layers["keyed_lookup"]["compiler.plan_cache_hit_ratio"] >= 0.99
    assert layers["midtier_flwor"]["relational.execute_ms"] == 0
    assert layers["midtier_flwor"]["sources.roundtrips"] == 0
    assert layers["federated_join"]["runtime.ppk_blocks"] > 0
    assert layers["read_write_mix"]["sdo.statements_per_submit"] == 1
    assert layers["serving_mix"]["security.elements_removed"] > 0
    assert layers["serving_mix"]["server.shed_ratio"] == 0
    for workload in layers:
        assert layers[workload]["resilience.retries"] == 0


def test_compare_verdicts(runs):
    first, second = runs
    _lines, regressed = compare.compare(first, first)
    assert not regressed
    slower = json.loads(json.dumps(second))
    cell = slower["workloads"]["keyed_lookup"]["end_to_end"]["virtual_ms_per_op"]
    cell["value"] *= 1.5
    lines, regressed = compare.compare(first, slower)
    assert regressed
    assert any("virtual_ms_per_op" in line and "regressed" in line for line in lines)
