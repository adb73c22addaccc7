"""The layered benchmark: one command, every metric, every output checked.

    python3 benchmarks/layered/run.py --seed N [--workload W] [--smoke]

runs every workload (or one): an untraced pass of ``REPETITIONS`` fresh
child processes for the end-to-end metrics, then a traced pass (one plain,
one traced, one virtual-clock child) for the per-layer metrics.  It prints
every metric by name and unit and writes ``benchmarks/layered/out/
results.json``.  Every operation's output is compared with the oracle's;
repetitions of one seed must agree on the result digest and on every
exact count, or the run fails.

The benchmark driver calls the same code one pass at a time:

    run.py --workload W --seed N --seconds S --trace 0|1

and reads the JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402 - sibling module, importable once HERE is on the path

OUT = HERE / "out"
#: a child that runs this long is stuck; the driver allows a run 180 s
CHILD_TIMEOUT_S = 150
#: timed operations per child in smoke mode (no clock involved)
SMOKE_OPS = 2


class BenchmarkError(Exception):
    """The benchmark cannot vouch for its numbers (not a slow result)."""


def spawn(workload: str, seed: int, mode: str, seconds: float, smoke: bool) -> dict:
    """Run one repetition in a fresh process and return its report."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", f"{seconds:.3f}"]
    if smoke:
        command += ["--sizes", "smoke", "--ops", str(SMOKE_OPS)]
    # a fixed hash seed keeps set/dict iteration, and so every result
    # digest, the same from launch to launch
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}/{mode} child exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def agree(workload: str, reports: list[dict], keys: list[str] | None = None) -> None:
    """Repetitions of one seed must produce the same bytes and counts."""
    first = reports[0]
    for other in reports[1:]:
        if other["digest"] != first["digest"]:
            raise BenchmarkError(
                f"{workload}: result digest differs between {first['mode']} and "
                f"{other['mode']} repetitions of one seed "
                f"({first['digest'][:12]} != {other['digest'][:12]})")
        for key in keys if keys is not None else first["exact"]:
            if other["exact"][key] != first["exact"][key]:
                raise BenchmarkError(
                    f"{workload}: exact count {key} differs between repetitions: "
                    f"{first['exact'][key]} != {other['exact'][key]}")


def tally(reports: list[dict]) -> dict:
    failed = sum(report["failed"] for report in reports)
    first_failure = next((report["first_failure"] for report in reports
                          if report["first_failure"]), None)
    return {"attempted": sum(report["attempted"] for report in reports),
            "failed": failed, "first_failure": first_failure}


def untraced_pass(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The end-to-end metrics: the median over fresh child processes."""
    repetitions = 1 if smoke else spec.REPETITIONS
    # one after another, so that no child disturbs another's timings
    reports = [spawn(workload, seed, "plain", seconds / repetitions, smoke)
               for _ in range(repetitions)]
    agree(workload, reports)
    result = tally(reports)
    result["digest"] = reports[0]["digest"]
    if any(not report["completed"] for report in reports):
        result["metrics"] = {}
        return result
    per_repetition = {name: [report[name] for report in reports]
                      for name, *_ in spec.END_TO_END}
    result.update(
        metrics={name: statistics.median(values)
                 for name, values in per_repetition.items()},
        per_repetition=per_repetition,
        samples=[report["completed"] for report in reports])
    return result


def traced_pass(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The per-layer metrics: a plain child for the counts and the
    untraced baseline, a traced child for the self times, a virtual-clock
    child for the virtual charge."""
    plain = spawn(workload, seed, "plain", seconds / 2, smoke)
    traced = spawn(workload, seed, "traced", seconds / 2, smoke)
    virtual = spawn(workload, seed, "virtual", 0.0, smoke)
    agree(workload, [plain, traced])  # on every count the plain child took
    agree(workload, [plain, virtual], [])  # on the bytes only
    result = tally([plain, traced, virtual])
    result["digest"] = plain["digest"]
    # the traced child's counts are the plain child's plus the plan shapes
    metrics = {**traced["exact"], **plain["ratios"], **traced["spans"]}
    metrics["ttfi_p50_ms"] = plain["ttfi_p50_ms"]
    metrics["virtual_ms_per_op"] = virtual["virtual_ms_per_op"]
    metrics["failed_share"] = result["failed"] / result["attempted"]
    metrics["harness.calibration_ms"] = statistics.median(
        report["calibration_ms"] for report in (plain, traced, virtual))
    if plain["completed"] and traced["completed"]:
        metrics["harness.trace_overhead_pct"] = 100.0 * (
            traced["cpu_ms_per_op"] - plain["cpu_ms_per_op"]) / plain["cpu_ms_per_op"]
    result["metrics"] = metrics
    return result


# -- the driver's contract ---------------------------------------------------------


def driver_line(result: dict, names: list[tuple]) -> str:
    """One pass as the last-line JSON object the driver reads."""
    metrics = {}
    for name, unit, *_ in names:
        value = result["metrics"].get(name)
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    complete = all(name in result["metrics"] for name, *_ in names)
    return json.dumps({
        "correct": result["failed"] == 0 and complete,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# -- the one command ----------------------------------------------------------------


def measure_workload(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Both passes of one workload, as its entry in the results file."""
    untraced = untraced_pass(workload, seed, seconds, smoke)
    traced = traced_pass(workload, seed, seconds, smoke)
    if untraced["digest"] != traced["digest"]:
        raise BenchmarkError(f"{workload}: the two passes disagree on the digest")
    end_to_end = {}
    for name, unit, better, bound in spec.END_TO_END:
        values = untraced.get("per_repetition", {}).get(name, [])
        end_to_end[name] = {
            "value": untraced["metrics"].get(name), "unit": unit, "better": better,
            "bound": bound, "per_repetition": values, "iqr": _iqr(values)}
    for name, unit, better, bound, _what in spec.UNGATED_END_TO_END:
        end_to_end[name] = {"value": traced["metrics"].get(name), "unit": unit,
                            "better": better, "bound": bound}
    return {
        "why": spec.WORKLOADS[workload],
        "result_digest": untraced["digest"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "first_failure": untraced["first_failure"] or traced["first_failure"],
        "samples": untraced.get("samples", []),
        "end_to_end": end_to_end,
        "per_layer": {name: {"value": traced["metrics"].get(name), "unit": unit}
                      for name, unit, *_ in spec.PER_LAYER},
    }


def full_run(workloads: list[str], seed: int, seconds: float, smoke: bool) -> dict:
    def measure(workload: str) -> dict:
        return measure_workload(workload, seed, seconds, smoke)

    if smoke:  # nothing is timed, so the workloads may share the machine
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            entries = list(pool.map(measure, workloads))
    else:
        entries = map(measure, workloads)
    report = {"seed": seed, "sizes": "smoke" if smoke else "full",
              "run_seconds": seconds, "workloads": {}}
    for workload, entry in zip(workloads, entries):
        report["workloads"][workload] = entry
        print_workload(workload, entry)
    return report


def _iqr(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def print_workload(name: str, entry: dict) -> None:
    print(f"== {name}: {entry['attempted']} operations, {entry['failed']} failed, "
          f"digest {entry['result_digest'][:16]}")
    for section in ("end_to_end", "per_layer"):
        for metric, cell in entry[section].items():
            value = "n/a" if cell["value"] is None else f"{cell['value']:.4f}"
            note = f"  (operations per repetition: {entry['samples']})" \
                if metric == "latency_p95_ms" else ""
            print(f"  {metric:34s} {value:>14s} {cell['unit']}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="seconds of timed operations per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one pass of one workload, JSON on the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny federation, fixed operation counts, no timing claims")
    parser.add_argument("--output", type=Path, help="where the full run writes its JSON")
    parser.add_argument("--write-manifest", action="store_true",
                        help="render BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the engine's sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            if args.trace:
                result = traced_pass(args.workload, args.seed, args.seconds, args.smoke)
                names = spec.UNGATED_END_TO_END + spec.PER_LAYER
            else:
                result = untraced_pass(args.workload, args.seed, args.seconds, args.smoke)
                names = spec.END_TO_END
            if result["first_failure"]:
                print(result["first_failure"], file=sys.stderr)
            print(driver_line(result, names))
            return 0
        workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
        report = full_run(workloads, args.seed, args.seconds, args.smoke)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    output = args.output or OUT / ("results-smoke.json" if args.smoke else "results.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {output}")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
