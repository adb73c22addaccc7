"""Compare two results files of the layered benchmark.

    python3 benchmarks/layered/compare.py A.json B.json

prints one row per (workload, end-to-end metric): both medians, the ratio
B/A with its base, and a verdict from the metric's own bound --

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the spread between repetitions (IQR / median, of either
  side) is wider than the bound, so the medians cannot settle it -- unless
  every repetition of B beats every repetition of A, which is ``ok``.

``virtual_ms_per_op`` and ``failed_share`` have a bound of zero and the
result digest must be identical.  Exits 1 if any row is ``regressed``.
"""

from __future__ import annotations

import json
import math
import sys


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    delta = b - a if better == "lower" else a - b
    if not a:
        return math.copysign(math.inf, delta) if delta else 0.0
    return delta / abs(a)


def spread(cell: dict) -> float:
    if not cell.get("iqr") or not cell["value"]:
        return 0.0
    return cell["iqr"] / abs(cell["value"])


def dominates(a: dict, b: dict, better: str) -> bool:
    """Every repetition of B reads better than every repetition of A."""
    ra, rb = a.get("per_repetition") or [], b.get("per_repetition") or []
    if not ra or not rb:
        return False
    return max(rb) < min(ra) if better == "lower" else min(rb) > max(ra)


def verdict(a: dict, b: dict) -> str:
    if a["value"] is None or b["value"] is None:
        return "ok" if a["value"] == b["value"] else "regressed"
    bound = a["bound"]
    if max(spread(a), spread(b)) > bound:
        return "ok" if dominates(a, b, a["better"]) else "unresolved"
    return "regressed" if worse_by(a["value"], b["value"], a["better"]) > bound else "ok"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    lines, regressed = [], False
    header = f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} {'B/A':>8s}  verdict"
    lines.append(header)
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            lines.append(f"{workload:16s} missing from B{'':44s}  regressed")
            regressed = True
            continue
        same = entry_a["result_digest"] == entry_b["result_digest"]
        lines.append(f"{workload:16s} {'result_digest':20s} "
                     f"{entry_a['result_digest'][:12]:>12s} "
                     f"{entry_b['result_digest'][:12]:>12s} {'':>8s}  "
                     f"{'ok' if same else 'regressed'}")
        regressed |= not same
        for metric, cell_a in entry_a["end_to_end"].items():
            cell_b = entry_b["end_to_end"][metric]
            outcome = verdict(cell_a, cell_b)
            regressed |= outcome == "regressed"
            va, vb = cell_a["value"], cell_b["value"]
            ratio = f"{vb / va:8.3f}" if va and vb is not None else f"{'-':>8s}"
            shown = [f"{v:12.4f}" if v is not None else f"{'n/a':>12s}" for v in (va, vb)]
            lines.append(f"{workload:16s} {metric:20s} {shown[0]} {shown[1]} {ratio}  "
                         f"{outcome} (base A, {cell_a['unit']})")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines, regressed = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
