"""A deterministic gate on per-tuple cost (P-BATCH, "the scalar lane" and
"the column lane").

Wall-clock gates are noisy on a shared box; the number of Python-level
function calls a query makes is not.  Each case runs a 1,000-tuple query
twice — the first run compiles and warms every cache — and counts the
``call`` events ``sys.setprofile`` reports for the second (C functions are
``c_call`` events and do not count).  The count repeats exactly, so the
ceilings sit 3-10% above what the engine does today and fail the day a
generic path — a kernel behind three helpers, a builtin reached through its
list form, an external read through the request per row, a clause that
evaluates per row what its column answers per batch — creeps back onto the
lane.  Measured when a child step over an index join's records got a
column (the build reads its key column raw, the ``return`` hands out
leaves): 1.00 / 4.14 / 4.33 / 7.59 / 5.39 / 6.18 calls per tuple, the
sixth 10.38 before it; when the batch began to carry its columns (a range
``for`` binds raw integers, a ``return`` the lane answers yields its
column's atoms): 1.00 / 4.13 / 4.33 / 7.58 / 5.34 calls per tuple; 1.95 /
6.09 / 24.2 / 9.76 / 7.21 when the column lane landed (the third still on
the atom lane: its ``return`` had no column lane), 9.9 / 24.0 / 24.2 /
16.7 / 18.1 on the atom lane alone, and 17.9 / 49.0 / 53.2 for the first
three before the atom lane's kernels guarded on the Python type.
"""

from __future__ import annotations

import sys

import pytest

from repro import serialize
from repro.demo import build_demo_platform
from repro.schema import leaf, shape
from repro.xml import AtomicValue, element

TUPLES = 1000

#: an index join's inner sequence: ``<R><K>1</K></R>`` … typed ``xs:integer`` keys
ROWS = [element("R", element("K", key)) for key in range(1, 41)]
#: the same keys as a CSV file's ``xs:string`` fields, ``REGIONS()``: row-backed records
REGIONS = "CID,REGION\n" + "".join(f"C{key},zone{key % 7}\n" for key in range(1, 41))

#: (what it gates, query, external bindings — an ``int`` is one ``xs:integer``
#: — calls-per-tuple ceiling)
CASES = [
    ("mod / eq filter",
     f"for $i in (1 to {TUPLES}) where ($i mod 7) eq $r return $i", {"r": 3}, 1.1),
    ("four-let stack",
     f"for $i in (1 to {TUPLES}) let $a := $i + $s let $b := $a * 2 "
     "let $c := $b - $i let $d := $c mod 9 where $d ne 5 return $d", {"s": 17}, 4.4),
    ("fn:concat key",
     f'for $i in (1 to {TUPLES}) let $k := fn:concat("C", (($i + $s) mod 40) + 1) '
     "return $k", {"s": 17}, 4.6),
    ("group key",
     f"for $i in (1 to {TUPLES}) let $k := ($i + $s) mod 50 "
     "group $i as $is by $k as $g return <G>{$g}{fn:count($is)}</G>", {"s": 17}, 8.0),
    ("eq index-join probe",
     f"for $i in (1 to {TUPLES}) for $r in $rows where $r/K eq (($i + $s) mod 40) + 1 "
     "return $i", {"s": 17, "rows": ROWS}, 5.7),
    ("eq index-join probe over a CSV file",
     f"for $i in (1 to {TUPLES}) for $r in REGIONS() "
     'where $r/CID eq fn:concat("C", (($i + $s) mod 40) + 1) return $r/REGION',
     {"s": 17}, 6.5),
]


def python_calls(run) -> int:
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture(scope="module")
def platform(tmp_path_factory):
    platform = build_demo_platform(customers=2, orders_per_customer=0)
    path = tmp_path_factory.mktemp("files") / "regions.csv"
    path.write_text(REGIONS)
    platform.register_csv_file("REGIONS", path, shape("REGION_ROW", [
        leaf("CID", "xs:string"), leaf("REGION", "xs:string")]))
    return platform


@pytest.mark.parametrize("what, query, externals, ceiling", CASES,
                         ids=[case[0] for case in CASES])
def test_calls_per_tuple_stay_under_the_ceiling(platform, what, query, externals, ceiling):
    variables = {name: value if isinstance(value, list) else [AtomicValue(value, "xs:integer")]
                 for name, value in externals.items()}
    expected = platform.execute(query, variables)  # compile, warm
    result: list = []
    calls = python_calls(lambda: result.extend(platform.execute(query, variables)))
    assert result
    if all(isinstance(item, AtomicValue) for item in result):
        assert result == expected  # typed: an xs:string "3" is not an xs:integer 3
    else:
        assert serialize(result) == serialize(expected)  # nodes compare by identity
    assert calls / TUPLES <= ceiling, f"{what}: {calls / TUPLES:.2f} calls per tuple"
