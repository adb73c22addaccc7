"""A deterministic gate on per-tuple cost (P-BATCH, "the scalar lane").

Wall-clock gates are noisy on a shared box; the number of Python-level
function calls a query makes is not.  Each case runs a 1,000-tuple query
twice — the first run compiles and warms every cache — and counts the
``call`` events ``sys.setprofile`` reports for the second (C functions are
``c_call`` events and do not count).  The count repeats exactly, so the
ceilings sit 3-10% above what the engine does today and fail the day a
generic path — a kernel behind three helpers, a builtin reached through its
list form, an external read through the request per row — creeps back onto
the lane.  Measured when the gate was written: 9.9 / 24.0 / 24.2 calls per
tuple; 17.9 / 49.0 / 53.2 before the kernels guarded on the Python type.
"""

from __future__ import annotations

import sys

import pytest

from repro.demo import build_demo_platform
from repro.xml import AtomicValue

TUPLES = 1000

#: (what it gates, query, external bindings, calls-per-tuple ceiling)
CASES = [
    ("mod / eq filter",
     f"for $i in (1 to {TUPLES}) where ($i mod 7) eq $r return $i", {"r": 3}, 11),
    ("four-let stack",
     f"for $i in (1 to {TUPLES}) let $a := $i + $s let $b := $a * 2 "
     "let $c := $b - $i let $d := $c mod 9 where $d ne 5 return $d", {"s": 17}, 26),
    ("fn:concat key",
     f'for $i in (1 to {TUPLES}) let $k := fn:concat("C", (($i + $s) mod 40) + 1) '
     "return $k", {"s": 17}, 25),
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
def platform():
    return build_demo_platform(customers=2, orders_per_customer=0)


@pytest.mark.parametrize("what, query, externals, ceiling", CASES,
                         ids=[case[0] for case in CASES])
def test_calls_per_tuple_stay_under_the_ceiling(platform, what, query, externals, ceiling):
    variables = {name: [AtomicValue(value, "xs:integer")]
                 for name, value in externals.items()}
    expected = platform.execute(query, variables)  # compile, warm
    result: list = []
    calls = python_calls(lambda: result.extend(platform.execute(query, variables)))
    assert result == expected and result
    assert calls / TUPLES <= ceiling, f"{what}: {calls / TUPLES:.1f} calls per tuple"
