"""FLWOR runtime equivalence suite: every batch size against one golden file.

Every scenario runs at {1, 2, 7, 256} rows per batch and is held to
``tests/golden/flwor_runtime.json``.  The file was captured at the last
commit that still had a tuple-at-a-time FLWOR pipeline (``set_batch_size(1)``
selected it): ``scenarios`` is that pipeline's output — serialized results,
explain plans, profile span trees with per-operator actuals, runtime stats
and virtual-clock totals — ``batch_series`` the ``batch.*`` metric series of
the batch pipeline of the same commit at {2, 7, 256}, and ``early_exit`` what
a stream abandoned after k items had cost by then, at each size.  The one
pipeline that is left must reproduce all of it, n=1 included.

No normalization is applied: gensym numbering is scoped per compilation and
canonicalized, so two identically configured platforms render byte-identical
plan text — ``$#ppk`` numbering included.

To regenerate after a change that is *meant* to move what a query observes
(the file then records the current runtime, not the tuple pipeline)::

    PYTHONPATH=src python tests/test_batch_equivalence.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from itertools import islice
from pathlib import Path

import pytest

from repro import serialize
from repro.clock import WallClock
from repro.demo import build_demo_platform
from repro.relational import LatencyModel

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "flwor_runtime.json"

BATCH_SIZES = [1, 2, 7, 256]


def _batch_series(platform) -> dict:
    return {key: value for key, value in platform.metrics_snapshot().items()
            if key.startswith("batch.")}


def observe_composite(tmp_path, batch_size: int) -> dict:
    """The composite-application scenario: four source kinds, layered
    services, group-less joins, PP-k, order-by, fail-over."""
    from tests.test_composite_scenario import build_scenario

    platform, _invdb, _salesdb = build_scenario(tmp_path)
    platform.configure(batch_size=batch_size)
    out = {}
    out["productInfo"] = serialize(platform.call("productInfo"))
    out["replenishment"] = serialize(platform.call("replenishmentReport"))
    velocity = '''
        for $p in PRODUCT()
        let $sold := sum(for $s in SALE() where $s/SKU eq $p/SKU
                         return $s/UNITS)
        order by $sold descending
        return <VELOCITY>{ data($p/SKU), $sold }</VELOCITY>
    '''
    out["velocity"] = serialize(platform.execute(velocity))
    out["velocity_explain"] = platform.explain(velocity)
    out["velocity_profile"] = platform.profile(velocity).text
    out["report_explain"] = platform.explain("replenishmentReport()")
    out["clock_ms"] = round(platform.clock.now_ms(), 6)
    out["ppk_blocks"] = platform.ctx.stats.ppk_blocks
    out["pushed_queries"] = platform.ctx.stats.pushed_queries
    out["service_calls"] = platform.ctx.stats.service_calls
    out["tuples_flowed"] = platform.ctx.stats.tuples_flowed
    out["batch_series"] = _batch_series(platform)
    return out


def observe_running_example(tmp_path, batch_size: int) -> dict:
    """The Figure-3 running example: PP-k middleware joins, a Web
    service, nested reconstruction — the paper's own workload."""
    platform = build_demo_platform(
        customers=20, orders_per_customer=3, ws_latency_ms=15.0,
        db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05),
    )
    platform.configure(batch_size=batch_size)
    start = platform.clock.now_ms()
    profiles = platform.call("getProfile")
    return {
        "profiles": serialize(profiles),
        "elapsed_ms": round(platform.clock.now_ms() - start, 6),
        "explain": platform.explain("getProfile()"),
        "profile": platform.profile("getProfile()").text,
        "ppk_blocks": platform.ctx.stats.ppk_blocks,
        "ws_calls": platform.ctx.stats.service_calls,
        "pushed_queries": platform.ctx.stats.pushed_queries,
        "tuples_flowed": platform.ctx.stats.tuples_flowed,
        "batch_series": _batch_series(platform),
    }


def _observe_queries(queries: dict, batch_size: int, configure=None) -> dict:
    platform = build_demo_platform(customers=6, orders_per_customer=2)
    platform.configure(batch_size=batch_size)
    if configure is not None:
        configure(platform)
    out = {}
    for name, query in queries.items():
        out[name] = serialize(platform.execute(query))
        out[f"{name}_explain"] = platform.explain(query)
        out[f"{name}_profile"] = platform.profile(query).text
    out["clock_ms"] = round(platform.clock.now_ms(), 6)
    out["tuples_flowed"] = platform.ctx.stats.tuples_flowed
    out["pushed_queries"] = platform.ctx.stats.pushed_queries
    out["batch_series"] = _batch_series(platform)
    return out


#: pure mid-tier operator coverage: where/let chains, group-by (clustered
#: and hashed), order-by, positional vars, nested FLWORs, constructors
OPERATOR_ZOO_QUERIES = {
    "scan": "for $i in (1 to 500) where ($i mod 7) eq 3 return $i",
    "group": ("for $i in (1 to 300) let $k := $i mod 7 "
              "group $i as $is by $k as $g order by $g descending "
              "return <G>{$g}{fn:count($is)}{fn:sum($is)}</G>"),
    "position": ("for $x at $p in (10, 20, 30, 40) "
                 "where $p mod 2 eq 0 return $x + $p"),
    "nested": ("for $c in CUSTOMER() "
               "return <P>{$c/LAST_NAME}<O>{ for $o in ORDER() "
               "where $o/CID eq $c/CID return $o/AMOUNT }</O></P>"),
    "orderby": ("for $c in CUSTOMER() order by $c/LAST_NAME descending "
                "return $c/CID"),
}


def observe_operator_zoo(tmp_path, batch_size: int) -> dict:
    return _observe_queries(OPERATOR_ZOO_QUERIES, batch_size)


#: quantifiers in where and return position, and FLWORs nested in a
#: return — in-memory ones (the eager per-row driver) beside ones that keep
#: the lazy pipeline (a source clause, a group-by, an order-by)
QUANTIFIER_AND_NESTED_QUERIES = {
    "some": ("for $c in CUSTOMER() where (some $z in (\"C2\", \"C4\", \"C9\") "
             "satisfies $c/CID eq $z) return $c/LAST_NAME"),
    "every": ("for $c in CUSTOMER() return <E>{$c/CID}{every $o in "
              "(for $i in (1 to 3) return $i) satisfies $o lt 4}</E>"),
    "two_bindings": ("for $i in (1 to 12) where (some $x in (1, 2, 3), $y in (4, 5) "
                     "satisfies $x * $y eq $i) return $i"),
    "optional": ("for $c in CUSTOMER() return <P>{$c/CID}"
                 "<F?>{fn:data($c[LAST_NAME eq \"Smith\"]/FIRST_NAME)}</F></P>"),
    "nested_filter": ("for $i in (1 to 20) return <R>{ for $x in (1 to 9) "
                      "let $y := $x * $i where $y mod 4 eq 0 return $y }</R>"),
    "nested_empty": ("for $i in (1 to 5) return <R>{ for $x in () return $x }"
                     "{ for $x in (1 to 3) where $x gt $i + 9 return $x }</R>"),
    "nested_source": ("for $c in CUSTOMER() return <P>{ for $o in ORDER() "
                      "where $o/CID eq $c/CID return $o/AMOUNT }</P>"),
    "nested_group": ("for $i in (1 to 4) return <G>{ for $x in (1 to 6) "
                     "group $x as $xs by $x mod $i as $k order by $k "
                     "return <K>{$k}{fn:count($xs)}</K> }</G>"),
}


def observe_quantifiers_and_nested(tmp_path, batch_size: int, configure=None) -> dict:
    return _observe_queries(QUANTIFIER_AND_NESTED_QUERIES, batch_size, configure)


SCENARIOS = {
    "composite": observe_composite,
    "running_example": observe_running_example,
    "operator_zoo": observe_operator_zoo,
    "quantifiers_and_nested": observe_quantifiers_and_nested,
}


# ---------------------------------------------------------------------------
# Early exit: what a stream abandoned after k items had cost by then
# ---------------------------------------------------------------------------

_PPK_JOIN = ("for $c in CUSTOMER() return <O>{$c/CID}{ for $cc in CREDIT_CARD() "
             "where $cc/CID eq $c/CID return $cc/NUMBER }</O>")
_FLAT_JOIN = ("for $c in CUSTOMER() for $cc in CREDIT_CARD() "
              "where $cc/CID eq $c/CID return $cc/NUMBER")


def _force_index_join(platform) -> None:
    platform.configure(force_strategy="index-join")


def _force_ppk(platform) -> None:
    platform.configure(force_strategy="ppk")


#: case -> (configure, query, k values); ``k`` None runs the query to its end
EARLY_EXIT_CASES = {
    "getProfile": (None, "getProfile()", (1, 3)),
    "ppk_join": (None, _PPK_JOIN, (1, 3)),
    "pushed_tuple_for": (None, (
        "for $i in (1 to 9) for $c in CUSTOMER(), $o in ORDER() "
        "where $c/CID eq $o/CID and $o/AMOUNT gt $i "
        "return <P>{ data($c/LAST_NAME), data($o/AMOUNT) }</P>"), (1, 3)),
    "index_join": (_force_index_join, _FLAT_JOIN, (1, 3)),
    # decided by the first item of a FLWOR with a source clause (pinned to
    # PP-k as ``index_join`` pins its own: the costed choice is index join)
    "quantifier": (_force_ppk, f"some $x in ({_FLAT_JOIN}) "
                         "satisfies fn:string-length($x) gt 0", (None,)),
}


def early_exit_platform(case: str, batch_size: int, clock=None):
    platform = build_demo_platform(
        customers=40, orders_per_customer=2, clock=clock,
        db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05))
    platform.configure(ppk_block_size=3)
    platform.configure(batch_size=batch_size)
    configure = EARLY_EXIT_CASES[case][0]
    if configure is not None:
        configure(platform)
    return platform


def observe_early_exit(case: str, batch_size: int) -> dict:
    """``{k: figures}``: source work and virtual time spent when the
    consumer closed the stream after ``k`` items."""
    _configure, query, ks = EARLY_EXIT_CASES[case]
    out = {}
    for k in ks:
        platform = early_exit_platform(case, batch_size)
        stream = platform.stream(query)
        taken = list(islice(stream, k))
        stream.close()
        assert len(taken) == (k or 1), (case, k)
        stats = platform.ctx.stats
        out[str(k)] = {
            "ppk_blocks": stats.ppk_blocks,
            "pushed_queries": stats.pushed_queries,
            "service_calls": stats.service_calls,
            "tuples_flowed": stats.tuples_flowed,
            "virtual_ms": round(platform.clock.now_ms(), 6),
        }
    return out


def capture(tmp_path) -> dict:
    """The golden file's content as the current runtime produces it."""
    scenarios, series = {}, {}
    for name, observe in SCENARIOS.items():
        scenarios[name] = observe(tmp_path, 1)
        del scenarios[name]["batch_series"]
        series[name] = {str(size): observe(tmp_path, size)["batch_series"]
                        for size in BATCH_SIZES[1:]}
    early = {case: {str(size): observe_early_exit(case, size)
                    for size in BATCH_SIZES}
             for case in EARLY_EXIT_CASES}
    return {"scenarios": scenarios, "batch_series": series, "early_exit": early}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _check_scenario(golden, name: str, tmp_path, batch_size: int) -> None:
    observed = json.loads(json.dumps(SCENARIOS[name](tmp_path, batch_size)))
    series = observed.pop("batch_series")
    expected = golden["scenarios"][name]
    assert observed.keys() == expected.keys()
    for key in expected:
        assert observed[key] == expected[key], (batch_size, key)
    if batch_size == 1:
        # a batch of one is still a batch: every series is there, one row each
        assert series
        for key, value in series.items():
            if key.startswith("batch.rows"):
                assert value["sum"] == value["count"], key
    else:
        assert series == golden["batch_series"][name][str(batch_size)]


class TestBatchEquivalence:
    """Byte-identical observables at every batch size."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_quantifiers_and_nested_flwors_identical(self, golden, tmp_path, batch_size):
        _check_scenario(golden, "quantifiers_and_nested", tmp_path, batch_size)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_row_functions_observe_what_the_pipeline_observed(self, batch_size,
                                                             monkeypatch):
        """With no clause left that the eager driver takes — every nested
        FLWOR back on the lazy driver — each ``batch.rows`` /
        ``batch.count`` series and ``tuples_flowed`` reads exactly the same."""
        from repro.runtime import rowcompile

        eager = observe_quantifiers_and_nested(None, batch_size)
        monkeypatch.setattr(rowcompile, "_ROW_CLAUSES", ())
        lazy = observe_quantifiers_and_nested(None, batch_size)
        assert eager["batch_series"]["batch.count{op=return}"] > 50
        assert eager == lazy

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_composite_scenario_identical(self, golden, tmp_path, batch_size):
        _check_scenario(golden, "composite", tmp_path, batch_size)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_running_example_identical(self, golden, tmp_path, batch_size):
        _check_scenario(golden, "running_example", tmp_path, batch_size)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_operator_zoo_identical(self, golden, tmp_path, batch_size):
        _check_scenario(golden, "operator_zoo", tmp_path, batch_size)


class TestEarlyExit:
    """Laziness: a consumer that stops after k items pays for k items."""

    @pytest.mark.parametrize("case", EARLY_EXIT_CASES)
    def test_one_row_per_batch_is_as_lazy_as_the_tuple_pipeline(self, golden, case):
        assert observe_early_exit(case, 1) == golden["early_exit"][case]["1"]

    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    @pytest.mark.parametrize("case", EARLY_EXIT_CASES)
    def test_no_size_works_further_ahead_than_it_did(self, golden, case, batch_size):
        expected = golden["early_exit"][case][str(batch_size)]
        for k, figures in observe_early_exit(case, batch_size).items():
            for name, value in figures.items():
                assert value <= expected[k][name], (case, batch_size, k, name)

    def test_the_probe_of_the_issue(self, golden):
        """First ``getProfile()`` item of 40 customers, PP-3: five blocks and
        63.2 virtual ms (a builder that emitted a full batch only on the
        *next* row paid for a sixth block, 68.5 ms)."""
        first = golden["early_exit"]["getProfile"]["1"]["1"]
        assert (first["ppk_blocks"], first["virtual_ms"]) == (5, 63.2)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("case", ["getProfile", "ppk_join"])
    def test_no_prefetch_outlives_an_abandoned_stream(self, case, batch_size):
        """Real threads: closing the stream mid-result leaves no prefetch
        running, and closing the platform leaves no worker thread."""
        before = set(threading.enumerate())
        platform = early_exit_platform(case, batch_size, clock=WallClock())
        stream = platform.stream(EARLY_EXIT_CASES[case][1])
        assert len(list(islice(stream, 3))) == 3
        stream.close()
        executor = platform.ctx.async_exec
        blocks = platform.ctx.stats.ppk_blocks
        assert executor._pool is None or executor._pool._work_queue.empty()
        platform.close()
        assert set(threading.enumerate()) <= before
        assert platform.ctx.stats.ppk_blocks == blocks  # nothing ran on


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(capture(Path(scratch)), indent=1,
                                     sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
