"""Batch engine equivalence suite (P-BATCH acceptance).

Every scenario runs under batch sizes {1, 2, 7, 256} — ``1`` being the
untouched tuple-at-a-time pipeline — and the suite asserts the batch
engine is observationally *byte-identical*: serialized results, explain
plans, profile span trees (per-operator actuals included), runtime stats
and virtual-clock totals all match the n=1 baseline exactly.

No normalization is applied: gensym numbering is scoped per
compilation and canonicalized, so two identically configured platforms
render byte-identical plan text — ``$#ppk`` numbering included.
"""

from __future__ import annotations

import pytest

from repro import serialize
from repro.demo import build_demo_platform
from repro.relational import LatencyModel

from .test_composite_scenario import build_scenario

BATCH_SIZES = [1, 2, 7, 256]


def _profile_text(profile) -> str:
    return profile.text


def observe_composite(tmp_path, batch_size: int) -> dict:
    """The composite-application scenario: four source kinds, layered
    services, group-less joins, PP-k, order-by, fail-over."""
    platform, _invdb, _salesdb = build_scenario(tmp_path)
    platform.set_batch_size(batch_size)
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
    out["velocity_profile"] = _profile_text(platform.profile(velocity))
    out["report_explain"] = platform.explain("replenishmentReport()")
    out["clock_ms"] = round(platform.clock.now_ms(), 6)
    out["ppk_blocks"] = platform.ctx.stats.ppk_blocks
    out["pushed_queries"] = platform.ctx.stats.pushed_queries
    out["tuples_flowed"] = platform.ctx.stats.tuples_flowed
    return out


def observe_running_example(batch_size: int) -> dict:
    """The Figure-3 running example: PP-k middleware joins, a Web
    service, nested reconstruction — the paper's own workload."""
    platform = build_demo_platform(
        customers=20, orders_per_customer=3, ws_latency_ms=15.0,
        db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05),
    )
    platform.set_batch_size(batch_size)
    start = platform.clock.now_ms()
    profiles = platform.call("getProfile")
    out = {
        "profiles": serialize(profiles),
        "elapsed_ms": round(platform.clock.now_ms() - start, 6),
        "explain": platform.explain("getProfile()"),
        "profile": _profile_text(platform.profile("getProfile()")),
        "ppk_blocks": platform.ctx.stats.ppk_blocks,
        "ws_calls": platform.ctx.stats.service_calls,
        "pushed_queries": platform.ctx.stats.pushed_queries,
        "tuples_flowed": platform.ctx.stats.tuples_flowed,
    }
    return out


def observe_operator_zoo(batch_size: int) -> dict:
    """Pure mid-tier operator coverage: where/let chains, group-by
    (clustered and hashed), order-by, positional vars, nested FLWORs,
    constructors — everything the batch clauses reimplement."""
    platform = build_demo_platform(customers=6, orders_per_customer=2)
    platform.set_batch_size(batch_size)
    queries = {
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
    out = {}
    for name, query in queries.items():
        out[name] = serialize(platform.execute(query))
        out[f"{name}_explain"] = platform.explain(query)
        out[f"{name}_profile"] = _profile_text(platform.profile(query))
    out["clock_ms"] = round(platform.clock.now_ms(), 6)
    out["tuples_flowed"] = platform.ctx.stats.tuples_flowed
    return out


#: quantifiers in where and return position, and FLWORs nested in a
#: return — in-memory ones (row functions) beside ones that must keep the
#: generator pipeline (a source clause, a group-by, an order-by)
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


def observe_quantifiers_and_nested(batch_size: int, configure=None) -> dict:
    platform = build_demo_platform(customers=6, orders_per_customer=2)
    platform.set_batch_size(batch_size)
    if configure is not None:
        configure(platform)
    out = {}
    for name, query in QUANTIFIER_AND_NESTED_QUERIES.items():
        out[name] = serialize(platform.execute(query))
        out[f"{name}_explain"] = platform.explain(query)
        out[f"{name}_profile"] = _profile_text(platform.profile(query))
    out["clock_ms"] = round(platform.clock.now_ms(), 6)
    out["tuples_flowed"] = platform.ctx.stats.tuples_flowed
    out["pushed_queries"] = platform.ctx.stats.pushed_queries
    out["batch_series"] = {key: value for key, value in platform.metrics_snapshot().items()
                           if key.startswith("batch.")}
    return out


class TestBatchEquivalence:
    """Byte-identical observables across every batch size."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_quantifiers_and_nested_flwors_identical(self, batch_size):
        baseline = observe_quantifiers_and_nested(1)
        observed = observe_quantifiers_and_nested(batch_size)
        assert not baseline.pop("batch_series")  # n=1 never enters the batch engine
        batch_series = observed.pop("batch_series")
        assert batch_series
        for key in baseline:
            assert observed[key] == baseline[key], (batch_size, key)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_row_functions_observe_what_the_pipeline_observed(self, batch_size,
                                                             monkeypatch):
        """With the ``Quantified`` and ``FLWOR`` row compilers taken away —
        quantifiers back on the interpreter, every nested FLWOR back on the
        generator pipeline — each ``batch.rows`` / ``batch.count`` series
        and ``tuples_flowed`` reads exactly the same."""
        from repro.runtime import rowcompile

        compiled = observe_quantifiers_and_nested(batch_size)
        monkeypatch.delitem(rowcompile._COMPILERS, "FLWOR")
        monkeypatch.delitem(rowcompile._COMPILERS, "Quantified")
        reference = observe_quantifiers_and_nested(batch_size)
        assert compiled["batch_series"]["batch.count{op=return}"] > 50
        assert compiled == reference

    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_composite_scenario_identical(self, tmp_path, batch_size):
        baseline = observe_composite(tmp_path, 1)
        observed = observe_composite(tmp_path, batch_size)
        for key in baseline:
            assert observed[key] == baseline[key], (batch_size, key)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_running_example_identical(self, batch_size):
        baseline = observe_running_example(1)
        observed = observe_running_example(batch_size)
        for key in baseline:
            assert observed[key] == baseline[key], (batch_size, key)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_operator_zoo_identical(self, batch_size):
        baseline = observe_operator_zoo(1)
        observed = observe_operator_zoo(batch_size)
        for key in baseline:
            assert observed[key] == baseline[key], (batch_size, key)

    def test_default_engine_is_batched(self):
        platform = build_demo_platform(customers=2, orders_per_customer=1)
        assert platform.ctx.batch_size > 1
