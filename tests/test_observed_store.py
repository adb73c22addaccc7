"""The one observed-statistics store (``runtime/observed.py``).

What the store *is*: per-source exponentially weighted latency fits and
per-plan operator actuals under one lock and one decay constant.  The
closed-form unit cases live where they always did (``test_extensions``
``TestObservedCostModel``, ``test_adaptive_parallel``
``TestRecommendPpkEdges``, ``test_continuous`` ``TestPlanStats``,
``test_thread_safety``); this module holds what is new with the merge:

* reads hand out immutable values, never the live accumulators;
* Hypothesis properties — the O(1) fit equals the textbook weighted least
  squares over the full history, an exactly linear source is recovered
  exactly, and the plan map never exceeds its capacity;
* the planner's differential slice — whatever traffic warmed the store,
  and however wrong a ``set_table_stats`` override is, the costed plan
  returns what the heuristic plan returns.

The tier-1 slice is derandomized.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import serialize
from repro.clock import VirtualClock
from repro.observability.profile import OperatorActuals
from repro.relational import Database, LatencyModel
from repro.runtime.observed import DECAY, ObservedStatistics, OperatorEwma
from repro.services import Platform

tier1 = settings(max_examples=60, derandomize=True, deadline=None)


def actuals(rows, elapsed_ms=1.0, roundtrips=1) -> OperatorActuals:
    """One operator's actuals in one trace (what ``observe`` reads)."""
    return OperatorActuals(rows=rows, elapsed_ms=elapsed_ms,
                           roundtrips=roundtrips)


# ---------------------------------------------------------------------------
# values, not accumulators
# ---------------------------------------------------------------------------


class TestReadsAreValues:
    def test_operators_are_unchanged_by_a_later_observe(self):
        store = ObservedStatistics()
        store.observe("fp", {1: actuals(rows=10)})
        held = store.operators("fp")
        before = held[1]
        assert before == OperatorEwma(1, 10.0, 1.0, 1.0)
        store.observe("fp", {1: actuals(rows=1000), 2: actuals(rows=5)})
        assert held == {1: before} and held[1].ewma_rows == 10.0
        assert store.operators("fp")[1].ewma_rows == 10 + DECAY * 990
        with pytest.raises(AttributeError):
            held[1].ewma_rows = 0.0

    def test_an_operator_is_never_half_updated(self):
        # observations and the averages it counts arrive in one value
        store = ObservedStatistics()
        store.observe("fp", {7: actuals(rows=3, elapsed_ms=9.0, roundtrips=2)})
        assert store.operators("fp")[7] == OperatorEwma(1, 3.0, 9.0, 2.0)

    def test_estimate_is_frozen_and_says_what_it_identified(self):
        store = ObservedStatistics()
        store.record("db", 1, 5.5)
        store.record("db", 1, 5.5)
        uniform = store.estimate("db")
        assert not uniform.identified
        assert (uniform.roundtrip_ms, uniform.per_row_ms) == (5.5, 0.0)
        assert uniform.mean_rows == 1.0
        with pytest.raises(AttributeError):
            uniform.per_row_ms = 1.0
        store.record("db", 11, 10.5)
        varied = store.estimate("db")
        assert varied.identified and varied.samples == 3
        assert varied.roundtrip_ms == pytest.approx(5.0)
        assert varied.per_row_ms == pytest.approx(0.5)
        assert uniform.samples == 2  # the value held earlier did not move

    def test_clear_drops_the_fits_and_keeps_the_plans(self):
        store = ObservedStatistics()
        store.record("db", 1, 5.0)
        store.observe("fp", {1: actuals(rows=1)})
        store.clear()
        assert store.sources() == [] and store.estimate("db") is None
        assert len(store) == 1


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def reference_fit(samples):
    """Weighted least squares over the whole history, a sample of age
    ``i`` weighing ``(1 - DECAY) ** i`` — the closed form, no recurrences."""
    n = len(samples)
    weights = [(1 - DECAY) ** (n - 1 - i) for i in range(n)]
    total = sum(weights)
    mean_x = sum(w * x for w, (x, _y) in zip(weights, samples)) / total
    mean_y = sum(w * y for w, (_x, y) in zip(weights, samples)) / total
    sxx = sum(w * (x - mean_x) ** 2 for w, (x, _y) in zip(weights, samples))
    sxy = sum(w * (x - mean_x) * (y - mean_y)
              for w, (x, y) in zip(weights, samples))
    if len({x for x, _y in samples}) < 2:
        return mean_y, 0.0
    per_row = max(sxy / sxx, 0.0)
    return max(mean_y - per_row * mean_x, 0.0), per_row


samples_st = st.lists(
    st.tuples(st.integers(0, 500), st.floats(0.0, 500.0, allow_nan=False)),
    min_size=1, max_size=40)


@tier1
@given(samples_st)
def test_fit_equals_the_textbook_weighted_least_squares(samples):
    store = ObservedStatistics()
    for rows, elapsed in samples:
        store.record("db", rows, elapsed)
    estimate = store.estimate("db")
    roundtrip, per_row = reference_fit(samples)
    assert estimate.samples == len(samples)
    assert estimate.identified == (len({x for x, _y in samples}) > 1)
    assert estimate.per_row_ms == pytest.approx(per_row, rel=1e-6, abs=1e-6)
    assert estimate.roundtrip_ms == pytest.approx(roundtrip, rel=1e-6,
                                                  abs=1e-4)


@tier1
@given(st.floats(0.0, 200.0), st.floats(0.0, 5.0),
       st.lists(st.integers(0, 300), min_size=2, max_size=40)
       .filter(lambda rows: len(set(rows)) > 1))
def test_an_exactly_linear_source_is_recovered(a, b, row_counts):
    store = ObservedStatistics()
    for rows in row_counts:
        store.record("db", rows, a + b * rows)
    estimate = store.estimate("db")
    assert estimate.identified
    assert estimate.roundtrip_ms == pytest.approx(a, abs=1e-9 * max(1.0, a + 300 * b))
    assert estimate.per_row_ms == pytest.approx(b, abs=1e-9 * max(1.0, b))


plan_ops = st.lists(
    st.tuples(st.sampled_from(("observe", "set_estimate", "operators")),
              st.integers(0, 11)),
    max_size=80)


@tier1
@given(st.integers(1, 6), plan_ops)
def test_the_plan_map_never_exceeds_capacity(capacity, ops):
    store = ObservedStatistics(capacity)
    written = []
    for op, key in ops:
        fingerprint = f"fp{key}"
        if op == "observe":
            store.observe(fingerprint, {1: actuals(rows=key)})
            written.append(fingerprint)
        elif op == "set_estimate":
            store.set_estimate(fingerprint, float(key))
            written.append(fingerprint)
        else:
            store.operators(fingerprint)  # a read neither adds nor touches
        assert len(store) <= capacity
    # what survives is exactly the most recently written fingerprints
    recent = list(dict.fromkeys(reversed(written)))[:capacity]
    assert set(store.snapshot()["plans"]) == set(recent)


# ---------------------------------------------------------------------------
# the planner's differential slice: the store may change the strategy,
# never the answer
# ---------------------------------------------------------------------------

JOIN = ("for $c in CUSTOMER() for $a in ACCOUNT() "
        "where $a/CID eq $c/CID return $a")

#: the two PP-k join shapes of ``benchmarks/test_costing.py``, scaled down:
#: few matches and dear rows (PP-k wins) / every row matches and dear
#: roundtrips (the index join wins)
SHAPES = {
    "selective_wan": dict(outer=6, inner=120, distinct=40,
                          roundtrip_ms=5.0, per_row_ms=0.5),
    "dense_lan": dict(outer=40, inner=40, distinct=40,
                      roundtrip_ms=25.0, per_row_ms=0.05),
}

WARMUPS = {
    "keyed": 'for $a in ACCOUNT() where $a/AID eq "A{}" return $a',
    "by_cid": 'for $a in ACCOUNT() where $a/CID eq "C{}" return $a',
    "scan": "for $a in ACCOUNT() return $a/AID",
}


def join_platform(outer, inner, distinct, roundtrip_ms, per_row_ms) -> Platform:
    clock = VirtualClock()
    latency = LatencyModel(roundtrip_ms=roundtrip_ms, per_row_ms=per_row_ms)
    platform = Platform(clock=clock)
    crm = Database("crm", vendor="oracle", clock=clock, latency=latency)
    crm.create_table(
        "CUSTOMER", [("CID", "VARCHAR", False), ("NAME", "VARCHAR")],
        primary_key=["CID"])
    billing = Database("billing", vendor="db2", clock=clock, latency=latency)
    billing.create_table(
        "ACCOUNT",
        [("AID", "VARCHAR", False), ("CID", "VARCHAR"), ("BALANCE", "INTEGER")],
        primary_key=["AID"])
    for i in range(1, outer + 1):
        crm.table("CUSTOMER").insert({"CID": f"C{i}", "NAME": f"N{i}"})
    for i in range(1, inner + 1):
        billing.table("ACCOUNT").insert(
            {"AID": f"A{i}", "CID": f"C{1 + (i - 1) % distinct}",
             "BALANCE": 10 * i})
    platform.register_database(crm)
    platform.register_database(billing)
    platform.configure(ppk_block_size=20)
    return platform


def heuristic(shape) -> str:
    """What the fixed heuristics' plan (forced PP-k) returns."""
    platform = join_platform(**shape)
    platform.configure(force_strategy="ppk")
    return serialize(platform.execute(JOIN))


HEURISTIC = {name: heuristic(shape) for name, shape in SHAPES.items()}

warmup_st = st.lists(
    st.tuples(st.sampled_from(sorted(WARMUPS)), st.integers(1, 40)),
    max_size=6)
#: None, or (table, factor): the table's row count misreported by 10³
override_st = st.none() | st.tuples(
    st.sampled_from((("crm", "CUSTOMER"), ("billing", "ACCOUNT"))),
    st.sampled_from((1000.0, 0.001)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), warmup_st, override_st)
def test_costed_plan_returns_what_the_heuristic_plan_returns(
        shape, warmups, override):
    platform = join_platform(**SHAPES[shape])
    for kind, key in warmups:
        platform.execute(WARMUPS[kind].format(key))
    if override is not None:
        (database, table), factor = override
        rows = platform.statistics.table_stats(database, table).rows
        platform.statistics.set_table_stats(database, table,
                                            rows=int(rows * factor))
    assert "strategy=" in platform.explain(JOIN)
    assert serialize(platform.execute(JOIN)) == HEURISTIC[shape]


@pytest.mark.parametrize("shape,expected", [("selective_wan", "ppk"),
                                            ("dense_lan", "index-join")])
@pytest.mark.parametrize("warmup", ["keyed", "by_cid"])
def test_uniform_warm_traffic_does_not_move_the_strategy(shape, expected,
                                                         warmup):
    """Keyed traffic on the inner source identifies no per-row cost, so the
    decision is the cold one (it used to flip selective_wan to a
    full-table index join)."""
    platform = join_platform(**SHAPES[shape])
    cold = platform.explain(JOIN)
    assert f"strategy={expected}" in cold
    for key in (1, 2, 3):
        platform.execute(WARMUPS[warmup].format(key))
    assert not platform.observed.estimate("billing").identified
    platform._invalidate_plans()  # recompile
    assert platform.explain(JOIN) == cold
