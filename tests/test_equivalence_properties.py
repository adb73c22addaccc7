"""Cross-cutting equivalence properties.

The strongest correctness check in the suite: for a family of randomized
queries and datasets, the *pushed* plan (SQL generation + PP-k) must
produce exactly the same results as the *middleware-only* plan (pushdown
disabled, full scans + naive evaluation).
"""

from hypothesis import given, settings, strategies as st

from repro import Database, Platform
from repro.clock import VirtualClock
from repro.xml import serialize


def build(customers, orders, vendor="oracle"):
    clock = VirtualClock()
    platform = Platform(clock=clock)
    db = Database("db", vendor=vendor, clock=clock)
    db.create_table(
        "C",
        [("ID", "INTEGER", False), ("NAME", "VARCHAR"), ("TIER", "INTEGER")],
        primary_key=["ID"],
    )
    db.create_table(
        "O",
        [("OID", "INTEGER", False), ("CID", "INTEGER"), ("AMT", "INTEGER")],
        primary_key=["OID"],
    )
    db.load("C", customers)
    db.load("O", orders)
    platform.register_database(db, navigation=False)
    return platform


customers_strategy = st.lists(
    st.tuples(st.sampled_from(["ann", "bob", "cat", None]), st.integers(0, 3)),
    min_size=0, max_size=8,
).map(lambda rows: [
    {"ID": i + 1, "NAME": name, "TIER": tier} for i, (name, tier) in enumerate(rows)
])

orders_strategy = st.lists(
    st.tuples(st.integers(1, 8), st.integers(0, 100)),
    min_size=0, max_size=12,
).map(lambda rows: [
    {"OID": i + 1, "CID": cid, "AMT": amt} for i, (cid, amt) in enumerate(rows)
])

QUERIES = [
    # select-project with predicate
    'for $c in C() where $c/TIER ge 2 return $c/NAME',
    # inner join
    'for $c in C(), $o in O() where $c/ID eq $o/CID return <R>{$c/ID, $o/AMT}</R>',
    # nested content (outer join shape)
    'for $c in C() return <R>{$c/ID, for $o in O() where $o/CID eq $c/ID return $o/AMT}</R>',
    # aggregation over correlated scan
    'for $c in C() return <N>{ count(for $o in O() where $o/CID eq $c/ID return $o) }</N>',
    # group by
    'for $c in C() group $c as $g by $c/TIER as $t order by $t return <G>{$t, count($g)}</G>',
    # distinct
    'for $c in C() group by $c/TIER as $t order by $t return $t',
    # exists semi-join
    'for $c in C() where some $o in O() satisfies $o/CID eq $c/ID return $c/ID',
    # order by + pagination
    'let $s := for $o in O() order by $o/AMT descending return $o/AMT '
    'return subsequence($s, 2, 3)',
    # if-then-else projection
    'for $c in C() return <K>{ if ($c/TIER ge 2) then "hi" else "lo" }</K>',
    # order by over a nullable column, both empty modes (NAME may be NULL)
    'for $c in C() order by $c/NAME return $c/ID',
    'for $c in C() order by $c/NAME descending empty greatest return $c/ID',
]


@settings(max_examples=12, deadline=None)
@given(customers=customers_strategy, orders=orders_strategy,
       query_index=st.integers(0, len(QUERIES) - 1))
def test_property_pushed_equals_middleware(customers, orders, query_index):
    query = QUERIES[query_index]
    pushed = build(customers, orders)
    pushed_out = serialize(pushed.execute(query))
    naive = build(customers, orders)
    naive.configure(pushdown=False)
    naive_out = serialize(naive.execute(query))
    assert pushed_out == naive_out


@settings(max_examples=6, deadline=None)
@given(customers=customers_strategy, orders=orders_strategy,
       vendor=st.sampled_from(["oracle", "db2", "sqlserver", "sybase", "sql92"]))
def test_property_vendors_agree(customers, orders, vendor):
    query = QUERIES[2]
    reference = serialize(build(customers, orders, "oracle").execute(query))
    other = serialize(build(customers, orders, vendor).execute(query))
    assert other == reference


@settings(max_examples=8, deadline=None)
@given(customers=customers_strategy, orders=orders_strategy,
       k=st.sampled_from([1, 2, 7, 20]))
def test_property_ppk_block_size_never_changes_results(customers, orders, k):
    # split the tables across two databases to force PP-k
    clock = VirtualClock()
    platform = Platform(clock=clock)
    db1 = Database("db1", clock=clock)
    db1.create_table("C", [("ID", "INTEGER", False), ("NAME", "VARCHAR"),
                           ("TIER", "INTEGER")], primary_key=["ID"])
    db1.load("C", customers)
    db2 = Database("db2", clock=clock)
    db2.create_table("O", [("OID", "INTEGER", False), ("CID", "INTEGER"),
                           ("AMT", "INTEGER")], primary_key=["OID"])
    db2.load("O", orders)
    platform.register_database(db1, navigation=False)
    platform.register_database(db2, navigation=False)
    platform.configure(ppk_block_size=k)
    query = QUERIES[2]
    out = serialize(platform.execute(query))

    naive = build(customers, orders)
    naive.configure(pushdown=False)
    assert out == serialize(naive.execute(query))
