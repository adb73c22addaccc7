"""Optimizer tests: view unfolding, source-access elimination, unnesting,
let pruning, the view-plan cache (section 4.2)."""


from repro.compiler import Optimizer, SourceCall, TableMeta
from repro.compiler.views import ViewPlanCache
from repro.schema import leaf, shape, shape_sequence
from repro.services.metadata import MetadataRegistry, SourceFunctionDef
from repro.xquery import ast, parse_expression, parse_module
from repro.xquery.normalize import normalize, normalize_module
from repro.xquery.typecheck import FunctionSignature


def make_registry():
    registry = MetadataRegistry()
    columns = [("CID", "xs:string"), ("LAST_NAME", "xs:string"), ("SINCE", "xs:integer")]
    meta = TableMeta("db", "CUSTOMER", "CUSTOMER", columns, ("CID",), "oracle")
    sig = FunctionSignature(
        "CUSTOMER", [], shape_sequence(shape("CUSTOMER", [leaf(n, t) for n, t in columns]))
    )
    registry.register(SourceFunctionDef("CUSTOMER", sig, "table", table_meta=meta))
    return registry


def optimize(text, module_text=None, view_cache=None):
    registry = make_registry()
    module = None
    if module_text is not None:
        module = parse_module(module_text)
        normalize_module(module)
    optimizer = Optimizer(registry, module, view_cache=view_cache)
    return optimizer.optimize(normalize(parse_expression(text)))


class TestSourceResolution:
    def test_table_call_becomes_source_call(self):
        expr = optimize("for $c in CUSTOMER() return $c")
        assert isinstance(expr.clauses[0].expr, SourceCall)
        assert expr.clauses[0].expr.table_meta.table == "CUSTOMER"

    def test_unknown_functions_untouched(self):
        expr = optimize("unknownFn()", module_text="declare function other() { 1 };")
        assert isinstance(expr, ast.FunctionCall)


class TestViewUnfolding:
    MODULE = '''
        declare function getAll() { for $c in CUSTOMER() return
            <P><CID>{data($c/CID)}</CID><NAME>{data($c/LAST_NAME)}</NAME></P> };
        declare function byId($id as xs:string) { getAll()[CID eq $id] };
    '''

    def test_zero_arg_function_inlined(self):
        expr = optimize("getAll()", module_text=self.MODULE)
        assert isinstance(expr, ast.FLWOR)
        assert isinstance(expr.clauses[0].expr, SourceCall)

    def test_nested_views_unfold_transitively(self):
        expr = optimize('byId("C1")', module_text=self.MODULE)
        assert isinstance(expr, ast.FLWOR)
        # predicate pushed into the unfolded body as a where clause
        wheres = [c for c in expr.clauses if isinstance(c, ast.WhereClause)]
        assert wheres

    def test_parameter_binding_avoids_capture(self):
        module = '''
            declare function shadow($c as xs:string) {
                for $c2 in CUSTOMER() where $c2/CID eq $c return $c2/LAST_NAME };
        '''
        expr = optimize('for $c in CUSTOMER() return shadow(data($c/CID))',
                        module_text=module)
        # every binder in the inlined copy was alpha-renamed
        binders = [c.var for c in expr.walk() if isinstance(c, ast.ForClause)]
        assert len(binders) == len(set(binders))

    def test_a_typeswitch_variable_in_an_inlined_body_is_renamed(self):
        """The argument ``$t + $c`` reads a ``$t`` of the caller's: the
        body's case variable of the same name must not capture it."""
        from repro import serialize
        from repro.demo import build_demo_platform

        platform = build_demo_platform(customers=2, orders_per_customer=0)
        platform.deploy('''
            declare function tsv($x) {
                typeswitch ($x) case $t as xs:integer return $t + 1 default $d return $d };
            declare function tw($t) { for $c in (1, 2) return tsv($t + $c) };''', "tsmod")
        assert serialize(platform.execute("tw(10)")) == "12 13"
        assert serialize(platform.execute('tsv("a")')) == "a"

    def test_two_inlinings_do_not_collide(self):
        module = '''
            declare function names() { for $x in CUSTOMER() return $x/LAST_NAME };
        '''
        expr = optimize("(names(), names())", module_text=module)
        binders = [c.var for c in expr.walk() if isinstance(c, ast.ForClause)]
        assert len(binders) == 2 and binders[0] != binders[1]

    def test_erroneous_function_not_inlined(self):
        module = parse_module(
            "declare function broken() { $missing };", mode="design")
        normalize_module(module)
        module.function("broken", 0).errors.append("undefined variable")
        optimizer = Optimizer(make_registry(), module)
        expr = optimizer.optimize(normalize(parse_expression("broken()")))
        assert isinstance(expr, ast.FunctionCall)

    def test_no_inline_respected(self):
        registry = make_registry()
        module = parse_module("declare function pinned() { 1 };")
        normalize_module(module)
        optimizer = Optimizer(registry, module, no_inline={("pinned", 0)})
        expr = optimizer.optimize(normalize(parse_expression("pinned()")))
        assert isinstance(expr, ast.FunctionCall)


class TestSourceAccessElimination:
    def test_constructor_navigation_selects_content(self):
        # The paper's example: navigating LAST_NAME must not require ORDERS.
        expr = optimize('''
            let $x := <CUSTOMER>
                <LAST_NAME>{$name}</LAST_NAME>
                <ORDERS>{ for $c in CUSTOMER() return $c }</ORDERS>
            </CUSTOMER>
            return fn:data($x/LAST_NAME)
        ''')
        # the whole CUSTOMER() access disappeared
        assert not any(isinstance(n, SourceCall) for n in expr.walk())

    def test_nonmatching_child_becomes_empty(self):
        expr = optimize('(<A><B>{1}</B></A>)/NOPE')
        assert isinstance(expr, ast.EmptySequence)

    def test_data_over_constructor_unwraps(self):
        expr = optimize('fn:data(<CID>{data($c/CID)}</CID>)')
        assert isinstance(expr, ast.FunctionCall) and expr.name == "fn:data"
        assert isinstance(expr.args[0], ast.PathExpr)


class TestFLWORRules:
    def test_unnesting(self):
        expr = optimize('''
            for $x in (for $c in CUSTOMER() return $c/CID) return $x
        ''')
        fors = [c for c in expr.clauses if isinstance(c, ast.ForClause)]
        assert len(fors) == 2  # spliced into one clause list

    def test_unused_let_removed(self):
        expr = optimize('''
            for $c in CUSTOMER()
            let $unused := $c/SINCE
            return $c/CID
        ''')
        assert not any(isinstance(c, ast.LetClause) for c in expr.clauses)

    def test_cheap_let_inlined(self):
        expr = optimize('''
            for $c in CUSTOMER() let $n := $c/LAST_NAME where $n eq "x" return $n
        ''')
        assert not any(isinstance(c, ast.LetClause) for c in expr.clauses)

    #: (query, its answer by hand): a let is not inlined where a binder of
    #: its own name shadows it or a binder of a variable it reads would
    #: capture the copy — in a later clause, in the return, in a quantifier
    #: or as a positional variable.  The differential's reference runs the
    #: same optimized plan, so only hand-written answers catch these.
    SHADOWED_LETS = [
        ("let $x := 1 return for $x in (5, 6) return $x", "5 6"),
        ("for $i in (1 to 3) let $j := $i return for $i in (7 to 8) return ($i, $j)",
         "7 1 8 1 7 2 8 2 7 3 8 3"),
        ("for $a in (1, 2) let $b := $a return "
         "fn:count(for $a in (1 to 5) where $a gt $b return $a)", "4 3"),
        ("let $b := 5 return (some $b in (9) satisfies $b eq 9)", "true"),
        ("let $x := 1 for $y at $x in (5, 6) return $x", "1 2"),
        ("for $i in (10, 20) let $j := $i for $i in (7, 8) return $i + $j", "17 18 27 28"),
        ("let $t := 3 return typeswitch (4) case $t as xs:integer return $t default return 0",
         "4"),
    ]

    def test_a_let_is_not_inlined_past_a_shadowing_or_capturing_binder(self):
        from repro import serialize
        from repro.demo import build_demo_platform

        platform = build_demo_platform(customers=2, orders_per_customer=0)
        for query, expected in self.SHADOWED_LETS:
            assert serialize(platform.execute(query)) == expected, query

    def test_an_unshadowed_let_is_still_inlined(self):
        expr = optimize("for $i in (1, 2) let $j := $i return for $k in (7, 8) return ($k, $j)")
        assert not any(isinstance(c, ast.LetClause) for c in expr.clauses)

    def test_for_over_empty_collapses(self):
        expr = optimize("for $x in () return $x")
        assert isinstance(expr, ast.EmptySequence)

    def test_constant_if_folded(self):
        expr = optimize("if (true()) then 1 else 2")
        assert isinstance(expr, ast.Literal) and expr.value.value == 1
        expr = optimize("if (false()) then 1 else 2")
        assert expr.value.value == 2

    def test_sequence_flattening(self):
        expr = optimize("(1, (2, 3), ())")
        assert isinstance(expr, ast.SequenceExpr)
        assert len(expr.items) == 3


class TestViewPlanCache:
    def test_cache_hit_on_second_compile(self):
        cache = ViewPlanCache()
        module_text = '''
            declare function v() { for $c in CUSTOMER() return $c/CID };
        '''
        optimize("v()", module_text=module_text, view_cache=cache)
        misses_after_first = cache.misses
        optimize("v()", module_text=module_text, view_cache=cache)
        assert cache.hits >= 1
        assert cache.misses == misses_after_first + 0 or cache.misses >= misses_after_first

    def test_eviction_bounds_memory(self):
        cache = ViewPlanCache(capacity=2)
        for i in range(4):
            cache.put(f"f{i}", 0, parse_expression("1"))
        assert len(cache) == 2
        assert cache.evictions == 2

    def test_invalidate(self):
        cache = ViewPlanCache()
        cache.put("f", 0, parse_expression("1"))
        cache.invalidate("f", 0)
        assert cache.get("f", 0) is None


class TestCachedViewIsNeverMutated:
    """A view-cache hit hands every compile the *same* body object; each
    compile clones it (renamed, in one pass) and must leave it as it is."""

    MODULE = TestViewUnfolding.MODULE

    def cached_bodies(self, cache):
        return {key: repr(entry) for key, entry in cache._entries.items()}

    def test_cached_body_unchanged_after_many_hits(self):
        cache = ViewPlanCache()
        first = optimize('byId("C1")', module_text=self.MODULE, view_cache=cache)
        snapshot = self.cached_bodies(cache)
        assert set(snapshot) == {("byId", 1), ("getAll", 0)}
        for i in range(10):
            again = optimize(f'byId("C{i}")', module_text=self.MODULE, view_cache=cache)
            assert type(again) is type(first)
        optimize("for $p in getAll() where $p/NAME eq 'x' return $p/CID",
                 module_text=self.MODULE, view_cache=cache)
        assert cache.hits >= 11
        assert self.cached_bodies(cache) == snapshot

    def test_each_hit_gets_private_renamed_nodes(self):
        cache = ViewPlanCache()
        optimize("getAll()", module_text=self.MODULE, view_cache=cache)
        body, bound = cache.get("getAll", 0)
        one = optimize("getAll()", module_text=self.MODULE, view_cache=cache)
        two = optimize("getAll()", module_text=self.MODULE, view_cache=cache)
        shared = {id(n) for n in body.walk()}
        assert not shared & {id(n) for n in one.walk()}
        assert not {id(n) for n in one.walk()} & {id(n) for n in two.walk()}
        # the binders were renamed away from the cached names
        assert bound and not set(bound) & {c.var for c in one.clauses
                                           if isinstance(c, ast.ForClause)}

    def test_two_threads_compile_against_one_cache(self):
        """Concurrent compiles hit the same cached ``getProfileByID`` body
        under the lockset detector: no race, identical plans, body intact."""
        import sys
        import threading

        from repro.analysis import LocksetDetector
        from repro.concurrency import set_race_detector
        from repro.demo import build_demo_platform

        platform = build_demo_platform(customers=3, orders_per_customer=2)
        # (the inline compile: the plan cache serves the parameterised twin)
        reference = repr(platform._compiler().compile_expression(
            'getProfileByID("C1")').expr)
        snapshot = self.cached_bodies(platform.view_cache)
        detector = LocksetDetector(capture_stacks=False)
        previous = set_race_detector(detector)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-6)
        plans, errors = [], []

        def compile_many(index):
            try:
                for i in range(15):
                    # a fresh text each time: always a plan-cache miss
                    text = f'getProfileByID("C1")[{index * 100 + i + 1} gt 0]'
                    platform.prepare(text)
                    compiler = platform._compiler()
                    plans.append(repr(compiler.compile_expression(
                        'getProfileByID("C1")').expr))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=compile_many, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            set_race_detector(previous)
            platform.close()
        assert not errors, errors[0]
        assert detector.races == [], detector.report_text()
        assert len(plans) == 30 and set(plans) == {reference}
        assert self.cached_bodies(platform.view_cache) == snapshot
