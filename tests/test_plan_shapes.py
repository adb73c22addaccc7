"""One plan per query *shape*: the scan contract, what is lifted and what
is pinned, and that a served (parameterised) plan is the inline plan
modulo binds — in results, operator tree and shipped SQL.

The golden file of ``tests/test_plan_identity.py`` pins the *inline*
compile; everything here holds the plans ``Platform.prepare`` serves to
it.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.algebra import PushedSQL
from repro.compiler.pipeline import PlanCache, inline_binds, plans_agree
from repro.errors import DynamicError, StaticError
from repro.schema.types import ITEM_STAR
from repro.sql.dialects import DIALECTS, SqlRenderer
from repro.xml.items import AtomicValue
from repro.xml.serialize import serialize
from repro.xquery.parser import Parser
from repro.xquery.shape import bind_value, kinds, lift, rebuild, scan
from tests.conftest import build_platform
from tests.test_plan_identity import plan_corpus


def inline_plan(platform, query, variables=None):
    externals = {name: ITEM_STAR for name in sorted(variables)} \
        if variables else None
    return platform._compiler().compile_expression(query, externals=externals)


def run(platform, query, variables=None) -> str:
    """Result bytes, or the error's type and text."""
    try:
        return serialize(platform.execute(query, variables))
    except (StaticError, DynamicError) as exc:
        return f"{type(exc).__name__}: {exc}"


def shipped(platform, since: list[int] | None = None) -> list[list[str]]:
    """Every database's statement log (past ``since``, the logs' lengths)."""
    logs = [db.stats.statements for db in platform.ctx.databases.values()]
    return [list(log[start:]) for log, start in zip(logs, since or [0] * len(logs))]


def binds_of(plan) -> dict:
    return {name: items[0] for name, items in plan.binds.items()}


# ---------------------------------------------------------------------------
# (a) the scan: lossless, and a function of the text outside candidates
# ---------------------------------------------------------------------------


def reference_scan(text: str) -> list[tuple[int, int]]:
    """Candidate spans by a hand-written left-to-right scanner: a quote
    opens a string that runs to the farthest same quote it can reach over
    non-quotes and doubled quotes (no candidate when none closes it); a
    digit, or ``.`` before a digit, not preceded by a name character,
    opens a number."""
    spans, pos, n = [], 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch in "\"'":
            # the longest close whose body holds quotes only in doubled pairs
            closes = [at for at in range(n - 1, pos, -1) if text[at] == ch
                      and ch not in text[pos + 1:at].replace(ch * 2, "")]
            if closes:
                spans.append((pos, closes[0] + 1))
                pos = closes[0] + 1
                continue
        elif (ch.isdecimal() or (ch == "." and text[pos + 1:pos + 2].isdecimal())) \
                and not (pos and (text[pos - 1].isalnum() or text[pos - 1] in "_.-:")):
            end = pos
            while end < n and text[end].isdecimal():
                end += 1
            if end < n and text[end] == ".":
                dot = end + 1
                while dot < n and text[dot].isdecimal():
                    dot += 1
                if end > pos or dot > end + 1:
                    end = dot
            exp = end
            if exp < n and text[exp] in "eE":
                exp += 1
                if exp < n and text[exp] in "+-":
                    exp += 1
                digits = exp
                while digits < n and text[digits].isdecimal():
                    digits += 1
                if digits > exp:
                    end = digits
            spans.append((pos, end))
            pos = end
            continue
        pos += 1
    return spans


FRAGMENTS = st.sampled_from([
    "for $c in CUSTOMER() where $c/SINCE gt ", " and $c/CID eq ", " return ",
    "$c/LAST_NAME", "$x1", "C12", "t-1", "fn:subsequence($cs, 1, 2)", "[1]",
    "1 to 10", "(: \"5\" :)", "(: it's :)", "<A>it's 5</A>", "<B n=\"7\">x</B>",
    "<C>{$x eq 5}</C>", "&amp;", "&#38;", " ", "\n", ",", "(", ")", "'", '"',
    "1.", ".5", "1..5", "3-1", "- 4", "x.5", "e5", "5e", "1e+", "\x00",
])
LITERALS = st.one_of(
    st.integers(0, 10 ** 25).map(str),
    st.sampled_from(["5.0", "0.25", "12.", ".5", "5e0", "1.5E-3", "2e+10"]),
    st.text("ab'& 5;:)(", max_size=6).map(
        lambda s: '"' + s.replace('"', '""') + '"'),
    st.text('ab"& 5;', max_size=6).map(
        lambda s: "'" + s.replace("'", "''") + "'"),
    st.sampled_from(['"a&amp;b"', '"say ""hi"""', "'it''s'", '""', "''"]),
)
TEXTS = st.lists(st.one_of(FRAGMENTS, LITERALS), max_size=12).map("".join)


class TestScan:
    @settings(max_examples=400, deadline=None)
    @given(TEXTS)
    def test_rebuild_round_trips(self, text):
        key, candidates = scan(text)
        assert rebuild(key, candidates) == text
        assert len(kinds(key)) == len(candidates)

    @settings(max_examples=400, deadline=None)
    @given(TEXTS.filter(lambda text: "\x00" not in text))
    def test_candidates_are_the_reference_scanners(self, text):
        _key, candidates = scan(text)
        assert candidates == [text[a:b] for a, b in reference_scan(text)]

    @settings(max_examples=300, deadline=None)
    @given(TEXTS, TEXTS)
    def test_same_key_iff_texts_differ_only_at_candidates(self, first, second):
        (key1, c1), (key2, c2) = scan(first), scan(second)
        if key1 == key2:
            # ... then the fixed text and each candidate's kind are shared
            assert rebuild(key1, c2) == second and rebuild(key2, c1) == first
            assert [bind_value(k, raw).type_name for k, raw in zip(kinds(key1), c1)] \
                == [bind_value(k, raw).type_name for k, raw in zip(kinds(key2), c2)]
        else:
            assert first != second

    @settings(max_examples=300, deadline=None)
    @given(TEXTS, st.data())
    def test_swapping_a_candidate_for_its_kind_keeps_the_key(self, text, data):
        key, candidates = scan(text)
        if not candidates:
            return
        index = data.draw(st.integers(0, len(candidates) - 1))
        kind = kinds(key)[index]
        other = data.draw(LITERALS.filter(
            lambda raw: scan(raw) == ("\x00" + kind, [raw])))
        swapped = list(candidates)
        swapped[index] = other
        again, found = scan(rebuild(key, swapped))
        # (a swapped-in number may fuse with a digit run beside it: then
        # the text is simply another shape, never a wrong one)
        if found == swapped:
            assert again == key

    def test_a_changed_character_outside_every_candidate_changes_the_key(self):
        text = 'for $c in CUSTOMER() where $c/SINCE gt 5 return <A>it\'s</A>'
        key, _ = scan(text)
        for at in (0, 10, 30, len(text) - 1):
            assert scan(text[:at] + "~" + text[at + 1:])[0] != key

    def test_the_mark_itself_is_opaque(self):
        text = 'a\x00i eq 5'
        assert scan(text) == ("\x00!" + text, [])
        assert rebuild(*scan(text)) == text
        assert scan("a5 eq 5")[0] != scan(text)[0]


# ---------------------------------------------------------------------------
# (e) literal typing
# ---------------------------------------------------------------------------


SELECT = "for $c in CUSTOMER() where $c/SINCE gt {} return $c/CID"


class TestLiteralTyping:
    def test_each_numeric_kind_and_string_is_its_own_shape(self):
        platform = build_platform()
        keys = {platform.prepare(SELECT.format(raw)).plan_key
                for raw in ("5", "5.0", "5e0", '"5"')}
        assert len(keys) == 4
        types = [platform.prepare(SELECT.format(raw)).binds["#lit0"][0].type_name
                 for raw in ("5", "5.0", "5e0", '"5"')]
        assert types == ["xs:integer", "xs:decimal", "xs:double", "xs:string"]
        # one more of each kind: a shape hit, no compile
        compiles = platform.plan_cache.compiles
        for raw in ("6", "6.5", "6e1", '"6"'):
            platform.prepare(SELECT.format(raw))
        assert platform.plan_cache.compiles == compiles
        assert platform.plan_cache.shape_hits == 4

    def test_values_bind_exactly(self):
        platform = build_platform()
        by_id = 'for $c in CUSTOMER() where $c/LAST_NAME eq {} return $c/CID'
        platform.prepare(SELECT.format(1))
        platform.prepare(by_id.format('"x"'))
        platform.prepare(by_id.format("'x'"))
        for raw, value in ((str(2 ** 63 + 12345), 2 ** 63 + 12345),
                           (str(10 ** 30), 10 ** 30)):
            plan = platform.prepare(SELECT.format(raw))
            assert plan.binds == {"#lit0": [AtomicValue(value, "xs:integer")]}
        for raw, value in (('"it\'s"', "it's"), ("'it''s'", "it's"),
                           ('"a&amp;b"', "a&amp;b"), ('"say ""hi"""', 'say "hi"'),
                           ('""', "")):
            text = by_id.format(raw)
            plan = platform.prepare(text)
            assert plan.binds == {"#lit0": [AtomicValue(value, "xs:string")]}
            # ... which is the parser's own reading of the literal
            parser = Parser(text)
            parser.parse_main_expression()
            assert [node.value for _s, _e, node in parser.literals] == \
                plan.binds["#lit0"]
        assert platform.plan_cache.compiles == 6  # three shapes, twice each

    def test_lifted_names_are_reserved(self):
        from repro.xquery.parser import fresh_var, gensym_scope

        with gensym_scope():
            assert not fresh_var("lit").startswith("#lit")
        platform = build_platform()
        platform.deploy('''
            declare function byLit($lit as xs:string) as element(CUSTOMER)* {
              for $c in CUSTOMER() where $c/CID eq $lit return $c };
        ''', name="Lit")
        assert run(platform, 'byLit("C1")') == \
            serialize(platform.execute(inline_plan(platform, 'byLit("C1")')))
        assert platform.prepare('byLit("C2")').binds


# ---------------------------------------------------------------------------
# (b) pinned contexts
# ---------------------------------------------------------------------------


def served_like_inline(platform, query):
    """Run ``query`` served and inline: same bytes, same shipped SQL."""
    start = [len(log) for log in shipped(platform)]
    served = run(platform, query)
    served_sql = shipped(platform, start)
    start = [len(log) for log in shipped(platform)]
    inline = serialize(platform.execute(inline_plan(platform, query)))
    assert served == inline, query
    assert served_sql == shipped(platform, start), query
    return platform.prepare(query)


class TestPinnedContexts:
    @pytest.fixture
    def platform(self):
        platform = build_platform(customers=6)
        platform.deploy('''
            declare function topN($n as xs:integer) as element(CUSTOMER)* {
              let $cs := for $c in CUSTOMER() order by $c/CID return $c
              return fn:subsequence($cs, 1, $n) };
        ''', name="Paging")
        return platform

    @pytest.mark.parametrize("template, values", [
        ("CUSTOMER()[{}]/CID", (1, 2, 3)),
        ("for $i in (1 to {}) return $i * 2", (3, 4, 5)),
        ("fn:subsequence(CUSTOMER(), 1, {})/CID", (1, 2, 3)),
        ("let $cs := for $c in CUSTOMER() order by $c/CID return $c/CID "
         "return fn:subsequence($cs, {}, 2)", (1, 2, 3)),
        ('for $c in CUSTOMER() where fn:contains($c/LAST_NAME, "{}") '
         "return $c/CID", ("on", "mi", "zz")),
        ("for $c in CUSTOMER() return <R>{{$c/CID}}<E?>"
         "{{fn:data($c[SINCE eq {}]/LAST_NAME)}}</E></R>", (1, 2, 3)),
        ("for $c in CUSTOMER() where ($c/SINCE + {}) * 2 gt $c/SINCE return $c/CID",
         (1, 2, 3)),
        ("<A n=\"{}\">k{}</A>", (1, 2, 3)),
    ])
    def test_pinned_literals_are_never_binds(self, platform, template, values):
        for value in values:
            query = template.replace("{}", str(value)) if "{{" not in template \
                else template.format(value)
            plan = served_like_inline(platform, query)
            if "SINCE eq" not in query:
                assert not plan.binds, query
        assert platform.plan_cache.shape_hits == 0 or "SINCE eq" in template

    def test_an_argument_that_reaches_subsequence_is_negative_cached(self, platform):
        cache = platform.plan_cache
        plan = served_like_inline(platform, "topN(2)")
        # lifted, compiled, and refused: the LIMIT would not have pushed
        assert not plan.binds and plan.plan_key == "topN(2)"
        assert (cache.compiles, cache.unparameterisable) == (2, 1)
        [region] = [n for n in plan.expr.walk() if isinstance(n, PushedSQL)]
        assert region.select.fetch == (1, 2)
        plan = served_like_inline(platform, "topN(4)")
        assert not plan.binds
        # the shape is known to be unparameterisable: one compile, not two
        assert (cache.compiles, cache.unparameterisable) == (3, 2)
        assert cache.shape_hits == 0

    def test_a_pinned_value_keys_its_own_parameterisation(self, platform):
        template = ('for $c in CUSTOMER()[{}] where $c/CID eq "{}" return $c/CID')
        plans = {(n, cid): platform.prepare(template.format(n, cid))
                 for n in (1, 2) for cid in ("C1", "C2", "C3")}
        assert plans[1, "C1"].expr is plans[1, "C3"].expr
        assert plans[2, "C1"].expr is plans[2, "C2"].expr
        assert plans[1, "C1"].expr is not plans[2, "C1"].expr
        assert "[1]" in plans[1, "C2"].plan_key and "$#lit0" in plans[1, "C2"].plan_key
        assert platform.plan_cache.compiles == 4
        for (n, cid) in plans:
            served_like_inline(platform, template.format(n, cid))

    def test_parameterisations_per_shape_are_capped(self, platform):
        cache = platform.plan_cache
        template = 'for $c in CUSTOMER()[{}] where $c/CID eq "C1" return $c/CID'
        for n in range(1, 13):
            platform.prepare(template.format(n))
        # 8 first sightings compile twice, the rest are served text-keyed
        assert cache.compiles == 8 * 2 + 4
        assert len(cache) == 12 + 1

    def test_pragmas_are_never_shaped(self, platform):
        query = '(::pragma hint a="1" ::) for $c in CUSTOMER() where $c/CID eq "C1" return $c/CID'
        assert not served_like_inline(platform, query).binds


# ---------------------------------------------------------------------------
# (c) the differential axis over the plan-identity corpus
# ---------------------------------------------------------------------------


def _bump(kind: str, raw: str, step: int) -> str:
    """Another constant of the candidate's kind."""
    if kind in "\"'":
        body = raw[1:-1]
        if body[-1:].isdigit():
            return raw[0] + body[:-1] + str((int(body[-1]) + step) % 10) + raw[0]
        return raw[0] + body + "z" * step + raw[0]
    if kind == "i":
        return str(int(raw) + step)
    mantissa, exp, power = raw.partition("e" if "e" in raw else "E")
    return f"{mantissa}{step}{exp}{power}" if "." in mantissa \
        else f"{int(mantissa) + step}{exp}{power}"


def constant_sets(query: str) -> list[str]:
    """The text as written and two more of its shape with every constant
    changed."""
    key, candidates = scan(query)
    texts = [query]
    for step in (1, 3):
        texts.append(rebuild(key, [_bump(kind, raw, step)
                                   for kind, raw in zip(kinds(key), candidates)]))
        assert scan(texts[-1])[0] == key
    return texts


def _platform_for(subject):
    """The pushdown-pattern cases name a bare compiler: serve them from a
    platform over the same two tables."""
    from repro.services.platform import Platform

    from tests.test_sql_pushdown_patterns import build_env

    if isinstance(subject, Platform):
        return subject
    platform = Platform(clock=build_env()[2].clock)
    platform.register_database(build_env()[3], navigation=False)
    return platform


def test_served_plans_are_the_inline_plans_modulo_binds(tmp_path):
    checked = parameterised = 0
    platforms: dict[int, object] = {}
    for _title, cases in plan_corpus(tmp_path):
        for _heading, subject, query, variables in cases:
            platform = platforms.setdefault(id(subject), _platform_for(subject))
            if variables:
                variables = {name: value if value is not None
                             else [AtomicValue(150, "xs:integer")]
                             for name, value in variables.items()}
            for text in constant_sets(query):
                inline = inline_plan(platform, text, variables)
                served = platform.prepare(text, variables)
                binds = binds_of(served)
                parameterised += bool(binds)
                # the engine's own agreement function
                assert plans_agree(inline.expr, served.expr, binds), text
                regions = [[n for n in plan.expr.walk() if isinstance(n, PushedSQL)]
                           for plan in (inline, served)]
                assert len(regions[0]) == len(regions[1])
                for mine, theirs in zip(*regions):
                    select, params = inline_binds(
                        theirs.select, theirs.param_exprs, binds)
                    assert len(params) == len(mine.param_exprs)
                    for vendor, caps in DIALECTS.items():
                        assert _render(caps, mine.select) == _render(caps, select), \
                            (vendor, text)
                assert run(platform, text, variables) == \
                    run(platform, inline, variables), text
                checked += 1
    assert checked == 47 * 3
    assert parameterised >= 40  # most texts with a constant are shape-served


def _render(caps, select) -> str:
    try:
        return SqlRenderer(caps).render(select)
    except Exception as exc:  # noqa: BLE001 - a dialect's refusal is its text
        return f"{type(exc).__name__}: {exc}"


def test_cost_based_compiles_are_checked_under_cost_based_options():
    platform = build_platform(customers=8)
    query = ('for $c in CUSTOMER() where $c/SINCE gt {} return <O>{{$c/CID}}'
             '{{for $cc in CREDIT_CARD() where $cc/CID eq $c/CID return $cc/NUMBER}}</O>')
    texts = [query.format(since) for since in (0, 1, 2)]
    # (before anything runs: observed source latencies move the cost
    # model's estimates, which no plan holds)
    for text in texts:
        served = platform.prepare(text)
        assert served.binds
        assert plans_agree(inline_plan(platform, text).expr, served.expr,
                           binds_of(served))
    assert platform.plan_cache.shape_hits == 2
    assert "[cost: est_rows=" in platform.explain(texts[0])
    for text in texts:
        assert run(platform, text) == run(platform, inline_plan(platform, text))


# ---------------------------------------------------------------------------
# (d) error parity
# ---------------------------------------------------------------------------


class TestErrorParity:
    def test_static_errors_repeat_and_cache_nothing(self):
        platform = build_platform()
        seen = []
        for literal in (5, 6, 7):
            with pytest.raises(StaticError) as raised:
                platform.prepare(f"getProfileByID({literal})")
            seen.append(str(raised.value))
        assert seen == ["getProfileByID: argument 1 type xs:integer does not "
                        "intersect parameter type xs:string"] * 3
        assert len(platform.plan_cache) == 0
        # the well-typed twin of the shape is unaffected
        assert platform.prepare('getProfileByID("C1")').binds

    def test_syntax_errors_keep_their_positions(self):
        platform = build_platform()
        for _ in range(2):
            with pytest.raises(StaticError) as raised:
                platform.prepare('for $c in CUSTOMER()\n where $c/CID eq "C1" retur $c')
            assert (raised.value.line, raised.value.column) == (2, 23)
        assert len(platform.plan_cache) == 0

    @pytest.mark.parametrize("template, values", [
        ('for $x in (1, 2) where $x eq "{}" return $x', "abc"),
        ('for $c in CUSTOMER() where $c/SINCE gt "{}" return $c/CID', "abc"),
        ("for $c in CUSTOMER() where ($c/SINCE, $c/SINCE) gt {} return $c/CID", "123"),
    ])
    def test_dynamic_error_texts_are_the_inline_ones(self, template, values):
        platform = build_platform()
        for value in values:
            text = template.format(value)
            try:
                platform.execute(inline_plan(platform, text))
                raise AssertionError("the inline plan must fail")
            except Exception as exc:  # noqa: BLE001 - the text is the subject
                expected = f"{type(exc).__name__}: {exc}"
            try:
                platform.execute(text)
                raise AssertionError("the served plan must fail")
            except Exception as exc:  # noqa: BLE001
                assert f"{type(exc).__name__}: {exc}" == expected
        assert platform.plan_cache.shape_hits == len(values) - 1


# ---------------------------------------------------------------------------
# (f) one cache: invalidation, capacity, concurrency; the bounded stats store
# ---------------------------------------------------------------------------


class TestOneCache:
    def test_deploy_and_register_invalidate_both_levels(self):
        platform = build_platform()
        cache = platform.plan_cache
        platform.prepare('getProfileByID("C1")')
        platform.prepare('getProfileByID("C2")')
        assert (cache.compiles, cache.shape_hits, len(cache)) == (2, 1, 3)
        platform.deploy("declare function one() as xs:integer { 1 };", name="One")
        assert len(cache) == 0
        platform.prepare('getProfileByID("C3")')
        assert (cache.compiles, cache.shape_hits) == (4, 1)
        platform.register_inverse("f", "g")
        assert len(cache) == 0
        platform.prepare('getProfileByID("C4")')
        assert (cache.compiles, cache.shape_hits) == (6, 1)

    def test_capacity_counts_shapes_and_front_entries(self):
        platform = build_platform()
        platform.plan_cache = cache = PlanCache(capacity=4)
        for i in range(10):
            platform.prepare(f'getProfileByID("C{i}")')
        assert len(cache) == 4
        # the shape stayed (every text touched it); only fronts were evicted
        assert (cache.compiles, cache.shape_hits) == (2, 9)
        assert platform.prepare('getProfileByID("C9")') is \
            platform.prepare('getProfileByID("C9")')

    def test_text_level_counters_keep_their_meaning(self):
        platform = build_platform()
        cache = platform.plan_cache
        for i in range(5):
            platform.execute(f'getProfileByID("C{i % 2 + 1}")')
        assert (cache.hits, cache.misses, cache.shape_hits) == (3, 2, 1)
        snapshot = platform.metrics_snapshot()
        assert snapshot["plan_cache.shape_hits"] == 1
        assert snapshot["plan_cache.compiles"] == 2
        assert snapshot["plan_cache.unparameterisable"] == 0
        platform.reset_stats()
        assert platform.metrics_snapshot()["plan_cache.compiles"] == 0

    def test_two_threads_of_fresh_literals_share_one_plan(self):
        from repro.analysis import LocksetDetector
        from repro.concurrency import set_race_detector

        platform = build_platform()
        detector = LocksetDetector(capture_stacks=False)
        previous = set_race_detector(detector)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-6)
        plans, errors = [], []

        def prepare_many(index):
            try:
                for i in range(50):
                    plans.append(platform.prepare(SELECT.format(index * 1000 + i)))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=prepare_many, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            set_race_detector(previous)
        assert not errors, errors[0]
        assert detector.races == [], detector.report_text()
        assert len(plans) == 100 and len({id(plan.expr) for plan in plans}) == 1
        assert len({plan.plan_key for plan in plans}) == 1
        assert sorted(plan.binds["#lit0"][0].value for plan in plans) == \
            sorted(i * 1000 + j for i in range(2) for j in range(50))
        # both threads may have compiled the first sighting; one insert won
        assert platform.plan_cache.compiles in (2, 4)

    def test_fresh_literal_traffic_leaves_the_stats_store_bounded(self):
        from repro.server import DataServer

        platform = build_platform()
        server = DataServer(platform)
        server.register_tenant("acme", "pw")
        session = server.open_session("acme", "pw").session_id
        fingerprints = set()
        for i in range(700):
            template = SELECT if i % 2 else "for $i in (1 to {}) return $i"
            fingerprints.add(server.execute(session, template.format(i)).fingerprint)
        store = platform.observed
        assert store.capacity == platform.plan_cache.capacity == 256
        assert len(store) <= store.capacity
        # the parameterised shape is one fingerprint; each pinned text its own
        assert len(fingerprints) == 1 + 350
        assert len(platform.plan_cache) <= 256

    def test_a_served_request_does_one_cache_lookup(self):
        from repro.server import DataServer

        platform = build_platform()
        server = DataServer(platform)
        server.register_tenant("acme", "pw")
        session = server.open_session("acme", "pw").session_id
        cache = platform.plan_cache
        for cid in ("C1", "C1", "C2"):
            server.execute(session, f'getProfileByID("{cid}")')
        assert cache.hits + cache.misses == 3
        record = server.flight()[-1]
        assert record.fingerprint == server.flight()[0].fingerprint


class TestSelfDescribingText:
    def test_explain_and_profile_print_the_binds(self):
        platform = build_platform()
        text = SELECT.format(842)
        assert platform.explain(text).endswith("\nbinds: $#lit0 = 842")
        assert platform.profile(text).text.endswith("\nbinds: $#lit0 = 842")
        assert "binds:" not in platform.explain("getProfile()")
        assert platform.plan_key(text) == SELECT.format("$#lit0") + \
            "\n#externals:#lit0 as xs:integer"
        variables = {"lo": [AtomicValue(1, "xs:integer")]}
        assert platform.plan_key(
            "for $c in CUSTOMER() where $c/SINCE gt $lo and $c/CID ne 'C9' return $c",
            variables).endswith("$c/CID ne $#lit0 return $c\n#externals:#lit0 as xs:string,lo")

    def test_lift_only_touches_exact_literal_tokens(self):
        text = '<A b="5">it\'s 7 {$x eq 7}\'s {f("k", 1 + 2)}</A>[1]'
        parser = Parser(text)
        expr, lifted = lift(parser.parse_main_expression(), parser.literals, text)
        _key, candidates = scan(text)
        # the scanner is out of step inside the element content (a quote
        # opens a "string" there), so only the call argument is a token
        assert [candidates[index] for index in lifted] == ['"k"']
        assert "VarRef(name='#lit0')" in repr(expr)
