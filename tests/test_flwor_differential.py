"""Generated differential for the mid-tier: the engine — every expression
compiled to a closure, FLWORs on the batch runtime at every batch size —
against the reference interpreter and its tuple-at-a-time FLWOR driver
(``tests/expr_reference.py``, ``tests/flwor_reference.py``).

A Hypothesis strategy writes in-memory FLWORs — ``for`` with and without
``at``, a second ``for``, ``let``, ``where``, ``group … by`` with one or two
keys, ``order by`` (descending, ``empty greatest/least``, two keys), and a
*probe* in one of their clauses — over generated bindings of ``$a`` and
``$b`` (integers, doubles, strings, untyped nodes, the empty sequence,
multi-item sequences, duplicates), of ``$n`` (small trees with an
attribute, repeated and nested children and text) and of ``$v``, the
external a ``let $v`` shadows until a group-by that does not regroup it.  The property: at each of
{1, 2, 7, 256} rows per batch the engine's outcome — serialized result or
``DynamicError`` text — is the reference's.  Its *shadowing axis* binds a
name again — in a nested FLWOR, a quantifier, a typeswitch case or a second
``let`` — and a second property holds those queries to the typechecker,
which shares no code with the scope walk (``repro.xquery.scope``): each
compiles with exactly its ``free_vars`` as externals, and is an undefined
variable when any one of them is dropped.

A probe is an expression over the generated data that may raise, and every
query has at most one.  Everything else in it cannot (keys and conditions
over ``for`` variables, positions and counts), so which error a query raises
does not depend on whether a clause runs row by row or batch by batch.
:data:`PROBES` holds one or more of every expression shape the compiler
knows: arithmetic, comparison, quantifiers, nested FLWORs, ``<E?>``;
predicates — boolean, positional, ``fn:position()`` / ``fn:last()``, chained
— on a filter and on ``child`` / ``attribute`` / ``self`` / ``descendant`` /
``*`` / ``text()`` steps; the cast family with optional and non-optional
targets; ``typeswitch``; computed attributes.

The *scalar axes* (:data:`SCALAR_PROBES`) are what the atom lane guards on:
every arithmetic and comparison operator, value and general, over ``$x``,
``$b``, a literal and ``()`` on either side, and a call of every builtin
the engine runs lane-native (``xquery.functions`` ``scalar=True``) with each
argument in turn bound to zero, one and several atoms.  The generator draws
from them half the time; :func:`test_scalar_kernels_over_every_operand_kind`
sweeps each operator and builtin over the cross of :data:`OPERAND_KINDS` —
int, zero, negative, beyond 2**53, double, string, untyped text that is and
is not a number, boolean, empty, multi-item — so every fast path is met with
every kind and compared, value or error text, with the general kernels the
reference runs.

A second strategy writes equi-joins over keyed nodes with empty and
multi-item keys — under ``=``, untyped keys against typed ones on either
side — which the optimizer turns into index nested-loop joins; the
reference runs them as the nested loop they were written as.

A third (:func:`column_cases`) holds the *column lane* to the same
outcomes: up to twelve rows of ``xs:integer`` values in which one or two
rows hold a value off its fast path (:data:`OFF_PATH`: untyped, double,
boolean, negative, zero, empty, two atoms, a node), read by each consumer
of a column — ``where``, ``let``, group and order keys, a nested FLWOR on
the eager driver and an ``eq`` index-join probe — so at every batch size
some batches are answered by the column and the batch holding such a row
falls back to the atom lane, and the values and the first error must
still be the reference's.  The rows are a range ``for``'s (with and
without ``at``, over bounds that may be reversed), which the batch carries
as raw columns; :data:`CARRIED_TAILS` reads those columns where they are
carried and where a fallback has built the rows — a ``let`` shadowing one,
a ``where`` that empties batches, ``return`` values off the fast path, a
FLWOR per group row — and :data:`CARRIED` holds group-by and index joins
over carried columns, whose keys meet one item or two.

A fourth (:func:`row_backed_cases`) holds the *path column* to the nested
loop: an ``eq`` index join over row-backed records — a CSV file's, and a
drawn subset of a table scan's — carries ``$r`` as an item column, and a
child step over it is read under operands, ``fn:data``, ``let``,
``where``, group and order keys and ``return``.  The records hold NULL
fields, a name two leaves share, an ``xs:integer`` field that is text in
the row, an empty string, a duplicate key and a record built by an earlier
read, so some batches (and index builds) are answered by the column and
the others fall back.

Where the reference shares the engine's plan, it cannot see a wrong plan:
:data:`POSITIONAL` (filter predicates that may select by position) and
:func:`test_range_operands_are_integers` assert values written by hand.

The tier-1 slice is derandomized.  For a soak with fresh examples
(``make fuzz``)::

    PYTHONPATH=src python tests/test_flwor_differential.py 2000
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import serialize
from repro.demo import build_demo_platform
from repro.errors import DynamicError, TypeError_, XMLError
from repro.relational import Database
from repro.schema import ITEM_STAR, leaf, shape
from repro.xml import AtomicValue, element
from repro.xml.items import AttributeNode, TextNode
from repro.xml.qname import QName
from repro.xquery import parse_expression
from repro.xquery.scope import free_vars

if __name__ == "__main__":  # run as a script: make the ``tests`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.flwor_reference import reference_execute, reference_platform  # noqa: E402

BATCH_SIZES = (1, 2, 7, 256)

_PLATFORMS: dict = {}
#: where the CSV file the platforms read lives (removed at exit)
_FILES = tempfile.TemporaryDirectory()


def platforms() -> dict:
    """The engine's platform and the nested-loop reference's, built once:
    plans are cached per query text, bindings are per execution, and the
    batch size is a value read per run.  The reference runs the plan the
    engine runs (``same-plan``: off the same plan cache) — the pushdown
    pass also moves a ``where`` above a ``let``, which decides whether a
    failing ``let`` is reached — except for joins, where it runs the nested
    loop of a plan compiled with pushdown off.  Both serve the row-backed
    records of :data:`RECORDS_CSV` (``RECS()``) and :data:`ITEM_ROWS`
    (``ITEMS()``)."""
    if not _PLATFORMS:
        _PLATFORMS["same-plan"] = build_demo_platform(customers=2, orders_per_customer=0)
        _PLATFORMS["nested-loop"] = reference_platform(customers=2, orders_per_customer=0)
        path = Path(_FILES.name) / "records.csv"
        path.write_text(RECORDS_CSV)
        for platform in _PLATFORMS.values():
            platform.register_csv_file("RECS", path, shape("REC", [
                leaf(name, type_name, "?") for name, type_name in RECORD_FIELDS]))
            database = Database("itemdb", vendor="oracle", clock=platform.clock)
            database.create_table("ITEMS", [("K", "VARCHAR"), ("N", "INTEGER"), ("V", "VARCHAR")])
            for k, n, v in ITEM_ROWS:
                database.table("ITEMS").insert({"K": k, "N": n, "V": v})
            platform.register_database(database)
    return _PLATFORMS


def outcome(run) -> str:
    try:
        return serialize(run())
    except (DynamicError, XMLError) as exc:  # (a duplicate attribute is the data model's)
        return f"{type(exc).__name__}: {exc}"


#: what the nested loop raises for one (outer, inner) pair of atoms it
#: cannot compare; an index never forms the pair (XQuery 2.3.4)
UNCOMPARABLE = ("DynamicError: cannot treat", "DynamicError: cannot compare")


def check(query: str, variables: dict, reference: str = "same-plan") -> None:
    every = platforms()
    engine = every["same-plan"]
    expected = outcome(lambda: reference_execute(every[reference], query, variables))
    seen = set()
    for size in BATCH_SIZES:
        engine.configure(batch_size=size)
        seen.add(outcome(lambda: engine.execute(query, variables)))
        if reference == "nested-loop" and expected.startswith(UNCOMPARABLE):
            # the index join may skip the pair; every size does the same
            assert len(seen) == 1, (query, variables, size, seen)
        else:
            assert seen == {expected}, (query, variables, size)


# -- generated bindings --------------------------------------------------------


def node(name: str, *children) -> object:
    """``<name>`` holding text (one untyped atom) or child elements."""
    out = element(name)
    for child in children:
        if not isinstance(child, str):
            out.add_child(child)
        elif child:
            out.add_child(TextNode(child))
    return out


ITEMS = st.one_of(
    st.integers(-2, 4).map(lambda v: AtomicValue(v, "xs:integer")),
    st.sampled_from([0, 2 ** 53 + 1]).map(lambda v: AtomicValue(v, "xs:integer")),
    st.booleans().map(lambda v: AtomicValue(v, "xs:boolean")),
    st.sampled_from([0.5, 2.0]).map(lambda v: AtomicValue(v, "xs:double")),
    st.sampled_from(["", "a", "b", "3"]).map(lambda v: AtomicValue(v, "xs:string")),
    st.sampled_from(["", "3", "2.0", "a"]).map(lambda text: node("V", text)),
)
SEQUENCES = st.lists(ITEMS, max_size=4)

TEXTS = st.sampled_from(["", "1", "2.0", "a"])


def tree(k: str, first: str, second: str, nested: str, tail: str) -> object:
    """``<N k=…><C>…</C><C>…</C><D><C>…</C></D>tail</N>``"""
    out = node("N", node("C", first), node("C", second), node("D", node("C", nested)), tail)
    out.add_attribute(AttributeNode(QName("k"), AtomicValue(k, "xs:untypedAtomic")))
    return out


#: ``$n``: trees to navigate — one item in four an atom no step applies to
TREES = st.lists(st.one_of(*[st.builds(tree, TEXTS, TEXTS, TEXTS, TEXTS, TEXTS)] * 3,
                           st.just(AtomicValue(1, "xs:integer"))), max_size=3)

#: expressions over the generated data that may raise; ``$x`` is one item
PROBES = [
    "$x + 1", "-$x", "$x * $b", "$x eq $b", "$x = $b", "$a = $b", "$x lt 3",
    "$x != 3", "fn:sum(($x, $b))", "if ($x = $b) then 1 else 2",
    "fn:data($x) + fn:count($b)", "($x, $b)", "$b[. = $x]",
    "some $z in $b satisfies $z = $x", "every $z in $a satisfies $z eq $x",
    "some $z in $a, $w in $b satisfies $z = $w",
    "for $z in $b where $z = $x return $z",
    "for $z at $q in $b let $w := ($z, $x) where $q lt 3 return <W>{$w}</W>",
    "<E?>{fn:data($b[. = $x])}</E>",
    # predicates on a filter: boolean, positional, the focus functions, chained
    # (the optimizer makes a FLWOR of a filter whose predicates are boolean or
    # nodes; :data:`POSITIONAL` holds what the others must select)
    "$b[2]", "$b[fn:true()]", "$b[. instance of xs:integer][2]", "($a, $b)[3][1]",
    "$b[fn:position() gt 1][1]", "$b[2][fn:last()]", "$b[1][. = $x]",
    "$b[fn:position() lt 3]", "$b[fn:last()]", "$n[C = $x]", "$n[2]/C[1]",
    # … and on steps, over trees: child, attribute, self, descendant, *, text()
    "$n/C", "$n/C[2]", "$n/C[. = $x]", "$n/C[fn:last()]", "$n/C[fn:position() lt 2]",
    "$n/*[fn:position() eq fn:last()]", "$n/*[C]", "$n/@k", "$n/@k[. = $x]", "$n/@*[1]",
    "$n/self::N[C = $x]", "$n/self::N[@k = $b][1]", "$n//C[fn:position() gt 1]",
    "$n//C[. = $x][fn:last()]", "$n/descendant::C[3]", "$n/D/C[. = $b]", "$n/text()",
    "$n/text()[. = $x]", "$n/node()[fn:last()]", "$n/C[2][1]", "$n/C[fn:true()][2]",
    "$n/C[fn:count($b)]", "$x/C", "fn:data($n/@k) = $x",
    # the cast family: optional and non-optional targets
    "$x cast as xs:integer", "$x cast as xs:integer?", "$b cast as xs:double",
    "$b cast as xs:string?", "$x cast as xs:boolean", "$x castable as xs:integer",
    "$b castable as xs:double?", "$n castable as xs:string", "$x instance of xs:integer",
    "$b instance of xs:string*", "$b instance of element(V)+", "$n instance of element(N)?",
    "$x treat as xs:integer", "$b treat as xs:string?", "$n treat as node()*",
    "($x treat as xs:integer) + 1",
    # typeswitch: with and without case variables, with and without a default one
    "typeswitch ($x) case xs:integer return 1 case xs:string return 2 default return 3",
    "typeswitch ($x) case $i as xs:integer return $i + 1 "
    "case $v as element(V) return fn:data($v) default $d return fn:count($d)",
    "typeswitch ($b) case $e as xs:integer+ return fn:sum($e) default $d return $d",
    "typeswitch ($n) case $t as element(N)+ return $t/C[1] default return $x + 1",
    # computed attributes
    "<W>{attribute k {$x}}</W>", "<W>{attribute k {$b}}{$x}</W>",
    "<W>{attribute k {$n/@k}, attribute j {$x + 1}}</W>", "<W j=\"{$x}\">{attribute k {1}}</W>",
]


ARITHMETIC = ("+", "-", "*", "div", "idiv", "mod")
COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge", "=", "!=", "<", "<=", ">", ">=")

#: scalar builtin -> a call of it over operands that do not raise
SCALAR_CALLS = {
    "fn:concat": ("$x", '"-"'), "fn:string-length": ("$x",), "fn:upper-case": ("$x",),
    "fn:lower-case": ("$x",), "fn:contains": ("$x", '"a"'),
    "fn:starts-with": ("$x", '"a"'), "fn:ends-with": ("$x", '"a"'),
    "fn:substring": ("$x", "2", "1"), "fn:substring-before": ("$x", '"a"'),
    "fn:substring-after": ("$x", '"a"'), "fn:normalize-space": ("$x",),
    "fn:matches": ("$x", '"A|3"', '"i"'), "fn:replace": ("$x", '"a|3"', '"[$0]"', '"i"'),
    "fn:abs": ("$x",), "fn:floor": ("$x",), "fn:ceiling": ("$x",), "fn:round": ("$x",),
    "fn:number": ("$x",),
}


def calls_varying(operands) -> list[str]:
    """Each :data:`SCALAR_CALLS` call with each argument in turn replaced
    by each of ``operands`` (and ``fn:substring`` / ``fn:matches`` /
    ``fn:replace`` also without their optional last argument)."""
    out = []
    for name, full in SCALAR_CALLS.items():
        shorter = [full[:-1]] if name in ("fn:substring", "fn:matches", "fn:replace") else []
        for args in [full, *shorter]:
            for position in range(len(args)):
                for operand in operands:
                    varied = [*args[:position], operand, *args[position + 1:]]
                    out.append(f"{name}({', '.join(varied)})")
    return list(dict.fromkeys(out))


#: the scalar axes: every operator over ``$x`` (one item), ``$b`` (zero to
#: four), a literal and ``()``, left and right; every lane-native builtin
#: with zero, one and several atoms per argument
SCALAR_PROBES = [
    f"{left} {op} {right}"
    for op in ARITHMETIC + COMPARISONS
    for left, right in [("$x", "$b"), ("$b", "$x"), ("$x", "3"), ("3", "$x"),
                        ("$x", '"a"'), ('"a"', "$x"), ("$x", "()"), ("()", "$x")]
] + ["-$b", "-()", "-(-$x)"] + calls_varying(["$x", "$b", "()"])


#: the shadowing axis: a construct in the ``return`` that binds again a name
#: the tuple or the request binds — a nested FLWOR, a quantifier, a
#: typeswitch case — reading its own binding inside and the outer one after
SHADOWS = [
    "{for $x in $b let $v := fn:count(($x, $a)) return <S>{$x}{$v}</S>}{$v}",
    "{for $k at $xs in $b where fn:exists($k) return ($k, $xs)}",
    "{some $x in $b satisfies fn:exists($x)}"
    "{every $v in ($a, $b) satisfies $v instance of xs:integer}{$v}",
    "{typeswitch (fn:count($b)) case $x as xs:integer return $x + 1 "
    "default $v return $v}{$v}",
    "{typeswitch ($a) case $v as xs:integer+ return fn:count($v) "
    "default $b return fn:count($b)}{fn:count($b)}",
]
#: … and a second ``let`` of ``$v`` (of the external, without a first one)
SHADOWING_LET = "let $v := fn:count(($v, $b))"


@st.composite
def flwor_cases(draw, shadowing: bool = False):
    """``(query, variables)``: one FLWOR with at most one probe — and, when
    ``shadowing``, one name bound again (:data:`SHADOWS`,
    :data:`SHADOWING_LET`)."""
    at = draw(st.booleans())
    second = draw(st.sampled_from([None, "for $i in (1 to 2)", "for $i in (1 to 3)"]))
    grouped = draw(st.sampled_from([None, 1, 2]))
    ordered = draw(st.sampled_from([None, 1, 2]))
    site = draw(st.sampled_from(
        [None, "let", "where", "return", "group" if grouped else "return",
         "order" if ordered else "where"]))
    probe = draw(st.sampled_from(draw(st.sampled_from([PROBES, SCALAR_PROBES]))))
    ints = (["$p"] if at else []) + (["$i"] if second else [])
    keys = ["$x", "fn:data($x)"] + [f"{v} mod 2" for v in ints] + ints

    clauses = [f"for $x{' at $p' if at else ''} in {draw(st.sampled_from(['$a', '($a, $b)']))}"]
    if second:
        clauses.append(second)
    has_let = site == "let" or draw(st.booleans())
    if has_let:
        safe_let = draw(st.sampled_from(["fn:count($b)", "($x, $x)", "$b", "()"]))
        clauses.append(f"let $v := {probe if site == 'let' else safe_let}")
    shadow = draw(st.sampled_from([SHADOWING_LET, *SHADOWS])) if shadowing else ""
    if shadow == SHADOWING_LET:
        clauses.append(shadow)
    if site == "where":
        clauses.append(f"where {probe}")
    elif draw(st.booleans()):
        conditions = ["fn:exists($b)", "fn:count(($x, $b)) lt 4"] \
            + [f"{v} gt 1" for v in ints] + [f"{v} mod 2 eq 0" for v in ints]
        clauses.append(f"where {draw(st.sampled_from(conditions))}")
    if grouped:
        first = probe if site == "group" else draw(st.sampled_from(keys))
        by = f"{first} as $k" + (f", {draw(st.sampled_from(keys))} as $j" if grouped == 2 else "")
        # a ``let`` the group-by drops: after it, ``$v`` is the external
        regrouped = has_let and draw(st.booleans())
        also = ", $v as $vs" if regrouped else ""
        clauses.append(f"group $x as $xs{also} by {by}")
        keys = ["$k", "fn:count($xs)"] + (["$j"] if grouped == 2 else [])
        shown = "{$k}{fn:count($xs)}{$xs}" + ("{$j}" if grouped == 2 else "") \
            + ("{$vs}" if regrouped else "{$v}" if has_let else "")
    else:
        shown = "{$x}" + "".join(f"{{{v}}}" for v in ints) + ("{$v}" if has_let else "")
    if ordered:
        specs = []
        for n in range(ordered):
            key = probe if site == "order" and n == 0 and not grouped \
                else draw(st.sampled_from(keys))
            specs.append(key + draw(st.sampled_from(
                ["", " descending", " empty greatest", " descending empty least"])))
        clauses.append("order by " + ", ".join(specs))
    if site == "return" and not grouped:
        shown += f"<P>{{{probe}}}</P>"
    if shadow != SHADOWING_LET:
        shown += shadow
    query = " ".join(clauses) + f" return <R>{shown}</R>"
    # an empty ``$a`` flows no tuple at all: possible, but not every other case
    least = draw(st.sampled_from([0, 1, 1, 2]))
    return query, {"a": draw(st.lists(ITEMS, min_size=least, max_size=5)),
                   "b": draw(SEQUENCES), "n": draw(TREES), "v": draw(SEQUENCES)}


#: untyped key texts, and the typed keys they meet under ``=``: of one kind
#: per case (a string and a number are a pair the nested loop cannot compare)
UNTYPED_KEYS = ["3.0", "2", "", "a", "3"]
TYPED_KEYS = {"untyped": [], "numbers": [2, 3, 3.0], "strings": ["2", "a", "3.0"]}


def keyed(name: str, keys):
    """``<name><K>…</K>*</name>`` nodes: empty, single and multi-item keys;
    a ``str`` key is untyped text, an atom a typed ``<K>``."""
    def key(k):
        return node("K", k) if isinstance(k, str) else element("K", k)

    return st.lists(st.lists(keys, max_size=3).map(
        lambda ks: node(name, *map(key, ks))), max_size=4)


@st.composite
def join_cases(draw):
    """``(query, variables)``: an equi-join the optimizer makes an index
    nested-loop join, over keys with zero, one or several atoms."""
    op = draw(st.sampled_from(["=", "eq"]))
    # (``eq`` hashes an untyped key as its text, whatever it meets)
    kind = draw(st.sampled_from(sorted(TYPED_KEYS))) if op == "=" else "untyped"
    keys = st.sampled_from(UNTYPED_KEYS + [
        AtomicValue(v, "xs:string" if isinstance(v, str) else
                    "xs:integer" if isinstance(v, int) else "xs:double")
        for v in TYPED_KEYS[kind]])
    at = " at $p" if draw(st.booleans()) else ""
    sides = draw(st.sampled_from(["$y/K {op} $x/K", "$x/K {op} $y/K"])).format(op=op)
    tail = draw(st.sampled_from([
        "return <P>{$x}{$y}</P>",
        "return <P>{$p}{$y}</P>" if at else "return $y",
        "group $y as $ys by fn:count($x/K) as $k return <G>{$k}{$ys}</G>",
        "order by fn:count($y/K) descending return <P>{$y}{$x}</P>",
    ]))
    query = f"for $x{at} in $a for $y in $b where {sides} {tail}"
    return query, {"a": draw(keyed("A", keys)), "b": draw(keyed("B", keys))}


def differential(cases, reference: str, max_examples: int, derandomize: bool = True):
    @settings(max_examples=max_examples, derandomize=derandomize, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(cases)
    def run(case):
        check(*case, reference)

    return run


def agreement(cases, max_examples: int, derandomize: bool = True):
    """The typechecker — which shares no code with the scope walk —
    compiles each query with exactly its ``free_vars`` as externals, and
    rejects it as an undefined variable when any one is dropped."""
    @settings(max_examples=max_examples, derandomize=derandomize, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(cases)
    def run(case):
        query, _variables = case
        compiler = platforms()["same-plan"]._compiler()
        free = free_vars(parse_expression(query))
        compiler.compile_expression(query, {name: ITEM_STAR for name in free})
        for name in free:
            try:
                compiler.compile_expression(
                    query, {other: ITEM_STAR for other in free - {name}})
            except TypeError_ as exc:
                assert f"undefined variable ${name}" in str(exc), (query, name, exc)
            else:
                raise AssertionError(f"{query!r} compiles without ${name}")

    return run


test_generated_flwors_match_the_reference = differential(flwor_cases(), "same-plan", 250)
test_generated_shadowing_matches_the_reference = differential(
    flwor_cases(shadowing=True), "same-plan", 120)
test_the_typechecker_agrees_with_free_vars = agreement(flwor_cases(shadowing=True), 120)
test_generated_index_joins_match_the_nested_loop = differential(
    join_cases(), "nested-loop", 100)


# -- shrunk counterexamples, kept as regression cases ---------------------------

def _atoms(*values) -> list:
    return [AtomicValue(v, "xs:integer" if isinstance(v, int) else "xs:string")
            for v in values]


REGRESSIONS: list[tuple[str, dict, str]] = [
    # Found by the 2,000-example run against the tuple pipeline, and not an
    # engine defect: with pushdown off the ``where`` (false on every row)
    # stays below the ``let``, whose ``"" + 1`` then raises; the engine's
    # plan has it above.  Why the reference runs the engine's plan.
    ("for $x in ($a, $b) let $v := $x + 1 where fn:count(($x, $b)) lt 4 "
     "group $x as $xs, $v as $vs by $x as $k order by $k "
     "return <R>{$k}{fn:count($xs)}{$xs}{$vs}</R>",
     {"a": [], "b": _atoms(0, 0, "")}, "same-plan"),
    # the multi-atom join keys of tests/test_join_keys.py, as a generated case
    ("for $x in $a for $y in $b where $y/K = $x/K return <P>{$x}{$y}</P>",
     {"a": [node("A", node("K", "1"), node("K", "2")), node("A", node("K", "3"))],
      "b": [node("B", node("K", "2")), node("B", node("K", "3"))]}, "nested-loop"),
    # Found while the probes were written, the harness's: two ``@k`` in one
    # constructor is the data model's ``XMLError``, not a ``DynamicError``;
    # ``outcome`` reads both.
    ("for $x in $a return <R>{$n/@k}</R>",
     {"a": _atoms(1), "b": [], "n": [tree("1", "", "", "", ""), tree("2", "", "", "", "")]},
     "same-plan"),
    # untyped keys against typed ones: ``"3.0"`` meets ``3`` as a number …
    ("for $x in $a for $y in $b where $y/K = $x/K return <P>{$x}{$y}</P>",
     {"a": [node("A", element("K", 3), element("K", 2))],
      "b": [node("B", node("K", "3.0")), node("B", node("K", "2.50"), node("K", "2"))]},
     "nested-loop"),
    # … and where the first pair the nested loop forms cannot be compared
    # it raises, while the index never forms the pair
    ("for $x in $a for $y in $b where $y/K = $x/K return <P>{$x}{$y}</P>",
     {"a": [node("A", element("K", 3))],
      "b": [node("B", node("K", "a")), node("B", node("K", "3"))]}, "nested-loop"),
]


def test_regression_cases():
    for query, variables, reference in REGRESSIONS:
        check(query, variables, reference)


# -- the scalar kernels over every kind of operand -------------------------------

#: what an operand can be, for a kernel that guards on the Python type of
#: its atoms: each kind takes a fast path or must fall to the general kernel
OPERAND_KINDS = {
    "empty": [], "int": _atoms(3), "zero": _atoms(0), "negative": _atoms(-2),
    "beyond 2**53": _atoms(2 ** 53 + 1), "double": [AtomicValue(2.5, "xs:double")],
    "string": _atoms("a"), "digits": _atoms("3"),
    "untyped number": [node("V", "3")], "untyped text": [node("V", "a")],
    "untyped int": [AtomicValue(3, "xs:untypedAtomic")],
    "boolean": [AtomicValue(True, "xs:boolean")],
    "two ints": _atoms(1, 3), "int and text": _atoms(3, "a"),
}


def test_scalar_kernels_over_every_operand_kind():
    """Each operator over the full cross of operand kinds, each lane-native
    builtin with each argument in turn of every kind (``fn:substring``'s
    required pair in full: which of two bad arguments is reported), at every
    batch size, against the reference's general kernels."""
    kinds = list(OPERAND_KINDS.values())
    for op in ARITHMETIC + COMPARISONS:
        query = f"for $i in (1, 2) return <P>{{$l {op} $r}}</P>"
        for left in kinds:
            for right in kinds:
                check(query, {"l": left, "r": right})
    for call in ["-$l", "fn:substring($l, $r)", *calls_varying(["$l"])]:
        query = f"for $i in (1, 2) where $i eq 2 return <P>{{{call}}}</P>"
        for left in kinds:
            for right in (kinds if "$r" in call else kinds[:1]):
                check(query, {"l": left, "r": right, "x": _atoms("a3A")})


def expect(query: str, variables: dict, expected: str) -> None:
    """``query`` gives ``expected`` — a serialized result or an error's
    text, written by hand — at every batch size, and so does the reference."""
    check(query, variables)
    engine = platforms()["same-plan"]
    assert outcome(lambda: engine.execute(query, variables)) == expected, query


#: predicates over ``$b`` = (10, 20, 30) and the items XQuery keeps: a value
#: that may be numeric selects by position, one that reads the focus sees
#: its own item's (a nested predicate has a focus of its own), and only a
#: boolean or a node sequence is read as an effective boolean value.  On a
#: step, over ``$n`` = (<N><C>1</C><C>2</C></N>, <N><C>3</C><C>4</C></N>), a
#: predicate counts positions within each context node's children
POSITIONAL = [
    ("$b[$i]", "20"), ("$b[fn:count((1, 2))]", "20"), ("$b[$i + 1]", "30"),
    ("$b[fn:position() lt 3]", "10 20"), ("$b[fn:last()]", "30"),
    ("$b[fn:position() eq fn:last() - 1]", "20"), ("$b[fn:position() gt 1][1]", "20"),
    ("$b[$i][fn:last()]", "20"), ("$b[$t]", "10 20 30"), ("$b[$e]", ""),
    ("$b[. gt 15]", "20 30"), ("$b[fn:exists($i)]", "10 20 30"),
    ("$b[fn:exists($b[fn:position() eq 3])]", "10 20 30"),
    # a FLWOR base: only the predicates before the first positional one
    # may become its `where`s
    ("(for $v in $b return $v + 0)[$i][. gt 15]", "20"),
    ("(for $v in $b return $v + 0)[. gt 15][$i]", "30"),
    ("(for $v in $b return $v + 0)[. gt 5][fn:last()][. gt 25]", "30"),
    ("(for $v in $b return $v + 0)[1][. gt 15]", ""),
    ("$n/C[1]", "<C>1</C><C>3</C>"), ("$n/C[fn:last()]", "<C>2</C><C>4</C>"),
    ("$n/C[fn:position() lt 2]", "<C>1</C><C>3</C>"),
]


def test_predicates_that_may_be_numeric_select_by_position():
    variables = {"b": _atoms(10, 20, 30), "i": _atoms(2), "t": _atoms("x"), "e": [],
                 "n": [node("N", node("C", "1"), node("C", "2")),
                       node("N", node("C", "3"), node("C", "4"))]}
    pushdown_off = platforms()["nested-loop"]
    for predicate, kept in POSITIONAL:
        query = f"for $x in (1, 2) return <P>{{{predicate}}}</P>"
        expected = f"<P>{kept}</P>" * 2 if kept else "<P/><P/>"
        expect(query, variables, expected)
        assert outcome(lambda: pushdown_off.execute(query, variables)) == expected, query


def test_range_operands_are_integers():
    """Each operand of ``to`` is converted to ``xs:integer?``: an untyped
    atom is cast, any other atom that is not an integer is a type error."""
    variables = {"u": [AtomicValue("2", "xs:untypedAtomic")], "n": [node("V", "2")],
                 "f": [AtomicValue(True, "xs:boolean")]}

    def wrong(type_name: str) -> str:
        return f"DynamicError: range: an operand of type {type_name} is not an xs:integer"

    for operands, expected in [
            ("2 to 4", "<P>2 3 4</P>"), ("$u to 3", "<P>2 3</P>"), ("1 to $n", "<P>1 2</P>"),
            ("() to 3", "<P/>"), ("1 to ()", "<P/>"), ("1.5 to 3", wrong("xs:decimal")),
            ("1e0 to 3", wrong("xs:double")), ('"2" to 3', wrong("xs:string")),
            ("1 to $f", wrong("xs:boolean")),
            ("1 to (2, 3)", "DynamicError: range: operand has more than one item")]:
        expect(f"<P>{{{operands}}}</P>", variables, expected)


def test_the_left_operand_fails_first():
    """``_number(left)`` runs before the right operand is evaluated: a left
    operand of two atoms, a boolean or unparsable text is the error
    reported, whatever evaluating the right one would have raised."""
    every = platforms()["same-plan"]
    bad = [_atoms(1, 2), [AtomicValue(True, "xs:boolean")], _atoms("a")]
    for op in ARITHMETIC:
        for right in ("$x", "($x + 1)", "(-$x)", "fn:abs($x)"):
            query = f"for $i in (1, 2) return <P>{{$b {op} {right}}}</P>"
            for left in bad:
                variables = {"b": left, "x": _atoms("z")}
                check(query, variables)
                assert "'z'" not in outcome(lambda: every.execute(query, variables))


# -- the column lane: batches in which a row leaves it --------------------------

#: what ``$y`` is bound to in a row off the column lane's fast path
OFF_PATH = {
    "untyped": [AtomicValue("3", "xs:untypedAtomic")], "double": [AtomicValue(2.5, "xs:double")],
    "boolean": [AtomicValue(True, "xs:boolean")], "negative": _atoms(-4), "zero": _atoms(0),
    "empty": [], "two atoms": _atoms(1, 2), "node": [node("V", "3")],
}

#: each consumer of a column over ``$y``, with what follows it (``$y`` is
#: read twice, so its ``let`` stays a clause)
COLUMN_TAILS = [
    # where: the boolean column is the mask
    "where ($y mod 3) eq 1 return <R>{$i}{$y}</R>",
    'where fn:concat("k", $y) ne "k4" return <R>{$i}{$y}</R>',
    "where (($y mod 3) eq 1) eq ($i gt 4) return <R>{$i}{$y}</R>",  # two boolean columns
    "where $y mod 3 return <R>{$i}{$y}</R>",  # an integer's effective boolean value
    # let: one atom boxed per row; ``mod`` with a zero or negative operand
    "let $z := ($y * 2) - $i return <R>{$z}{$y}</R>",
    "let $z := 7 mod $y return <R>{$z}{$y}</R>",
    # group-by: the values are the key
    "group $i as $is, $y as $ys by $y mod 4 as $k return <G>{$k}{$is}{$ys}</G>",
    # order-by: the keys a batch at a time, then one sort
    "order by $y mod 5 descending, $i return <R>{$i}{$y}</R>",
    # the eager driver: a nested FLWOR's let and where
    "return <R>{$y}{for $j in (1 to 3) let $w := $y + $j where $w mod 2 eq 0 return $w}</R>",
]

#: the index-join probe under ``eq``, against typed keys (``eq`` hashes an
#: untyped key as its text, whatever it meets)
JOIN_TAIL = "for $r in $rows where $r/K eq $y mod 3 return <R>{$i}{$y}{$r}</R>"
KEYED_ROWS = [node("R", element("K", key)) for key in (0, 1, 2, 2)]


#: consumers of *carried* columns: the range ``for`` carries ``$i`` (and
#: ``$p``) as raw columns, a ``let`` or ``where`` the lane answers keeps
#: them carried, and a row function — or a batch leaving the lane — builds
#: the rows
CARRIED_TAILS = [
    # a let that shadows the carried ``$i`` with a row-path value
    "let $i := ($y, $i) where fn:count($i) gt 1 return <R>{$i}{$y}</R>",
    # a where that empties a batch (or all of them), then the return lane
    "let $z := $i * 2 where $z gt 17 return $z",
    # return values off the fast path: the return lane hands the batch back
    "return $y",
    "let $z := $y return $z",
    # downstream of a group-by, in a FLWOR per group row: ``$z`` is carried
    # where the lane answers and in the rows where the group's key is off
    # its fast path
    "group $i as $is by $y mod 3 as $k order by $k return <G>{$k}{fn:count($is)}"
    "{for $j at $q in (1 to 2) let $z := $k + $j where $z ne 2 return ($z, $q)}</G>",
    # a range ``for`` whose bounds read the batch it extends
    "for $j in ($i to 3) where $j ne $y return <R>{$i}{$j}</R>",
]


@st.composite
def column_cases(draw, tails):
    """``(query, variables)``: up to twelve rows whose ``$y`` is an
    ``xs:integer`` but in rows ``k1`` and ``k2`` (if they are in range),
    where it is off the fast path, and a consumer of a column over it.  The
    rows are a range ``for``'s, with or without ``at``, over bounds that may
    be reversed (an empty range but for one row)."""
    rows = draw(st.integers(1, 12))
    k1, k2 = draw(st.integers(0, rows + 1)), draw(st.integers(0, rows + 1))
    off = st.sampled_from(sorted(OFF_PATH))
    head = draw(st.sampled_from([f"for $i in (1 to {rows})", f"for $i at $p in (1 to {rows})",
                                 f"for $i at $p in ({rows} to 1)"]))
    plus = draw(st.sampled_from(["0", "5"] + (["$p"] if "$p" in head else [])))
    query = (f"{head} let $y := if ($i eq {k1}) then $o1 "
             f"else if ($i eq {k2}) then $o2 else $i + {plus} "
             + draw(st.sampled_from(tails)))
    return query, {"o1": OFF_PATH[draw(off)], "o2": OFF_PATH[draw(off)], "rows": KEYED_ROWS}


test_the_column_lane_falls_back_a_batch_at_a_time = differential(
    column_cases(COLUMN_TAILS), "same-plan", 200)
test_the_column_lane_probe_falls_back_a_batch_at_a_time = differential(
    column_cases([JOIN_TAIL]), "nested-loop", 60)
test_carried_columns_fall_back_a_batch_at_a_time = differential(
    column_cases(CARRIED_TAILS), "same-plan", 120)

#: group-by and ``eq`` index joins over carried columns.  A join whose
#: every key meets at most one inner item gathers the outer columns by
#: match position instead of building the outer rows; a group's members
#: are read from the columns (a grouped ``let`` stays a clause), and after
#: the group-by ``$b`` and ``$p`` are the externals they shadowed before
UNIQUE_ROWS = [node("R", element("K", key)) for key in (0, 1, 2)]
CARRIED = [
    "for $i at $p in (3 to 12) for $r in $rows where $r/K eq $i mod 4 "
    "return <R>{$i}{$p}{$r}</R>",
    "for $i in (1 to 9) let $z := $i + 1 for $r in $rows where $r/K eq $z mod 3 "
    "group $r as $rs, $z as $zs by $i mod 2 as $k return <G>{$k}{fn:count($rs)}{$zs}</G>",
    "for $i in (1 to 9) let $z := $i * $b for $r in $rows where $r/K eq $z mod 5 "
    "return <R>{$i}{$z}{$r}</R>",
    "for $i in (1 to 9) for $r in $rows where $r/K eq $i mod 3 "
    "return for $j in (1 to 2) where $j ne $i return <R>{$i}{$j}{$r}</R>",
    "for $i in (1 to 9) let $z := $i * $b group $z as $zs, $i as $is by $i mod 4 as $k "
    "order by $k return <G>{$k}{$zs}{$is}{$b}</G>",
    "for $i at $p in (1 to 5) let $b := $i * $p group $i as $is by $b mod 3 as $k "
    "order by $k return <G>{$k}{$b}{$p}{$is}</G>",
]


def test_group_by_and_index_joins_over_carried_columns():
    for query in CARRIED:
        for rows in (UNIQUE_ROWS, KEYED_ROWS):
            for b in (_atoms(2), [AtomicValue(2.5, "xs:double")], _atoms(1, 2)):
                check(query, {"rows": rows, "b": b, "p": _atoms(7)}, "nested-loop")


# -- row-backed records: child steps over a carried item column -----------------

#: a CSV file's records, ``RECS()``: an ``xs:string`` key, an
#: ``xs:integer`` field (text in the row: typed on the atom lane) and
#: ``V``, the name two leaves share, absent, once or twice
RECORD_FIELDS = [("K", "xs:string"), ("N", "xs:integer"), ("V", "xs:string"),
                 ("V", "xs:string")]
RECORDS_CSV = "K,N,V,V\nk0,1,x,\nk1,,,y\nk2,2,z,w\nk3,4,,\nk4,5,v,\n"
#: a table's rows, ``ITEMS()``: NULLs (a key's too), an empty string, a
#: duplicate key
ITEM_ROWS = [("k0", 0, "x"), ("k1", None, None), (None, 2, "y"), ("k3", 3, ""),
             ("k2", 7, "v"), ("k1", 5, "w")]

#: each consumer of a child step over ``$r``, which an ``eq`` index join
#: (``JOIN``) carries as an item column: operands, ``fn:data``, ``let``
#: (a grouped ``$x`` stays a clause), ``where``, group and order keys,
#: ``return``
ROW_BACKED_TAILS = [
    "JOIN return $r/V",
    "JOIN return $r/K",
    "JOIN return fn:data($r/N)",
    "JOIN return $r/N + $i",
    'JOIN return fn:concat($r/K, "-", $r/V)',
    "let $x := $r/V JOIN group $x as $xs by $i mod 2 as $g return <G>{$g}{$xs}</G>",
    'let $x := fn:data($r/K) JOIN and $x ne "k1" '
    "group $x as $xs by $r/N as $g return <G>{$g}{$xs}</G>",
    "JOIN and $r/N gt 1 return <R>{$r/K}{$i}</R>",
    "JOIN and $r/V return $r/K",
    "JOIN group $r as $rs by $r/K as $g return <G>{$g}{fn:count($rs)}</G>",
    "JOIN order by $r/N descending, $i return <R>{$r/N}{$i}</R>",
    "JOIN order by $r/V return $r/K",
]

_TABLE_RECORDS: list = []


def table_records() -> list:
    """``ITEMS()`` as a table scan returns it (the reference platform's
    plan pushes nothing), the fifth record already built by a read."""
    if not _TABLE_RECORDS:
        _TABLE_RECORDS.extend(platforms()["nested-loop"].execute("ITEMS()"))
        _TABLE_RECORDS[4].children()
    return _TABLE_RECORDS


@st.composite
def row_backed_cases(draw):
    """``(query, variables)``: an index join probing the CSV file's records
    or a drawn subset of the table's, then a consumer of a child step."""
    records = table_records()
    rows = [records[i] for i in draw(st.lists(st.integers(0, len(records) - 1),
                                              max_size=len(records), unique=True))]
    tail = draw(st.sampled_from(ROW_BACKED_TAILS)).replace(
        "JOIN", 'where $r/K eq fn:concat("k", $i mod 4)')
    query = (f"for $i in (1 to {draw(st.integers(1, 9))}) "
             f"for $r in {draw(st.sampled_from(['RECS()', '$rows']))} {tail}")
    return query, {"rows": rows}


test_child_steps_over_row_backed_records = differential(
    row_backed_cases(), "nested-loop", 100)


def test_a_where_on_a_child_step_keeps_an_empty_or_zero_field():
    """A node's effective boolean value is true whatever it holds: ``k0``'s
    ``N`` is 0 and ``k3``'s ``V`` is the empty string."""
    rows = [table_records()[0], table_records()[3]]
    for field in ("N", "V"):
        check(f'for $i in (1 to 4) for $r in $rows where $r/K eq fn:concat("k", $i mod 4) '
              f"and $r/{field} return $r/K", {"rows": rows}, "nested-loop")


# -- scoping: a request's bindings are the root row ----------------------------

SCOPING: list[tuple[str, dict]] = [
    # an external shadowed by a ``for``, by a ``let`` (used twice: it stays
    # a clause) and by a positional variable — and read again where it is not
    ("for $a in (1, 2) return <R>{$a}{$b}</R>", {"a": _atoms(10, 20), "b": _atoms(7)}),
    ("for $i in (1, 2) let $a := ($i, $b) return <R>{$a}{fn:count($a)}</R>",
     {"a": _atoms(10, 20), "b": _atoms(7)}),
    ("for $i at $a in (5, 6) return <R>{$a}{$b}</R>", {"a": _atoms(10, 20), "b": _atoms(7)}),
    ("(for $a in (1, 2) return $a + 1, $a)", {"a": _atoms(10, 20)}),
    # after a group-by a ``let`` it does not regroup is out of scope: every
    # group reads the external of the same name again
    ("for $i in (1, 2, 3) let $b := ($i, $i) group $i as $is by $i idiv 2 as $k "
     "return <G>{$k}<B>{$b}</B><N>{fn:count($b)}</N></G>", {"b": _atoms(7)}),
    ("for $i in (1, 2, 3) let $b := ($i, $i) group $i as $is by $i idiv 2 as $k "
     "order by $k descending return <G>{$k}<B>{$b}</B><N>{fn:count($b)}</N>{$c}</G>",
     {"b": _atoms(7), "c": _atoms("c")}),
    # a ``let`` no member regroups, read once after the group-by: that is
    # the external, so the let is not inlined there (and its ``$i`` would
    # be unbound), while a group key still reads the let
    ("for $i in (1, 2, 3, 4) let $b := $i mod 2 group $i as $is by $i idiv 3 as $k "
     "return <G>{$k}{$b}</G>", {"b": _atoms(7)}),
    ("for $i in (1, 2, 3, 4) let $b := $i mod 2 group $i as $is by $b as $k "
     "order by $k return <G>{$k}{$b}{fn:count($is)}</G>", {"b": _atoms(7)}),
    ("for $i in (1, 2, 3) let $b := fn:count(($i, $c)) group $i as $is by $i idiv 2 as $k "
     "return <G>{$k}{$b}</G>", {"b": _atoms(7), "c": _atoms(1, 2)}),
    # three FLWORs deep, reading a variable of every level and an external
    ("for $i in (1, 2) return for $j in ($i, $i + 1) return for $k in ($j, $b) "
     "let $s := $i + $j + $k + $b return <R>{$s}{$i}{$j}{$k}{$b}</R>", {"b": _atoms(7)}),
    ("for $i in (1, 2) let $v := (for $j in (1 to $i) let $w := "
     "(for $k in ($j, $b) where $k ne $i return $k * $b) return <W>{$w}{$j}{$i}</W>) "
     "where fn:count($v) gt 0 return <R>{$v}{$i}{$b}</R>", {"b": _atoms(2)}),
]


def test_scoping_cases():
    for query, variables in SCOPING:
        check(query, variables)


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    differential(flwor_cases(), "same-plan", examples, derandomize=False)()
    print(f"{examples} generated FLWORs: every batch size equals the reference")
    differential(flwor_cases(shadowing=True), "same-plan", examples // 4, derandomize=False)()
    print(f"{examples // 4} generated FLWORs binding a name again equal the reference")
    agreement(flwor_cases(shadowing=True), examples // 4, derandomize=False)()
    print(f"{examples // 4} generated FLWORs compile with exactly their free variables")
    differential(column_cases(COLUMN_TAILS), "same-plan", examples // 4, derandomize=False)()
    print(f"{examples // 4} generated column-lane fallbacks equal the reference")
    differential(column_cases(CARRIED_TAILS), "same-plan", examples // 4, derandomize=False)()
    print(f"{examples // 4} generated carried-column fallbacks equal the reference")
    differential(row_backed_cases(), "nested-loop", examples // 4, derandomize=False)()
    print(f"{examples // 4} generated child steps over row-backed records equal the reference")
    if "--no-joins" not in sys.argv:
        differential(join_cases(), "nested-loop", examples // 4, derandomize=False)()
        print(f"{examples // 4} generated index joins equal the nested loop")
