"""Built-in XQuery function library (``fn:``) plus ALDSP's ``fn-bea:``
extensions (sections 5.4 and 5.6).

Each builtin records:

* an evaluator over materialized argument sequences (the *list form*:
  one item list per argument in, an item list out),
* for a *scalar* builtin — one whose every parameter is a single optional
  atom — the body itself, over ``AtomicValue | None`` per argument and
  returning ``AtomicValue | None`` (``None`` is the empty sequence).  A
  scalar builtin is written once, in that form; :func:`register` derives
  the list form from it (atomize each argument, reject one with more than
  one atom, wrap the result), so the expression compiler can call the body
  on its atom lane and every other caller keeps the list form,
* a static result type (or a callable deriving it from argument types),
* SQL pushdown information consumed by :mod:`repro.sql.pushdown` — the
  paper (section 4.4) enumerates which functions are pushable; non-pushable
  builtins simply have ``sql=None`` and are evaluated mid-tier with their
  results bound as SQL parameters where needed.

The three service-quality functions ``fn-bea:async``, ``fn-bea:fail-over``
and ``fn-bea:timeout`` are *control* functions: their arguments must be
evaluated lazily/concurrently, so they are flagged ``lazy`` and handled by
the evaluator itself (see :mod:`repro.runtime.evaluate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..errors import DynamicError
from ..schema.types import (
    ITEM_STAR,
    AtomicItemType,
    Occurrence,
    SequenceType,
    atomic,
    is_numeric,
)
from ..xml.items import AtomicValue, Item, Node

Evaluator = Callable[..., list[Item]]


@dataclass
class Builtin:
    name: str
    min_args: int
    max_args: int
    evaluator: Optional[Evaluator]
    result_type: SequenceType | Callable[[list[SequenceType]], SequenceType]
    #: SQL pushdown info: ("func", SQLNAME) | ("agg", SQLNAME) | ("special", tag) | None
    sql: tuple[str, str] | None = None
    lazy: bool = False
    #: the scalar body ``evaluator`` was derived from, if there is one
    scalar: Optional[Callable[..., Optional[AtomicValue]]] = None

    def static_result_type(self, arg_types: list[SequenceType]) -> SequenceType:
        if callable(self.result_type):
            return self.result_type(arg_types)
        return self.result_type


_REGISTRY: dict[str, Builtin] = {}


def register(
    name: str,
    min_args: int,
    max_args: int,
    result_type,
    sql: tuple[str, str] | None = None,
    lazy: bool = False,
    scalar: bool = False,
):
    """Register the decorated function as builtin ``name``: its list form,
    or with ``scalar`` its body over atoms (see the module docstring)."""

    def wrap(fn):
        _REGISTRY[name] = Builtin(
            name, min_args, max_args, _list_form(name, fn) if scalar else fn,
            result_type, sql, lazy, fn if scalar else None)
        return fn

    return wrap


def _list_form(name: str, body: Callable) -> Evaluator:
    """The list form of a scalar builtin: every argument atomized to at
    most one atom — all of them, left to right, before the body sees any —
    and the body's atom, or nothing, as a list."""

    def evaluator(*args):
        result = body(*[_single_atomic(arg, name) for arg in args])
        return [] if result is None else [result]

    return evaluator


def is_builtin(name: str) -> bool:
    return name in _REGISTRY


def builtin(name: str) -> Builtin:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DynamicError(f"unknown function {name}") from None


def all_builtins() -> dict[str, Builtin]:
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Value helpers (shared with the runtime)
# ---------------------------------------------------------------------------


def atomize(items: Sequence[Item]) -> list[AtomicValue]:
    """fn:data over a sequence."""
    result: list[AtomicValue] = []
    for item in items:
        result.extend(item.atomize())
    return result


def effective_boolean_value(items: Sequence[Item]) -> bool:
    if not items:
        return False
    first = items[0]
    if isinstance(first, Node):
        return True
    if len(items) > 1:
        raise DynamicError("effective boolean value of multi-item atomic sequence")
    assert isinstance(first, AtomicValue)
    return atom_boolean_value(first)


def atom_boolean_value(atom: AtomicValue) -> bool:
    """The effective boolean value of a single atomic value."""
    value = atom.value
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and not (isinstance(value, float) and math.isnan(value))
    if isinstance(value, str):
        return len(value) > 0
    return True


def numeric_value(atom: AtomicValue) -> float | int:
    value = atom.value
    if type(value) is int or type(value) is float:  # the common case, first
        return value
    if isinstance(value, bool):
        raise DynamicError("boolean is not numeric")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                raise DynamicError(f"cannot treat {value!r} as a number") from None
    raise DynamicError(f"cannot treat {value!r} as a number")


def arithmetic_value(op: str, left: float | int, right: float | int) -> AtomicValue:
    """One binary arithmetic step over two numbers (``numeric_value``
    results): the only implementation, shared by the expression compiler
    and the reference interpreter under ``tests/``.  Exact for ``int`` operands of any size: ``idiv``
    truncates towards zero and ``mod`` takes the dividend's sign without a
    detour through floats."""
    if op == "+":
        value = left + right
    elif op == "-":
        value = left - right
    elif op == "*":
        value = left * right
    elif right == 0 and op in ("div", "idiv", "mod"):
        raise DynamicError("division by zero")
    elif op == "div":
        value = left / right
    elif op == "idiv":
        if isinstance(left, int) and isinstance(right, int):
            value = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                value = -value
        elif (left < 0) != (right < 0) and left % right:
            value = int(left / right)
        else:
            value = int(left // right)
    elif op == "mod":
        if isinstance(left, int) and isinstance(right, int):
            value = abs(left) % abs(right)
            if left < 0:
                value = -value
        else:
            value = math.fmod(left, right)
    else:
        raise DynamicError(f"unknown arithmetic operator {op}")
    return number_atom(value)


def number_atom(value: float | int) -> AtomicValue:
    """A computed number as an atom: an ``int`` is an ``xs:integer``, any
    other an ``xs:double``."""
    return AtomicValue(value, "xs:integer" if isinstance(value, int) else "xs:double")


def comparable_value(atom: AtomicValue):
    """Project an atomic value onto a comparable Python value."""
    value = atom.value
    if isinstance(value, str) and atom.type_name == "xs:untypedAtomic":
        return value
    return value


def compare_atomics(op: str, left: AtomicValue, right: AtomicValue) -> bool:
    lv, rv = left.value, right.value
    # untypedAtomic promotes to the other side's type for value comparison.
    if left.type_name == "xs:untypedAtomic" and isinstance(rv, (int, float)) and not isinstance(rv, bool):
        lv = numeric_value(left)
    if right.type_name == "xs:untypedAtomic" and isinstance(lv, (int, float)) and not isinstance(lv, bool):
        rv = numeric_value(right)
    if isinstance(lv, bool) != isinstance(rv, bool):
        raise DynamicError(f"cannot compare {left.type_name} with {right.type_name}")
    if isinstance(lv, str) != isinstance(rv, str):
        raise DynamicError(f"cannot compare {left.type_name} with {right.type_name}")
    if op == "eq":
        return lv == rv
    if op == "ne":
        return lv != rv
    if op == "lt":
        return lv < rv
    if op == "le":
        return lv <= rv
    if op == "gt":
        return lv > rv
    if op == "ge":
        return lv >= rv
    raise DynamicError(f"unknown comparison operator {op}")


def _single_atomic(args: Sequence[Item], name: str) -> AtomicValue | None:
    """The one atom of an argument given as an item list, None when it is
    empty: what the list form of a scalar builtin (:func:`_list_form`) hands
    the body, and how the non-scalar builtins — ``fn:subsequence``,
    ``insert-before``, ``remove``, ``string-join``, ``tokenize``, whose
    first parameter is a sequence — read their scalar parameters."""
    atoms = atomize(args)
    if len(atoms) > 1:
        raise DynamicError(f"{name}: sequence of more than one item")
    return atoms[0] if atoms else None


def _required(atom: AtomicValue | None, name: str) -> AtomicValue:
    if atom is None:
        raise DynamicError(f"{name}: empty sequence not allowed")
    return atom


def _rounded(atom: AtomicValue | None, name: str) -> int:
    """A required numeric parameter, rounded to the nearest integer."""
    return int(round(float(numeric_value(_required(atom, name)))))


def _text(atom: AtomicValue | None) -> str:
    """A string parameter: the empty sequence reads as the empty string."""
    return "" if atom is None else atom.string_value()


def _string_of(args: Sequence[Item], name: str) -> str:
    return _text(_single_atomic(args, name))


# ---------------------------------------------------------------------------
# General / sequence functions
# ---------------------------------------------------------------------------


@register("fn:data", 1, 1, ITEM_STAR, sql=("special", "data"))
def _fn_data(arg):
    return list(atomize(arg))


@register("fn:count", 1, 1, atomic("xs:integer"), sql=("agg", "COUNT"))
def _fn_count(arg):
    return [AtomicValue(len(arg), "xs:integer")]


@register("fn:empty", 1, 1, atomic("xs:boolean"), sql=("special", "empty"))
def _fn_empty(arg):
    return [AtomicValue(len(arg) == 0, "xs:boolean")]


@register("fn:exists", 1, 1, atomic("xs:boolean"), sql=("special", "exists"))
def _fn_exists(arg):
    return [AtomicValue(len(arg) > 0, "xs:boolean")]


@register("fn:not", 1, 1, atomic("xs:boolean"), sql=("special", "not"))
def _fn_not(arg):
    return [AtomicValue(not effective_boolean_value(arg), "xs:boolean")]


@register("fn:boolean", 1, 1, atomic("xs:boolean"))
def _fn_boolean(arg):
    return [AtomicValue(effective_boolean_value(arg), "xs:boolean")]


@register("fn:true", 0, 0, atomic("xs:boolean"), sql=("special", "true"))
def _fn_true():
    return [AtomicValue(True, "xs:boolean")]


@register("fn:false", 0, 0, atomic("xs:boolean"), sql=("special", "false"))
def _fn_false():
    return [AtomicValue(False, "xs:boolean")]


def _agg_type(arg_types: list[SequenceType]) -> SequenceType:
    if arg_types and arg_types[0].alternatives:
        alt = arg_types[0].alternatives[0]
        if isinstance(alt, AtomicItemType) and is_numeric(alt.name):
            return SequenceType((alt,), Occurrence.OPTIONAL)
    return SequenceType((AtomicItemType("xs:anyAtomicType"),), Occurrence.OPTIONAL)


@register("fn:sum", 1, 2, _agg_type, sql=("agg", "SUM"))
def _fn_sum(arg, zero=None):
    atoms = atomize(arg)
    if not atoms:
        return list(zero) if zero is not None else [AtomicValue(0, "xs:integer")]
    return [number_atom(sum(numeric_value(a) for a in atoms))]


@register("fn:avg", 1, 1, _agg_type, sql=("agg", "AVG"))
def _fn_avg(arg):
    atoms = atomize(arg)
    if not atoms:
        return []
    return [AtomicValue(sum(numeric_value(a) for a in atoms) / len(atoms), "xs:double")]


@register("fn:min", 1, 1, _agg_type, sql=("agg", "MIN"))
def _fn_min(arg):
    atoms = atomize(arg)
    if not atoms:
        return []
    return [min(atoms, key=comparable_value)]


@register("fn:max", 1, 1, _agg_type, sql=("agg", "MAX"))
def _fn_max(arg):
    atoms = atomize(arg)
    if not atoms:
        return []
    return [max(atoms, key=comparable_value)]


@register("fn:distinct-values", 1, 1, ITEM_STAR, sql=("special", "distinct"))
def _fn_distinct_values(arg):
    seen = set()
    result = []
    for atom in atomize(arg):
        key = (atom.value if not isinstance(atom.value, bool) else (atom.value,),)
        if key not in seen:
            seen.add(key)
            result.append(atom)
    return result


@register("fn:subsequence", 2, 3, ITEM_STAR, sql=("special", "subsequence"))
def _fn_subsequence(arg, start, length=None):
    begin = _rounded(_single_atomic(start, "fn:subsequence"), "fn:subsequence")
    if length is None:
        return list(arg[max(0, begin - 1):])
    count = _rounded(_single_atomic(length, "fn:subsequence"), "fn:subsequence")
    lo = max(0, begin - 1)
    hi = max(lo, begin - 1 + count)
    return list(arg[lo:hi])


@register("fn:reverse", 1, 1, ITEM_STAR)
def _fn_reverse(arg):
    return list(reversed(arg))


@register("fn:insert-before", 3, 3, ITEM_STAR)
def _fn_insert_before(target, position, inserts):
    pos_atom = _required(_single_atomic(position, "fn:insert-before"), "fn:insert-before")
    index = max(0, int(numeric_value(pos_atom)) - 1)
    return list(target[:index]) + list(inserts) + list(target[index:])


@register("fn:remove", 2, 2, ITEM_STAR)
def _fn_remove(target, position):
    pos_atom = _required(_single_atomic(position, "fn:remove"), "fn:remove")
    index = int(numeric_value(pos_atom)) - 1
    return [item for i, item in enumerate(target) if i != index]


@register("fn:zero-or-one", 1, 1, ITEM_STAR)
def _fn_zero_or_one(arg):
    if len(arg) > 1:
        raise DynamicError("fn:zero-or-one: more than one item")
    return list(arg)


@register("fn:exactly-one", 1, 1, ITEM_STAR)
def _fn_exactly_one(arg):
    if len(arg) != 1:
        raise DynamicError("fn:exactly-one: not exactly one item")
    return list(arg)


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


@register("fn:string", 0, 1, atomic("xs:string"))
def _fn_string(arg=None):
    if arg is None or not arg:
        return [AtomicValue("", "xs:string")]
    if len(arg) > 1:
        raise DynamicError("fn:string: more than one item")
    return [AtomicValue(arg[0].string_value(), "xs:string")]


@register("fn:concat", 2, 99, atomic("xs:string"), sql=("special", "concat"), scalar=True)
def _fn_concat(*atoms):
    return AtomicValue("".join([atom.string_value() for atom in atoms if atom is not None]),
                       "xs:string")


@register("fn:string-join", 2, 2, atomic("xs:string"))
def _fn_string_join(seq, sep):
    separator = _string_of(sep, "fn:string-join")
    return [AtomicValue(separator.join(a.string_value() for a in atomize(seq)), "xs:string")]


@register("fn:string-length", 0, 1, atomic("xs:integer"), sql=("func", "LENGTH"), scalar=True)
def _fn_string_length(atom=None):
    return AtomicValue(len(_text(atom)), "xs:integer")


@register("fn:upper-case", 1, 1, atomic("xs:string"), sql=("func", "UPPER"), scalar=True)
def _fn_upper_case(atom):
    return AtomicValue(_text(atom).upper(), "xs:string")


@register("fn:lower-case", 1, 1, atomic("xs:string"), sql=("func", "LOWER"), scalar=True)
def _fn_lower_case(atom):
    return AtomicValue(_text(atom).lower(), "xs:string")


@register("fn:contains", 2, 2, atomic("xs:boolean"), sql=("special", "contains"), scalar=True)
def _fn_contains(haystack, needle):
    return AtomicValue(_text(needle) in _text(haystack), "xs:boolean")


@register("fn:starts-with", 2, 2, atomic("xs:boolean"), sql=("special", "starts-with"),
          scalar=True)
def _fn_starts_with(haystack, needle):
    return AtomicValue(_text(haystack).startswith(_text(needle)), "xs:boolean")


@register("fn:ends-with", 2, 2, atomic("xs:boolean"), sql=("special", "ends-with"),
          scalar=True)
def _fn_ends_with(haystack, needle):
    return AtomicValue(_text(haystack).endswith(_text(needle)), "xs:boolean")


@register("fn:substring", 2, 3, atomic("xs:string"), sql=("func", "SUBSTR"), scalar=True)
def _fn_substring(source, start, *length):  # (an empty length is not an absent one)
    text = _text(source)
    begin = _rounded(start, "fn:substring")
    lo = max(0, begin - 1)
    if not length:
        return AtomicValue(text[lo:], "xs:string")
    hi = max(lo, begin - 1 + _rounded(length[0], "fn:substring"))
    return AtomicValue(text[lo:hi], "xs:string")


@register("fn:substring-before", 2, 2, atomic("xs:string"), scalar=True)
def _fn_substring_before(source, sep):
    text, needle = _text(source), _text(sep)
    index = text.find(needle) if needle else -1
    return AtomicValue(text[:index] if index >= 0 else "", "xs:string")


@register("fn:substring-after", 2, 2, atomic("xs:string"), scalar=True)
def _fn_substring_after(source, sep):
    text, needle = _text(source), _text(sep)
    index = text.find(needle) if needle else -1
    return AtomicValue(text[index + len(needle):] if index >= 0 else "", "xs:string")


@register("fn:normalize-space", 0, 1, atomic("xs:string"), scalar=True)
def _fn_normalize_space(atom=None):
    return AtomicValue(" ".join(_text(atom).split()), "xs:string")


def _xpath_regex(pattern: str, flags: str):
    import re as _re

    compiled_flags = 0
    for flag in flags:
        if flag == "i":
            compiled_flags |= _re.IGNORECASE
        elif flag == "s":
            compiled_flags |= _re.DOTALL
        elif flag == "m":
            compiled_flags |= _re.MULTILINE
        elif flag == "x":
            compiled_flags |= _re.VERBOSE
        else:
            raise DynamicError(f"unsupported regex flag {flag!r}")
    try:
        return _re.compile(pattern, compiled_flags)
    except _re.error as exc:
        raise DynamicError(f"invalid regular expression {pattern!r}: {exc}") from exc


@register("fn:matches", 2, 3, atomic("xs:boolean"), scalar=True)
def _fn_matches(text, pattern, flags=None):
    regex = _xpath_regex(_text(pattern), _text(flags))
    return AtomicValue(regex.search(_text(text)) is not None, "xs:boolean")


@register("fn:replace", 3, 4, atomic("xs:string"), scalar=True)
def _fn_replace(text, pattern, replacement, flags=None):
    regex = _xpath_regex(_text(pattern), _text(flags))
    # XPath uses $1..$9 for group references; translate to \1..\9.
    import re as _re

    repl = _re.sub(r"\$(\d)", r"\\\1", _text(replacement))
    return AtomicValue(regex.sub(repl, _text(text)), "xs:string")


@register("fn:tokenize", 2, 3, SequenceType((AtomicItemType("xs:string"),), Occurrence.STAR))
def _fn_tokenize(text, pattern, flags=None):
    regex = _xpath_regex(_string_of(pattern, "fn:tokenize"),
                         _string_of(flags or [], "fn:tokenize"))
    source = _string_of(text, "fn:tokenize")
    if not source:
        return []
    return [AtomicValue(part, "xs:string") for part in regex.split(source)]


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------


def _numeric_unary_type(arg_types: list[SequenceType]) -> SequenceType:
    if arg_types and arg_types[0].alternatives:
        alt = arg_types[0].alternatives[0]
        if isinstance(alt, AtomicItemType) and is_numeric(alt.name):
            return SequenceType((alt,), Occurrence.OPTIONAL)
    return SequenceType((AtomicItemType("xs:double"),), Occurrence.OPTIONAL)


@register("fn:abs", 1, 1, _numeric_unary_type, sql=("func", "ABS"), scalar=True)
def _fn_abs(atom):
    if atom is None:
        return None
    return AtomicValue(abs(numeric_value(atom)), atom.type_name)


@register("fn:floor", 1, 1, _numeric_unary_type, sql=("func", "FLOOR"), scalar=True)
def _fn_floor(atom):
    if atom is None:
        return None
    return AtomicValue(math.floor(numeric_value(atom)), "xs:integer")


@register("fn:ceiling", 1, 1, _numeric_unary_type, sql=("func", "CEIL"), scalar=True)
def _fn_ceiling(atom):
    if atom is None:
        return None
    return AtomicValue(math.ceil(numeric_value(atom)), "xs:integer")


@register("fn:round", 1, 1, _numeric_unary_type, sql=("func", "ROUND"), scalar=True)
def _fn_round(atom):
    if atom is None:
        return None
    return AtomicValue(math.floor(numeric_value(atom) + 0.5), "xs:integer")


@register("fn:number", 0, 1, atomic("xs:double"), scalar=True)
def _fn_number(atom=None):
    try:
        value = math.nan if atom is None else float(numeric_value(atom))
    except DynamicError:
        value = math.nan
    return AtomicValue(value, "xs:double")


# ---------------------------------------------------------------------------
# Context functions (evaluated by the engine against the focus)
# ---------------------------------------------------------------------------

register("fn:position", 0, 0, atomic("xs:integer"), lazy=True)(None)
register("fn:last", 0, 0, atomic("xs:integer"), lazy=True)(None)

# ---------------------------------------------------------------------------
# ALDSP service-quality extensions (handled lazily by the evaluator)
# ---------------------------------------------------------------------------

register("fn-bea:async", 1, 1, ITEM_STAR, lazy=True)(None)
register("fn-bea:fail-over", 2, 2, ITEM_STAR, lazy=True)(None)
register("fn-bea:timeout", 3, 3, ITEM_STAR, lazy=True)(None)
