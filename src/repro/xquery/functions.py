"""Built-in XQuery function library (``fn:``) plus ALDSP's ``fn-bea:``
extensions (sections 5.4 and 5.6).

Each builtin records:

* an evaluator over materialized argument sequences,
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
):
    def wrap(fn: Evaluator) -> Evaluator:
        _REGISTRY[name] = Builtin(name, min_args, max_args, fn, result_type, sql, lazy)
        return fn

    return wrap


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


def _single_atomic(args: Sequence[Item], name: str, allow_empty: bool = False) -> AtomicValue | None:
    atoms = atomize(args)
    if not atoms:
        if allow_empty:
            return None
        raise DynamicError(f"{name}: empty sequence not allowed")
    if len(atoms) > 1:
        raise DynamicError(f"{name}: sequence of more than one item")
    return atoms[0]


def _string_of(args: Sequence[Item], name: str) -> str:
    atom = _single_atomic(args, name, allow_empty=True)
    return "" if atom is None else atom.string_value()


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
    total = sum(numeric_value(a) for a in atoms)
    type_name = "xs:integer" if isinstance(total, int) else "xs:double"
    return [AtomicValue(total, type_name)]


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
    start_atom = _single_atomic(start, "fn:subsequence")
    begin = int(round(float(numeric_value(start_atom))))
    if length is None:
        return list(arg[max(0, begin - 1):])
    length_atom = _single_atomic(length, "fn:subsequence")
    count = int(round(float(numeric_value(length_atom))))
    lo = max(0, begin - 1)
    hi = max(lo, begin - 1 + count)
    return list(arg[lo:hi])


@register("fn:reverse", 1, 1, ITEM_STAR)
def _fn_reverse(arg):
    return list(reversed(arg))


@register("fn:insert-before", 3, 3, ITEM_STAR)
def _fn_insert_before(target, position, inserts):
    pos_atom = _single_atomic(position, "fn:insert-before")
    index = max(0, int(numeric_value(pos_atom)) - 1)
    return list(target[:index]) + list(inserts) + list(target[index:])


@register("fn:remove", 2, 2, ITEM_STAR)
def _fn_remove(target, position):
    pos_atom = _single_atomic(position, "fn:remove")
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


@register("fn:concat", 2, 99, atomic("xs:string"), sql=("special", "concat"))
def _fn_concat(*args):
    return [AtomicValue("".join(_string_of(a, "fn:concat") for a in args), "xs:string")]


@register("fn:string-join", 2, 2, atomic("xs:string"))
def _fn_string_join(seq, sep):
    separator = _string_of(sep, "fn:string-join")
    return [AtomicValue(separator.join(a.string_value() for a in atomize(seq)), "xs:string")]


@register("fn:string-length", 0, 1, atomic("xs:integer"), sql=("func", "LENGTH"))
def _fn_string_length(arg=None):
    return [AtomicValue(len(_string_of(arg or [], "fn:string-length")), "xs:integer")]


@register("fn:upper-case", 1, 1, atomic("xs:string"), sql=("func", "UPPER"))
def _fn_upper_case(arg):
    return [AtomicValue(_string_of(arg, "fn:upper-case").upper(), "xs:string")]


@register("fn:lower-case", 1, 1, atomic("xs:string"), sql=("func", "LOWER"))
def _fn_lower_case(arg):
    return [AtomicValue(_string_of(arg, "fn:lower-case").lower(), "xs:string")]


@register("fn:contains", 2, 2, atomic("xs:boolean"), sql=("special", "contains"))
def _fn_contains(haystack, needle):
    return [AtomicValue(
        _string_of(needle, "fn:contains") in _string_of(haystack, "fn:contains"),
        "xs:boolean",
    )]


@register("fn:starts-with", 2, 2, atomic("xs:boolean"), sql=("special", "starts-with"))
def _fn_starts_with(haystack, needle):
    return [AtomicValue(
        _string_of(haystack, "fn:starts-with").startswith(_string_of(needle, "fn:starts-with")),
        "xs:boolean",
    )]


@register("fn:ends-with", 2, 2, atomic("xs:boolean"), sql=("special", "ends-with"))
def _fn_ends_with(haystack, needle):
    return [AtomicValue(
        _string_of(haystack, "fn:ends-with").endswith(_string_of(needle, "fn:ends-with")),
        "xs:boolean",
    )]


@register("fn:substring", 2, 3, atomic("xs:string"), sql=("func", "SUBSTR"))
def _fn_substring(source, start, length=None):
    text = _string_of(source, "fn:substring")
    begin = int(round(float(numeric_value(_single_atomic(start, "fn:substring")))))
    lo = max(0, begin - 1)
    if length is None:
        return [AtomicValue(text[lo:], "xs:string")]
    count = int(round(float(numeric_value(_single_atomic(length, "fn:substring")))))
    hi = max(lo, begin - 1 + count)
    return [AtomicValue(text[lo:hi], "xs:string")]


@register("fn:substring-before", 2, 2, atomic("xs:string"))
def _fn_substring_before(source, sep):
    text = _string_of(source, "fn:substring-before")
    needle = _string_of(sep, "fn:substring-before")
    index = text.find(needle) if needle else -1
    return [AtomicValue(text[:index] if index >= 0 else "", "xs:string")]


@register("fn:substring-after", 2, 2, atomic("xs:string"))
def _fn_substring_after(source, sep):
    text = _string_of(source, "fn:substring-after")
    needle = _string_of(sep, "fn:substring-after")
    index = text.find(needle) if needle else -1
    return [AtomicValue(text[index + len(needle):] if index >= 0 else "", "xs:string")]


@register("fn:normalize-space", 0, 1, atomic("xs:string"))
def _fn_normalize_space(arg=None):
    return [AtomicValue(" ".join(_string_of(arg or [], "fn:normalize-space").split()), "xs:string")]


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


@register("fn:matches", 2, 3, atomic("xs:boolean"))
def _fn_matches(text, pattern, flags=None):
    regex = _xpath_regex(_string_of(pattern, "fn:matches"),
                         _string_of(flags or [], "fn:matches"))
    return [AtomicValue(
        regex.search(_string_of(text, "fn:matches")) is not None, "xs:boolean"
    )]


@register("fn:replace", 3, 4, atomic("xs:string"))
def _fn_replace(text, pattern, replacement, flags=None):
    regex = _xpath_regex(_string_of(pattern, "fn:replace"),
                         _string_of(flags or [], "fn:replace"))
    # XPath uses $1..$9 for group references; translate to \1..\9.
    import re as _re

    repl = _re.sub(r"\$(\d)", r"\\\1", _string_of(replacement, "fn:replace"))
    return [AtomicValue(regex.sub(repl, _string_of(text, "fn:replace")), "xs:string")]


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


@register("fn:abs", 1, 1, _numeric_unary_type, sql=("func", "ABS"))
def _fn_abs(arg):
    atom = _single_atomic(arg, "fn:abs", allow_empty=True)
    if atom is None:
        return []
    return [AtomicValue(abs(numeric_value(atom)), atom.type_name)]


@register("fn:floor", 1, 1, _numeric_unary_type, sql=("func", "FLOOR"))
def _fn_floor(arg):
    atom = _single_atomic(arg, "fn:floor", allow_empty=True)
    if atom is None:
        return []
    return [AtomicValue(math.floor(numeric_value(atom)), "xs:integer")]


@register("fn:ceiling", 1, 1, _numeric_unary_type, sql=("func", "CEIL"))
def _fn_ceiling(arg):
    atom = _single_atomic(arg, "fn:ceiling", allow_empty=True)
    if atom is None:
        return []
    return [AtomicValue(math.ceil(numeric_value(atom)), "xs:integer")]


@register("fn:round", 1, 1, _numeric_unary_type, sql=("func", "ROUND"))
def _fn_round(arg):
    atom = _single_atomic(arg, "fn:round", allow_empty=True)
    if atom is None:
        return []
    return [AtomicValue(math.floor(numeric_value(atom) + 0.5), "xs:integer")]


@register("fn:number", 0, 1, atomic("xs:double"))
def _fn_number(arg=None):
    atom = _single_atomic(arg or [], "fn:number", allow_empty=True)
    if atom is None:
        return [AtomicValue(float("nan"), "xs:double")]
    try:
        return [AtomicValue(float(numeric_value(atom)), "xs:double")]
    except DynamicError:
        return [AtomicValue(float("nan"), "xs:double")]


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
