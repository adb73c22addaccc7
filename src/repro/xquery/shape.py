"""Query shapes: a query text with its literal *candidates* cut out.

The plan cache (:class:`repro.compiler.pipeline.PlanCache`) keys plans by
shape, so an unseen constant costs a scan and a lookup instead of a
compile.  Three pieces:

* :func:`scan` — one compiled-regex pass, no lexer: every maximal run that
  *looks like* a string or numeric literal is a candidate, replaced in the
  shape key by a typed placeholder.  The scan may be wrong (a digit run in
  element content, a quote in a comment) but never lossy:
  ``rebuild(*scan(text)) == text`` for every text.
* :func:`lift` — after a real parse: a candidate becomes a parameter only
  when the parser made a :class:`~repro.xquery.ast_nodes.Literal` of
  exactly its span and value *in a liftable position*; the literal is
  replaced by a reference to a reserved external ``$#litK``.  Every other
  candidate stays *pinned* (its text is part of the cache key).
* :func:`bind_value` — the typed value of a lifted candidate, by the
  parser's own rule.

The candidate rules are the lexer's token rules (same number pattern,
same doubled-quote escape), and the placeholder records the quote
character, so within one shape a lifted candidate is one whole literal
token in every text — the parse of an unseen text of a known shape is the
cached one with other literal values.
"""

from __future__ import annotations

import re

from ..xml.items import AtomicValue
from . import ast_nodes as ast
from .lexer import NUMBER_PATTERN, string_value
from .parser import LIFTED_PREFIX

_MARK = "\x00"
#: key prefix of a text that holds the mark itself: never shaped
_OPAQUE = _MARK + "!"

# One capturing group, so ``split`` alternates fixed text and candidates.
# A number is not a candidate inside a name (``C1``, ``$x2``, ``t-1``).
_CANDIDATE_RE = re.compile(
    r'''("(?:[^"]|"")*"|'(?:[^']|'')*'|(?<![\w.\-:])'''
    + NUMBER_PATTERN.replace("(", "(?:") + ")"
)

#: placeholder kind -> (xs: type, raw text -> Python value)
_KINDS = {
    '"': ("xs:string", string_value),
    "'": ("xs:string", string_value),
    "i": ("xs:integer", int),
    "d": ("xs:decimal", float),
    "e": ("xs:double", float),
}


def _kind(raw: str) -> str:
    first = raw[0]
    if first == '"' or first == "'":
        return first
    if "e" in raw or "E" in raw:
        return "e"
    return "d" if "." in raw else "i"


def scan(text: str) -> tuple[str, list[str]]:
    """``(shape key, candidates as written)``.  Two texts share a key iff
    they differ only inside candidates of the same kinds."""
    if _MARK in text:
        return _OPAQUE + text, []
    parts = _CANDIDATE_RE.split(text)
    candidates = parts[1::2]
    parts[1::2] = [_MARK + _kind(raw) for raw in candidates]
    return "".join(parts), candidates


def rebuild(key: str, candidates: list[str]) -> str:
    """The text :func:`scan` made ``key`` from, given its candidates (or
    any other rendering of each)."""
    if key.startswith(_OPAQUE):
        return key[len(_OPAQUE):]
    pieces = key.split(_MARK)
    out = [pieces[0]]
    for raw, piece in zip(candidates, pieces[1:]):
        out.append(raw)
        out.append(piece[1:])
    return "".join(out)


def kinds(key: str) -> list[str]:
    """The placeholder kind of each candidate of a shape key."""
    if key.startswith(_OPAQUE):
        return []
    return [piece[0] for piece in key.split(_MARK)[1:]]


def bind_value(kind: str, raw: str) -> AtomicValue:
    """The typed value of a candidate of placeholder ``kind``."""
    type_name, convert = _KINDS[kind]
    return AtomicValue(convert(raw), type_name)


def lifted_name(k: int) -> str:
    return f"{LIFTED_PREFIX}{k}"


def _literal_items(node: ast.AstNode) -> list[ast.Literal]:
    """The literals of a literal or a sequence of nothing but literals."""
    if isinstance(node, ast.Literal):
        return [node]
    if isinstance(node, ast.SequenceExpr) and node.items and \
            all(isinstance(item, ast.Literal) for item in node.items):
        return list(node.items)
    return []


def _liftable(expr: ast.AstNode) -> set[int]:
    """``id`` of every literal in a liftable position: an operand of a
    comparison whose other operand is no literal, an argument of a
    data-service (unprefixed, non-builtin) function call, or an item of a
    literal sequence in one of those or in a ``for``/quantifier binding.
    Everything else (predicates ``[1]``, ``to`` bounds, builtin
    arguments, arithmetic, constructor content) is pinned."""
    found: set[int] = set()
    for node in expr.walk():
        if isinstance(node, ast.Comparison):
            left, right = _literal_items(node.left), _literal_items(node.right)
            if bool(left) != bool(right):
                found.update(map(id, left or right))
        elif isinstance(node, ast.FunctionCall):
            if ":" not in node.name:
                for arg in node.args:
                    found.update(map(id, _literal_items(arg)))
        elif isinstance(node, ast.ForClause):
            if isinstance(node.expr, ast.SequenceExpr):
                found.update(map(id, _literal_items(node.expr)))
        elif isinstance(node, ast.Quantified):
            for _var, binding in node.bindings:
                if isinstance(binding, ast.SequenceExpr):
                    found.update(map(id, _literal_items(binding)))
    return found


def lift(expr: ast.AstNode, literals: list[tuple[int, int, ast.Literal]],
         text: str) -> tuple[ast.AstNode, list[int]]:
    """Replace, in ``expr`` freshly parsed from ``text``, every liftable
    literal that is exactly one scan candidate by ``$#litK`` (K in source
    order).

    ``literals`` is :attr:`Parser.literals`.  Returns the tree and the
    candidate index behind each K."""
    if _MARK in text:
        return expr, []
    spans = {match.span(): index for index, match
             in enumerate(_CANDIDATE_RE.finditer(text))}
    liftable = _liftable(expr)
    names: dict[int, str] = {}
    lifted: list[int] = []
    for start, end, literal in literals:
        index = spans.get((start, end))
        if index is None or id(literal) not in liftable:
            continue
        raw = text[start:end]
        if bind_value(_kind(raw), raw) != literal.value:
            continue
        names[id(literal)] = lifted_name(len(lifted))
        lifted.append(index)

    def swap(node: ast.AstNode) -> ast.AstNode:
        name = names.get(id(node))
        if name is not None:
            return ast.VarRef(name)
        return node.transform_children(swap)

    return (swap(expr) if names else expr), lifted
