"""Recursive-descent parser for the ALDSP XQuery dialect.

Supports the data-centric subset of the July 2004 XQuery working draft used
throughout the paper, plus ALDSP's extensions (section 3.1):

* FLWGOR: the ``group ... by ...`` clause;
* optional construction ``<E?>`` / ``attr?="..."``;
* pragma comments ``(::pragma ... ::)`` attached to declarations;
* data-service files: a prolog full of function declarations with no query
  body.

Two error-handling modes (section 4.1): ``runtime`` fails on the first
error; ``design`` recovers — on a syntax error inside a prolog declaration
it skips to the next ``;`` and keeps going, retaining error-free function
signatures for use when analyzing other functions.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools

from ..errors import ParseError
from ..schema.types import (
    AnyItemType,
    AnyNodeType,
    AtomicItemType,
    AttributeItemType,
    ElementItemType,
    Occurrence,
    SequenceType,
    TextItemType,
    is_known_atomic,
)
from ..xml.items import AtomicValue
from . import ast_nodes as ast
from .lexer import DECIMAL, DOUBLE, EOF, INTEGER, NAME, STRING, SYMBOL, Lexer, LexToken

_COMPARISON_OPS = {
    "eq": ("eq", False), "ne": ("ne", False), "lt": ("lt", False),
    "le": ("le", False), "gt": ("gt", False), "ge": ("ge", False),
    "=": ("eq", True), "!=": ("ne", True), "<": ("lt", True),
    "<=": ("le", True), ">": ("gt", True), ">=": ("ge", True),
}

_RESERVED_FUNCTION_NAMES = {
    "if", "typeswitch", "element", "attribute", "text", "node", "item",
    "empty-sequence", "schema-element",
}

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

#: reserved prefix of the typed externals that lifted literals become
#: (:mod:`repro.xquery.shape`): ``#`` cannot be spelled in a query, and
#: :func:`fresh_var` never draws a name under it
LIFTED_PREFIX = "#lit"

#: process-global fallback counter, used only *outside* a compilation
#: scope (ad hoc parsing in tests, deploy-time initializer optimization)
_gensym = itertools.count(1)

#: per-compilation counter: installed by :func:`gensym_scope` at each
#: outermost compile so numbering restarts at 1 per compilation (and per
#: contextvars context, so concurrent compiles don't interleave draws)
_gensym_scope: contextvars.ContextVar = contextvars.ContextVar(
    "repro.gensym_scope", default=None
)


#: literal token kind -> the xs: type of its value
LITERAL_TYPES = {STRING: "xs:string", INTEGER: "xs:integer",
                 DECIMAL: "xs:decimal", DOUBLE: "xs:double"}


def literal_value(kind: str, value: str) -> AtomicValue:
    """The typed value of a literal token (``value`` is the token's: a
    string's is already unquoted)."""
    if kind == STRING:
        return AtomicValue(value, "xs:string")
    return AtomicValue(int(value) if kind == INTEGER else float(value),
                       LITERAL_TYPES[kind])


def fresh_var(prefix: str = "g") -> str:
    """Generate a compiler-internal variable name.

    Inside a :func:`gensym_scope` (any compiler entry point) numbering is
    scoped to the compilation; the process-global counter only backs
    direct parser/optimizer use outside a compile.
    """
    counter = _gensym_scope.get()
    if counter is None:
        counter = _gensym
    if prefix.startswith("lit"):
        prefix = "v" + prefix  # keep LIFTED_PREFIX out of the gensyms
    return f"#{prefix}{next(counter)}"


@contextlib.contextmanager
def gensym_scope():
    """Fresh, deterministic gensym numbering for one compilation.

    Only the *outermost* entry installs a new counter — nested compiles
    (view sub-optimization, module-variable initializers) keep drawing
    from the enclosing scope, so names stay unique within the compilation.
    """
    if _gensym_scope.get() is not None:
        yield
        return
    token = _gensym_scope.set(itertools.count(1))
    try:
        yield
    finally:
        _gensym_scope.reset(token)


def reset_gensym_scope(next_n: int) -> None:
    """Restart the active compilation scope's counter at ``next_n``.

    Called after gensym canonicalization so post-canonicalization passes
    (SQL pushdown's ``#ppk``/``#row`` variables) draw numbers that are a
    pure function of the canonical tree — independent of how many names
    earlier passes burned (e.g. cold vs warm view-plan cache)."""
    if _gensym_scope.get() is not None:
        _gensym_scope.set(itertools.count(next_n))


class Parser:
    def __init__(self, text: str, mode: str = "runtime"):
        if mode not in ("runtime", "design"):
            raise ValueError(f"bad parser mode {mode!r}")
        self.lexer = Lexer(text)
        self.mode = mode
        #: ``(start, end, node)`` of every :class:`~ast.Literal` made from
        #: a literal *token*, in source order (plan-shape lifting matches
        #: them against the scan's candidates)
        self.literals: list[tuple[int, int, ast.Literal]] = []
        self.tok: LexToken = self.lexer.next_token()

    # -- token plumbing -----------------------------------------------------

    def _advance(self) -> LexToken:
        previous = self.tok
        self.tok = self.lexer.next_token()
        return previous

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.tok.line, self.tok.column)

    def _at_symbol(self, *symbols: str) -> bool:
        return self.tok.kind == SYMBOL and self.tok.value in symbols

    def _at_name(self, *names: str) -> bool:
        return self.tok.kind == NAME and self.tok.value in names

    def _expect_symbol(self, symbol: str) -> LexToken:
        if not self._at_symbol(symbol):
            raise self._error(f"expected {symbol!r}, found {self.tok.value!r}")
        return self._advance()

    def _expect_name(self, *names: str) -> LexToken:
        if names and not self._at_name(*names):
            raise self._error(f"expected {' or '.join(names)}, found {self.tok.value!r}")
        if self.tok.kind != NAME:
            raise self._error(f"expected name, found {self.tok.value!r}")
        return self._advance()

    def _accept_symbol(self, symbol: str) -> bool:
        if self._at_symbol(symbol):
            self._advance()
            return True
        return False

    def _accept_name(self, *names: str) -> bool:
        if self._at_name(*names):
            self._advance()
            return True
        return False

    def _resync_to_semicolon(self) -> None:
        """Design-mode recovery: skip to just past the next ``;``."""
        while self.tok.kind != EOF:
            if self._at_symbol(";"):
                self._advance()
                return
            advanced = False
            while not advanced:
                try:
                    self._advance()
                    advanced = True
                except ParseError:
                    # Skip the offending character entirely.
                    self.lexer.seek(self.lexer.char_pos + 1)

    # -- module / prolog ----------------------------------------------------

    def parse_module(self) -> ast.Module:
        module = ast.Module()
        self._maybe_version_decl()
        while True:
            pragmas = self.lexer.drain_pragmas()
            if self.tok.kind == EOF:
                module.pragmas.extend(pragmas)
                return module
            if not self._at_name("declare", "import"):
                break
            try:
                self._parse_declaration(module, pragmas)
                self._expect_symbol(";")
            except ParseError as exc:
                if self.mode == "runtime":
                    raise
                module.errors.append(str(exc))
                self._resync_to_semicolon()
        if self.tok.kind != EOF:
            pragmas = self.lexer.drain_pragmas()
            module.pragmas.extend(pragmas)
            try:
                module.query_body = self.parse_expr()
            except ParseError:
                if self.mode == "runtime":
                    raise
                module.errors.append("unparsable query body")
                module.query_body = ast.ErrorExpr("unparsable query body")
                return module
            if self.tok.kind != EOF:
                error = self._error(f"unexpected trailing token {self.tok.value!r}")
                if self.mode == "runtime":
                    raise error
                module.errors.append(str(error))
        return module

    def parse_main_expression(self) -> ast.AstNode:
        """Parse a stand-alone expression (ad hoc query body)."""
        self._maybe_version_decl()
        expr = self.parse_expr()
        if self.tok.kind != EOF:
            raise self._error(f"unexpected trailing token {self.tok.value!r}")
        return expr

    def _maybe_version_decl(self) -> None:
        if self._at_name("xquery"):
            self._advance()
            self._expect_name("version")
            if self.tok.kind != STRING:
                raise self._error("expected version string")
            self._advance()
            if self._accept_name("encoding"):
                if self.tok.kind != STRING:
                    raise self._error("expected encoding string")
                self._advance()
            self._expect_symbol(";")

    def _parse_declaration(self, module: ast.Module, pragmas) -> None:
        if self._accept_name("import"):
            self._expect_name("schema")
            if self._accept_name("namespace"):
                prefix = self._expect_name().value
                self._expect_symbol("=")
            else:
                prefix = None
            if self.tok.kind != STRING:
                raise self._error("expected namespace URI string")
            uri = self._advance().value
            if prefix:
                module.namespaces[prefix] = uri
            module.schema_imports.append(uri)
            while self._accept_name("at"):
                if self.tok.kind != STRING:
                    raise self._error("expected location string")
                self._advance()
            return
        self._expect_name("declare")
        if self._accept_name("namespace"):
            prefix = self._expect_name().value
            self._expect_symbol("=")
            if self.tok.kind != STRING:
                raise self._error("expected namespace URI string")
            module.namespaces[prefix] = self._advance().value
            return
        if self._accept_name("default"):
            self._expect_name("element")
            self._expect_name("namespace")
            if self.tok.kind != STRING:
                raise self._error("expected namespace URI string")
            module.namespaces[""] = self._advance().value
            return
        if self._accept_name("variable"):
            self._expect_symbol("$")
            name = ast.local_name(self._expect_name().value)
            declared = self._parse_optional_type()
            if self._accept_name("external"):
                module.variables[name] = ast.VariableDecl(name, declared, None, True)
                return
            self._expect_symbol(":=")
            value = self.parse_expr_single()
            module.variables[name] = ast.VariableDecl(name, declared, value, False)
            return
        if self._accept_name("function"):
            decl = self._parse_function_decl(pragmas)
            module.declare_function(decl)
            return
        if self._accept_name("boundary-space", "construction", "ordering"):
            self._expect_name()  # the chosen policy word
            return
        raise self._error(f"unsupported declaration {self.tok.value!r}")

    def _parse_function_decl(self, pragmas) -> ast.FunctionDecl:
        name = ast.local_name(self._expect_name().value)
        self._expect_symbol("(")
        params: list[ast.Param] = []
        if not self._at_symbol(")"):
            while True:
                self._expect_symbol("$")
                pname = ast.local_name(self._expect_name().value)
                ptype = self._parse_optional_type()
                params.append(ast.Param(pname, ptype))
                if not self._accept_symbol(","):
                    break
        self._expect_symbol(")")
        return_type = self._parse_optional_type()
        if self._accept_name("external"):
            return ast.FunctionDecl(name, params, return_type, None, pragmas, external=True)
        self._expect_symbol("{")
        body = self.parse_expr()
        self._expect_symbol("}")
        return ast.FunctionDecl(name, params, return_type, body, pragmas)

    def _parse_optional_type(self) -> SequenceType | None:
        if self._accept_name("as"):
            return self.parse_sequence_type()
        return None

    # -- sequence types -----------------------------------------------------

    def parse_sequence_type(self) -> SequenceType:
        if self._at_name("empty-sequence"):
            self._advance()
            self._expect_symbol("(")
            self._expect_symbol(")")
            return SequenceType(())
        item_type = self._parse_item_type()
        occurrence = Occurrence.ONE
        if self._at_symbol("?"):
            self._advance()
            occurrence = Occurrence.OPTIONAL
        elif self._at_symbol("*"):
            self._advance()
            occurrence = Occurrence.STAR
        elif self._at_symbol("+"):
            self._advance()
            occurrence = Occurrence.PLUS
        return SequenceType((item_type,), occurrence)

    def _parse_item_type(self):
        if self.tok.kind != NAME:
            raise self._error(f"expected item type, found {self.tok.value!r}")
        word = self.tok.value
        if word in ("item", "node", "text") and self._peek_is_paren():
            self._advance()
            self._expect_symbol("(")
            self._expect_symbol(")")
            return {"item": AnyItemType(), "node": AnyNodeType(), "text": TextItemType()}[word]
        if word in ("element", "schema-element") and self._peek_is_paren():
            self._advance()
            self._expect_symbol("(")
            name = None
            if self.tok.kind == NAME:
                name = ast.local_name(self._advance().value)
                if self._accept_symbol(","):
                    self._expect_name()  # content type name: ignored (ANYTYPE)
            elif self._accept_symbol("*"):
                name = None
            self._expect_symbol(")")
            return ElementItemType(name)
        if word == "attribute" and self._peek_is_paren():
            self._advance()
            self._expect_symbol("(")
            name = None
            type_name = "xs:anyAtomicType"
            if self.tok.kind == NAME:
                name = ast.local_name(self._advance().value)
                if self._accept_symbol(","):
                    type_name = self._expect_name().value
            self._expect_symbol(")")
            return AttributeItemType(name, type_name)
        # Atomic type name.
        self._advance()
        if not is_known_atomic(word):
            raise ParseError(f"unknown atomic type {word}", self.tok.line, self.tok.column)
        return AtomicItemType(word)

    def _peek_is_paren(self) -> bool:
        saved_pos = self.lexer.char_pos
        saved_tok = self.tok
        self._advance()
        result = self._at_symbol("(")
        self.lexer.seek(saved_tok.pos)
        self.tok = self.lexer.next_token()
        assert self.lexer.char_pos >= saved_pos or True
        return result

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> ast.AstNode:
        first = self.parse_expr_single()
        if not self._at_symbol(","):
            return first
        items = [first]
        while self._accept_symbol(","):
            items.append(self.parse_expr_single())
        return ast.SequenceExpr(items)

    def parse_expr_single(self) -> ast.AstNode:
        if self._at_name("for", "let"):
            return self._parse_flwor()
        if self._at_name("some", "every"):
            return self._parse_quantified()
        if self._at_name("if") and self._peek_is_paren():
            return self._parse_if()
        if self._at_name("typeswitch") and self._peek_is_paren():
            return self._parse_typeswitch()
        return self._parse_or()

    def _parse_typeswitch(self) -> ast.AstNode:
        self._expect_name("typeswitch")
        self._expect_symbol("(")
        operand = self.parse_expr()
        self._expect_symbol(")")
        cases: list[tuple[str | None, SequenceType, ast.AstNode]] = []
        while self._at_name("case"):
            self._advance()
            var = None
            if self._accept_symbol("$"):
                var = ast.local_name(self._expect_name().value)
                self._expect_name("as")
            case_type = self.parse_sequence_type()
            self._expect_name("return")
            cases.append((var, case_type, self.parse_expr_single()))
        if not cases:
            raise self._error("typeswitch requires at least one case")
        self._expect_name("default")
        default_var = None
        if self._accept_symbol("$"):
            default_var = ast.local_name(self._expect_name().value)
        self._expect_name("return")
        default_expr = self.parse_expr_single()
        return ast.TypeswitchExpr(operand, cases, default_var, default_expr)

    def _parse_flwor(self) -> ast.AstNode:
        line = self.tok.line
        clauses: list[ast.Clause] = []
        while self._at_name("for", "let"):
            keyword = self._advance().value
            while True:
                self._expect_symbol("$")
                var = ast.local_name(self._expect_name().value)
                declared = self._parse_optional_type()
                if keyword == "for":
                    pos_var = None
                    if self._accept_name("at"):
                        self._expect_symbol("$")
                        pos_var = ast.local_name(self._expect_name().value)
                    self._expect_name("in")
                    expr = self.parse_expr_single()
                    clauses.append(ast.ForClause(var, expr, pos_var, declared))
                else:
                    self._expect_symbol(":=")
                    expr = self.parse_expr_single()
                    clauses.append(ast.LetClause(var, expr, declared))
                if not self._accept_symbol(","):
                    break
        if self._accept_name("where"):
            clauses.append(ast.WhereClause(self.parse_expr_single()))
        if self._at_name("group"):
            clauses.append(self._parse_group_clause())
        if self._at_name("stable"):
            self._advance()
            self._expect_name("order")
            self._expect_name("by")
            clauses.append(self._parse_order_by())
        elif self._at_name("order"):
            self._advance()
            self._expect_name("by")
            clauses.append(self._parse_order_by())
        self._expect_name("return")
        return_expr = self.parse_expr_single()
        return ast.FLWOR(clauses, return_expr).at(line)

    def _parse_group_clause(self) -> ast.GroupByClause:
        self._expect_name("group")
        grouped: list[tuple[str, str]] = []
        if self._at_symbol("$"):
            while True:
                self._expect_symbol("$")
                source = ast.local_name(self._expect_name().value)
                self._expect_name("as")
                self._expect_symbol("$")
                target = ast.local_name(self._expect_name().value)
                grouped.append((source, target))
                if not self._accept_symbol(","):
                    break
        self._expect_name("by")
        keys: list[tuple[ast.AstNode, str]] = []
        while True:
            key_expr = self.parse_expr_single()
            if self._accept_name("as"):
                self._expect_symbol("$")
                key_var = ast.local_name(self._expect_name().value)
            else:
                key_var = fresh_var("key")
            keys.append((key_expr, key_var))
            if not self._accept_symbol(","):
                break
        return ast.GroupByClause(grouped, keys)

    def _parse_order_by(self) -> ast.OrderByClause:
        specs: list[ast.OrderSpec] = []
        while True:
            key = self.parse_expr_single()
            descending = False
            if self._accept_name("ascending"):
                pass
            elif self._accept_name("descending"):
                descending = True
            empty_greatest = False
            if self._accept_name("empty"):
                if self._accept_name("greatest"):
                    empty_greatest = True
                else:
                    self._expect_name("least")
            specs.append(ast.OrderSpec(key, descending, empty_greatest))
            if not self._accept_symbol(","):
                break
        return ast.OrderByClause(specs)

    def _parse_quantified(self) -> ast.AstNode:
        kind = self._advance().value  # some | every
        bindings: list[tuple[str, ast.AstNode]] = []
        while True:
            self._expect_symbol("$")
            var = ast.local_name(self._expect_name().value)
            self._parse_optional_type()
            self._expect_name("in")
            bindings.append((var, self.parse_expr_single()))
            if not self._accept_symbol(","):
                break
        self._expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return ast.Quantified(kind, bindings, satisfies)

    def _parse_if(self) -> ast.AstNode:
        self._expect_name("if")
        self._expect_symbol("(")
        condition = self.parse_expr()
        self._expect_symbol(")")
        self._expect_name("then")
        then_branch = self.parse_expr_single()
        self._expect_name("else")
        else_branch = self.parse_expr_single()
        return ast.IfExpr(condition, then_branch, else_branch)

    def _parse_or(self) -> ast.AstNode:
        left = self._parse_and()
        while self._at_name("or"):
            self._advance()
            left = ast.OrExpr(left, self._parse_and())
        return left

    def _parse_and(self) -> ast.AstNode:
        left = self._parse_comparison()
        while self._at_name("and"):
            self._advance()
            left = ast.AndExpr(left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> ast.AstNode:
        left = self._parse_range()
        op_key = None
        if self.tok.kind == NAME and self.tok.value in ("eq", "ne", "lt", "le", "gt", "ge"):
            op_key = self.tok.value
        elif self.tok.kind == SYMBOL and self.tok.value in ("=", "!=", "<", "<=", ">", ">="):
            op_key = self.tok.value
        if op_key is None:
            return left
        self._advance()
        op, general = _COMPARISON_OPS[op_key]
        right = self._parse_range()
        return ast.Comparison(op, left, right, general)

    def _parse_range(self) -> ast.AstNode:
        left = self._parse_additive()
        if self._at_name("to"):
            self._advance()
            return ast.RangeTo(left, self._parse_additive())
        return left

    def _parse_additive(self) -> ast.AstNode:
        left = self._parse_multiplicative()
        while self._at_symbol("+", "-"):
            op = self._advance().value
            left = ast.Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.AstNode:
        left = self._parse_typed()
        while self._at_symbol("*") or self._at_name("div", "idiv", "mod"):
            op = self._advance().value
            left = ast.Arithmetic(op, left, self._parse_typed())
        return left

    def _parse_typed(self) -> ast.AstNode:
        expr = self._parse_unary()
        while True:
            if self._at_name("instance"):
                self._advance()
                self._expect_name("of")
                expr = ast.CastExpr("instance", expr, self.parse_sequence_type())
            elif self._at_name("treat"):
                self._advance()
                self._expect_name("as")
                expr = ast.CastExpr("treat", expr, self.parse_sequence_type())
            elif self._at_name("castable"):
                self._advance()
                self._expect_name("as")
                expr = ast.CastExpr("castable", expr, self.parse_sequence_type())
            elif self._at_name("cast"):
                self._advance()
                self._expect_name("as")
                expr = ast.CastExpr("cast", expr, self.parse_sequence_type())
            else:
                return expr

    def _parse_unary(self) -> ast.AstNode:
        if self._at_symbol("-"):
            self._advance()
            return ast.UnaryMinus(self._parse_unary())
        if self._at_symbol("+"):
            self._advance()
            return self._parse_unary()
        return self._parse_path()

    # -- paths ---------------------------------------------------------------

    def _parse_path(self) -> ast.AstNode:
        # Leading '/' (document root paths) are not used in data services;
        # support relative paths and primary-rooted paths only.
        node = self._parse_step_or_primary()
        steps: list[ast.Step] = []
        while self._at_symbol("/", "//"):
            descendant = self._advance().value == "//"
            step = self._parse_step(descendant)
            steps.append(step)
        if steps:
            return ast.PathExpr(node, steps)
        return node

    def _parse_step_or_primary(self) -> ast.AstNode:
        # A bare name / @name / '.' begins a relative path on the context
        # item; everything else is a primary expression.
        if self._at_symbol("@"):
            step = self._parse_step(False)
            return ast.PathExpr(ast.ContextItem(), [step])
        if self._at_symbol("."):
            self._advance()
            return self._add_predicates(ast.ContextItem())
        if self.tok.kind == NAME and self.tok.value in ("element", "attribute") \
                and self._peek_is_name():
            return self._parse_primary()  # computed constructor
        if self.tok.kind == NAME and not self._is_primary_name():
            step = self._parse_step(False)
            return ast.PathExpr(ast.ContextItem(), [step])
        return self._parse_primary()

    def _peek_is_name(self) -> bool:
        saved_tok = self.tok
        self._advance()
        result = self.tok.kind == NAME
        self.lexer.seek(saved_tok.pos)
        self.tok = self.lexer.next_token()
        return result

    def _is_primary_name(self) -> bool:
        """Is the current NAME token the start of a function call or other
        primary expression (rather than a child-axis name test)?"""
        if self.tok.value in ("text", "node") :
            return False
        word = self.tok.value
        if ast.local_name(word) in _RESERVED_FUNCTION_NAMES and ":" not in word:
            return False
        return self._peek_is_paren()

    def _parse_step(self, descendant: bool) -> ast.Step:
        axis = "descendant" if descendant else "child"
        if self._at_symbol("@"):
            self._advance()
            axis = "attribute"
        elif self.tok.kind == NAME and self.tok.value in ("child", "attribute", "descendant", "self"):
            saved = self.tok
            self._advance()
            if self._at_symbol("::"):
                axis = saved.value
                self._advance()
            else:
                self.lexer.seek(saved.pos)
                self.tok = self.lexer.next_token()
        # Node test
        if self._at_symbol("*"):
            self._advance()
            test: ast.NameTest | ast.KindTest = ast.NameTest("*")
        elif self.tok.kind == NAME:
            word = self.tok.value
            if word in ("text", "node") and self._peek_is_paren():
                self._advance()
                self._expect_symbol("(")
                self._expect_symbol(")")
                test = ast.KindTest(word)
            else:
                self._advance()
                test = ast.NameTest(ast.local_name(word))
        else:
            raise self._error(f"expected step, found {self.tok.value!r}")
        step = ast.Step(axis, test)
        step.predicates = self._parse_predicates()
        return step

    def _parse_predicates(self) -> list[ast.AstNode]:
        predicates = []
        while self._at_symbol("["):
            self._advance()
            predicates.append(self.parse_expr())
            self._expect_symbol("]")
        return predicates

    def _add_predicates(self, base: ast.AstNode) -> ast.AstNode:
        predicates = self._parse_predicates()
        if predicates:
            return ast.FilterExpr(base, predicates)
        return base

    # -- primaries -------------------------------------------------------------

    def _parse_primary(self) -> ast.AstNode:
        tok = self.tok
        if tok.kind in LITERAL_TYPES:
            self._advance()
            literal = ast.Literal(literal_value(tok.kind, tok.value))
            self.literals.append((tok.pos, tok.end, literal))
            return self._add_predicates(literal)
        if self._at_symbol("$"):
            self._advance()
            name = ast.local_name(self._expect_name().value)
            return self._add_predicates(ast.VarRef(name))
        if self._at_symbol("("):
            self._advance()
            if self._accept_symbol(")"):
                return self._add_predicates(ast.EmptySequence())
            inner = self.parse_expr()
            self._expect_symbol(")")
            return self._add_predicates(inner)
        if self._at_symbol("<"):
            return self._add_predicates(self._parse_direct_constructor())
        if tok.kind == NAME:
            if tok.value == "element" and not self._peek_is_paren():
                return self._parse_computed_element()
            if tok.value == "attribute" and not self._peek_is_paren():
                return self._parse_computed_attribute()
            if self._peek_is_paren() and ast.local_name(tok.value) not in _RESERVED_FUNCTION_NAMES:
                return self._parse_function_call()
        raise self._error(f"unexpected token {tok.value!r}")

    def _parse_function_call(self) -> ast.AstNode:
        name = self._advance().value
        self._expect_symbol("(")
        args: list[ast.AstNode] = []
        if not self._at_symbol(")"):
            while True:
                args.append(self.parse_expr_single())
                if not self._accept_symbol(","):
                    break
        self._expect_symbol(")")
        return self._add_predicates(ast.FunctionCall(_normalize_fn_name(name), args))

    def _parse_computed_element(self) -> ast.AstNode:
        self._expect_name("element")
        name = ast.local_name(self._expect_name().value)
        self._expect_symbol("{")
        content = [] if self._at_symbol("}") else [self.parse_expr()]
        self._expect_symbol("}")
        return ast.ElementCtor(name, [], content)

    def _parse_computed_attribute(self) -> ast.AstNode:
        self._expect_name("attribute")
        name = ast.local_name(self._expect_name().value)
        self._expect_symbol("{")
        value = ast.Literal(AtomicValue("", "xs:string")) if self._at_symbol("}") \
            else self.parse_expr()
        self._expect_symbol("}")
        return ast.AttributeCtor(name, value)

    # -- direct constructors (character-level scanning) -----------------------

    def _parse_direct_constructor(self) -> ast.AstNode:
        """Parse ``<name ...>...</name>`` starting at the current ``<``.

        The lexer has tokenized the ``<``; we re-scan from its character
        offset.
        """
        start = self.tok.pos
        text = self.lexer.text
        pos = start + 1
        name, pos = self._scan_name(text, pos)
        optional = False
        if pos < len(text) and text[pos] == "?":
            optional = True
            pos += 1
        attributes: list[ast.AttributeCtor] = []
        while True:
            pos = self._skip_ws(text, pos)
            if text.startswith("/>", pos):
                pos += 2
                self._resume(pos)
                return ast.ElementCtor(ast.local_name(name), attributes, [], optional)
            if text.startswith(">", pos):
                pos += 1
                break
            attr, pos = self._scan_attribute(text, pos)
            if attr is not None:
                attributes.append(attr)
        content, pos = self._scan_content(text, pos, name)
        self._resume(pos)
        return ast.ElementCtor(ast.local_name(name), attributes, content, optional)

    def _resume(self, pos: int) -> None:
        self.lexer.seek(pos)
        self.tok = self.lexer.next_token()

    @staticmethod
    def _skip_ws(text: str, pos: int) -> int:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return pos

    def _scan_name(self, text: str, pos: int) -> tuple[str, int]:
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_-.:"):
            pos += 1
        if pos == start:
            line, col = self.lexer.line_col(pos)
            raise ParseError("expected element name", line, col)
        return text[start:pos], pos

    def _scan_attribute(self, text: str, pos: int) -> tuple[ast.AttributeCtor | None, int]:
        name, pos = self._scan_name(text, pos)
        optional = False
        if pos < len(text) and text[pos] == "?":
            optional = True
            pos += 1
        pos = self._skip_ws(text, pos)
        if pos >= len(text) or text[pos] != "=":
            line, col = self.lexer.line_col(pos)
            raise ParseError(f"expected '=' after attribute {name}", line, col)
        pos = self._skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] not in "'\"":
            line, col = self.lexer.line_col(pos)
            raise ParseError("attribute value must be quoted", line, col)
        quote = text[pos]
        pos += 1
        parts: list[ast.AstNode] = []
        buffer: list[str] = []

        def flush() -> None:
            if buffer:
                parts.append(ast.Literal(AtomicValue("".join(buffer), "xs:string")))
                buffer.clear()

        while pos < len(text):
            ch = text[pos]
            if ch == quote:
                if text.startswith(quote * 2, pos):
                    buffer.append(quote)
                    pos += 2
                    continue
                pos += 1
                flush()
                if name == "xmlns" or name.startswith("xmlns:"):
                    return None, pos  # namespace declaration: recorded nowhere
                value = _attribute_value_expr(parts)
                return ast.AttributeCtor(ast.local_name(name), value, optional), pos
            if ch == "{":
                if text.startswith("{{", pos):
                    buffer.append("{")
                    pos += 2
                    continue
                flush()
                expr, pos = self._scan_enclosed(pos)
                parts.append(expr)
                continue
            if ch == "}" and text.startswith("}}", pos):
                buffer.append("}")
                pos += 2
                continue
            if ch == "&":
                literal, pos = _scan_entity(text, pos)
                buffer.append(literal)
                continue
            buffer.append(ch)
            pos += 1
        line, col = self.lexer.line_col(pos)
        raise ParseError("unterminated attribute value", line, col)

    def _scan_enclosed(self, pos: int) -> tuple[ast.AstNode, int]:
        """Parse a ``{ Expr }`` enclosed expression starting at ``{``."""
        self.lexer.seek(pos + 1)
        self.tok = self.lexer.next_token()
        expr = self.parse_expr()
        if not self._at_symbol("}"):
            raise self._error("expected '}' to close enclosed expression")
        return expr, self.tok.pos + 1

    def _scan_content(self, text: str, pos: int, name: str) -> tuple[list[ast.AstNode], int]:
        content: list[ast.AstNode] = []
        buffer: list[str] = []

        def flush(strip_boundary: bool) -> None:
            if not buffer:
                return
            chunk = "".join(buffer)
            buffer.clear()
            if strip_boundary and not chunk.strip():
                return  # boundary whitespace is stripped (default policy)
            # Direct-constructor character content is untyped text.
            content.append(ast.Literal(AtomicValue(chunk, "xs:untypedAtomic")))

        while pos < len(text):
            ch = text[pos]
            if text.startswith("</", pos):
                flush(strip_boundary=True)
                pos += 2
                closing, pos = self._scan_name(text, pos)
                if closing != name:
                    line, col = self.lexer.line_col(pos)
                    raise ParseError(f"mismatched end tag </{closing}> for <{name}>", line, col)
                pos = self._skip_ws(text, pos)
                if pos >= len(text) or text[pos] != ">":
                    line, col = self.lexer.line_col(pos)
                    raise ParseError("expected '>' in end tag", line, col)
                return content, pos + 1
            if ch == "<":
                flush(strip_boundary=True)
                # Nested element: re-enter token mode at this '<'.
                self.lexer.seek(pos)
                self.tok = self.lexer.next_token()
                content.append(self._parse_direct_constructor())
                pos = self.tok.pos  # _resume left the lexer after the element
                continue
            if ch == "{":
                if text.startswith("{{", pos):
                    buffer.append("{")
                    pos += 2
                    continue
                flush(strip_boundary=True)
                expr, pos = self._scan_enclosed(pos)
                content.append(expr)
                continue
            if ch == "}" and text.startswith("}}", pos):
                buffer.append("}")
                pos += 2
                continue
            if ch == "&":
                literal, pos = _scan_entity(text, pos)
                buffer.append(literal)
                continue
            buffer.append(ch)
            pos += 1
        line, col = self.lexer.line_col(pos)
        raise ParseError(f"unterminated element <{name}>", line, col)


def _scan_entity(text: str, pos: int) -> tuple[str, int]:
    end = text.find(";", pos)
    if end < 0:
        raise ParseError("unterminated entity reference")
    body = text[pos + 1 : end]
    if body.startswith("#x") or body.startswith("#X"):
        return chr(int(body[2:], 16)), end + 1
    if body.startswith("#"):
        return chr(int(body[1:])), end + 1
    if body in _ENTITIES:
        return _ENTITIES[body], end + 1
    raise ParseError(f"unknown entity &{body};")


def _attribute_value_expr(parts: list[ast.AstNode]) -> ast.AstNode:
    if not parts:
        return ast.Literal(AtomicValue("", "xs:string"))
    if len(parts) == 1:
        return parts[0]
    return ast.FunctionCall("fn:concat", parts)


def _normalize_fn_name(name: str) -> str:
    """Keep prefixed builtin names (fn:, fn-bea:) as-is; bare names of known
    builtins get the fn: prefix; user function names are reduced to their
    local part (one flat function namespace per compilation in this repro)."""
    if ":" in name:
        prefix, local = name.split(":", 1)
        if prefix in ("fn", "fn-bea", "xs"):
            return name
        return local
    from .functions import is_builtin

    if is_builtin(f"fn:{name}"):
        return f"fn:{name}"
    return name


def parse_module(text: str, mode: str = "runtime") -> ast.Module:
    return Parser(text, mode).parse_module()


def parse_expression(text: str) -> ast.AstNode:
    return Parser(text).parse_main_expression()
