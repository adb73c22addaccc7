"""Normalization (query-processing stage 3, section 3.3).

Makes implicit operations explicit so later stages see a uniform tree:

* ALDSP's optional construction ``<E?>{...}</E>`` is expanded into its
  documented equivalent (section 3.1)::

      let $v := content return
      if (fn:exists($v)) then <E>{$v}</E> else ()

  (a ``let`` binding is introduced so the content is evaluated once);
* operands of value comparisons, arithmetic and order-by/group-by keys get
  explicit ``fn:data`` atomization wrappers;
* ``fn:data(fn:data(e))`` collapses.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .parser import LIFTED_PREFIX, fresh_var

_ATOMIC_RESULT_FUNCTIONS = {
    "fn:data", "fn:count", "fn:sum", "fn:avg", "fn:min", "fn:max",
    "fn:string", "fn:concat", "fn:string-join", "fn:string-length",
    "fn:upper-case", "fn:lower-case", "fn:substring", "fn:contains",
    "fn:starts-with", "fn:ends-with", "fn:abs", "fn:floor", "fn:ceiling",
    "fn:round", "fn:number", "fn:not", "fn:boolean", "fn:exists", "fn:empty",
    "fn:true", "fn:false", "fn:distinct-values",
}


def normalize(node: ast.AstNode) -> ast.AstNode:
    """Normalize an expression tree, returning the rewritten tree."""
    node = node.transform_children(normalize)

    if isinstance(node, ast.ElementCtor) and node.optional:
        return _expand_optional_element(node)
    if isinstance(node, ast.Comparison):
        node.left = _atomized(node.left)
        node.right = _atomized(node.right)
        return node
    if isinstance(node, ast.Arithmetic):
        node.left = _atomized(node.left)
        node.right = _atomized(node.right)
        return node
    if isinstance(node, ast.UnaryMinus):
        node.operand = _atomized(node.operand)
        return node
    if isinstance(node, ast.OrderByClause):
        for spec in node.specs:
            spec.key = _atomized(spec.key)
        return node
    if isinstance(node, ast.GroupByClause):
        node.keys = [(_atomized(expr), var) for expr, var in node.keys]
        return node
    if isinstance(node, ast.ElementCtor):
        node.attributes = [_normalize_attribute(a) for a in node.attributes]
        return node
    if isinstance(node, ast.FunctionCall) and node.name == "fn:data":
        inner = node.args[0]
        if _is_atomic_producer(inner):
            return inner
        return node
    return node


def normalize_module(module: ast.Module) -> ast.Module:
    for decl in module.functions.values():
        if decl.body is not None:
            decl.body = normalize(decl.body)
    for var in module.variables.values():
        if var.value is not None:
            var.value = normalize(var.value)
    if module.query_body is not None:
        module.query_body = normalize(module.query_body)
    return module


def _expand_optional_element(ctor: ast.ElementCtor) -> ast.AstNode:
    var = fresh_var("opt")
    content: ast.AstNode
    if not ctor.content:
        content = ast.EmptySequence()
    elif len(ctor.content) == 1:
        content = ctor.content[0]
    else:
        content = ast.SequenceExpr(list(ctor.content))
    plain = ast.ElementCtor(ctor.name, ctor.attributes, [ast.VarRef(var)], optional=False)
    condition = ast.FunctionCall("fn:exists", [ast.VarRef(var)])
    return ast.FLWOR(
        [ast.LetClause(var, content)],
        ast.IfExpr(condition, plain, ast.EmptySequence()),
    )


def _normalize_attribute(attr: ast.AttributeCtor) -> ast.AttributeCtor:
    # Optional attributes keep their flag: the runtime constructor emits the
    # attribute only when its value is non-empty (the documented semantics);
    # unlike elements there is no enclosing expression context to expand
    # into without changing the parent constructor's shape.
    attr.value = _atomized(attr.value)
    return attr


def _atomized(expr: ast.AstNode) -> ast.AstNode:
    if _is_atomic_producer(expr):
        return expr
    return ast.FunctionCall("fn:data", [expr])


def _is_atomic_producer(expr: ast.AstNode) -> bool:
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.VarRef):
        # a lifted literal (plan shapes) is still one typed atom
        return expr.name.startswith(LIFTED_PREFIX)
    if isinstance(expr, (ast.Arithmetic, ast.UnaryMinus, ast.Comparison,
                         ast.AndExpr, ast.OrExpr, ast.Quantified, ast.RangeTo)):
        return True
    if isinstance(expr, ast.FunctionCall):
        return expr.name in _ATOMIC_RESULT_FUNCTIONS or expr.name.startswith("xs:")
    if isinstance(expr, ast.CastExpr):
        return expr.kind in ("cast", "castable", "instance")
    return False
