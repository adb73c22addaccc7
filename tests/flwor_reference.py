"""The reference FLWOR driver: one binding tuple at a time over the interpreter.

This is the tuple pipeline the engine ran at ``set_batch_size(1)`` until the
batch runtime became its only FLWOR runtime, moved here (method bodies
verbatim) as the oracle of ``tests/test_flwor_differential.py`` and of the
lane and quantifier matrices in ``tests/test_batch_runtime.py``.  Every
expression — nested FLWORs included — goes through the reference
interpreter of ``tests/expr_reference.py``, so nothing here touches the
expression compiler or the batch runtime.
It executes plans made of plain ``for``/``let``/``where``/``order by``/
``group by`` clauses (any in-memory FLWOR; with pushdown off, every query)
and lives under ``tests/`` on purpose: ``src/`` must not import it.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DynamicError
from repro.runtime.evaluate import Env
from repro.runtime.kernels import _as_atomic_value, _OrderKey
from repro.runtime.operators.group import clustered_groups, sorted_groups
from repro.xml.items import AtomicValue, Item
from repro.xquery import ast_nodes as ast
from repro.xquery.functions import atomize, effective_boolean_value

from .expr_reference import ReferenceInterpreter


class ReferenceEvaluator(ReferenceInterpreter):
    def _eval_flwor(self, node: ast.FLWOR, env: Env) -> Iterator[Item]:
        tuples: Iterator[Env] = iter([env])
        for clause in node.clauses:
            handler = getattr(self, f"_{type(clause).__name__}", None)
            if handler is None:
                raise DynamicError(f"cannot execute clause {type(clause).__name__}")
            if isinstance(clause, ast.GroupByClause):
                tuples = handler(clause, tuples, env)
            else:
                tuples = handler(clause, tuples)
        for tuple_env in tuples:
            yield from self.iter_eval(node.return_expr, tuple_env)

    def _ForClause(self, clause: ast.ForClause, tuples: Iterator[Env]) -> Iterator[Env]:
        for env in tuples:
            for position, item in enumerate(self.iter_eval(clause.expr, env), start=1):
                extended = dict(env)
                extended[clause.var] = [item]
                if clause.pos_var:
                    extended[clause.pos_var] = [AtomicValue(position, "xs:integer")]
                yield extended

    def _LetClause(self, clause: ast.LetClause, tuples: Iterator[Env]) -> Iterator[Env]:
        for env in tuples:
            extended = dict(env)
            extended[clause.var] = self.eval(clause.expr, env)
            yield extended

    def _WhereClause(self, clause: ast.WhereClause, tuples: Iterator[Env]) -> Iterator[Env]:
        for env in tuples:
            if effective_boolean_value(self.eval(clause.condition, env)):
                yield env

    def _OrderByClause(self, clause: ast.OrderByClause, tuples: Iterator[Env]) -> Iterator[Env]:
        materialized = list(tuples)

        def sort_key(env: Env):
            keys = []
            for spec in clause.specs:
                atoms = atomize(self.eval(spec.key, env))
                if len(atoms) > 1:
                    raise DynamicError("order by key with more than one item")
                value = atoms[0].value if atoms else None
                keys.append(_OrderKey(value, spec.descending, spec.empty_greatest))
            return keys

        materialized.sort(key=sort_key)
        return iter(materialized)

    def _GroupByClause(self, clause: ast.GroupByClause, tuples: Iterator[Env],
                       entry: Env) -> Iterator[Env]:
        """One tuple per group: the environment the FLWOR was entered with,
        plus the key and grouped variables — every other variable the
        clauses before bound goes out of scope (section 3.1)."""
        def annotated() -> Iterator[tuple[Env, tuple]]:
            for env in tuples:
                key_values = []
                for expr, _var in clause.keys:
                    atoms = atomize(self.eval(expr, env))
                    if len(atoms) > 1:
                        raise DynamicError("group by key with more than one item")
                    key_values.append(atoms[0].value if atoms else None)
                yield env, tuple(key_values)

        grouper = clustered_groups if getattr(clause, "pre_clustered", False) else sorted_groups
        for key, members in grouper(annotated(), lambda pair: pair[1]):
            result: Env = dict(entry)
            for (_expr, var), value in zip(clause.keys, key):
                result[var] = [] if value is None else [_as_atomic_value(value)]
            envs = [env for env, _k in members]
            for source, target in clause.grouped:
                collected: list[Item] = []
                for env in envs:
                    collected.extend(env.get(source, []))
                result[target] = collected
            yield result


def reference_platform(**demo):
    """A demo platform whose plans keep every clause in the mid-tier."""
    from repro.demo import build_demo_platform

    platform = build_demo_platform(**demo)
    platform.configure(pushdown=False)  # also keeps joins as for + where
    return platform


def reference_execute(platform, query: str, variables: dict | None = None) -> list[Item]:
    """``query`` on the reference driver, over ``platform``'s plan for it."""
    plan = platform.prepare(query, variables)
    with platform.ctx.tracer.request(
            bindings={**(variables or {}), **plan.binds}):
        return ReferenceEvaluator(platform.ctx).eval(plan.expr, {})
