"""R002 -- no hash-ordered iteration in merge/serialization modules.

Sets iterate in hash order, and hash order moves with
``PYTHONHASHSEED`` for strings: a merge or serializer that loops over a
``set`` (or over ``.values()`` of a collection built from one) can emit
different bytes on different runs while every element is identical.
The modules that assemble canonical reports must only iterate
deterministically ordered collections -- lists, sorted views, or dicts
whose insertion order is itself deterministic.

Scope: serialization/merge modules by basename (:data:`SCOPED_NAMES`)
plus anything whose filename says ``merge`` or ``serialize``.  Flagged
forms, in ``for`` targets and comprehension sources:

* a ``set`` literal, ``set(...)`` call, set comprehension, or a set
  operator expression (``a | b`` over sets is still a set);
* a local name assigned from one of those forms in the same function;
* ``.values()`` / ``.keys()`` / direct iteration of a dict *built from
  a set* is caught through the same local tracking; bare ``.values()``
  on arbitrary objects is flagged too -- dict views are
  insertion-ordered, but in a merge module insertion order must be
  argued, and ``sorted(...)`` is the way to write the argument down.

Anything wrapped directly in ``sorted(...)`` is always fine.
"""

from __future__ import annotations

import ast
from typing import Set

from ..core import LintContext, ModuleInfo

CODE = "R002"

#: Module basenames forming the merge/serialization tier.
SCOPED_NAMES = {
    "serialize.py", "session.py", "coordinator.py", "executor.py",
    "requests.py", "config.py", "store.py",
}

HINT = ("iterate `sorted(...)` (or a list with documented "
        "deterministic order) instead of a hash-ordered collection")


def _in_scope(module: ModuleInfo) -> bool:
    stem = module.basename
    return (stem in SCOPED_NAMES
            or "merge" in stem or "serialize" in stem)


def _is_set_expr(node: ast.AST, set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_locals)
                or _is_set_expr(node.right, set_locals))
    return False


def _is_values_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args and not node.keywords)


def _check_iter(ctx: LintContext, module: ModuleInfo, where: ast.AST,
                iter_node: ast.AST, set_locals: Set[str]) -> None:
    if isinstance(iter_node, ast.Call) and isinstance(
            iter_node.func, ast.Name) and iter_node.func.id == "sorted":
        return
    if _is_set_expr(iter_node, set_locals):
        ctx.add(CODE, module, where,
                "iteration over a set (hash order) in a "
                "merge/serialization module", hint=HINT)
    elif _is_values_call(iter_node):
        ctx.add(CODE, module, where,
                "iteration over .values() in a merge/serialization "
                "module hides the key order", hint=HINT)


def _check_function(ctx: LintContext, module: ModuleInfo,
                    fn: ast.AST) -> None:
    # Locals assigned a set expression anywhere in this function body;
    # flow-insensitive on purpose (a name that is *ever* a set is a
    # hash-ordered hazard at every loop that drinks from it).
    set_locals: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value,
                                                         set_locals):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    set_locals.add(target.id)
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            _check_iter(ctx, module, node, node.iter, set_locals)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                _check_iter(ctx, module, node, gen.iter, set_locals)


def check(ctx: LintContext) -> None:
    for module in ctx.modules:
        if not _in_scope(module):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _check_function(ctx, module, node)
