"""R005 -- task units must stay picklable.

Everything named like a unit of distributable work (``*Task``,
``*Unit``, ``*Shard``, ``*Outcome``) crosses a process boundary
somewhere, ``ProcessPoolExecutor`` for the parallel suite among them.
Pickle fails late and badly -- a lambda default or a ``Lock`` field
only explodes when a worker first receives the unit, usually inside a
pool where the traceback is mangled.  This rule moves the failure to
lint time:

* the class itself must be defined at module top level (pickle finds
  classes by qualified name; nested and local classes don't resolve);
* no ``lambda`` anywhere in a field default (lambdas have no
  importable name);
* no field annotated with an unpicklable type: callables, open
  handles, locks, threads, sockets.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import LintContext, ModuleInfo, dotted_name

CODE = "R005"

SUFFIXES = ("Task", "Unit", "Shard", "Outcome")

#: Annotation names (last dotted segment) that cannot cross pickle.
UNPICKLABLE = {
    "Callable", "IO", "TextIO", "BinaryIO", "Lock", "RLock", "Thread",
    "Event", "Condition", "Semaphore", "socket", "Socket", "Queue",
    "Generator", "Iterator",
}

HINT = ("keep task units plain data: module-level class, simple-typed "
        "fields, no callables/handles/locks")


def _unit_like(name: str) -> bool:
    return any(name.endswith(suffix) and name != suffix
               for suffix in SUFFIXES)


def _annotation_names(annotation: ast.AST) -> Iterable[str]:
    for node in ast.walk(annotation):
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = dotted_name(node)
            if dotted:
                yield dotted.split(".")[-1]
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str):
            # String annotations ('Callable[..., int]') -- match on
            # the raw text, coarsely.
            for name in UNPICKLABLE:
                if name in node.value:
                    yield name


def _check_class(ctx: LintContext, module: ModuleInfo,
                 cls: ast.ClassDef, top_level: bool) -> None:
    if not top_level:
        ctx.add(CODE, module, cls,
                f"task unit `{cls.name}` is not defined at module top "
                f"level; pickle resolves classes by importable name",
                hint=HINT)
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            bad = sorted(set(_annotation_names(stmt.annotation))
                         & UNPICKLABLE)
            if bad:
                ctx.add(CODE, module, stmt,
                        f"field `{cls.name}.{stmt.target.id}` is "
                        f"annotated with unpicklable type "
                        f"{'/'.join(bad)}", hint=HINT)
            if stmt.value is not None:
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Lambda):
                        ctx.add(CODE, module, node,
                                f"field `{cls.name}.{stmt.target.id}` "
                                f"defaults to a lambda, which cannot "
                                f"be pickled", hint=HINT)
        elif isinstance(stmt, ast.Assign):
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Lambda):
                    ctx.add(CODE, module, node,
                            f"class `{cls.name}` stores a lambda in a "
                            f"class attribute; it cannot be pickled",
                            hint=HINT)


def check(ctx: LintContext) -> None:
    for module in ctx.modules:
        top = {id(node) for node in module.tree.body}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _unit_like(node.name):
                _check_class(ctx, module, node, id(node) in top)
