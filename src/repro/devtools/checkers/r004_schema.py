"""R004 -- schema drift needs a ``SCHEMA_VERSION`` bump.

The wire contract of the request/execute API is the set of
dataclass fields in modules that declare a top-level
``SCHEMA_VERSION``.  Old journals and remote peers both
key on that version: changing a field without bumping it silently
reinterprets persisted payloads.  The rule compares the live AST
against a committed manifest (``schema_manifest.json`` next to the
module) and fires when:

* the manifest is missing entirely (nothing pins the contract);
* fields changed but ``SCHEMA_VERSION`` did not (the drift case);
* the manifest disagrees in any other way (stale -- regenerate it).

``repro devtool manifest --write`` regenerates the manifest; that diff
plus the version bump is the reviewable unit of a schema change.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List, Optional

from ..core import LintContext, ModuleInfo

CODE = "R004"

MANIFEST_NAME = "schema_manifest.json"
MANIFEST_FORMAT = "repro/schema-manifest"

HINT_WRITE = "run `repro devtool manifest --write` and commit the diff"
HINT_BUMP = ("bump SCHEMA_VERSION, then `repro devtool manifest "
             "--write`")


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and \
                target.attr == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return False


def schema_version_of(module: ModuleInfo) -> Optional[int]:
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "SCHEMA_VERSION" \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int):
            return node.value.value
    return None


def extract_classes(module: ModuleInfo) -> Dict[str, List[str]]:
    """Top-level dataclasses -> ordered non-ClassVar field names."""
    classes: Dict[str, List[str]] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef) or \
                not _is_dataclass_decorated(node):
            continue
        fields: List[str] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    not _is_classvar(stmt.annotation):
                fields.append(stmt.target.id)
        classes[node.name] = fields
    return classes


def build_manifest_entry(module: ModuleInfo) -> Dict[str, object]:
    return {
        "schema_version": schema_version_of(module),
        "classes": extract_classes(module),
    }


def manifest_path_for(module: ModuleInfo) -> str:
    return os.path.join(os.path.dirname(module.path), MANIFEST_NAME)


def check(ctx: LintContext) -> None:
    for module in ctx.modules:
        version = schema_version_of(module)
        if version is None:
            continue
        live = build_manifest_entry(module)
        path = manifest_path_for(module)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError:
            ctx.add(CODE, module, 1,
                    f"SCHEMA_VERSION module has no committed "
                    f"{MANIFEST_NAME}; the wire contract is unpinned",
                    hint=HINT_WRITE)
            continue
        except ValueError as exc:
            ctx.add(CODE, module, 1,
                    f"{MANIFEST_NAME} is not valid JSON: {exc}",
                    hint=HINT_WRITE)
            continue
        entry = manifest.get("modules", {}).get(module.basename)
        if entry is None:
            ctx.add(CODE, module, 1,
                    f"{MANIFEST_NAME} has no entry for "
                    f"{module.basename}", hint=HINT_WRITE)
            continue
        old_version = entry.get("schema_version")
        old_classes = entry.get("classes", {})
        if old_classes == live["classes"]:
            if old_version != version:
                ctx.add(CODE, module, 1,
                        f"SCHEMA_VERSION is {version} but the manifest "
                        f"pins {old_version} for identical fields",
                        hint=HINT_WRITE)
            continue
        # Fields differ.  Drift is the un-bumped case; a bumped version
        # with a stale manifest just needs the regen.
        if old_version == version:
            changed = sorted(
                set(old_classes) ^ set(live["classes"])
                | {name for name in set(old_classes)
                   & set(live["classes"])
                   if old_classes[name] != live["classes"][name]})
            ctx.add(CODE, module, 1,
                    f"dataclass fields changed ({', '.join(changed)}) "
                    f"without a SCHEMA_VERSION bump (still {version})",
                    hint=HINT_BUMP)
        else:
            ctx.add(CODE, module, 1,
                    f"manifest is stale (pins version {old_version}, "
                    f"module is {version} with different fields)",
                    hint=HINT_WRITE)
