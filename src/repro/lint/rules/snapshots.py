"""Snapshot payload completeness (RPL5xx).

Checkpoint/resume is only sound if a snapshot captures *every* piece of
mid-run session state: a field added to :class:`SessionSnapshot` or to
its per-core :class:`CoreState` but never written by the code that
builds it silently restores to its default, and a run resumed from such
a snapshot diverges from the uninterrupted run — the exact bit-identity
bug the session tests exist to prevent, except surfacing only for
crashed-and-resumed cells.

``RPL501`` therefore cross-references, statically, the literal payload
dict each record is built from (the ``payload = {...}`` passed as
``SessionSnapshot(**payload)`` / ``CoreState(**payload)``, or direct
keyword arguments) against the record's dataclass fields:

* every dataclass field must appear as a payload key (state written);
* every payload key must be a dataclass field (no dead keys that mask a
  renamed field);
* some function in the module must build the record from such a
  literal payload, or completeness cannot be checked;
* ``SessionSnapshot`` must carry a ``version`` field, the format stamp
  that lets :meth:`SessionSnapshot.load` and the experiment checkpoint
  layer refuse snapshots from incompatible code.

Like the RPL2xx cache-key rules, the check is structural rather than
path-bound: any module *defining* one of the record classes is checked,
which lets fixtures exercise the failure modes without touching the
real tree.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.framework import (
    ParsedModule,
    Rule,
    Violation,
    dotted_name,
    iter_calls,
    register,
)
from repro.lint.rules.cachekey import dataclass_fields

SNAPSHOT_CLASS = "SessionSnapshot"
#: Every record RPL501 checks; only the outer snapshot needs ``version``.
RECORD_CLASSES = (SNAPSHOT_CLASS, "CoreState")


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _payload_keys(
    func: ast.FunctionDef, cls_name: str
) -> tuple[set[str], ast.AST] | None:
    """Keys the ``cls_name(...)`` construction in ``func`` writes.

    Handles both the ``payload = {...}; Record(**payload)`` shape (the
    real tree, which keeps the payload dict literal precisely so this
    rule can read it) and direct keyword construction.
    """
    dict_bindings: dict[str, ast.Dict] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Dict)
        ):
            dict_bindings[node.targets[0].id] = node.value
    for call in iter_calls(func):
        name = dotted_name(call.func)
        if name is None or name.split(".")[-1] != cls_name:
            continue
        for kw in call.keywords:
            if (
                kw.arg is None
                and isinstance(kw.value, ast.Name)
                and kw.value.id in dict_bindings
            ):
                payload = dict_bindings[kw.value.id]
                keys = {
                    k.value
                    for k in payload.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
                return keys, payload
        explicit = {kw.arg for kw in call.keywords if kw.arg is not None}
        if explicit:
            return explicit, call
    return None


def _builders(tree: ast.Module, cls_name: str) -> list[tuple[set[str], ast.AST]]:
    """Every literal payload ``cls_name`` is built from, in any function
    or method of the module (each payload counted once)."""
    found: dict[int, tuple[set[str], ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            resolved = _payload_keys(node, cls_name)
            if resolved is not None:
                found.setdefault(id(resolved[1]), resolved)
    return list(found.values())


@register
class SnapshotPayloadCompletenessRule(Rule):
    code = "RPL501"
    name = "snapshot-payload-completeness"
    description = (
        "SessionSnapshot/CoreState dataclass fields and the payload dicts "
        "that build them must match exactly (and include a 'version' stamp)"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        for cls_name in RECORD_CLASSES:
            cls_def = _class_def(module.tree, cls_name)
            if cls_def is not None:
                yield from self._check_record(module, cls_def)

    def _check_record(
        self, module: ParsedModule, cls_def: ast.ClassDef
    ) -> Iterable[Violation]:
        cls_name = cls_def.name
        fields = dict(dataclass_fields(cls_def))
        if cls_name == SNAPSHOT_CLASS and "version" not in fields:
            yield module.violation(
                cls_def,
                self.code,
                f"{cls_name} lacks a 'version' field; incompatible "
                "snapshot formats could not be rejected on load",
            )
        builders = _builders(module.tree, cls_name)
        if not builders:
            yield module.violation(
                cls_def,
                self.code,
                f"no function constructs {cls_name} from a literal "
                "payload; completeness cannot be verified statically",
            )
        for keys, payload_node in builders:
            for field_name, node in fields.items():
                if field_name not in keys:
                    yield module.violation(
                        node,
                        self.code,
                        f"{cls_name} field '{field_name}' is never written "
                        "by its builder's payload; restored sessions would "
                        "get its default and diverge from the uninterrupted "
                        "run",
                    )
            for key in sorted(keys - fields.keys()):
                yield module.violation(
                    payload_node,
                    self.code,
                    f"payload key '{key}' is not a {cls_name} field; a "
                    "renamed or removed field would be silently dropped",
                )
