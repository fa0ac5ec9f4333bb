"""The lintor rule catalogue (R002–R006).

Each rule is a function from a :class:`~repro.analysis.context.ModuleContext`
to a list of findings.  The rules encode this repo's contracts — the
conventions the platform's correctness rests on but that no generic
linter knows about:

====  ===================  ====================================================
Code  Name                 Contract
====  ===================  ====================================================
R002  guarded-by           ``# guarded-by:`` attributes only touched under
                           their lock
R003  strict-json          ``json.dumps`` passes ``allow_nan=False``;
                           wire-facing ``json.loads`` lives in decode helpers
R004  typed-errors         no bare ``raise ValueError`` / swallowed
                           ``except Exception: pass`` under platform|loadgen
R005  resource-safety      acquired handles are closed (``with``/``finally``/
                           instance-owned)
R006  frame-versioning     magic/version constants come with decode-time
                           rejection
====  ===================  ====================================================

R000 is reserved for analyzer-level problems (syntax errors, malformed
pragmas) and is emitted by the engine, not listed here.  R001 (blocking
calls inside ``async def`` bodies) was retired with the asyncio gateway;
its code is not reused.
"""

from __future__ import annotations

import ast
import re
from typing import Callable

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding

__all__ = ["RULES", "RULE_DOCS"]

#: rule code -> one-line description (rendered by ``repro lint --rules``)
RULE_DOCS: dict[str, str] = {
    "R000": "analyzer integrity: files must parse and lintor pragmas must be well-formed",
    "R002": "guarded-by: annotated attributes only accessed under their declared lock",
    "R003": "strict-json: json.dumps needs allow_nan=False; wire json.loads needs a decode helper",
    "R004": "typed-errors: no bare raise ValueError / except Exception: pass in platform|loadgen",
    "R005": "resource-safety: open/connect/socket results closed via with, finally, or instance ownership",
    "R006": "frame-versioning: magic/version constants require decode-time rejection",
}


def _finding(ctx: ModuleContext, node: ast.AST, rule: str, message: str, fixit: str) -> Finding:
    return Finding(
        path=ctx.relpath,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        rule=rule,
        message=message,
        fixit=fixit,
    )


# ---------------------------------------------------------------------------
# R002 — guarded-by


def check_r002(ctx: ModuleContext) -> list[Finding]:
    guards = _collect_guarded_attributes(ctx)
    if not guards:
        return []
    findings: list[Finding] = []
    declaration_lines = {line for _, line in guards.values()}
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in guards
        ):
            continue
        if node.lineno in declaration_lines:
            continue
        guard, _ = guards[node.attr]
        func = ctx.enclosing_function(node)
        if func is not None and func.name in ("__init__", "__post_init__"):
            continue
        if not _inside_with_lock(ctx, node, guard):
            findings.append(
                _finding(
                    ctx,
                    node,
                    "R002",
                    f"self.{node.attr} is guarded-by {guard} but accessed outside "
                    f"`with self.{guard}:`",
                    f"wrap the access in `with self.{guard}:` (or move it into __init__)",
                )
            )
    return findings


def _collect_guarded_attributes(ctx: ModuleContext) -> dict[str, tuple[str, int]]:
    """Map attribute name -> (guard name, declaration line).

    A ``# guarded-by:`` comment attaches to the statement starting on its
    line: ``self.x = ...`` assignments (instance attributes) and bare-name
    ``x: T = ...`` annotations (class-level dataclass fields).
    """
    guards: dict[str, tuple[str, int]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        guard = ctx.comments.guards.get(node.lineno)
        if guard is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                guards[target.attr] = (guard, node.lineno)
            elif isinstance(target, ast.Name):
                guards[target.id] = (guard, node.lineno)
    return guards


def _inside_with_lock(ctx: ModuleContext, node: ast.AST, guard: str) -> bool:
    wanted = f"self.{guard}"
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if ast.unparse(item.context_expr) == wanted:
                    return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


# ---------------------------------------------------------------------------
# R003 — strict-json


#: wire-facing modules: raw ``json.loads`` here must live inside a decode
#: helper whose name signals validation (``decode*``/``_decode*``/``loads``)
_WIRE_FACING_SUFFIXES = (
    "platform/server.py",
    "platform/client.py",
    "platform/wire.py",
    "loadgen/trace.py",
)

_DECODE_NAME_RE = re.compile(r"^_?(decode|loads$|from_json)")


def check_r003(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    wire_facing = ctx.relpath.replace("\\", "/").endswith(_WIRE_FACING_SUFFIXES)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node.func)
        if resolved == "json.dumps":
            if not _passes_allow_nan_false(node):
                findings.append(
                    _finding(
                        ctx,
                        node,
                        "R003",
                        "json.dumps without allow_nan=False can emit NaN/Infinity, "
                        "which is not JSON",
                        "pass allow_nan=False so non-finite floats fail loudly at encode time",
                    )
                )
        elif resolved == "json.loads" and wire_facing:
            func = ctx.enclosing_function(node)
            if func is None or not _DECODE_NAME_RE.match(func.name):
                where = func.name if func else "module scope"
                findings.append(
                    _finding(
                        ctx,
                        node,
                        "R003",
                        f"wire-facing json.loads outside a decode helper (in {where})",
                        "route raw wire bytes through a decode*/loads helper that validates the payload",
                    )
                )
    return findings


def _passes_allow_nan_false(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "allow_nan":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is False
    return False


# ---------------------------------------------------------------------------
# R004 — typed-errors


_TYPED_ERROR_SCOPES = ("platform/", "loadgen/")
_BARE_RAISES = {"ValueError", "Exception"}
_SWALLOWED_TYPES = {"Exception", "BaseException"}


def _in_scope(ctx: ModuleContext, scopes: tuple[str, ...]) -> bool:
    path = ctx.relpath.replace("\\", "/")
    return any(f"/{scope}" in f"/{path}" for scope in scopes)


def check_r004(ctx: ModuleContext) -> list[Finding]:
    if not _in_scope(ctx, _TYPED_ERROR_SCOPES):
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Raise):
            name = _raised_name(node)
            if name in _BARE_RAISES:
                findings.append(
                    _finding(
                        ctx,
                        node,
                        "R004",
                        f"bare `raise {name}` in platform/loadgen code",
                        "raise ValidationError (or a subclass like CodecError) so callers "
                        "can catch by contract",
                    )
                )
        elif isinstance(node, ast.ExceptHandler):
            if not all(isinstance(stmt, ast.Pass) for stmt in node.body):
                continue
            if node.type is None:
                caught = "everything"
            elif isinstance(node.type, ast.Name) and node.type.id in _SWALLOWED_TYPES:
                caught = node.type.id
            else:
                continue
            findings.append(
                _finding(
                    ctx,
                    node,
                    "R004",
                    f"except clause catches {caught} and silently passes",
                    "catch the narrowest typed error and handle it, or let it propagate",
                )
            )
    return findings


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


# ---------------------------------------------------------------------------
# R005 — resource-safety


_ACQUIRE_CALLS = {
    "open",
    "sqlite3.connect",
    "socket.socket",
    "socket.create_connection",
    "http.client.HTTPConnection",
    "subprocess.Popen",
}


def check_r005(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node.func)
        if resolved not in _ACQUIRE_CALLS:
            continue
        if _resource_is_managed(ctx, node):
            continue
        findings.append(
            _finding(
                ctx,
                node,
                "R005",
                f"{resolved}() result is never closed",
                "use `with ...:`, close it in a finally, or store it on self and "
                "close it in the owner's close()",
            )
        )
    return findings


def _resource_is_managed(ctx: ModuleContext, call: ast.Call) -> bool:
    parent = ctx.parent(call)
    # `with acquire(...) as x:` — directly, or via contextlib.closing(...)
    if isinstance(parent, ast.withitem):
        return True
    if isinstance(parent, ast.Call):
        wrapped = ctx.resolve_call(parent.func)
        if wrapped in ("contextlib.closing", "closing"):
            return True
    # `return acquire(...)` — ownership transfers to the caller.
    if isinstance(parent, ast.Return):
        return True
    if isinstance(parent, ast.Assign):
        for target in parent.targets:
            # `self.x = acquire(...)` — instance-owned; the owner's close()
            # is responsible (and R002/R005 fire there if it leaks).
            if isinstance(target, ast.Attribute):
                return True
            if isinstance(target, ast.Name):
                if _closed_in_function(ctx, call, target.id):
                    return True
    return False


def _closed_in_function(ctx: ModuleContext, call: ast.Call, name: str) -> bool:
    """True when the enclosing function calls ``name.close()`` or uses
    ``name`` as a with-item somewhere after acquisition."""
    func = ctx.enclosing_function(call)
    scope: ast.AST = func if func is not None else ctx.tree
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "close"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
        if isinstance(node, ast.withitem):
            expr = node.context_expr
            if isinstance(expr, ast.Name) and expr.id == name:
                return True
    return False


# ---------------------------------------------------------------------------
# R006 — frame-versioning


_VERSION_CONST_RE = re.compile(r"^_?([A-Z][A-Z0-9_]*_)?(MAGIC|VERSION)$")


def check_r006(ctx: ModuleContext) -> list[Finding]:
    constants: list[tuple[str, ast.stmt]] = []
    for scope in _module_and_class_bodies(ctx.tree):
        for stmt in scope:
            name = _constant_name(stmt)
            if name and _VERSION_CONST_RE.match(name):
                constants.append((name, stmt))
    if not constants:
        return []
    findings: list[Finding] = []
    for name, stmt in constants:
        if not _has_rejection(ctx.tree, name):
            findings.append(
                _finding(
                    ctx,
                    stmt,
                    "R006",
                    f"{name} declares a wire/trace format constant but the module "
                    "never rejects a mismatch at decode time",
                    f"add `if ... != {name}: raise CodecError(...)` (or ValidationError) "
                    "on the read path — see wire_format.md's version-bump rule",
                )
            )
    return findings


def _module_and_class_bodies(tree: ast.Module):
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.body


def _constant_name(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Constant):
            return target.id
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        if isinstance(stmt.value, ast.Constant):
            return stmt.target.id
    return None


def _has_rejection(tree: ast.Module, name: str) -> bool:
    """A rejection is an ``if`` whose test references ``name`` (bare or as
    ``self.NAME``/``cls.NAME``) and whose body raises."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        if not _references_name(node.test, name):
            continue
        if any(isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)):
            return True
    return False


def _references_name(expr: ast.expr, name: str) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


#: the rule registry, in report order
RULES: dict[str, Callable[[ModuleContext], list[Finding]]] = {
    "R002": check_r002,
    "R003": check_r003,
    "R004": check_r004,
    "R005": check_r005,
    "R006": check_r006,
}
