"""Optional-dependency isolation: accelerators import in one place only.

The numba kernels of the ``packed`` engine make numba an *optional*
accelerator: every tier-1 CI job runs without it, and the engine falls
back to its numpy kernels when the import fails.  That guarantee
only holds while exactly one module — ``src/repro/hdc/native.py`` —
touches the import, inside its ``try``/``except ImportError``
availability guard.  A bare ``import numba`` anywhere else (or an
unguarded one in native.py itself) turns a missing optional dependency
into an ImportError at module-import time, breaking the numba-free
fallback path the test matrix depends on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule

#: Module roots that are optional accelerators: importable only from
#: the native module's availability guard.  Extend this set when a new
#: optional backend (e.g. cupy) grows its own guarded module.
_OPTIONAL_ACCELERATORS = frozenset({"numba", "cupy"})

#: The one file allowed to import them — behind its guard.
_GUARDED_MODULE = "src/repro/hdc/native.py"


def _imported_roots(node: ast.AST) -> set[str]:
    """Top-level module names an import statement binds."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def _guarded_imports(tree: ast.Module) -> set[int]:
    """ids of import nodes inside a ``try`` with an ImportError handler."""
    guarded: set[int] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.Try):
            continue
        catches_import_error = False
        for handler in outer.handlers:
            names: list[ast.expr] = []
            if handler.type is None:
                catches_import_error = True
            elif isinstance(handler.type, ast.Tuple):
                names = list(handler.type.elts)
            else:
                names = [handler.type]
            for name in names:
                if isinstance(name, ast.Name) and name.id in (
                    "ImportError", "ModuleNotFoundError", "Exception",
                ):
                    catches_import_error = True
        if not catches_import_error:
            continue
        for inner in outer.body:
            for node in ast.walk(inner):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    guarded.add(id(node))
    return guarded


@register_rule
class OptionalDependencyRule(Rule):
    """RPR010 — optional accelerators import only in the guarded module."""

    code = "RPR010"
    name = "optional-dep-isolation"
    rationale = (
        "numba (and any future optional accelerator) is deliberately "
        "absent from the tier-1 CI environments: the packed engine "
        "must keep working there, on its numpy kernels.  That "
        "requires the import to exist in exactly one place — "
        "src/repro/hdc/native.py, inside its try/except ImportError "
        "availability guard.  An import anywhere else (or an unguarded "
        "one there) crashes numba-free hosts at import time instead of "
        "degrading."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_guarded_module = ctx.path.replace("\\", "/").endswith(
            _GUARDED_MODULE
        )
        guarded = _guarded_imports(ctx.tree) if in_guarded_module else set()
        for node in ast.walk(ctx.tree):
            roots = _imported_roots(node) & _OPTIONAL_ACCELERATORS
            if not roots:
                continue
            name = sorted(roots)[0]
            if not in_guarded_module:
                yield ctx.finding(
                    self.code, node,
                    f"optional accelerator `{name}` imported outside "
                    f"{_GUARDED_MODULE}; go through repro.hdc.native's "
                    "availability API instead",
                )
            elif id(node) not in guarded:
                yield ctx.finding(
                    self.code, node,
                    f"optional accelerator `{name}` imported without the "
                    "try/except ImportError availability guard",
                )
