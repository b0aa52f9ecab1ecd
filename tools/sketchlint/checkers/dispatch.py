"""SL2xx (cont.) — kernel-backend dispatch discipline.

The field kernels are pluggable (``repro.sketch.kernels`` selects a
backend once per process from ``REPRO_KERNEL``): the *only* supported
way to call a kernel entry point from outside the kernels package is
through that dispatch facade.  Importing a backend module directly
(``kernels.reference`` / ``kernels.limb``) pins a caller to one
implementation — it silently stops honoring the selected backend and
escapes the cross-backend bit-identity oracle.  Re-defining
a function with a kernel entry point's name shadows the dispatch surface
the same way.

* ``SL205`` — outside ``repro.sketch.kernels``: a kernel entry point
  (``mulmod61``, ``polyhash61``, ``scatter_sum_mod61``, ...) imported
  from any module other than the dispatch facade, a backend submodule
  imported at all, or a function *defined* with a kernel entry point's
  name.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.sketchlint.diagnostics import Diagnostic
from tools.sketchlint.model import RepoIndex, SourceFile
from tools.sketchlint.registry import register

__all__ = ["check_dispatch"]


def _diag(source: SourceFile, node: ast.AST, message: str) -> Diagnostic:
    return Diagnostic(
        path=source.display_path, line=node.lineno, code="SL205",
        message=message, checker="dispatch",
    )


def _resolve_from(source: SourceFile, node: ast.ImportFrom) -> str | None:
    """Dotted module an ``ImportFrom`` targets (best-effort for relative
    imports; the repo convention is absolute imports everywhere)."""
    if node.level == 0:
        return node.module or None
    parts = source.module.split(".")
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _check_file(index: RepoIndex, source: SourceFile) -> Iterable[Diagnostic]:
    config = index.config
    dispatch = config.kernel_dispatch_module
    backend_prefix = dispatch + "."
    if source.module == dispatch or source.module.startswith(backend_prefix):
        return  # inside the kernels package: backends import each other freely

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(backend_prefix):
                    yield _diag(
                        source, node,
                        f"kernel backend module {alias.name} imported directly; "
                        f"call through the {dispatch} dispatch facade so the "
                        f"selected backend is honored",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = _resolve_from(source, node)
            if module is None:
                continue
            if module.startswith(backend_prefix):
                yield _diag(
                    source, node,
                    f"kernel backend module {module} imported directly; "
                    f"call through the {dispatch} dispatch facade so the "
                    f"selected backend is honored",
                )
                continue
            if module == dispatch:
                for alias in node.names:
                    if alias.name in ("reference", "limb"):
                        yield _diag(
                            source, node,
                            f"kernel backend module {dispatch}.{alias.name} "
                            f"imported directly; call through the dispatch "
                            f"facade's entry points instead",
                        )
                continue
            for alias in node.names:
                if alias.name in config.kernel_dispatch_names:
                    yield _diag(
                        source, node,
                        f"kernel entry point {alias.name} imported from "
                        f"{module}; import it from {dispatch} so backend "
                        f"selection applies",
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in config.kernel_dispatch_names:
                yield _diag(
                    source, node,
                    f"function {node.name} shadows a kernel dispatch entry "
                    f"point; kernel implementations live under {dispatch}",
                )


@register("dispatch", codes=("SL205",))
def check_dispatch(index: RepoIndex) -> Iterable[Diagnostic]:
    """Kernel-backend dispatch discipline (SL205)."""
    for source in index.files:
        yield from _check_file(index, source)
