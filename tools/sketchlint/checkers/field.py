"""SL2xx — field-arithmetic and dtype discipline.

All mod-``(2^61 - 1)`` *array* arithmetic must live in the audited
kernel modules (the ``sketch/kernels/`` package, ``sketch/hashing.py``,
``sketch/columnar.py``): raw ``%`` on a ``uint64`` product silently
wraps, a float intermediate silently rounds, and both produce sketches
that are subtly non-summable with their scalar twins.  Scalar Python-int
arithmetic is exact and is *not* flagged.

* ``SL201`` — the Mersenne prime appears as a literal
  (``2305843009213693951`` or ``(1 << 61) - 1``) outside the module
  that defines it: use ``repro.sketch.hashing.MERSENNE_61`` so grep and
  the type system see every field site.
* ``SL202`` — hand-rolled array field coercion
  (``np.remainder(x, MERSENNE_61)`` / ``np.mod(x, MERSENNE_61)``)
  outside the audited kernels: use
  ``repro.sketch.kernels.as_field_array``, which also handles the
  arbitrary-precision fallback exactly.
* ``SL203`` — float or narrowing ``astype``/``dtype=`` on arrays inside
  the field modules (``float``, ``np.float32/64``, ``np.int32``,
  ``np.uint32``, ``np.int16``): field elements need all 61 bits and
  counters need exact 64-bit integers.
* ``SL204`` — an unguarded numpy accumulation (``.sum()`` / ``np.sum``
  without an explicit ``dtype=``) in a field module, in a function that
  never consults ``max_abs_int64``: int64 scatter sums are only
  exact *because* of that magnitude guard; bypassing it reintroduces
  the silent-overflow class of bug the batch paths were audited
  against.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.sketchlint.diagnostics import Diagnostic
from tools.sketchlint.model import RepoIndex, SourceFile
from tools.sketchlint.registry import register

__all__ = ["check_field"]

#: The prime itself; its literal value may appear only where defined.
_PRIME = 2305843009213693951

_BAD_DTYPES = {"float", "float32", "float64", "int32", "uint32", "int16", "uint16"}

_GUARD = "max_abs_int64"


def _diag(source: SourceFile, node: ast.AST, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        path=source.display_path, line=node.lineno, code=code,
        message=message, checker="field",
    )


def _is_prime_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and node.value == _PRIME:
        return True
    # (1 << 61) - 1, with or without parentheses.
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.LShift)
        and isinstance(node.left.left, ast.Constant)
        and node.left.left.value == 1
        and isinstance(node.left.right, ast.Constant)
        and node.left.right.value == 61
    ):
        return True
    return False


def _mentions_field_constant(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == "MERSENNE_61":
            return True
        if isinstance(child, ast.Attribute) and child.attr == "MERSENNE_61":
            return True
        if _is_prime_literal(child):
            return True
    return False


def _dtype_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _in_field_module(source: SourceFile, index: RepoIndex) -> bool:
    return source.module.startswith(index.config.field_module_prefixes)


def _function_calls_guard(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and _call_name(node) == _GUARD:
            return True
    return False


def _check_file(index: RepoIndex, source: SourceFile) -> Iterable[Diagnostic]:
    config = index.config
    in_kernel = source.module in config.kernel_modules
    in_field = _in_field_module(source, index)
    defines_constant = source.module == config.field_constant_module

    # Map every node to its enclosing function for the SL204 guard rule.
    functions = [
        node
        for node in ast.walk(source.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    guard_ok: dict[int, bool] = {}
    for fn in functions:
        ok = _function_calls_guard(fn)
        for node in ast.walk(fn):
            guard_ok[id(node)] = guard_ok.get(id(node), False) or ok

    for node in ast.walk(source.tree):
        # SL201 — literal prime outside its defining module.
        if not defines_constant and _is_prime_literal(node):
            # Avoid double-reporting the inner (1 << 61) of the BinOp form.
            yield _diag(
                source, node, "SL201",
                "the Mersenne prime appears as a literal; use "
                "repro.sketch.hashing.MERSENNE_61",
            )
            continue

        if isinstance(node, ast.Call):
            name = _call_name(node)
            # SL202 — hand-rolled array coercion outside the kernels.
            if (
                not in_kernel
                and name in ("remainder", "mod")
                and isinstance(node.func, ast.Attribute)
                and any(_mentions_field_constant(arg) for arg in node.args)
            ):
                yield _diag(
                    source, node, "SL202",
                    f"hand-rolled field coercion np.{name}(..., MERSENNE_61) "
                    f"outside the audited kernels; use "
                    f"repro.sketch.kernels.as_field_array",
                )
            # SL203 — float/narrowing astype or dtype= in field modules.
            if in_field:
                if name == "astype" and node.args:
                    target = _dtype_name(node.args[0])
                    if target in _BAD_DTYPES:
                        yield _diag(
                            source, node, "SL203",
                            f"astype({target}) narrows or floats field/counter "
                            f"state; field elements need exact 64-bit integers",
                        )
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        target = _dtype_name(keyword.value)
                        if target in _BAD_DTYPES:
                            yield _diag(
                                source, node, "SL203",
                                f"dtype={target} floats or narrows an array in a "
                                f"field module; use exact 64-bit integer dtypes",
                            )
                # SL204 — unguarded numpy accumulation.
                if name == "sum" and isinstance(node.func, ast.Attribute):
                    has_dtype = any(k.arg == "dtype" for k in node.keywords)
                    if not has_dtype and not guard_ok.get(id(node), False):
                        yield _diag(
                            source, node, "SL204",
                            "numpy sum without an explicit dtype in a function "
                            "that never consults max_abs_int64: int64 "
                            "accumulations are only exact under the magnitude "
                            "guard",
                        )


@register("field", codes=("SL201", "SL202", "SL203", "SL204"))
def check_field(index: RepoIndex) -> Iterable[Diagnostic]:
    """Field-arithmetic / dtype discipline (SL2xx)."""
    for source in index.files:
        yield from _check_file(index, source)
