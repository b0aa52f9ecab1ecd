"""SL1xx — protocol conformance: the sketch / StreamingAlgorithm contract.

Discovers every sketch class (anything defining ``combine`` — linearity
is what makes something a sketch) and every repo-local
``StreamingAlgorithm`` subclass, then verifies the complete contract so
a new class can never silently ship clone-unsafe or shard-incompatible:

* ``SL101`` — a sketch class is missing a required contract member:
  a clone entry point (``clone``/``copy``), a complete wire protocol
  (``state_ints``+reader or ``sparse_state_ints``+reader), or space
  accounting (``space_words``, or resident+universe words for stacks).
* ``SL102`` — a ``StreamingAlgorithm`` subclass implements the sharded
  execution protocol *partially* (some of ``shard_state_ints`` /
  ``load_shard_state_ints`` / ``merge_shard``, or ``broadcast_state``
  without ``adopt_broadcast``): such a class dies only at runtime, on a
  coordinator, mid-merge.
* ``SL103`` — a concrete ``StreamingAlgorithm`` subclass never defines
  an abstract member (``passes_required``, ``process``, ``finalize``)
  anywhere along its repo-local base chain.
* ``SL104`` — a columnar stack (anything with ``row_state_ints``) is
  missing part of the stack wire contract (``load_row_state``,
  ``row_state_len``, ``sparse_state_ints``, ``load_sparse_state``,
  ``reset_state``) — the sparse-wire participation its dense twin has.

PR 2 found two hash tables missing ``state_ints`` and PR 5 a clone that
aliased live state through a hash family — both by manual audit.  This
checker is that audit, run on every ``make check``.
"""

from __future__ import annotations

from typing import Iterable

from tools.sketchlint.diagnostics import Diagnostic
from tools.sketchlint.model import ClassInfo, RepoIndex
from tools.sketchlint.registry import register

__all__ = ["check_protocol", "discover"]

_STACK_CONTRACT = (
    "load_row_state",
    "row_state_len",
    "sparse_state_ints",
    "load_sparse_state",
    "reset_state",
)

_SHARD_TRIO = ("shard_state_ints", "load_shard_state_ints", "merge_shard")

_ABSTRACT_MEMBERS = ("passes_required", "process", "finalize")


def discover(index: RepoIndex) -> dict[str, list[ClassInfo]]:
    """The checker's registry: sketch classes and streaming algorithms.

    Returned dict has keys ``"sketches"`` and ``"algorithms"``; a class
    appearing in both lists (a sketch-backed algorithm) is checked under
    both contracts.  Private classes (``_Name``) are exempt — they are
    implementation details of their module, not contract surface.
    """
    sketches = [
        info
        for info in index.classes
        if info.has_method("combine") and not info.name.startswith("_")
    ]
    algorithms = [
        info
        for info in index.subclasses_of("StreamingAlgorithm")
        if not info.name.startswith("_")
        and info.name not in index.config.abstract_roots
    ]
    return {"sketches": sketches, "algorithms": algorithms}


def _diag(info: ClassInfo, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        path=info.path, line=info.line, code=code, message=message,
        checker="protocol",
    )


def _check_sketch(index: RepoIndex, info: ClassInfo) -> Iterable[Diagnostic]:
    resolves = lambda name: index.resolves_method(info, name)  # noqa: E731
    if not any(resolves(name) for name in index.config.clone_names):
        yield _diag(
            info, "SL101",
            f"sketch class {info.name} has no clone()/copy(): snapshot "
            f"queries cannot take an independent copy of its dynamic state",
        )
    has_dense_wire = resolves("state_ints")
    has_sparse_wire = resolves("sparse_state_ints")
    if not has_dense_wire and not has_sparse_wire:
        yield _diag(
            info, "SL101",
            f"sketch class {info.name} exposes no wire protocol "
            f"(state_ints or sparse_state_ints): it cannot be "
            f"checkpointed or shipped to a shard coordinator",
        )
    has_flat_space = resolves("space_words")
    has_stack_space = resolves("resident_space_words") and resolves(
        "universe_space_words"
    )
    if not has_flat_space and not has_stack_space:
        yield _diag(
            info, "SL101",
            f"sketch class {info.name} has no space accounting "
            f"(space_words, or resident_space_words+universe_space_words): "
            f"the paper's space claims cannot be measured on it",
        )
    if info.has_method("row_state_ints"):
        missing = [
            name for name in _STACK_CONTRACT if not index.resolves_method(info, name)
        ]
        if missing:
            yield _diag(
                info, "SL104",
                f"columnar stack {info.name} is missing "
                f"{', '.join(missing)}: its wire format cannot round-trip "
                f"the way its dense twin's does",
            )


def _check_algorithm(index: RepoIndex, info: ClassInfo) -> Iterable[Diagnostic]:
    chain = index.mro_chain(info)
    concrete = [
        link for link in chain if link.name not in index.config.abstract_roots
    ]
    defined = {name for link in concrete for name in link.methods}
    shard_present = [name for name in _SHARD_TRIO if name in defined]
    if shard_present and len(shard_present) != len(_SHARD_TRIO):
        missing = [name for name in _SHARD_TRIO if name not in defined]
        yield _diag(
            info, "SL102",
            f"{info.name} implements {', '.join(shard_present)} but not "
            f"{', '.join(missing)}: a partial shard protocol fails at "
            f"runtime on the coordinator, mid-merge",
        )
    if "broadcast_state" in defined and "adopt_broadcast" not in defined:
        yield _diag(
            info, "SL102",
            f"{info.name} overrides broadcast_state but not "
            f"adopt_broadcast: workers cannot receive what the "
            f"coordinator publishes",
        )
    missing_abstract = [
        name for name in _ABSTRACT_MEMBERS if name not in defined
    ]
    if missing_abstract:
        yield _diag(
            info, "SL103",
            f"{info.name} never implements abstract "
            f"{', '.join(missing_abstract)} (required by "
            f"StreamingAlgorithm)",
        )


@register("protocol", codes=("SL101", "SL102", "SL103", "SL104"))
def check_protocol(index: RepoIndex) -> Iterable[Diagnostic]:
    """Sketch/StreamingAlgorithm contract conformance (SL1xx)."""
    registry = discover(index)
    for info in registry["sketches"]:
        yield from _check_sketch(index, info)
    for info in registry["algorithms"]:
        yield from _check_algorithm(index, info)
