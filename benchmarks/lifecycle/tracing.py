"""Per-layer attribution for the lifecycle benchmark, timed from outside.

Nothing under ``src/`` changes.  :func:`installed` wraps the program's
layer seams with timing wrappers owned by this file, for the duration of
a ``with`` block, in two ways:

* method attributes on classes — ``GraphSession.ingest_batch`` and its
  three private steps (``_validate``, ``_promote``, ``_net_updates``,
  the only seams for those steps), the two two-pass snapshots, the slot
  classes' ``process_batch`` / ``process_pairs`` / ``clone`` /
  ``finalize`` / ``spanning_forest``, and the two columnar ``scatter``
  entry points;
* module globals bound by ``from ... import`` — the field kernels, the
  stream unpack/aggregate prologue, hop BFS, cut evaluation and the
  checkpoint save/load functions.  Every ``repro.*`` module global that
  *is* one of those function objects gets replaced, so call sites keep
  their own binding and still land in a span.

Spans are kept in memory as parallel lists (name, start, end, parent,
op id) and turned into per-layer metrics when a round ends.  A layer's
self time is its span's duration minus its direct children's.  The
sparsifier's sub-spanners are the same class as the spanner slot, so
while a sparsifier span is open their spans are named
``sparsifier.sub.*`` instead of ``spanner.*``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

#: Kernel name -> how many field elements one call processes.  Table
#: arguments (cell planes, coefficient matrices, power tables) are not
#: counted; the per-call data vector is.
KERNEL_ELEMENTS = {
    "addmod61": lambda args, out: np.size(args[0]),
    "submod61": lambda args, out: np.size(args[0]),
    "mulmod61": lambda args, out: max(np.size(args[0]), np.size(args[1])),
    "polyhash61": lambda args, out: np.size(args[1]),
    "polyhash61_rows": lambda args, out: np.size(args[2]),
    "polyhash61_multi": lambda args, out: np.size(args[1]),
    "powmod61": lambda args, out: np.size(args[1]),
    "powmod61_bases": lambda args, out: np.size(args[1]),
    "powmod61_windowed": lambda args, out: np.size(args[0]),
    "build_pow_table": lambda args, out: np.size(out),
    "sum_mod61": lambda args, out: np.size(args[0]),
    "scatter_sum_mod61": lambda args, out: np.size(args[1]),
    "stack_positions_terms": lambda args, out: np.size(args[2]),
}


class SpanLog:
    """In-memory span store; the wrappers record only while ``recording``."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        #: False when a span of the same name encloses this one (the
        #: weighted sparsifier nests plain sparsifier calls); inclusive
        #: sums count outer spans only.
        self.outer: list[bool] = []
        #: Work items the call received (tokens, pairs, incidences, elements).
        self.items: list[int] = []
        #: Work items the call produced (distinct pairs out of aggregation).
        self.out: list[int] = []
        self.recording = False
        self.op_id = -1
        self.sparsifier_depth = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.items.append(0)
        self.out.append(0)
        depth = self._open.get(name, 0)
        self.outer.append(depth == 0)
        self._open[name] = depth + 1
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.name[index]] -= 1

    def write_jsonl(self, handle, round_index: int) -> None:
        """One JSON object per span; parents index into the same round."""
        for i in range(len(self.name)):
            handle.write(json.dumps({
                "round": round_index, "name": self.name[i], "start": self.start[i],
                "end": self.end[i], "parent": self.parent[i], "op": self.op[i],
                "items": self.items[i],
            }) + "\n")


def _traced(log: SpanLog, fn, name, items=None, out=None, sparsifier_scope=False):
    """``fn`` wrapped to record one span per call while ``log`` records.

    ``name`` is a string or a function of the call's arguments; ``items``
    and ``out`` count work from the arguments and the result.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.recording:
            return fn(*args, **kwargs)
        index = log.open(name if isinstance(name, str) else name(args))
        if sparsifier_scope:
            log.sparsifier_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
            if sparsifier_scope:
                log.sparsifier_depth -= 1
        if items is not None:
            log.items[index] = int(items(args, result))
        if out is not None:
            log.out[index] = int(out(result))
        return result

    return wrapper


def _spanner_name(log: SpanLog, method: str, first: str | None = None):
    def name(args):
        if log.sparsifier_depth:
            return f"sparsifier.sub.{method}"
        if first is not None:
            return first if args[2] == 0 else "spanner.pass2"
        return f"spanner.{method}"

    return name


def _method_wrappers(log: SpanLog):
    """(class, attribute, wrapper options) for every wrapped method."""
    from repro.agm.connectivity import ConnectivityChecker
    from repro.core.sparsify import StreamingSparsifier, StreamingWeightedSparsifier
    from repro.core.two_pass_spanner import TwoPassSpannerBuilder
    from repro.service.session import GraphSession
    from repro.sketch.columnar import L0SamplerStack, SketchStack

    def sub_builders(args, result):
        sparsifier = args[0]
        return len(sparsifier._oracle_builders) + len(sparsifier._sample_builders)

    def route_name(args):
        return "slot.sparsifier" if args[2] == 0 else "sparsifier.pass2"

    return [
        (GraphSession, "ingest_batch", dict(name="service.ingest")),
        (GraphSession, "_validate", dict(name="service.validate")),
        (GraphSession, "_promote", dict(name="service.promote")),
        (GraphSession, "_net_updates", dict(name="service.net_updates")),
        (GraphSession, "spanner_snapshot", dict(name="service.snapshot.spanner")),
        (GraphSession, "sparsifier_snapshot", dict(name="service.snapshot.sparsifier")),
        (ConnectivityChecker, "process_batch", dict(name="slot.connectivity")),
        (ConnectivityChecker, "spanning_forest", dict(name="agm.forest")),
        (TwoPassSpannerBuilder, "process_batch",
         dict(name=_spanner_name(log, "batch", first="slot.spanner"))),
        (TwoPassSpannerBuilder, "process_pairs",
         dict(name=_spanner_name(log, "pairs"), items=lambda a, r: np.size(a[3]))),
        (TwoPassSpannerBuilder, "clone", dict(name=_spanner_name(log, "clone"))),
        (TwoPassSpannerBuilder, "finalize", dict(name=_spanner_name(log, "finalize"))),
        (StreamingSparsifier, "process_batch",
         dict(name=route_name, items=sub_builders, sparsifier_scope=True)),
        (StreamingWeightedSparsifier, "process_batch",
         dict(name=route_name, sparsifier_scope=True)),
        (StreamingSparsifier, "clone", dict(name="sparsifier.clone", sparsifier_scope=True)),
        (StreamingWeightedSparsifier, "clone",
         dict(name="sparsifier.clone", sparsifier_scope=True)),
        (StreamingSparsifier, "finalize",
         dict(name="sparsifier.finalize", sparsifier_scope=True)),
        (StreamingWeightedSparsifier, "finalize",
         dict(name="sparsifier.finalize", sparsifier_scope=True)),
        (SketchStack, "scatter",
         dict(name="stack.scatter", items=lambda a, r: np.size(a[1]))),
        (L0SamplerStack, "scatter",
         dict(name="l0stack.scatter", items=lambda a, r: np.size(a[2]))),
    ]


def _function_wrappers():
    """(function object, wrapper keyword arguments) for module globals."""
    from repro.graph.cuts import cut_value
    from repro.graph.distances import bfs_distances
    from repro.service.checkpoint import load_session, save_session
    from repro.sketch import kernels
    from repro.stream.batching import aggregate_updates, updates_to_arrays

    wrappers = [
        (updates_to_arrays, dict(name="stream.unpack", items=lambda a, r: len(a[0]))),
        (aggregate_updates, dict(
            name="stream.aggregate",
            items=lambda a, r: np.size(a[0]),
            out=lambda r: np.size(r[2]),
        )),
        (bfs_distances, dict(name="graph.bfs")),
        (cut_value, dict(name="graph.cut")),
        (save_session, dict(name="checkpoint.save")),
        (load_session, dict(name="checkpoint.load")),
    ]
    for kernel in kernels.KERNEL_NAMES:
        wrappers.append((
            getattr(kernels, kernel),
            dict(name=f"kernel.{kernel}", items=KERNEL_ELEMENTS[kernel]),
        ))
    return wrappers


@contextmanager
def installed(log: SpanLog):
    """Install every wrapper for the block, then restore the originals."""
    undo = []
    try:
        for cls, attribute, options in _method_wrappers(log):
            original = cls.__dict__[attribute]
            undo.append((cls, attribute, original))
            setattr(cls, attribute, _traced(log, original, **options))
        targets = {id(fn): (fn, _traced(log, fn, **options)) for fn, options in _function_wrappers()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and target[0] is value:
                    undo.append((module, attribute, value))
                    setattr(module, attribute, target[1])
        yield log
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


class Profile:
    """Durations, self times and work counts of one round's spans."""

    def __init__(self, log: SpanLog) -> None:
        start = np.asarray(log.start, dtype=np.float64)
        end = np.asarray(log.end, dtype=np.float64)
        self.names = np.asarray(log.name, dtype=object)
        self.parent = np.asarray(log.parent, dtype=np.int64)
        self.outer = np.asarray(log.outer, dtype=bool)
        self.items = np.asarray(log.items, dtype=np.int64)
        self.out = np.asarray(log.out, dtype=np.int64)
        self.duration = end - start
        child_time = np.zeros(len(log), dtype=np.float64)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time

    def _mask(self, name: str) -> np.ndarray:
        return self.names == name

    def inclusive(self, *names: str) -> float:
        """Wall time inside the named spans, nested repeats counted once."""
        return float(sum(self.duration[self._mask(n) & self.outer].sum() for n in names))

    def self_of(self, *names: str) -> float:
        return float(sum(self.self_time[self._mask(n)].sum() for n in names))

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def items_of(self, name: str) -> int:
        return int(self.items[self._mask(name)].sum())

    def out_of(self, name: str) -> int:
        return int(self.out[self._mask(name)].sum())

    def subtree_self(self, root_name: str) -> tuple[float, float]:
        """(root wall, self time of everything below the roots) for the
        root spans named ``root_name``: equal when attribution is whole."""
        roots = self._mask(root_name)
        below = np.zeros(len(self.names), dtype=bool)
        # Spans are appended in open order, so a parent precedes its
        # children and one forward sweep marks every descendant.
        inside = roots.copy()
        for i in range(len(self.names)):
            p = self.parent[i]
            if p >= 0 and inside[p]:
                inside[i] = True
                below[i] = True
        return float(self.duration[roots].sum()), float(self.self_time[below].sum())

    def route_ratio(self) -> float:
        """Pairs routed to sub-spanners ÷ (distinct pairs × sub-spanners),
        over the plain sparsifier calls that aggregated their chunk."""
        routed = offered = 0
        is_route = (self.names == "slot.sparsifier") | (self.names == "sparsifier.pass2")
        children: dict[int, list[int]] = {}
        for i in np.flatnonzero(self.parent >= 0):
            p = int(self.parent[i])
            if is_route[p] and self.items[p] > 0:
                children.setdefault(p, []).append(int(i))
        for p, kids in children.items():
            distinct = sum(int(self.out[k]) for k in kids if self.names[k] == "stream.aggregate")
            if distinct == 0:
                continue
            offered += distinct * int(self.items[p])
            routed += sum(int(self.items[k]) for k in kids if self.names[k] == "sparsifier.sub.pairs")
        return routed / offered if offered else float("nan")
