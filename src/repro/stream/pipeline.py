"""Pass-controlled execution of streaming algorithms.

The paper states exact pass budgets (Theorem 1: two passes; Theorem 3:
one pass) and those budgets are part of what the experiments verify, so
algorithms declare ``passes_required`` and the runner counts the passes
it actually performs.  An algorithm never touches the stream object — it
only receives updates through :meth:`StreamingAlgorithm.process` or, on
the fast path, whole chunks through
:meth:`StreamingAlgorithm.process_batch`.

Batched execution
-----------------
Linear sketches don't care about update order *within* a pass — all the
state transitions commute — so :func:`run_passes` can hand the algorithm
contiguous chunks of the stream instead of single tokens.  Algorithms
that implement :meth:`~StreamingAlgorithm.process_batch` (the AGM
checkers, the two-pass spanner, the sparsifier pipeline) then ride the
numpy-vectorized columnar sketch stacks (:mod:`repro.sketch.columnar`);
the default implementation just loops :meth:`~StreamingAlgorithm.process`, so every
algorithm works under either driver and the resulting sketch state is
bit-identical between the two.

Usage example
-------------
Run the paper's two-pass spanner over a dynamic stream, batched::

    from repro.core import TwoPassSpannerBuilder
    from repro.graph import connected_gnp
    from repro.stream import run_passes, stream_from_graph

    graph = connected_gnp(64, 0.2, seed=1)
    stream = stream_from_graph(graph, seed=1, churn=0.3)

    builder = TwoPassSpannerBuilder(64, k=2, seed=2)
    output = run_passes(stream, builder, batch_size=4096)
    print(output.spanner.num_edges())

``batch_size=None`` (the default) reproduces the historical one-token
loop; any positive value chunks each pass.  See ``docs/performance.md``
for batch-size guidance and measured speedups.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Sequence

from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate

__all__ = ["StreamingAlgorithm", "run_passes"]


class StreamingAlgorithm(abc.ABC):
    """Interface for dynamic-stream algorithms.

    Lifecycle: for each pass ``p`` in ``0..passes_required-1`` the runner
    calls ``begin_pass(p)``, then ``process(update)`` for every token
    (or ``process_batch(chunk)`` for every chunk, under a batched
    runner), then ``end_pass(p)``; finally ``finalize()`` returns the
    result.  Post-processing that the paper performs "after the first
    pass" belongs in ``end_pass``.
    """

    @property
    @abc.abstractmethod
    def passes_required(self) -> int:
        """How many passes over the stream this algorithm needs."""

    def begin_pass(self, pass_index: int) -> None:
        """Hook: a pass is starting."""

    @abc.abstractmethod
    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        """Consume one stream token."""

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        """Consume a contiguous chunk of stream tokens.

        Default: loop over :meth:`process`, so plain algorithms work
        under a batched runner unchanged.  Sketch-based algorithms
        override this to route the chunk through the vectorized
        columnar sketch stacks; overrides must leave the
        algorithm in exactly the state the scalar loop would produce
        (linear sketch updates commute, so this is a no-op requirement
        for anything built on the :mod:`repro.sketch` substrate).
        """
        for update in updates:
            self.process(update, pass_index)

    def end_pass(self, pass_index: int) -> None:
        """Hook: a pass ended (between-pass computation goes here)."""

    @abc.abstractmethod
    def finalize(self) -> Any:
        """Produce the algorithm's output after the last pass."""

    def space_words(self) -> int:
        """Persistent sketch state in machine words (0 if not tracked)."""
        return 0

    def clone(self) -> "StreamingAlgorithm":
        """Independent copy of this algorithm's dynamic state.

        Snapshot queries (the live service of :mod:`repro.service`)
        finalize a *clone* so decoding never perturbs — and is never
        perturbed by — continued ingest into the original.  The default
        is a ``copy.deepcopy``, which is correct for every algorithm in
        the repository because the immutable hash families deep-copy as
        themselves (see :mod:`repro.sketch.hashing`); sketch-heavy
        algorithms override it with cheaper structural copies that share
        the seed-derived randomness outright.
        """
        return copy.deepcopy(self)

    # -- sharded execution protocol (the distributed setting) ----------
    #
    # A *shardable* algorithm can run one instance per stream shard and
    # be reassembled by a coordinator: after each pass every worker
    # ships ``shard_state_ints(pass_index)`` (varint-packed by
    # :mod:`repro.sketch.serialize`), the coordinator rebuilds each
    # message via ``load_shard_state_ints`` on a fresh same-seed
    # instance and sums it in with ``merge_shard`` — linearity makes
    # the sum bit-identical to single-machine state.  Multi-pass
    # algorithms publish between-pass coordinator state through
    # ``broadcast_state`` / ``adopt_broadcast``.  The default
    # implementations mark the algorithm as not shardable; see
    # :mod:`repro.stream.distributed` for the runner.

    def shard_state_ints(self, pass_index: int) -> list[int]:
        """Worker-side: pass-``pass_index`` dynamic state as flat ints.

        This is the content of the worker's message to the coordinator.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded execution"
        )

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Coordinator-side: inverse of :meth:`shard_state_ints`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded execution"
        )

    def merge_shard(self, other: "StreamingAlgorithm", pass_index: int) -> None:
        """Coordinator-side: sum another instance's pass state into ours."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded execution"
        )

    def broadcast_state(self, pass_index: int) -> Any:
        """Coordinator-side: state workers need *before* ``pass_index``.

        ``None`` (the default) means the pass needs no broadcast.  The
        returned object must be picklable — the multiprocessing backend
        ships it into worker processes.
        """
        return None

    def adopt_broadcast(self, state: Any, pass_index: int) -> None:
        """Worker-side: receive a coordinator broadcast for ``pass_index``.

        Only called when :meth:`broadcast_state` returned non-``None``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not consume coordinator broadcasts"
        )


def run_passes(
    stream: DynamicStream,
    algorithm: StreamingAlgorithm,
    batch_size: int | None = None,
) -> Any:
    """Run ``algorithm`` over ``stream`` with exactly its declared passes.

    Parameters
    ----------
    stream:
        The replayable dynamic stream.
    algorithm:
        Any :class:`StreamingAlgorithm`.
    batch_size:
        ``None`` feeds tokens one at a time through
        :meth:`~StreamingAlgorithm.process` (the historical behavior).
        A positive integer chunks each pass and feeds the chunks through
        :meth:`~StreamingAlgorithm.process_batch` — the fast path for
        sketch-based algorithms.  Both drivers produce identical final
        state; see ``docs/performance.md`` for choosing a size.
    """
    passes = algorithm.passes_required
    if passes < 1:
        raise ValueError(f"passes_required must be >= 1, got {passes}")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    for pass_index in range(passes):
        algorithm.begin_pass(pass_index)
        if batch_size is None:
            for update in stream:
                algorithm.process(update, pass_index)
        else:
            for chunk in stream.iter_batches(batch_size):
                algorithm.process_batch(chunk, pass_index)
        algorithm.end_pass(pass_index)
    return algorithm.finalize()
