"""Single-pass connectivity applications of AGM sketches.

The paper's introduction cites [AGM12a]'s suite of dynamic-stream graph
properties — "bipartiteness, connectivity, k-connectivity, ..." — all of
which reduce to spanning-forest extraction.  This module exposes them as
one-pass :class:`~repro.stream.pipeline.StreamingAlgorithm`s:

* :class:`ConnectivityChecker` — connected components from one sketch
  stack;
* :class:`BipartitenessChecker` — the double-cover reduction: ``G`` is
  bipartite iff its bipartite double cover has exactly twice as many
  components as ``G``;
* :class:`KConnectivityCertificate` — the union of ``k`` successively
  extracted spanning forests; the certificate preserves every cut up to
  value ``k`` (so ``G`` is ``k``-edge-connected iff the certificate is),
  and is the building block of [AGM12b]'s cut sparsifiers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.agm.spanning_forest import AgmSketch
from repro.graph.graph import Graph
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro.sketch.serialize import concat_ints
from repro.stream.batching import updates_to_arrays
from repro.stream.pipeline import StreamingAlgorithm, run_passes
from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import derive_seed

__all__ = ["ConnectivityChecker", "BipartitenessChecker", "KConnectivityCertificate"]


class ConnectivityChecker(StreamingAlgorithm):
    """One-pass connected components of a dynamic stream.

    ``num_vertices`` may be a plain int (dense universe) or a
    :class:`~repro.graph.vertex_space.VertexSpace`; lazy spaces charge
    only the touched vertices' sketch rows and answer component queries
    over the touched subgraph.  ``rounds`` forwards to
    :class:`~repro.agm.spanning_forest.AgmSketch` for sessions that know
    their touched count is far below the universe.
    """

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        seed: int | str,
        rounds: int | None = None,
    ):
        self.space = as_vertex_space(num_vertices)
        self.num_vertices = self.space.universe_size
        self._sketch = AgmSketch(
            self.space, derive_seed(seed, "connectivity"), rounds=rounds
        )

    @property
    def passes_required(self) -> int:
        return 1

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        self._sketch.update(update.u, update.v, update.sign)

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        self._sketch.update_batch(*updates_to_arrays(updates))

    def finalize(self) -> list[set[int]]:
        """The connected components (whp)."""
        return self._sketch.connected_components()

    def spanning_forest(self) -> list[tuple[int, int]]:
        """A spanning forest of the current graph (whp), as edge pairs.

        Read-only like :meth:`finalize`; one Borůvka extraction yields
        both the forest and (via union-find over it) the components,
        which is how the live service answers ``spanning_forest()`` and
        ``connected(u, v)`` from a single decode.
        """
        return self._sketch.spanning_forest()

    def is_connected(self) -> bool:
        """Whether the final graph is connected (consumes the sketch state
        read-only; callable after the pass)."""
        return len(self.finalize()) == 1

    def run(
        self, stream: DynamicStream, batch_size: int | None = None
    ) -> list[set[int]]:
        """Convenience: run the single pass over ``stream``."""
        return run_passes(stream, self, batch_size=batch_size)

    def shard_state_ints(self, pass_index: int) -> np.ndarray | list[int]:
        """Shardable entry point: the AGM sketch stack's flat state."""
        return self._sketch.state_ints()

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Shardable entry point: inverse of :meth:`shard_state_ints`."""
        self._sketch.from_state_ints(values)

    def state_digest(self) -> str:
        """Canonical content hash of the full sketch state (cheap,
        memory-bandwidth identity probe — see
        :meth:`~repro.agm.spanning_forest.AgmSketch.state_digest`)."""
        return self._sketch.state_digest()

    def merge_shard(self, other: "ConnectivityChecker", pass_index: int) -> None:
        """Shardable entry point: sum a shard's sketches into ours."""
        self._sketch.combine(other._sketch)

    def clone(self) -> "ConnectivityChecker":
        """Cheap structural copy: the AGM sketch stack is cloned."""
        clone = object.__new__(ConnectivityChecker)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone._sketch = self._sketch.clone()
        return clone

    def space_words(self) -> int:
        return self._sketch.space_words()

    def space_report(self):
        """Resident vs dense-universe words of the AGM sketch stacks."""
        from repro.stream.space import SpaceReport

        report = SpaceReport()
        report.add(
            "agm vertex samplers",
            self._sketch.space_words(),
            universe_words=self._sketch.universe_space_words(),
        )
        return report


class BipartitenessChecker(StreamingAlgorithm):
    """One-pass bipartiteness via the double-cover reduction.

    The bipartite double cover ``G x K_2`` replaces every edge ``{u, v}``
    by ``{u_0, v_1}`` and ``{u_1, v_0}``.  A connected component of ``G``
    lifts to two components iff it is bipartite, and to one (odd cycle
    merging the layers) otherwise — so ``G`` is bipartite iff
    ``cc(double cover) = 2 * cc(G)``.
    """

    def __init__(self, num_vertices: int | VertexSpace, seed: int | str):
        self.space = as_vertex_space(num_vertices)
        self.num_vertices = self.space.universe_size
        base_space = (
            self.space
            if not self.space.is_interned
            else VertexSpace(self.num_vertices, ids=None, lazy=True)
        )
        self._base = AgmSketch(base_space, derive_seed(seed, "bipartite-base"))
        self._cover = AgmSketch(
            self.space.doubled(), derive_seed(seed, "bipartite-cover")
        )

    @property
    def passes_required(self) -> int:
        return 1

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        u, v, sign = update.u, update.v, update.sign
        self._base.update(u, v, sign)
        n = self.num_vertices
        self._cover.update(u, v + n, sign)
        self._cover.update(u + n, v, sign)

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        us, vs, signs = updates_to_arrays(updates)
        self._base.update_batch(us, vs, signs)
        n = np.int64(self.num_vertices)
        self._cover.update_batch(
            np.concatenate([us, us + n]),
            np.concatenate([vs + n, vs]),
            np.concatenate([signs, signs]),
        )

    def finalize(self) -> bool:
        """``True`` iff the final graph is bipartite (whp)."""
        base_components = len(self._base.connected_components())
        cover_components = len(self._cover.connected_components())
        return cover_components == 2 * base_components

    def run(self, stream: DynamicStream, batch_size: int | None = None) -> bool:
        """Convenience: run the single pass over ``stream``."""
        return run_passes(stream, self, batch_size=batch_size)

    def shard_state_ints(self, pass_index: int) -> np.ndarray | list[int]:
        """Shardable entry point: base-sketch state then cover-sketch state
        (both blocks are self-delimiting sparse-cell sequences)."""
        return concat_ints([self._base.state_ints(), self._cover.state_ints()])

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Shardable entry point: inverse of :meth:`shard_state_ints`."""
        cursor = self._base.load_state_ints(values, 0)
        cursor = self._cover.load_state_ints(values, cursor)
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")

    def merge_shard(self, other: "BipartitenessChecker", pass_index: int) -> None:
        """Shardable entry point: sum a shard's sketches into ours."""
        self._base.combine(other._base)
        self._cover.combine(other._cover)

    def clone(self) -> "BipartitenessChecker":
        """Cheap structural copy: both sketch stacks are cloned."""
        clone = object.__new__(BipartitenessChecker)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone._base = self._base.clone()
        clone._cover = self._cover.clone()
        return clone

    def space_words(self) -> int:
        return self._base.space_words() + self._cover.space_words()


class KConnectivityCertificate(StreamingAlgorithm):
    """One-pass sparse ``k``-edge-connectivity certificate.

    Maintains ``k`` independent AGM sketch stacks; at extraction time the
    ``i``-th stack yields a spanning forest of the graph minus the first
    ``i-1`` forests (linearity: recovered forests are *subtracted* from
    the later stacks).  The union ``F_1 ∪ ... ∪ F_k`` has at most
    ``k (n-1)`` edges and preserves every edge cut up to value ``k``.
    """

    def __init__(self, num_vertices: int | VertexSpace, k: int, seed: int | str):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.space = as_vertex_space(num_vertices)
        self.num_vertices = self.space.universe_size
        self.k = k
        self._stacks = [
            AgmSketch(self.space, derive_seed(seed, "certificate", i)) for i in range(k)
        ]

    @property
    def passes_required(self) -> int:
        return 1

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        for stack in self._stacks:
            stack.update(update.u, update.v, update.sign)

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        us, vs, signs = updates_to_arrays(updates)
        for stack in self._stacks:
            stack.update_batch(us, vs, signs)

    def finalize(self) -> Graph:
        """The certificate subgraph (unit weights)."""
        # Each stack is consulted once, with *every* previously recovered
        # forest subtracted, so forest i is a spanning forest of
        # G - (F_1 ∪ ... ∪ F_{i-1}).
        cumulative: dict[tuple[int, int], int] = {}
        certificate = Graph(self.num_vertices)
        for stack in self._stacks:
            if cumulative:
                stack.subtract_edges(cumulative)
            for a, b in stack.spanning_forest():
                pair = (min(a, b), max(a, b))
                cumulative[pair] = cumulative.get(pair, 0) + 1
                if not certificate.has_edge(*pair):
                    certificate.add_edge(*pair)
        return certificate

    def run(self, stream: DynamicStream, batch_size: int | None = None) -> Graph:
        """Convenience: run the single pass over ``stream``."""
        return run_passes(stream, self, batch_size=batch_size)

    def shard_state_ints(self, pass_index: int) -> np.ndarray | list[int]:
        """Shardable entry point: concatenated per-stack sketch states."""
        return concat_ints([stack.state_ints() for stack in self._stacks])

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Shardable entry point: inverse of :meth:`shard_state_ints`
        (each stack's block is self-delimiting)."""
        cursor = 0
        for stack in self._stacks:
            cursor = stack.load_state_ints(values, cursor)
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")

    def merge_shard(self, other: "KConnectivityCertificate", pass_index: int) -> None:
        """Shardable entry point: sum a shard's sketch stacks into ours."""
        for mine, theirs in zip(self._stacks, other._stacks):
            mine.combine(theirs)

    def clone(self) -> "KConnectivityCertificate":
        """Cheap structural copy: every AGM stack is cloned.

        Cloning matters doubly here: :meth:`finalize` *mutates* the
        stacks (``subtract_edges`` peels recovered forests), so a
        snapshot query must never finalize the live instance.
        """
        clone = object.__new__(KConnectivityCertificate)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone.k = self.k
        clone._stacks = [stack.clone() for stack in self._stacks]
        return clone

    def space_words(self) -> int:
        return sum(stack.space_words() for stack in self._stacks)
