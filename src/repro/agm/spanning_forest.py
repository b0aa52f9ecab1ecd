"""AGM spanning-forest sketches (Theorem 10, [AGM12a]).

``O(log n)`` independent rounds of per-vertex L0-samplers of the signed
incidence vectors; a spanning forest is extracted by Borůvka: every round
each current component sums its members' round-``r`` samplers (linearity)
and samples one outgoing edge.

Storage is *columnar* (:mod:`repro.sketch.columnar`): the ``n`` vertex
samplers of one round are same-seeded by construction (component sums
must be meaningful), and the rounds are independent seed families over
the same vertex rows and the same cell shape.  So one
:class:`~repro.sketch.columnar.L0SamplerStack` holds every round, its
``(round, level)`` sketches stored as the seed groups of a single
:class:`~repro.sketch.columnar.SketchStack`.  A batched update collapses
the chunk to its distinct edge coordinates, evaluates all rounds'
membership hashes in one stacked pass, and lands every ``(round, level,
vertex)`` contribution with exactly one scatter — bucket hashes and
fingerprint powers gathered per incidence from its group's seeds.
State stays bit-identical to the per-sampler scalar sequence
(``tests/sketch/test_columnar.py``), the wire is unchanged, and the
Borůvka component sums become one gathered column reduction per round.

Two extra properties the paper relies on are implemented here:

* **supernode collapsing** — "if a graph H is obtained from G by
  collapsing some sets of nodes into supernodes, an AGM sketch for H can
  be obtained from an AGM sketch for G" — pass ``supernodes`` to
  :meth:`AgmSketch.spanning_forest`;
* **edge subtraction** — "we will maintain AGM sketches for a graph G and
  use them for finding a spanning forest of a graph G' obtained by
  subtracting a set of edges from G" — :meth:`AgmSketch.subtract_edges`.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.agm.incidence import decode_edge, incidence_updates
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro.sketch.columnar import L0SamplerStack
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.sparse_recovery import as_index_array
from repro.stream.batching import aggregate_updates
from repro.util.rng import derive_seed

__all__ = ["AgmSketch", "DisjointSets", "SparseDisjointSets"]


class DisjointSets:
    """Union-find with path compression and union by size."""

    def __init__(self, num_elements: int):
        self.parent = list(range(num_elements))
        self.size = [1] * num_elements

    def find(self, x: int) -> int:
        """Root of ``x``'s set."""
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; False if already merged."""
        root_x, root_y = self.find(x), self.find(y)
        if root_x == root_y:
            return False
        if self.size[root_x] < self.size[root_y]:
            root_x, root_y = root_y, root_x
        self.parent[root_y] = root_x
        self.size[root_x] += self.size[root_y]
        return True

    def num_sets(self) -> int:
        """Number of disjoint sets."""
        return sum(1 for x in range(len(self.parent)) if self.find(x) == x)


class SparseDisjointSets:
    """Union-find over arbitrary int elements, allocated on first touch.

    The sparse-universe Borůvka runs over *touched* vertices only; a
    dense ``parent`` array over a ``10^7``-id universe would cost more
    than the sketches.  Elements register lazily via :meth:`add` (or on
    first ``find``/``union``), so space is proportional to the elements
    actually seen.
    """

    __slots__ = ("parent", "size")

    def __init__(self, elements=()):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        for element in elements:
            self.add(element)

    def add(self, x: int) -> None:
        """Register ``x`` as a singleton if unseen."""
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x: int) -> int:
        """Root of ``x``'s set (registers ``x`` if unseen)."""
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; False if already merged."""
        root_x, root_y = self.find(x), self.find(y)
        if root_x == root_y:
            return False
        if self.size[root_x] < self.size[root_y]:
            root_x, root_y = root_y, root_x
        self.parent[root_y] = root_x
        self.size[root_x] += self.size[root_y]
        return True


class AgmSketch:
    """Per-vertex incidence samplers supporting spanning-forest extraction.

    Parameters
    ----------
    num_vertices:
        The vertex universe: a plain int (the historical dense engine
        over ``range(n)``) or a :class:`~repro.graph.vertex_space.VertexSpace`
        — a lazy space materializes per-vertex rows on first touch, so
        resident state tracks *touched* vertices while seeds and edge
        coordinates stay pure functions of the universe size (dense and
        lazy sketches over equal universes are summable and
        bit-identical on the touched subset).
    seed:
        Randomness name; sketches with equal seeds/shape are summable.
    rounds:
        Borůvka rounds (default ``ceil(log2 n) + 2``); each consumes one
        independent sampler per vertex, the standard AGM requirement.
        Sparse sessions whose expected touched count is far below the
        universe can pass a smaller explicit value.
    budget:
        Per-level sparse-recovery budget inside each L0-sampler.
    """

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        seed: int | str,
        rounds: int | None = None,
        budget: int = 4,
    ):
        self.space = as_vertex_space(num_vertices)
        num_vertices = self.space.universe_size
        self.num_vertices = num_vertices
        if rounds is None:
            rounds = max(2, math.ceil(math.log2(max(num_vertices, 2)))) + 2
        self.rounds = rounds
        self._seed_key = derive_seed(seed, "agm", num_vertices, rounds, budget)
        domain = num_vertices * num_vertices
        # One columnar store for every round, rows = vertices: samplers of
        # the same round share a seed across vertices so that component
        # sums are meaningful; rounds are independent seed families.
        self._samplers = L0SamplerStack(
            num_vertices,
            domain,
            [derive_seed(self._seed_key, "round", r) for r in range(rounds)],
            budget=budget,
            lazy=self.space.lazy,
        )

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------

    def update(self, u: int, v: int, delta: int) -> None:
        """Apply ``x_{uv} += delta`` to every round's samplers."""
        for vertex, coordinate, signed in incidence_updates(u, v, delta, self.num_vertices):
            self._samplers.update_row(vertex, coordinate, signed)

    def update_batch(self, us, vs, deltas) -> None:
        """Apply a whole batch of edge updates ``x_{u_t v_t} += delta_t``.

        The chunk is first collapsed to its net delta per distinct edge
        pair (:func:`~repro.stream.batching.aggregate_updates` — exact by
        linearity), then the signed-incidence encoding of the distinct
        pairs reaches every round in one columnar scatter: membership
        hashes are evaluated once per (coordinate, round) and bucket
        hashes and fingerprint powers once per (incidence, round,
        level), all in whole-batch passes.  The final state is
        bit-identical to the scalar :meth:`update` sequence.
        """
        us = as_index_array(us)
        vs = as_index_array(vs)
        values = as_index_array(deltas)
        if not us.shape == vs.shape == values.shape:
            raise ValueError("us, vs, deltas must be 1-D of equal length")
        if us.size == 0:
            return
        if int(min(us.min(), vs.min())) < 0 or int(max(us.max(), vs.max())) >= self.num_vertices:
            raise ValueError(f"vertex batch leaves [0, {self.num_vertices})")
        if np.any(us == vs):
            raise ValueError("self-loops are not allowed")
        low = np.minimum(us, vs)
        high = np.maximum(us, vs)
        lows, highs, coordinates, net = aggregate_updates(
            low, high, values, self.num_vertices
        )
        if coordinates.size == 0:
            return
        # Each distinct edge touches both endpoints: +delta at the low
        # endpoint, -delta at the high endpoint (the AGM sign convention).
        self._samplers.scatter(
            np.concatenate([lows, highs]),
            np.concatenate([coordinates, coordinates]),
            np.concatenate([net, -net]),
        )

    def subtract_edges(self, edges: dict[tuple[int, int], int]) -> None:
        """Remove known edges (pair -> multiplicity) by linearity."""
        live = [(u, v, m) for (u, v), m in edges.items() if m != 0]
        if not live:
            return
        self.update_batch(
            [u for u, _, _ in live],
            [v for _, v, _ in live],
            [-m for _, _, m in live],
        )

    def combine(self, other: "AgmSketch", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds must match."""
        if self._seed_key != other._seed_key:
            raise ValueError("cannot combine AGM sketches with different seeds")
        self._samplers.combine(other._samplers, sign)

    def clone(self) -> "AgmSketch":
        """Independent copy with the same state and seed.

        The sampler store is copied cell-for-cell (its hash families are
        shared, immutable), so forest extraction from the clone is
        unaffected by further updates to the original.
        """
        clone = object.__new__(AgmSketch)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone.rounds = self.rounds
        clone._seed_key = self._seed_key
        clone._samplers = self._samplers.clone()
        return clone

    def sampler_view(self, vertex: int, r: int) -> L0Sampler:
        """Standalone copy of vertex ``vertex``'s round-``r`` sampler.

        For inspection and tests: the returned sampler holds the row's
        exact current state and shares the (immutable) randomness, so it
        is summable with other views of the same round.
        """
        return self._samplers.row_sampler(vertex, r)

    # ------------------------------------------------------------------
    # Forest extraction
    # ------------------------------------------------------------------

    def spanning_forest(self, supernodes: list[int] | None = None) -> list[tuple[int, int]]:
        """Extract a spanning forest via Borůvka over the sketches.

        Parameters
        ----------
        supernodes:
            Optional map ``vertex -> group id`` (length ``n``).  Vertices
            sharing a group id start pre-merged — this is the collapsing
            operation the additive spanner uses to contract its clusters.
            Edges internal to a group cancel in the summed sketches, so
            they can never be sampled.

        Returns
        -------
        Edges of the original graph forming a spanning forest of the
        (possibly contracted) graph, as ``(u, v)`` pairs.  Over a lazy
        space, Borůvka runs on *touched* vertices only — untouched
        vertices are isolated, hold exactly-zero samplers, and can never
        contribute an edge, so the forest is identical to the dense
        engine's on the same stream.
        """
        if self.space.lazy:
            if supernodes is not None:
                raise ValueError(
                    "supernode collapsing needs a dense per-vertex group map; "
                    "lazy vertex spaces do not support it"
                )
            vertices: list[int] = self._samplers.touched_row_ids()
            dsu: DisjointSets | SparseDisjointSets = SparseDisjointSets(vertices)
        else:
            vertices = list(range(self.num_vertices))
            if supernodes is None:
                groups = vertices
            else:
                if len(supernodes) != self.num_vertices:
                    raise ValueError("supernodes must assign a group to every vertex")
                groups = list(supernodes)

            # Union-find over vertices; pre-merge supernode groups.
            dsu = DisjointSets(self.num_vertices)
            first_of_group: dict[int, int] = {}
            for vertex, group in enumerate(groups):
                if group in first_of_group:
                    dsu.union(first_of_group[group], vertex)
                else:
                    first_of_group[group] = vertex

        forest: list[tuple[int, int]] = []
        for r in range(self.rounds):
            members: dict[int, list[int]] = {}
            for vertex in vertices:
                members.setdefault(dsu.find(vertex), []).append(vertex)
            if len(members) <= 1:
                break
            merged_any = False
            for root, component in members.items():
                # The component sum, as one gathered column reduction
                # over the round's levels (identical to pairwise combines).
                combined = self._samplers.rows_sum_sampler(component, r)
                sampled = combined.sample()
                if sampled is None:
                    continue
                coordinate, _ = sampled
                a, b = decode_edge(coordinate, self.num_vertices)
                if dsu.union(a, b):
                    forest.append((a, b))
                    merged_any = True
            if not merged_any:
                break
        return forest

    def touched_vertices(self) -> list[int]:
        """Sorted vertex ids holding resident sketch rows.

        Every update reaches every round's level 0, so round 0 carries
        the complete touched set; for a dense space this is all of
        ``range(n)``.
        """
        return self._samplers.touched_row_ids()

    def num_touched_vertices(self) -> int:
        """Number of vertices holding resident sketch rows, in O(1).

        The cheap cardinality twin of :meth:`touched_vertices` (which
        sorts the ids); the adaptive sizing ladder polls this after
        every ingest batch, so it must not scale with the touched set.
        """
        return self._samplers.num_touched_rows()

    def state_digest(self) -> str:
        """Canonical content hash of the sampler store's resident state.

        Runs at memory bandwidth (numpy ``tobytes`` into BLAKE2b), so
        it stays practical at million-vertex scale where
        :meth:`state_ints` would materialize hundreds of millions of
        Python ints.  Two same-shaped, same-seeded sketches digest
        equally iff their resident states match cell-for-cell — the
        cheap strong probe for replay/promotion identity checks.
        """
        hasher = hashlib.blake2b(digest_size=16)
        self._samplers.state_digest(hasher)
        return hasher.hexdigest()

    def connected_components(self, supernodes: list[int] | None = None) -> list[set[int]]:
        """Vertex components implied by the extracted spanning forest.

        Dense spaces enumerate the whole universe (isolated vertices are
        singleton components, the historical behavior); lazy spaces
        return components of the *touched* vertices only — the
        untouched rest of a huge universe is implicitly isolated.
        """
        forest = self.spanning_forest(supernodes)
        if self.space.lazy:
            sparse_dsu = SparseDisjointSets(self.touched_vertices())
            for a, b in forest:
                sparse_dsu.union(a, b)
            components: dict[int, set[int]] = {}
            for vertex in sparse_dsu.parent:
                components.setdefault(sparse_dsu.find(vertex), set()).add(vertex)
            return list(components.values())
        dsu = DisjointSets(self.num_vertices)
        if supernodes is not None:
            first_of_group: dict[int, int] = {}
            for vertex, group in enumerate(supernodes):
                if group in first_of_group:
                    dsu.union(first_of_group[group], vertex)
                else:
                    first_of_group[group] = vertex
        for a, b in forest:
            dsu.union(a, b)
        dense_components: dict[int, set[int]] = {}
        for vertex in range(self.num_vertices):
            dense_components.setdefault(dsu.find(vertex), set()).add(vertex)
        return list(dense_components.values())

    def state_ints(self) -> list[int]:
        """Dynamic state as a flat int sequence (for serialization).

        Round-major sparse blocks: every round ships, per geometric
        level, its *nonzero* rows tagged with their logical vertex ids
        (:meth:`~repro.sketch.columnar.SketchStack.sparse_state_ints`).
        Nonzero-ness is a pure function of the summarized vectors, so
        dense and lazy engines fed the same stream emit byte-identical
        sequences — which is what lets their checkpoints and shard
        messages round-trip interchangeably.
        """
        return self._samplers.sparse_state_ints()

    def load_state_ints(self, values: list[int], cursor: int = 0) -> int:
        """Consume one serialized sketch from ``values`` at ``cursor``;
        returns the new cursor (the format is self-delimiting, so
        multi-sketch wires concatenate without length prefixes).

        The wire names nonzero rows only, so the sketch is reset to
        all-zero first — loading genuinely *overwrites* the dynamic
        state even on a non-fresh target.
        """
        self._samplers.reset_state()
        return self._samplers.load_sparse_state(values, cursor)

    def from_state_ints(self, values: list[int]) -> "AgmSketch":
        """Overwrite the dynamic state from a :meth:`state_ints` sequence.

        Exact inverse of :meth:`state_ints` on a same-seed/same-shape
        sketch; returns ``self``.  This is what lets a coordinator
        rebuild a server's shipped sketch before summing (the
        distributed setting of :mod:`repro.stream.distributed`) — and a
        lazy coordinator materializes exactly the rows the wire names.
        """
        cursor = self.load_state_ints(values, 0)
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")
        return self

    def space_words(self) -> int:
        """Resident persistent state, in machine words (lazy spaces count
        materialized rows only; dense spaces count every row, matching
        the historical accounting)."""
        return self._samplers.resident_space_words()

    def universe_space_words(self) -> int:
        """Words a fully dense allocation over the universe would hold —
        the paper's ``O(n polylog n)`` reference the resident number is
        audited against."""
        return self._samplers.universe_space_words()
