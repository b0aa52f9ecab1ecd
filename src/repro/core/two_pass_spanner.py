"""The two-pass streaming ``2^k``-spanner (Theorem 1; Algorithms 1 and 2).

Pass 1 (Algorithm 1 — CONSTRUCTCLUSTERS)
    Every vertex ``u`` maintains sketches
    ``S^r_j(u) = SKETCH_B(({u} x C_r) ∩ E ∩ E_j)`` for each target level
    ``r`` and each nested edge-sample level ``j``.  After the pass the
    cluster forest is built bottom-up: a copy ``(u, i)`` sums its
    subtree's level-``(i+1)`` sketches (linearity!), decodes from the
    sparsest ``E_j`` downward, and attaches to the first recovered
    neighbor in ``C_{i+1}`` — the recovered edge is the witness.

Pass 2 (Algorithm 2 — CONSTRUCTSPANNER)
    Every terminal root keeps, per vertex-sample level ``Y_j`` (and per
    independent repetition — see :mod:`repro.sketch.linear_hash_table`
    and ``SpannerParams.table_stacks``), a linear hash table
    ``H^u_j`` keyed by outside vertices ``v`` whose payload sketches
    ``N(v) ∩ T_u ∩ Y_j``.  Decoding the tables yields one edge from each
    outside neighbor into the cluster, completing the spanner.

Columnar storage
----------------
The pass-1 sketches of one ``(r, j)`` slot are seeded independently of
the vertex — sketches of different vertices must be summable — so each
``(r, j)`` is one seed group of a single
:class:`~repro.sketch.columnar.SketchStack` (rows = vertices).  A
stream chunk is first collapsed to its net delta
per distinct edge pair (:func:`~repro.stream.batching.aggregate_updates`),
fanned out to its ``(vertex, r, j)`` incidences, and landed with one
scatter — bit-identical to the historical per-sketch state.  The pass-0
shard wire ships the stack's nonzero ``(vertex, r, j)`` rows.

Pass 2 is sized by what it holds.  Every ``(root, stack, j)`` table is a
seed group of one :class:`~repro.sketch.table_store.NeighborhoodTableStore`
and every root's cut sketch a group of one
:class:`~repro.sketch.table_store.SparseRecoveryStore`; both hold
nonzero cells only.  The forest is turned into routing arrays once
(:class:`_Routing`), so a chunk's distinct pairs fan out to their
``(table, key, neighbor, delta)`` incidences in one vectorized step (a
scalar token is a batch of one); the stores reduce them by cell key on
the next read, and finalization decodes the tables in batched blocks
(:func:`~repro.sketch.table_store.decode_tables`; the sparsifier's
sub-spanners decode together through :meth:`TwoPassSpannerBuilder.finalize_many`).
The table randomness is memoized per builder and shared with its
clones, so a snapshot that lays out the same tables derives nothing.
The pass-2 shard wire ships what the stores hold: one ``(key, total,
index sum, fingerprint)`` record per nonzero cell of the tables, then of
the cut sketches.

The class is linear-sketch-based throughout: all pass-1/pass-2 state
supports addition of same-seeded instances, so sketches computed on
different shards of the stream can be merged (see
``examples/distributed_servers.py``).

Setting ``augmented=True`` additionally records ``Sigma(R)`` — every
edge any successful decode revealed (Claims 16/18/20) — which the
spectral sparsifier's sampler consumes.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.cluster_forest import ClusterForest, Copy
from repro.core.levels import LevelSamples
from repro.core.offline_spanner import SpannerOutput
from repro.core.parameters import SpannerParams
from repro.graph.graph import Graph, edge_from_index, edge_index
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro.sketch.columnar import SketchStack, fan_out_levels
from repro.sketch.hashing import NestedSampler
from repro.sketch.onesparse import DecodeStatus
from repro.sketch.serialize import concat_ints
from repro.sketch.table_store import NeighborhoodTableStore, SparseRecoveryStore, decode_tables
from repro.stream.batching import aggregate_updates, updates_to_arrays
from repro.stream.pipeline import StreamingAlgorithm, run_passes
from repro.stream.space import SpaceReport
from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import derive_seed

__all__ = ["TwoPassSpannerBuilder"]

#: Below this many chunk tokens pass 0's token loop beats the
#: aggregation + scatter machinery.  Pass 1 has no such crossover: its
#: buffered pass-2 store is ~5x faster than the token loop at 8 tokens.
_SMALL_BATCH = 32


class TwoPassSpannerBuilder(StreamingAlgorithm):
    """Dynamic-stream ``2^k``-spanner in exactly two passes.

    Parameters
    ----------
    num_vertices:
        Graph size ``n``.
    k:
        Cluster-hierarchy depth; stretch is ``2^k`` and space
        ``~O(n^{1+1/k})``.
    seed:
        Randomness name (cluster samples, edge samples, sketches).
    params:
        Constant calibration, see
        :class:`~repro.core.parameters.SpannerParams`.
    augmented:
        Record the observed-edge set ``Sigma(R)``.
    edge_filter:
        Optional predicate on canonical pairs ``(u, v)``; updates whose
        pair fails it are ignored.  This is how the sparsifier runs many
        spanner instances on (hash-)filtered substreams, and how the
        weighted wrapper splits weight classes.  (The sparsifier's own
        batch path evaluates the filters vectorized and feeds the
        surviving pairs through :meth:`process_pairs`, bypassing the
        per-token predicate.)
    """

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        k: int,
        seed: int | str,
        params: SpannerParams | None = None,
        augmented: bool = False,
        edge_filter: Callable[[int, int], bool] | None = None,
    ):
        self.space = as_vertex_space(num_vertices)
        num_vertices = self.space.universe_size
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.num_vertices = num_vertices
        self.k = k
        self.params = params or SpannerParams()
        self.augmented = augmented
        self.edge_filter = edge_filter
        self._seed = derive_seed(seed)

        self.levels = LevelSamples(num_vertices, k, derive_seed(seed, "levels"))
        self._edge_levels = self.params.edge_levels(num_vertices)
        self._edge_sampler = NestedSampler(
            self._edge_levels, derive_seed(seed, "edge-samples")
        )
        self._vertex_levels = self.params.vertex_levels(num_vertices)
        self._y_samplers = [
            NestedSampler(self._vertex_levels, derive_seed(seed, "y-samples", stack))
            for stack in range(self.params.table_stacks)
        ]

        # Pass-1 sketches S^r_j(u): one store with a seed group per
        # (r >= 1, j) (see _cluster_group) and a row per vertex; k = 1
        # has no target level and no store.  Every stream endpoint lands
        # in ``_touched`` (chunking-independent: canceled tokens count
        # too), which is what the forest registers copies from — the
        # dense engine registered every universe vertex, but untouched
        # vertices can only ever form empty singleton trees, so
        # restricting to the touched set leaves the spanner output
        # unchanged while keeping the forest/table layout proportional
        # to touched vertices.
        self._cluster_store = (
            SketchStack(
                num_vertices,
                num_vertices * num_vertices,
                self.params.cluster_budget,
                None,
                rows=self.params.cluster_rows,
                group_seeds=[
                    derive_seed(self._seed, "cluster-sketch", r, j)
                    for r in range(1, k)
                    for j in range(self._edge_levels + 1)
                ],
            )
            if k > 1
            else None
        )
        self._touched: set[int] = set()
        # Pass-2 table layout bound: vertex-sample levels actually
        # allocated, derived from the *touched* count once the forest is
        # built (== the universe-derived bound when everything is touched).
        self._active_vertex_levels = self._vertex_levels
        # Per-chunk memo of the (hash-derived) vertex levels.
        self._levels_memo: dict[int, list[int]] = {}
        # Each forest vertex's deepest Y_j level per stack, uncapped by
        # the layout (hash-derived; shared with clones, so a snapshot
        # hashes only vertices no earlier snapshot routed).
        self._y_depth_memo: dict[int, tuple[int, ...]] = {}
        # The pass-2 stores' derived randomness, keyed by table (cut)
        # name and budget: {effective n: (table memo, cut memo)}.  Shared
        # with clones, so a snapshot that lays out the same tables again
        # derives nothing.
        self._random_memo: dict[int, tuple[dict, dict]] = {}

        # Filled between passes.
        self.forest: ClusterForest | None = None
        self._terminal_trees: dict[Copy, set[int]] = {}
        self._trees_of_vertex: dict[int, list[Copy]] = {}
        # Pass-2 tables: every (root, stack, j) table is seed group
        # ``_table_group(root, stack, j)`` of one store holding nonzero
        # cells only; seeds and capacities are pure functions of the key
        # and the forest, so every builder that adopted the same forest
        # forms the same layout.  ``_routing`` holds the forest as arrays
        # for the vectorized pass-2 fan-out (see _allocate_tables).
        self._tables: NeighborhoodTableStore | None = None
        self._routing: _Routing | None = None
        self._table_effective_n: int | None = None
        # Pass-2 repair sketches: one cut sketch per terminal root, the
        # groups (in sorted root order) of one nonzero-cells store.
        self._cuts: SparseRecoveryStore | None = None

        self.observed_edges: set[tuple[int, int]] = set()
        self.diagnostics: dict[str, int] = {
            "pass1_decode_failures": 0,
            "pass2_table_overflows": 0,
            "pass2_uncovered_keys": 0,
            "pass2_repaired_keys": 0,
        }

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------

    @property
    def passes_required(self) -> int:
        return 2

    def process(self, update: EdgeUpdate, pass_index: int) -> None:
        if self.edge_filter is not None and not self.edge_filter(update.u, update.v):
            return
        if pass_index == 0:
            self._process_first_pass(update)
        else:
            self._process_second_pass(update)

    def process_batch(self, updates: Sequence[EdgeUpdate], pass_index: int) -> None:
        """Consume a chunk of stream tokens through the columnar sketch
        paths; final state is bit-identical to the scalar loop."""
        if self.edge_filter is not None:
            updates = [
                update for update in updates if self.edge_filter(update.u, update.v)
            ]
        if not updates:
            return
        if pass_index == 0 and len(updates) <= _SMALL_BATCH:
            for update in updates:
                self._process_first_pass(update)
            return
        us, vs, signs = updates_to_arrays(updates)
        if pass_index == 0:
            lows, highs, pairs, net = aggregate_updates(
                us, vs, signs, self.num_vertices, keep_zero=True
            )
            self._first_pass_pairs(lows, highs, pairs, net)
        else:
            lows, highs, pairs, net = aggregate_updates(
                us, vs, signs, self.num_vertices
            )
            self._second_pass_pairs(lows, highs, pairs, net)

    def process_pairs(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        pairs: np.ndarray,
        deltas: np.ndarray,
        pass_index: int,
    ) -> None:
        """Array entry point for pre-filtered, pre-aggregated chunks.

        ``us < vs`` are the distinct canonical pairs of a chunk,
        ``pairs`` their :func:`~repro.graph.graph.edge_index`
        coordinates, ``deltas`` the chunk-net multiplicity changes.  The
        sparsifier pipeline evaluates its per-slot hash filters
        vectorized on the distinct pairs of each chunk and routes the
        survivors here, skipping the per-token ``edge_filter`` Python
        loop entirely.  Pass-0 callers must keep zero-delta pairs (they
        drive the touched-vertex bookkeeping); pass-1 callers should
        drop them.
        """
        if pass_index == 0:
            self._first_pass_pairs(us, vs, pairs, deltas)
        else:
            self._second_pass_pairs(us, vs, pairs, deltas)

    def end_pass(self, pass_index: int) -> None:
        if pass_index == 0:
            self._build_forest()
            self._allocate_tables()

    def finalize(self) -> SpannerOutput:
        if self.forest is None:
            raise RuntimeError("finalize before passes ran")
        return self._recover_spanner(self._tables.decode())

    @staticmethod
    def finalize_many(builders: Sequence["TwoPassSpannerBuilder"]) -> list[SpannerOutput]:
        """:meth:`finalize` of many builders at once — the sparsifier's
        sub-spanners, whose second passes share pass 2.  Every builder's
        tables decode together (:func:`~repro.sketch.table_store.decode_tables`:
        one flush and one peel per block of tables), then each builder
        recovers its spanner from its own slice of the result."""
        if any(builder.forest is None for builder in builders):
            raise RuntimeError("finalize before passes ran")
        with obs.TRACER.span("sparsifier.pass2.decode", builders=len(builders)):
            decoded = decode_tables([builder._tables for builder in builders])
        return [builder._recover_spanner(groups) for builder, groups in zip(builders, decoded)]

    def run(self, stream: DynamicStream, batch_size: int | None = None) -> SpannerOutput:
        """Convenience: run both passes over ``stream``.

        Pass a ``batch_size`` to ride the vectorized sketch engine
        (identical output, much faster on long streams — see
        ``docs/performance.md``).
        """
        return run_passes(stream, self, batch_size=batch_size)

    # ------------------------------------------------------------------
    # Distributed merging (linearity across stream shards)
    # ------------------------------------------------------------------

    def merge_first_pass(self, other: "TwoPassSpannerBuilder") -> None:
        """Add another same-seeded builder's pass-1 sketches into ours.

        This is the distributed use case from the paper's introduction:
        each server sketches its own shard of the update stream, the
        sketches are summed, and the sum equals the sketch of the union
        stream — so the forest built afterwards is exactly the
        single-machine forest.
        """
        self._check_mergeable(other)
        if self._cluster_store is not None:
            self._cluster_store.combine(other._cluster_store)
        self._touched |= other._touched

    def adopt_forest_from(self, other: "TwoPassSpannerBuilder") -> None:
        """Take the between-pass state (forest + table layout) from a
        coordinator builder, so pass-2 routing agrees across servers."""
        if other.forest is None:
            raise ValueError("the coordinator has not built its forest yet")
        self.adopt_broadcast(
            (other.forest, other._terminal_trees, other._trees_of_vertex), 1
        )

    def merge_second_pass(self, other: "TwoPassSpannerBuilder") -> None:
        """Add another same-seeded builder's pass-2 tables into ours
        (same forest, hence the same table layout and seeds, so the sum
        is exact table by table)."""
        self._check_mergeable(other)
        if other._tables is None:
            return
        if self._tables is None:
            raise RuntimeError("table layout requested before the forest was built")
        if (self._routing.roots, self._routing.levels) != (
            other._routing.roots, other._routing.levels
        ):
            raise ValueError("builders must share the forest to merge pass-2 tables")
        self._tables.combine(other._tables)
        if self._cuts is not None:
            self._cuts.combine(other._cuts)

    def _check_mergeable(self, other: "TwoPassSpannerBuilder") -> None:
        """Refuse, before any state changes, a builder whose sketches
        were drawn from different randomness, levels or shapes."""
        shape = (self._seed, self.num_vertices, self.k, self.params)
        if shape != (other._seed, other.num_vertices, other.k, other.params):
            raise ValueError("builders must share seed, num_vertices, k, params to merge")

    def clone(self) -> "TwoPassSpannerBuilder":
        """Cheap structural copy of the builder's dynamic state.

        Stacks, tables and repair stacks are copied cell-for-cell; the
        seed-derived samplers and level samples are immutable and
        shared.  The cluster forest and its routing maps are shared too:
        after ``end_pass(0)`` they are read-only (the same sharing the
        distributed broadcast relies on), and ``_build_forest`` installs
        a *new* forest object rather than mutating one in place — so a
        clone taken mid-pass-1 builds its own forest without touching
        the original's.
        """
        clone = object.__new__(TwoPassSpannerBuilder)
        clone.space = self.space
        clone.num_vertices = self.num_vertices
        clone.k = self.k
        clone.params = self.params
        clone.augmented = self.augmented
        clone.edge_filter = self.edge_filter
        clone._seed = self._seed
        clone.levels = self.levels
        clone._edge_levels = self._edge_levels
        clone._edge_sampler = self._edge_sampler
        clone._vertex_levels = self._vertex_levels
        clone._y_samplers = self._y_samplers
        clone._cluster_store = (
            None if self._cluster_store is None else self._cluster_store.clone()
        )
        clone._touched = set(self._touched)
        clone._active_vertex_levels = self._active_vertex_levels
        clone._table_effective_n = self._table_effective_n
        clone._levels_memo = self._levels_memo
        clone._y_depth_memo = self._y_depth_memo
        clone._random_memo = self._random_memo
        clone.forest = self.forest
        clone._terminal_trees = self._terminal_trees
        clone._trees_of_vertex = self._trees_of_vertex
        clone._tables = None if self._tables is None else self._tables.clone()
        clone._routing = self._routing
        clone._cuts = None if self._cuts is None else self._cuts.clone()
        clone.observed_edges = set(self.observed_edges)
        clone.diagnostics = dict(self.diagnostics)
        return clone

    # -- sharded execution protocol (see repro.stream.distributed) -----

    def shard_state_ints(self, pass_index: int) -> np.ndarray | list[int]:
        """Serialize one pass's sketch state as a flat int sequence: the
        nonzero state of the stores that hold it.

        Pass 0 ships the sorted touched vertices, ``[count, vertex
        ...]``, then the cluster stack's nonzero cells (one block per
        ``(r, j)`` group, keyed by vertex and cell: see
        :meth:`~repro.sketch.columnar.SketchStack.sparse_state_ints`) —
        different shards hold different rows, so keys travel with the
        states.  Pass 1 ships the table store's nonzero cells, then the
        cut store's (see
        :meth:`~repro.sketch.table_store.SparseRecoveryStore.sparse_state_ints`):
        the (broadcast) forest fixes both layouts, so a cell key names
        its table or cut sketch.
        """
        if pass_index == 0:
            touched = sorted(self._touched)
            blocks = [[len(touched)], touched]
            if self._cluster_store is not None:
                blocks.append(self._cluster_store.sparse_state_ints())
            return concat_ints(blocks)
        flat = [0] if self._tables is None else self._tables.sparse_state_ints()
        if self._cuts is not None:
            flat.extend(self._cuts.sparse_state_ints())
        return flat

    def load_shard_state_ints(self, pass_index: int, values) -> None:
        """Inverse of :meth:`shard_state_ints` on a fresh same-seed
        builder (pass 1 additionally requires the adopted forest, which
        fixes the table layout).  The whole wire is checked before any
        state changes: blocks load into copies that are installed only
        once every block and the framing checked out."""
        if pass_index == 0:
            touched_count = int(values[0]) if len(values) else -1
            cursor = 1 + touched_count
            if touched_count < 0 or cursor > len(values):
                raise ValueError("pass-0 wire ends inside its touched list")
            touched = [int(v) for v in values[1:cursor]]
            if touched and not (0 <= min(touched) and max(touched) < self.num_vertices):
                raise ValueError(f"touched id out of [0, {self.num_vertices})")
            store = self._cluster_store
            if store is not None:
                store = store.clone()
                cursor = store.load_sparse_state(values, cursor)
            if cursor != len(values):
                raise ValueError(f"expected {cursor} state ints, got {len(values)}")
            self._touched.update(touched)
            self._cluster_store = store
            return
        if self.forest is None:
            raise RuntimeError("adopt the coordinator forest before loading pass-2 state")
        # Load into copies and install them only once the whole wire
        # checked out, so a bad cut block leaves the tables untouched too.
        tables = self._tables.clone()
        cursor = tables.load_sparse_state(values)
        cuts = None if self._cuts is None else self._cuts.clone()
        if cuts is not None:
            cursor = cuts.load_sparse_state(values, cursor)
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")
        self._tables, self._cuts = tables, cuts

    def merge_shard(self, other: "TwoPassSpannerBuilder", pass_index: int) -> None:
        """Sum a shard builder's pass state into ours (linearity)."""
        if pass_index == 0:
            self.merge_first_pass(other)
        else:
            self.merge_second_pass(other)

    def broadcast_state(self, pass_index: int) -> object:
        """Coordinator state workers need before ``pass_index``: the
        cluster forest and its derived routing maps (pass 1 only)."""
        if pass_index != 1:
            return None
        if self.forest is None:
            raise RuntimeError("no forest to broadcast; run pass 0 first")
        return (self.forest, self._terminal_trees, self._trees_of_vertex)

    def adopt_broadcast(self, state: object, pass_index: int) -> None:
        """Install a coordinator's between-pass broadcast: the forest
        plus routing maps, and the table layout they determine."""
        forest, terminal_trees, trees_of_vertex = state
        self.forest = forest
        self._terminal_trees = terminal_trees
        self._trees_of_vertex = trees_of_vertex
        # Idempotence keyed on the layout marker: a repeated broadcast
        # must not re-run _allocate_tables and drop the stores' state.
        if self._table_effective_n is None:
            self._allocate_tables()

    # ------------------------------------------------------------------
    # Pass 1: cluster sketches
    # ------------------------------------------------------------------

    def _cluster_group(self, r: int, j: int) -> int:
        """Seed group of ``S^r_j`` in the cluster store.  Seeds depend on
        ``(r, j)`` only: sketches of different vertices are summable,
        which _build_forest relies on."""
        return (r - 1) * (self._edge_levels + 1) + j

    def _vertex_levels_of(self, vertex: int) -> list[int]:
        """Nonzero sample levels of ``vertex`` (hash-derived, memoized)."""
        levels = self._levels_memo.get(vertex)
        if levels is None:
            levels = [r for r in self.levels.levels_of(vertex) if r != 0]
            self._levels_memo[vertex] = levels
        return levels

    def _y_depths(self, vertices: np.ndarray) -> np.ndarray:
        """``(stacks, len(vertices))`` deepest ``Y_j`` levels, capped at
        the layout's active depth (raw levels memoized per vertex)."""
        memo = self._y_depth_memo
        listed = vertices.tolist()
        fresh = [v for v in listed if v not in memo]
        if fresh:
            fresh_array = np.array(fresh, dtype=np.int64)
            raw = np.array(
                [sampler.level_array(fresh_array) for sampler in self._y_samplers],
                dtype=np.int64,
            ).reshape(len(self._y_samplers), len(fresh))
            memo.update(zip(fresh, map(tuple, raw.T.tolist())))
        depth = np.array([memo[v] for v in listed], dtype=np.int64)
        return np.minimum(
            depth.reshape(vertices.size, len(self._y_samplers)).T, self._active_vertex_levels
        )

    def _process_first_pass(self, update: EdgeUpdate) -> None:
        pair = edge_index(update.u, update.v, self.num_vertices)
        self._touched.add(update.u)
        self._touched.add(update.v)
        deepest_j = min(self._edge_sampler.level(pair), self._edge_levels)
        for endpoint, other in ((update.u, update.v), (update.v, update.u)):
            for r in self._vertex_levels_of(other):
                first = self._cluster_group(r, 0)
                for group in range(first, first + deepest_j + 1):
                    self._cluster_store.update_row(endpoint, pair, update.sign, group)

    def _first_pass_pairs(
        self, us: np.ndarray, vs: np.ndarray, pairs: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Columnar Algorithm 1 updates over a chunk's distinct pairs.

        The (vertex-sample) routing fans each distinct pair out to its
        ``(endpoint, r)`` incidences, the nested sample levels ``E_j``
        (one vectorized pass over the pairs) fan each of those out to
        its ``(r, j)`` groups, and the cluster store lands the whole
        chunk in one scatter.  Zero-delta pairs only mark their
        endpoints touched.
        """
        if pairs.size == 0:
            return
        self._touched.update(us.tolist())
        self._touched.update(vs.tolist())
        rows: list[int] = []
        take: list[int] = []
        first_groups: list[int] = []
        for position, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            for endpoint, other in ((u, v), (v, u)):
                for r in self._vertex_levels_of(other):
                    rows.append(endpoint)
                    take.append(position)
                    first_groups.append(self._cluster_group(r, 0))
        if not rows:
            return
        take = np.array(take, dtype=np.intp)
        deepest = np.minimum(self._edge_sampler.level_array(pairs), self._edge_levels)
        source, depth = fan_out_levels(deepest[take])
        row_ids = np.array(rows, dtype=np.int64)[source]
        groups = np.array(first_groups, dtype=np.int64)[source] + depth
        take = take[source]
        self._cluster_store.scatter(row_ids, pairs[take], deltas[take], groups)

    def _build_forest(self) -> None:
        """Between-pass forest construction (lines 8-20 of Algorithm 1).

        Copies are registered for *touched* vertices only (stream
        endpoints, canceled tokens included): an untouched vertex holds
        zero sketches, can never attach anywhere, and would only produce
        an empty singleton tree whose pass-2 tables decode nothing — so
        dropping it leaves the spanner identical while keeping forest
        and table state proportional to the touched count (the sparse
        vertex-universe regime).
        """
        forest = ClusterForest(self.num_vertices, self.k)
        touched = sorted(self._touched)
        members_of = {
            level: [v for v in touched if self.levels.contains(v, level)]
            for level in range(self.k)
        }
        for level in range(self.k):
            for vertex in members_of[level]:
                forest.register_copy((vertex, level))

        store = self._cluster_store
        # Rows the stack never interned are zero: read its rows once.
        resident = [] if store is None else [
            set(store.touched_row_ids(group)) for group in range(store.num_groups)
        ]
        for level in range(self.k - 1):
            target = level + 1
            for vertex in members_of[level]:
                copy: Copy = (vertex, level)
                tree = forest.subtree_vertices(copy)
                attached = self._attach_via_sketches(forest, copy, tree, target, resident)
                if not attached:
                    forest.mark_terminal(copy)
        for vertex in members_of[self.k - 1]:
            forest.mark_terminal((vertex, self.k - 1))

        forest.validate()
        self.forest = forest
        self._terminal_trees = forest.terminal_trees()
        self._trees_of_vertex = forest.trees_containing()

    def _attach_via_sketches(
        self, forest: ClusterForest, copy: Copy, tree: set[int], target: int, resident
    ) -> bool:
        """Decode ``Q^{target}_j = sum_{v in tree} S^{target}_j(v)`` from
        the sparsest level down; attach on the first usable edge.
        ``resident[group]`` holds the cluster stack's resident rows: the
        other members' rows are zero."""
        for j in range(self._edge_levels, -1, -1):
            group = self._cluster_group(target, j)
            members = [v for v in tree if v in resident[group]]
            if not members:
                continue  # no member holds a row at this level
            combined = self._cluster_store.rows_sum_sketch(members, group)
            decoded = combined.decode()
            if decoded is None:
                self.diagnostics["pass1_decode_failures"] += 1
                continue
            if not decoded:
                continue
            edges = sorted(
                edge_from_index(index, self.num_vertices) for index in decoded
            )
            if self.augmented:
                self.observed_edges.update(edges)
            for a, b in edges:
                # One endpoint lies in the tree, the other must be the
                # C_target parent; prefer a parent outside the tree.
                candidates = []
                if self.levels.contains(b, target) and a in tree:
                    candidates.append((b not in tree, b, (a, b)))
                if self.levels.contains(a, target) and b in tree:
                    candidates.append((a not in tree, a, (a, b)))
                if not candidates:
                    continue
                candidates.sort(reverse=True)
                prefer_outside, parent, witness = candidates[0]
                forest.attach(copy, parent, witness)
                return True
        return False

    # ------------------------------------------------------------------
    # Pass 2: neighborhood hash tables
    # ------------------------------------------------------------------

    def _effective_n(self) -> int:
        """Table-sizing vertex count: vertices registered in the forest.

        Equal to ``num_vertices`` when every universe vertex is touched
        (the historical dense regime), and to the touched count over a
        sparse universe — capacities and ``Y_j`` depth then track the
        graph that actually arrived, not the id space it lives in.
        Derived from the (broadcast) forest, so every builder that
        adopted the same forest allocates the identical layout.
        """
        return max(1, len(self._trees_of_vertex))

    def _table_group(self, root_index, stack, j):
        """Store group of table ``H^root_j`` of one ``Y_j`` stack (ints or
        arrays): groups run in sorted ``(root, stack, j)`` order."""
        return (root_index * self.params.table_stacks + stack) * self._routing.levels + j

    def _allocate_tables(self) -> None:
        """Fix the pass-2 layout (capacities, ``Y_j`` depth, the table
        and cut-sketch stores) and its routing arrays from the built
        forest; cells appear as pass-2 updates touch them."""
        effective_n = self._effective_n()
        self._table_effective_n = effective_n
        self._active_vertex_levels = min(
            self._vertex_levels, self.params.vertex_levels(effective_n)
        )
        roots = sorted(self._terminal_trees)
        capacities = [
            self.params.table_capacity(effective_n, root[1], self.k) for root in roots
        ]
        memo = self._random_memo.get(effective_n)
        if memo is None:
            # Capacities are functions of effective n: once it moves, the
            # old entries' budgets rarely recur, so they are dropped.
            self._random_memo.clear()
            memo = self._random_memo[effective_n] = ({}, {})
        table_memo, cut_memo = memo
        if self.params.repair_budget_factor > 0:
            # Root index i's cut sketch is group i; seeds and budgets are
            # functions of the root, so every same-forest builder forms
            # the identical store and they merge group-wise.
            self._cuts = SparseRecoveryStore(
                self.num_vertices * self.num_vertices,
                [
                    max(8, math.ceil(self.params.repair_budget_factor * capacity))
                    for capacity in capacities
                ],
                roots.__getitem__,
                rows=3,
                seed_of=partial(_cut_seed, self._seed),
                memo=cut_memo,
            )
        self._routing = _Routing(self, roots)
        stacks = self.params.table_stacks
        self._tables = NeighborhoodTableStore(
            self.num_vertices,
            np.repeat(np.array(capacities, dtype=np.int64), stacks * self._routing.levels),
            partial(_table_name, roots, stacks, self._routing.levels),
            rows=self.params.table_rows,
            bucket_factor=self.params.table_bucket_factor,
            seed_of=partial(_table_seed, self._seed),
            memo=table_memo,
        )

    def _process_second_pass(self, update: EdgeUpdate) -> None:
        """One token of Algorithm 2: the batch-of-one columnar update."""
        pair = edge_index(update.u, update.v, self.num_vertices)
        self._second_pass_pairs(  # both orientations route, so order is free
            np.array([update.u], dtype=np.int64),
            np.array([update.v], dtype=np.int64),
            np.array([pair], dtype=np.int64),
            np.array([update.sign], dtype=np.int64),
        )

    def _second_pass_pairs(
        self, us: np.ndarray, vs: np.ndarray, pairs: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Columnar Algorithm 2 updates over a chunk's distinct pairs.

        Both orientations ``(inside, outside)`` of every pair fan out,
        through the routing arrays, to the terminal trees holding the
        inside endpoint but not the outside one; each such crossing adds
        the pair to the root's cut sketch and ``(key = outside, neighbor =
        inside)`` to the root's tables at every stack's levels
        ``0 .. Y-depth(inside)`` — one add to each store.
        """
        if self.forest is None:
            raise RuntimeError("second pass before the forest was built")
        if pairs.size == 0:
            return
        routing = self._routing
        if routing.vertices.size == 0:
            return
        inside = np.concatenate([us, vs])
        outside = np.concatenate([vs, us])
        take = np.tile(np.arange(pairs.size, dtype=np.int64), 2)
        # Inside endpoints outside the forest belong to no tree.
        rows = np.searchsorted(routing.vertices, inside)
        rows = np.minimum(rows, routing.vertices.size - 1)
        known = routing.vertices[rows] == inside
        inside, outside, take, rows = inside[known], outside[known], take[known], rows[known]
        source, offset = fan_out_levels(routing.ptr[rows + 1] - routing.ptr[rows] - 1)
        root_ids = routing.root_ids[routing.ptr[rows][source] + offset]
        # Keep the crossings: outside endpoint not in the root's tree.
        member = root_ids * np.int64(self.num_vertices) + outside[source]
        at = np.minimum(np.searchsorted(routing.members, member), routing.members.size - 1)
        crossing = routing.members[at] != member
        source, root_ids = source[crossing], root_ids[crossing]
        if source.size == 0:
            return
        crossing_pairs = take[source]
        if self._cuts is not None:
            self._cuts.add(root_ids, pairs[crossing_pairs], deltas[crossing_pairs])
        depth = routing.y_depth[:, rows[source]]  # (stacks, crossings)
        fanned, j = fan_out_levels(depth.reshape(-1))
        stack, crossing_id = np.divmod(fanned, source.size)
        self._tables.add(
            self._table_group(root_ids[crossing_id], stack, j),
            outside[source][crossing_id],
            inside[source][crossing_id],
            deltas[crossing_pairs[crossing_id]],
        )

    def _recover_spanner(self, decoded_groups: dict) -> SpannerOutput:
        """Post-pass-2 recovery (lines 20-33 of Algorithm 2) from the
        decoded tables ``{group: decoded}``."""
        spanner = Graph(self.num_vertices)

        # Step 1: witness edges of every attached copy.
        for a, b in self.forest.witness_edges():
            if not spanner.has_edge(a, b):
                spanner.add_edge(a, b)

        # Step 2: per terminal root, take for each outside key the
        # highest-level 1-sparse payload of its decoded tables.
        for root, tree in self._terminal_trees.items():
            decoded_tables = {}
            root_index = self._routing.root_index[root]
            for stack in range(self.params.table_stacks):
                for j in range(self._active_vertex_levels, -1, -1):
                    group = self._table_group(root_index, stack, j)
                    if group not in decoded_groups:
                        continue  # never touched: decodes to nothing
                    decoded = decoded_groups[group]
                    if decoded is None:
                        self.diagnostics["pass2_table_overflows"] += 1
                        continue
                    decoded_tables[(stack, j)] = decoded
            keys = set()
            for decoded in decoded_tables.values():
                keys.update(decoded)
            uncovered = []
            for v in sorted(keys):
                covered = False
                for j in range(self._active_vertex_levels, -1, -1):
                    for stack in range(self.params.table_stacks):
                        result = decoded_tables.get((stack, j), {}).get(v)
                        if result is None or result.status is not DecodeStatus.ONE_SPARSE:
                            continue
                        w = result.index
                        if w not in tree:
                            continue  # fingerprint-level noise; skip
                        if self.augmented:
                            self.observed_edges.add((min(w, v), max(w, v)))
                        if not covered:
                            if not spanner.has_edge(w, v):
                                spanner.add_edge(w, v)
                            covered = True
                    if covered:
                        break
                if not covered:
                    uncovered.append(v)
            if uncovered:
                repaired = self._repair_coverage(root, tree, uncovered, spanner)
                self.diagnostics["pass2_repaired_keys"] += repaired
                self.diagnostics["pass2_uncovered_keys"] += len(uncovered) - repaired

        for level in range(self.k):
            count = sum(1 for root in self._terminal_trees if root[1] == level)
            self.diagnostics[f"terminals_level_{level}"] = count

        return SpannerOutput(
            spanner=spanner,
            forest=self.forest,
            observed_edges=set(self.observed_edges),
            diagnostics=dict(self.diagnostics),
        )

    def _repair_coverage(
        self, root: Copy, tree: set[int], uncovered: list[int], spanner: Graph
    ) -> int:
        """Patch table-missed keys from the root's cut-edge sketch.

        Returns the number of keys repaired.  Only possible when the cut
        sketch decodes, i.e. the root's cut is within its budget.
        """
        if self._cuts is None:
            return 0
        root_index = self._routing.root_index[root]
        decoded = self._cuts.decode([root_index])[root_index]
        if decoded is None:
            return 0
        best_neighbor: dict[int, int] = {}
        for index in decoded:
            a, b = edge_from_index(index, self.num_vertices)
            if a in tree and b not in tree:
                inside, outside = a, b
            elif b in tree and a not in tree:
                inside, outside = b, a
            else:
                continue
            current = best_neighbor.get(outside)
            if current is None or inside < current:
                best_neighbor[outside] = inside
        if self.augmented:
            for index in decoded:
                a, b = edge_from_index(index, self.num_vertices)
                self.observed_edges.add((a, b))
        repaired = 0
        for v in uncovered:
            w = best_neighbor.get(v)
            if w is None:
                continue
            if not spanner.has_edge(w, v):
                spanner.add_edge(w, v)
            repaired += 1
        return repaired

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Measured words held by every sketch component."""
        report = SpaceReport()
        report.add("level-sample seeds", self.levels.space_words())
        report.add("edge-sample seeds", self._edge_sampler.space_words())
        for sampler in self._y_samplers:
            report.add("vertex-sample seeds", sampler.space_words())
        store = self._cluster_store
        # Rows with a nonzero cell: the rows the wire ships, so a live
        # builder and its restored copy charge alike.
        for rows in [] if store is None else store.nonzero_rows().tolist():
            if rows:
                report.add(
                    "pass1 cluster sketches",
                    rows * store.row_space_words(),
                    universe_words=self.num_vertices * store.row_space_words(),
                )
        if self._tables is not None:
            report.add("pass2 hash tables", self._tables.space_words())
        if self._cuts is not None:
            report.add(
                "pass2 repair sketches", self._cuts.space_words(range(self._cuts.num_groups))
            )
        return report

    def space_words(self) -> int:
        return self.space_report().total_words()


def _cut_seed(master: int, root: Copy) -> int:
    """Randomness name of the cut sketch of ``root``."""
    return derive_seed(master, "cut-sketch", root[0], root[1])


def _table_name(roots: list[Copy], stacks: int, levels: int, group: int) -> tuple[Copy, int, int]:
    """The ``(root, stack, j)`` of pass-2 table ``group`` (groups run in
    sorted ``(root, stack, j)`` order)."""
    rest, j = divmod(group, levels)
    root_index, stack = divmod(rest, stacks)
    return roots[root_index], stack, j


def _table_seed(master: int, name: tuple[Copy, int, int]) -> int:
    """Randomness name of pass-2 table ``name`` — the historical
    per-``(root, stack, j)`` table seed."""
    (vertex, level), stack, j = name
    return derive_seed(master, "table", vertex, level, stack, j)


class _Routing:
    """The built forest as arrays, for the vectorized pass-2 fan-out.

    ``vertices`` are the forest's vertices, sorted; the terminal trees
    holding ``vertices[i]`` are root indices ``root_ids[ptr[i]:ptr[i+1]]``
    (CSR).  ``members`` holds ``root index * n + vertex`` for every tree
    membership, sorted, so "outside the tree" is one ``searchsorted``.
    ``y_depth[s, i]`` is ``vertices[i]``'s deepest ``Y_j`` level in stack
    ``s``.  Read-only once built: clones and builders that adopted the
    same forest share it.
    """

    __slots__ = (
        "roots", "root_index", "levels", "vertices", "ptr", "root_ids",
        "members", "y_depth",
    )

    def __init__(self, builder: TwoPassSpannerBuilder, roots: list[Copy]):
        self.roots = roots
        self.root_index = {root: index for index, root in enumerate(roots)}
        self.levels = builder._active_vertex_levels + 1
        trees_of = builder._trees_of_vertex
        self.vertices = np.array(sorted(trees_of), dtype=np.int64)
        counts = [len(trees_of[v]) for v in self.vertices.tolist()]
        self.ptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64)
        self.root_ids = np.array(
            [self.root_index[root] for v in self.vertices.tolist() for root in trees_of[v]],
            dtype=np.int64,
        )
        n = builder.num_vertices
        self.members = np.sort(np.array(
            [
                self.root_index[root] * n + v
                for root, tree in builder._terminal_trees.items()
                for v in tree
            ],
            dtype=np.int64,
        ))
        self.y_depth = builder._y_depths(self.vertices)
