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
:class:`~repro.sketch.columnar.SketchStack` (rows = vertices).  Every
terminal root's pass-2 *cut* sketch is its own seed group (one row) of a
per-budget store.  A stream chunk is first collapsed to its net delta
per distinct edge pair (:func:`~repro.stream.batching.aggregate_updates`),
fanned out to its ``(vertex, r, j)`` incidences, and landed with one
scatter — bit-identical to the historical per-sketch state, including
the lazy-allocation bookkeeping (``shard_state_ints`` still ships
exactly the ``(vertex, r, j)`` rows the scalar path would have
allocated).

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
from collections import defaultdict
from typing import Callable, Sequence

import numpy as np

from repro.core.cluster_forest import ClusterForest, Copy
from repro.core.levels import LevelSamples
from repro.core.offline_spanner import SpannerOutput
from repro.core.parameters import SpannerParams
from repro.graph.graph import Graph, edge_from_index, edge_index
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro.sketch.columnar import SketchStack, fan_out_levels
from repro.sketch.hashing import NestedSampler
from repro.sketch.linear_hash_table import NeighborhoodHashTable
from repro.sketch.onesparse import DecodeStatus
from repro.stream.batching import aggregate_updates, updates_to_arrays
from repro.stream.pipeline import StreamingAlgorithm, run_passes
from repro.stream.space import SpaceReport
from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import derive_seed

__all__ = ["TwoPassSpannerBuilder"]

#: Below this many distinct chunk tokens the token loop beats the
#: aggregation + scatter machinery.
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
        # has no target level and no store.  ``_cluster_live`` maps a
        # group to the vertices it saw, zero-delta tokens included: the
        # historical per-(vertex, r, j) allocation the pass-0 wire
        # ships.  Every stream endpoint also lands in ``_touched``
        # (chunking-independent: canceled tokens count too), which is
        # what the forest registers copies from — the dense engine
        # registered every universe vertex, but untouched vertices can
        # only ever form empty singleton trees, so restricting to the
        # touched set leaves the spanner output unchanged while keeping
        # the forest/table layout proportional to touched vertices.
        self._cluster_store = (
            SketchStack(
                num_vertices,
                num_vertices * num_vertices,
                self.params.cluster_budget,
                None,
                rows=self.params.cluster_rows,
                lazy=self.space.lazy,
                group_seeds=[
                    derive_seed(self._seed, "cluster-sketch", r, j)
                    for r in range(1, k)
                    for j in range(self._edge_levels + 1)
                ],
            )
            if k > 1
            else None
        )
        self._cluster_live: dict[int, set[int]] = {}
        self._touched: set[int] = set()
        # Pass-2 table layout bound: vertex-sample levels actually
        # allocated, derived from the *touched* count once the forest is
        # built (== the universe-derived bound when everything is touched).
        self._active_vertex_levels = self._vertex_levels
        # Per-chunk memo of the (hash-derived) vertex levels.
        self._levels_memo: dict[int, list[int]] = {}

        # Filled between passes.
        self.forest: ClusterForest | None = None
        self._terminal_trees: dict[Copy, set[int]] = {}
        self._trees_of_vertex: dict[int, list[Copy]] = {}
        # Pass-2 tables: (root, stack, j) -> table, materialized on first
        # touch (a root's deep Y_j levels usually never see an inside
        # vertex, so eager allocation would dominate sparse sessions).
        # Seeds and capacities are pure functions of (root, stack, j) and
        # the forest, so lazily allocated tables are bit-identical to
        # eagerly allocated ones and shards may allocate different sets.
        self._tables: dict[tuple[Copy, int, int], NeighborhoodHashTable] = {}
        self._table_effective_n: int | None = None
        # Pass-2 repair sketches: per-budget stores with one seed group
        # (of one row) per terminal root; root -> (store index, group).
        self._cut_stacks: list[SketchStack] = []
        self._cut_rows: dict[Copy, tuple[int, int]] = {}

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
        if len(updates) <= _SMALL_BATCH:
            for update in updates:
                if pass_index == 0:
                    self._process_first_pass(update)
                else:
                    self._process_second_pass(update)
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
        drive the lazy sketch-row allocation); pass-1 callers should
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
        return self._recover_spanner()

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
        for group, live in other._cluster_live.items():
            self._cluster_live.setdefault(group, set()).update(live)

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
        (tables the other shard touched but we did not materialize on
        demand — same seeds, so the sum is exact)."""
        self._check_mergeable(other)
        for (root, stack, j), table in other._tables.items():
            self._ensure_table(root, stack, j).combine(table)
        for mine, theirs in zip(self._cut_stacks, other._cut_stacks):
            mine.combine(theirs)

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
        clone._cluster_live = {
            group: set(live) for group, live in self._cluster_live.items()
        }
        clone._touched = set(self._touched)
        clone._active_vertex_levels = self._active_vertex_levels
        clone._table_effective_n = self._table_effective_n
        clone._levels_memo = self._levels_memo
        clone.forest = self.forest
        clone._terminal_trees = self._terminal_trees
        clone._trees_of_vertex = self._trees_of_vertex
        clone._tables = {key: table.clone() for key, table in self._tables.items()}
        clone._cut_stacks = [stack.clone() for stack in self._cut_stacks]
        clone._cut_rows = dict(self._cut_rows)
        clone.observed_edges = set(self.observed_edges)
        clone.diagnostics = dict(self.diagnostics)
        return clone

    # -- sharded execution protocol (see repro.stream.distributed) -----

    def shard_state_ints(self, pass_index: int) -> list[int]:
        """Serialize one pass's sketch state as a flat int sequence.

        Pass 0 ships the lazily allocated cluster sketch rows as
        ``[count, (vertex, r, j, cells...) ...]`` — different shards
        allocate different key sets, so keys travel with the states
        (the columnar storage reproduces the per-(vertex, r, j)
        allocation exactly, so the wire format is unchanged).
        Pass 1 ships the *materialized* hash tables key-tagged in sorted
        order (lazy allocation means different shards touch different
        table sets), then the repair sketches — whose layout is
        determined by the (broadcast) forest, so only cell values travel.
        """
        if pass_index == 0:
            # Group order is (r, j) order, so keys sort as (vertex, r, j).
            keys = sorted(
                (int(vertex), group)
                for group, live in self._cluster_live.items()
                for vertex in live
            )
            touched = sorted(self._touched)
            flat: list[int] = [len(touched)]
            flat.extend(touched)
            flat.append(len(keys))
            for vertex, group in keys:
                r, j = divmod(group, self._edge_levels + 1)
                flat.extend((vertex, r + 1, j))
                flat.extend(self._cluster_store.row_state_ints(vertex, group))
            return flat
        # Nonzero tables only: materialization depends on chunk
        # boundaries (canceled-in-chunk tokens), nonzero-ness does not —
        # so every engine and chunking emits the identical wire.
        live_keys = [
            key for key in sorted(self._tables) if not self._tables[key].is_zero()
        ]
        flat = [len(live_keys)]
        for (root, stack, j) in live_keys:
            flat.extend((root[0], root[1], stack, j))
            flat.extend(self._tables[(root, stack, j)].state_ints())
        for root in sorted(self._cut_rows):
            stack_index, group = self._cut_rows[root]
            flat.extend(self._cut_stacks[stack_index].row_state_ints(0, group))
        return flat

    def load_shard_state_ints(self, pass_index: int, values: list[int]) -> None:
        """Inverse of :meth:`shard_state_ints` on a fresh same-seed
        builder (pass 1 additionally requires the adopted forest, which
        fixes the table layout)."""
        if pass_index == 0:
            touched_count = int(values[0])
            cursor = 1
            self._touched.update(
                int(v) for v in values[cursor : cursor + touched_count]
            )
            cursor += touched_count
            count = values[cursor]
            cursor += 1
            for _ in range(count):
                vertex, r, j = (int(v) for v in values[cursor : cursor + 3])
                cursor += 3
                if not (1 <= r < self.k and 0 <= j <= self._edge_levels):
                    # Out of range, (r, j) would alias another slot's group.
                    raise ValueError(f"cluster sketch key (r={r}, j={j}) out of range")
                group = self._cluster_group(r, j)
                self._cluster_live.setdefault(group, set()).add(vertex)
                need = self._cluster_store.row_state_len()
                self._cluster_store.load_row_state(
                    vertex, values[cursor : cursor + need], group
                )
                cursor += need
            if cursor != len(values):
                raise ValueError(f"expected {cursor} state ints, got {len(values)}")
            return
        if self.forest is None:
            raise RuntimeError("adopt the coordinator forest before loading pass-2 state")
        table_count = int(values[0])
        cursor = 1
        for _ in range(table_count):
            vertex, level, stack_id, j = (int(v) for v in values[cursor : cursor + 4])
            cursor += 4
            table = self._ensure_table((vertex, level), stack_id, j)
            need = table.state_len()
            table.from_state_ints(values[cursor : cursor + need])
            cursor += need
        for root in sorted(self._cut_rows):
            stack_index, group = self._cut_rows[root]
            stack = self._cut_stacks[stack_index]
            need = stack.row_state_len()
            stack.load_row_state(0, values[cursor : cursor + need], group)
            cursor += need
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")

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
        # Idempotence keyed on the layout marker, not on the (lazily
        # populated, possibly still empty) table dict: a repeated
        # broadcast must not re-run _allocate_tables and duplicate the
        # cut-sketch stacks.
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

    def _process_first_pass(self, update: EdgeUpdate) -> None:
        pair = edge_index(update.u, update.v, self.num_vertices)
        self._touched.add(update.u)
        self._touched.add(update.v)
        deepest_j = min(self._edge_sampler.level(pair), self._edge_levels)
        for endpoint, other in ((update.u, update.v), (update.v, update.u)):
            for r in self._vertex_levels_of(other):
                first = self._cluster_group(r, 0)
                for group in range(first, first + deepest_j + 1):
                    self._cluster_live.setdefault(group, set()).add(endpoint)
                    self._cluster_store.update_row(endpoint, pair, update.sign, group)

    def _first_pass_pairs(
        self, us: np.ndarray, vs: np.ndarray, pairs: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Columnar Algorithm 1 updates over a chunk's distinct pairs.

        The (vertex-sample) routing fans each distinct pair out to its
        ``(endpoint, r)`` incidences, the nested sample levels ``E_j``
        (one vectorized pass over the pairs) fan each of those out to
        its ``(r, j)`` groups, and the cluster store lands the whole
        chunk in one scatter.  Zero-delta pairs still mark their rows
        live (the scalar path allocates their sketches too) but
        contribute no cell changes.
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
        for group, row in set(zip(groups.tolist(), row_ids.tolist())):
            self._cluster_live.setdefault(group, set()).add(row)
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

        for level in range(self.k - 1):
            target = level + 1
            for vertex in members_of[level]:
                copy: Copy = (vertex, level)
                tree = forest.subtree_vertices(copy)
                attached = self._attach_via_sketches(forest, copy, tree, target)
                if not attached:
                    forest.mark_terminal(copy)
        for vertex in members_of[self.k - 1]:
            forest.mark_terminal((vertex, self.k - 1))

        forest.validate()
        self.forest = forest
        self._terminal_trees = forest.terminal_trees()
        self._trees_of_vertex = forest.trees_containing()

    def _attach_via_sketches(
        self, forest: ClusterForest, copy: Copy, tree: set[int], target: int
    ) -> bool:
        """Decode ``Q^{target}_j = sum_{v in tree} S^{target}_j(v)`` from
        the sparsest level down; attach on the first usable edge."""
        for j in range(self._edge_levels, -1, -1):
            group = self._cluster_group(target, j)
            live = self._cluster_live.get(group, ())
            members = [v for v in tree if v in live]
            if not members:
                continue  # no member saw any edge at this level
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

    def _ensure_table(self, root: Copy, stack: int, j: int) -> NeighborhoodHashTable:
        """The ``H^root_j`` table of one ``Y_j`` stack, materialized on
        first touch (seed and capacity are pure functions of the key and
        the forest, never of allocation order)."""
        key = (root, stack, j)
        table = self._tables.get(key)
        if table is None:
            if self._table_effective_n is None:
                raise RuntimeError("table layout requested before the forest was built")
            capacity = self.params.table_capacity(
                self._table_effective_n, root[1], self.k
            )
            table = NeighborhoodHashTable(
                self.num_vertices,
                capacity,
                derive_seed(self._seed, "table", root[0], root[1], stack, j),
                rows=self.params.table_rows,
                bucket_factor=self.params.table_bucket_factor,
            )
            self._tables[key] = table
        return table

    def _allocate_tables(self) -> None:
        """Fix the pass-2 layout (capacities, ``Y_j`` depth, cut-sketch
        stacks) from the built forest; the tables themselves materialize
        lazily as pass-2 updates touch them."""
        effective_n = self._effective_n()
        self._table_effective_n = effective_n
        self._active_vertex_levels = min(
            self._vertex_levels, self.params.vertex_levels(effective_n)
        )
        if self.params.repair_budget_factor > 0:
            # One store per sketch shape (the budget depends only on the
            # root's level), one seed group per root; the grouping is
            # seed-determined, so every same-forest builder forms
            # identical stores and they merge store-wise.
            by_budget: dict[int, list[Copy]] = {}
            for root in sorted(self._terminal_trees):
                capacity = self.params.table_capacity(
                    effective_n, root[1], self.k
                )
                budget = max(8, math.ceil(self.params.repair_budget_factor * capacity))
                by_budget.setdefault(budget, []).append(root)
            for budget, roots in by_budget.items():
                stack = SketchStack(
                    1,
                    self.num_vertices * self.num_vertices,
                    budget,
                    None,
                    rows=3,
                    group_seeds=[
                        derive_seed(self._seed, "cut-sketch", root[0], root[1])
                        for root in roots
                    ],
                )
                stack_index = len(self._cut_stacks)
                self._cut_stacks.append(stack)
                for group, root in enumerate(roots):
                    self._cut_rows[root] = (stack_index, group)

    def _process_second_pass(self, update: EdgeUpdate) -> None:
        if self.forest is None:
            raise RuntimeError("second pass before the forest was built")
        pair = edge_index(update.u, update.v, self.num_vertices)
        for inside, outside in ((update.u, update.v), (update.v, update.u)):
            for root in self._trees_of_vertex.get(inside, ()):
                if outside in self._terminal_trees[root]:
                    continue
                cut_entry = self._cut_rows.get(root)
                if cut_entry is not None:
                    stack_index, group = cut_entry
                    self._cut_stacks[stack_index].update_row(0, pair, update.sign, group)
                for stack, sampler in enumerate(self._y_samplers):
                    deepest = min(sampler.level(inside), self._active_vertex_levels)
                    for j in range(deepest + 1):
                        self._ensure_table(root, stack, j).add_neighbor(
                            key=outside, neighbor=inside, delta=update.sign
                        )

    def _second_pass_pairs(
        self, us: np.ndarray, vs: np.ndarray, pairs: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Columnar Algorithm 2 updates over a chunk's distinct pairs.

        Routing (which terminal trees a pair crosses into) runs once per
        *distinct* pair; cut contributions group per cut store (one
        scatter each), and the per-(root, stack) hash tables absorb
        their groups through their vectorized batch paths.  The ``Y_j``
        level of each inside endpoint is memoized per stack, mirroring
        the scalar path's hash evaluations.
        """
        if self.forest is None:
            raise RuntimeError("second pass before the forest was built")
        if pairs.size == 0:
            return
        # (store index) -> groups / coords / deltas of cut contributions.
        cut_groups: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        # (root, stack) -> (keys, neighbors, deltas, deepest levels)
        table_groups: dict[tuple[Copy, int], list[tuple[int, int, int, int]]] = (
            defaultdict(list)
        )
        y_levels: list[dict[int, int]] = [{} for _ in self._y_samplers]
        for position in range(pairs.size):
            u = int(us[position])
            v = int(vs[position])
            pair = int(pairs[position])
            delta = int(deltas[position])
            for inside, outside in ((u, v), (v, u)):
                for root in self._trees_of_vertex.get(inside, ()):
                    if outside in self._terminal_trees[root]:
                        continue
                    cut_entry = self._cut_rows.get(root)
                    if cut_entry is not None:
                        stack_index, group = cut_entry
                        cut_groups[stack_index].append((group, pair, delta))
                    for stack, sampler in enumerate(self._y_samplers):
                        deepest = y_levels[stack].get(inside)
                        if deepest is None:
                            deepest = min(sampler.level(inside), self._active_vertex_levels)
                            y_levels[stack][inside] = deepest
                        table_groups[(root, stack)].append(
                            (outside, inside, delta, deepest)
                        )
        for stack_index, entries in cut_groups.items():
            groups, coords, values = np.array(entries, dtype=np.int64).T
            self._cut_stacks[stack_index].scatter(
                np.zeros(groups.size, dtype=np.int64), coords, values, groups
            )
        for (root, stack), entries in table_groups.items():
            deepest = np.array([entry[3] for entry in entries], dtype=np.int64)
            keys = np.array([entry[0] for entry in entries], dtype=np.int64)
            neighbors = np.array([entry[1] for entry in entries], dtype=np.int64)
            values = np.array([entry[2] for entry in entries], dtype=np.int64)
            for j in range(int(deepest.max()) + 1):
                surviving = deepest >= j
                self._ensure_table(root, stack, j).add_neighbors_batch(
                    keys[surviving], neighbors[surviving], values[surviving]
                )

    def _recover_spanner(self) -> SpannerOutput:
        """Post-pass-2 recovery (lines 20-33 of Algorithm 2)."""
        if self.forest is None:
            raise RuntimeError("finalize before passes ran")
        spanner = Graph(self.num_vertices)

        # Step 1: witness edges of every attached copy.
        for a, b in self.forest.witness_edges():
            if not spanner.has_edge(a, b):
                spanner.add_edge(a, b)

        # Step 2: per terminal root, decode all tables and take, for each
        # outside key, the highest-level 1-sparse payload.
        for root, tree in self._terminal_trees.items():
            decoded_tables = {}
            for stack in range(self.params.table_stacks):
                for j in range(self._active_vertex_levels, -1, -1):
                    table = self._tables.get((root, stack, j))
                    if table is None:
                        continue  # never touched: decodes to nothing
                    decoded = table.decode_neighbors()
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
        cut_entry = self._cut_rows.get(root)
        if cut_entry is None:
            return 0
        stack_index, group = cut_entry
        decoded = self._cut_stacks[stack_index].row_sketch(0, group).decode()
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
        for live in self._cluster_live.values():
            row_words = self._cluster_store.row_space_words()
            report.add(
                "pass1 cluster sketches",
                len(live) * row_words,
                universe_words=self.num_vertices * row_words,
            )
        for table in self._tables.values():
            report.add("pass2 hash tables", table.space_words())
        for root, (stack_index, _) in self._cut_rows.items():
            report.add(
                "pass2 repair sketches",
                self._cut_stacks[stack_index].row_space_words(),
            )
        return report

    def space_words(self) -> int:
        return self.space_report().total_words()
