"""Sparse vertex-universe engine: dense/lazy bit-identity and interop.

Every sketch stack stores rows on first touch, so a lazy
:class:`~repro.graph.vertex_space.VertexSpace` differs from a dense one
only in what it enumerates and charges, never in state: on the same
universe and the same stream, every touched sketch row, every state
digest, every wire byte and every query answer must be bit-identical
across the two, for all three algorithm families, weighted and
unweighted — including clone isolation, shard serialization/merging
across *mixed* dense/lazy shards, and kill/restore at an arbitrary
epoch.  These tests pin exactly that, plus the dense space's
whole-universe accounting, the resident-space proportionality and the
external-id (interned-space) behavior the sparse engine adds.
"""

from __future__ import annotations

import random

import pytest

from repro.agm.connectivity import ConnectivityChecker
from repro.agm.spanning_forest import AgmSketch
from repro.core.parameters import SparsifierParams, SpannerParams
from repro.core.sparsify import StreamingSparsifier, StreamingWeightedSparsifier
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro.service import GraphSession, components_match_ledger, load_session
from repro.stream.generators import (
    mixed_workload_stream,
    power_law_universe_stream,
    sparse_session_ops,
    sparse_touch_stream,
)
from repro.stream.updates import EdgeUpdate

SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)
SLIM_SPANNER = SpannerParams(table_stacks=1, table_capacity_factor=0.75)


def _run_passes(algorithm, stream, batch_size=512):
    for pass_index in range(algorithm.passes_required):
        algorithm.begin_pass(pass_index)
        for chunk in stream.iter_batches(batch_size):
            algorithm.process_batch(chunk, pass_index)
        algorithm.end_pass(pass_index)
    return algorithm


def _states(algorithm):
    return [
        list(algorithm.shard_state_ints(p)) for p in range(algorithm.passes_required)
    ]


class TestVertexSpace:
    def test_coercion_and_kinds(self):
        dense = as_vertex_space(12)
        assert dense.universe_size == 12 and not dense.lazy
        sparse = VertexSpace.sparse(10**7)
        assert sparse.lazy and not sparse.is_interned
        with pytest.raises(ValueError):
            VertexSpace.sparse((1 << 31) + 1)
        with pytest.raises(TypeError):
            as_vertex_space(3.5)

    def test_interning_is_first_sight_stable(self):
        space = VertexSpace.interned(100, ids="strings")
        assert space.intern("alice") == 0
        assert space.intern("bob") == 1
        assert space.intern("alice") == 0
        assert space.lookup("carol") is None
        assert space.label(1) == "bob"
        with pytest.raises(TypeError):
            space.intern(42)
        ints = VertexSpace.interned(100, ids="ints")
        assert ints.intern(4_000_000_000) == 0  # beyond any direct universe
        with pytest.raises(ValueError):
            ints.intern(1 << 32)

    def test_capacity_enforced(self):
        space = VertexSpace.interned(2, ids="strings")
        space.intern("a")
        space.intern("b")
        with pytest.raises(ValueError):
            space.intern("c")


class TestDenseLazyIdentity:
    """Same universe, same stream: dense and lazy engines agree bit for bit."""

    def test_connectivity(self):
        n = 96
        stream = mixed_workload_stream(n, 2500, "sparse-id-agm")
        dense = _run_passes(ConnectivityChecker(n, "sid"), stream)
        lazy = _run_passes(ConnectivityChecker(VertexSpace.sparse(n), "sid"), stream)
        assert _states(dense) == _states(lazy)
        assert sorted(dense.spanning_forest()) == sorted(lazy.spanning_forest())
        dense_components = sorted(
            map(sorted, (c for c in dense.finalize() if len(c) > 1))
        )
        lazy_components = sorted(
            map(sorted, (c for c in lazy.finalize() if len(c) > 1))
        )
        assert dense_components == lazy_components

    @pytest.mark.parametrize("touched", [None, 40])
    def test_state_digest_is_universe_independent(self, touched):
        # Both spaces store the touched rows only, so equal streams give
        # equal digests — also when half the universe is never touched.
        n = 96
        stream = (
            mixed_workload_stream(n, 2500, "digest-full")
            if touched is None
            else sparse_touch_stream(n, touched, 1500, "digest-partial")
        )
        dense = _run_passes(ConnectivityChecker(n, "dig"), stream)
        lazy = _run_passes(ConnectivityChecker(VertexSpace.sparse(n), "dig"), stream)
        assert dense.state_digest() == lazy.state_digest()

    def test_state_digest_is_chunking_independent(self):
        # A pair netting to zero inside a 512-token chunk interns no row,
        # split across 97-token chunks it leaves an all-zero resident row:
        # equal wires must still digest equally.
        n = 96
        stream = mixed_workload_stream(n, 2500, "digest-chunks")
        wide = _run_passes(ConnectivityChecker(n, "dig"), stream, 512)
        narrow = _run_passes(ConnectivityChecker(VertexSpace.sparse(n), "dig"), stream, 97)
        assert wide._sketch._samplers.resident_rows() != narrow._sketch._samplers.resident_rows()
        assert _states(wide) == _states(narrow)
        assert wide.state_digest() == narrow.state_digest()

    def test_spanner(self):
        n = 24
        stream = mixed_workload_stream(n, 2000, "sparse-id-spanner")
        dense = _run_passes(TwoPassSpannerBuilder(n, 2, "sid-sp"), stream)
        lazy = _run_passes(
            TwoPassSpannerBuilder(VertexSpace.sparse(n), 2, "sid-sp"), stream
        )
        assert _states(dense) == _states(lazy)
        assert dense.finalize().spanner.edge_set() == lazy.finalize().spanner.edge_set()

    def test_sparsifier_unweighted(self):
        n = 16
        stream = mixed_workload_stream(n, 1500, "sparse-id-sparsify")
        dense = _run_passes(
            StreamingSparsifier(n, "sid-sf", k=1, params=SLIM), stream, 256
        )
        lazy = _run_passes(
            StreamingSparsifier(VertexSpace.sparse(n), "sid-sf", k=1, params=SLIM),
            stream,
            256,
        )
        assert _states(dense) == _states(lazy)
        assert dense.finalize().edge_set() == lazy.finalize().edge_set()

    def test_sparsifier_weighted(self):
        n = 12
        stream = mixed_workload_stream(
            n, 1000, "sparse-id-weighted", weights=(1.0, 4.0)
        )
        dense = _run_passes(
            StreamingWeightedSparsifier(n, "sid-w", 1.0, 4.0, k=1, params=SLIM),
            stream,
            256,
        )
        lazy = _run_passes(
            StreamingWeightedSparsifier(
                VertexSpace.sparse(n), "sid-w", 1.0, 4.0, k=1, params=SLIM
            ),
            stream,
            256,
        )
        assert _states(dense) == _states(lazy)
        assert {e for e in dense.finalize().edges()} == {
            e for e in lazy.finalize().edges()
        }

    def test_lazy_clone_isolation(self):
        n = 48
        stream = list(mixed_workload_stream(n, 1200, "sparse-clone"))
        builder = TwoPassSpannerBuilder(VertexSpace.sparse(n), 2, "sc")
        builder.process_batch(stream[:600], 0)
        clone = builder.clone()
        builder.process_batch(stream[600:], 0)
        reference = TwoPassSpannerBuilder(VertexSpace.sparse(n), 2, "sc")
        reference.process_batch(stream[:600], 0)
        assert clone.shard_state_ints(0) == reference.shard_state_ints(0)


class TestMixedShardMerge:
    """Dense and lazy shards of one stream reassemble interchangeably."""

    @pytest.mark.parametrize("algorithm", ["connectivity", "spanner"])
    @pytest.mark.parametrize("coordinator_lazy", [False, True])
    def test_round_trip_and_merge(self, algorithm, coordinator_lazy):
        n, shards = 32, 3

        def make(lazy):
            space = VertexSpace.sparse(n) if lazy else n
            if algorithm == "connectivity":
                return ConnectivityChecker(space, "mix")
            return TwoPassSpannerBuilder(space, 2, "mix")

        stream = list(mixed_workload_stream(n, 1800, "mixed-shards"))
        single = make(False)
        single.process_batch(stream, 0)
        reference = single.shard_state_ints(0)

        coordinator = make(coordinator_lazy)
        for shard in range(shards):
            worker = make(lazy=(shard % 2 == 0))  # alternate storage engines
            worker.process_batch(stream[shard::shards], 0)
            shipped = worker.shard_state_ints(0)
            rebuilt = make(lazy=(shard % 2 == 1))  # load into the *other* engine
            rebuilt.load_shard_state_ints(0, shipped)
            assert rebuilt.shard_state_ints(0) == shipped
            coordinator.merge_shard(rebuilt, 0)
        assert coordinator.shard_state_ints(0) == reference

    def test_repeated_broadcast_adoption_is_idempotent(self):
        n = 24
        stream = list(mixed_workload_stream(n, 900, "adopt-twice"))
        coordinator = TwoPassSpannerBuilder(VertexSpace.sparse(n), 2, "adopt")
        coordinator.process_batch(stream, 0)
        coordinator.end_pass(0)
        broadcast = coordinator.broadcast_state(1)
        worker = TwoPassSpannerBuilder(VertexSpace.sparse(n), 2, "adopt")
        worker.process_batch(stream, 0)
        worker.adopt_broadcast(broadcast, 1)
        tables, cuts = worker._tables, worker._cuts
        worker.adopt_broadcast(broadcast, 1)  # e.g. a retried broadcast
        assert worker._tables is tables and worker._cuts is cuts
        worker.process_batch(stream, 1)
        worker.end_pass(1)
        assert worker.finalize().spanner.num_edges() > 0


class TestWireOverwrites:
    def test_load_onto_non_fresh_sketch_overwrites(self):
        """The sparse wire names nonzero rows only; loading it must still
        *overwrite* a non-fresh sketch, not merge into stale rows."""
        stream_a = list(mixed_workload_stream(32, 400, "overwrite-a"))
        stream_b = list(mixed_workload_stream(32, 400, "overwrite-b"))
        target = ConnectivityChecker(VertexSpace.sparse(32), "ow")
        target.process_batch(stream_a, 0)
        source = ConnectivityChecker(VertexSpace.sparse(32), "ow")
        source.process_batch(stream_b, 0)
        target.load_shard_state_ints(0, source.shard_state_ints(0))
        assert target.shard_state_ints(0) == source.shard_state_ints(0)

    def test_numpy_integer_query_ids(self):
        import numpy as np

        session = GraphSession(
            8, "np-ids", enable_spanner=False, enable_sparsifier=False
        )
        session.ingest_batch([EdgeUpdate(0, 1, +1)])
        assert session.connected(np.int64(0), np.int64(1))
        assert not session.connected(np.int64(0), np.int64(5))


class TestSparseSession:
    def _tokens(self, universe, touched, count, seed):
        return list(sparse_touch_stream(universe, touched, count, seed))

    def _session(self, universe, seed="sparse-session"):
        return GraphSession(
            VertexSpace.sparse(universe),
            seed,
            k=2,
            sparsifier_k=1,
            sparsifier_params=SLIM,
            spanner_params=SLIM_SPANNER,
            agm_rounds=10,
        )

    def test_kill_restore_at_random_epoch(self, tmp_path):
        universe = 50_000
        tokens = self._tokens(universe, 48, 900, "sparse-restore")
        rng = random.Random(17)
        cut = rng.randrange(200, 700)
        session = self._session(universe)
        session.ingest_batch(tokens[:cut])
        path = tmp_path / "sparse.bin"
        session.checkpoint(path)
        session.ingest_batch(tokens[cut:])
        reference = session.snapshot_answers()
        reference_states = [
            list(algorithm.shard_state_ints(0)) for algorithm in session._algorithms()
        ]

        restored = load_session(path)
        assert restored.space.lazy and restored.num_vertices == universe
        restored.ingest_batch(tokens[cut:])
        assert restored.snapshot_answers() == reference
        assert [
            list(algorithm.shard_state_ints(0)) for algorithm in restored._algorithms()
        ] == reference_states

    def test_resident_space_tracks_touched(self):
        universe = 1_000_000
        session = GraphSession(
            VertexSpace.sparse(universe),
            "sparse-space",
            enable_spanner=False,
            enable_sparsifier=False,
            agm_rounds=8,
        )
        session.ingest_batch(self._tokens(universe, 64, 400, "sparse-space"))
        stats = session.stats()
        assert stats.touched_vertices <= 64
        assert stats.space_words < stats.universe_space_words / 1000
        assert components_match_ledger(session)

    def test_dense_and_lazy_sessions_answer_identically(self):
        n = 64
        tokens = list(mixed_workload_stream(n, 800, "session-identity"))
        dense = GraphSession(
            n, "si", k=2, sparsifier_k=1,
            sparsifier_params=SLIM, spanner_params=SLIM_SPANNER,
        )
        lazy = GraphSession(
            VertexSpace.sparse(n), "si", k=2, sparsifier_k=1,
            sparsifier_params=SLIM, spanner_params=SLIM_SPANNER,
        )
        dense.ingest_batch(tokens)
        lazy.ingest_batch(tokens)
        dense_answers = dense.snapshot_answers()
        lazy_answers = lazy.snapshot_answers()
        # components: dense lists universe singletons, lazy only touched —
        # compare the non-singleton partition plus everything else exactly.
        assert [c for c in dense_answers.pop("components") if len(c) > 1] == [
            c for c in lazy_answers.pop("components") if len(c) > 1
        ]
        assert dense_answers == lazy_answers
        assert [
            list(a.shard_state_ints(0)) for a in dense._algorithms()
        ] == [list(a.shard_state_ints(0)) for a in lazy._algorithms()]


class TestDenseSpaceAccounting:
    """A dense space enumerates and charges its whole universe, before any
    update and after a stream that touches half of it, however few rows
    its sketches store."""

    @staticmethod
    def _half_path(n):
        return [EdgeUpdate(u, u + 1, +1) for u in range(n // 2 - 1)]

    def test_agm_sketch(self):
        n = 40
        sketch = AgmSketch(n, "dense-accounting")
        for update in [None] + self._half_path(n):
            if update is not None:
                sketch.update(update.u, update.v, update.sign)
            assert sketch.space_words() == sketch.universe_space_words()
            assert sketch.num_touched_vertices() == n
            assert len(sketch.touched_vertices()) == n

    def test_session(self):
        n = 32
        session = GraphSession(
            n, "dense-accounting", k=2, sparsifier_k=1,
            sparsifier_params=SLIM, spanner_params=SLIM_SPANNER,
        )
        fresh = session.stats()
        assert fresh.space_words == fresh.universe_space_words
        assert fresh.touched_vertices == n
        session.ingest_batch(self._half_path(n))
        report = session.space_report()
        assert session.stats().touched_vertices == n
        # The spanner charges the cluster rows it allocated; the AGM
        # samplers charge the whole universe.
        assert (
            report.components["agm vertex samplers"]
            == report.universe_components["agm vertex samplers"]
        )


class TestInternedSession:
    def test_string_ids_end_to_end(self, tmp_path):
        space = VertexSpace.interned(1000, ids="strings")
        session = GraphSession(
            space, "strings", k=2, enable_sparsifier=False,
            spanner_params=SLIM_SPANNER, agm_rounds=8,
        )
        session.ingest_external(
            [("alice", "bob", +1), ("bob", "carol", +1), ("dave", "erin", +1)]
        )
        assert session.connected("alice", "carol")
        assert not session.connected("alice", "dave")
        assert not session.connected("alice", "zoe-never-seen")
        assert session.connected("zoe", "zoe")
        forest = session.spanning_forest_external()
        assert {frozenset(edge) for edge in forest} == {
            frozenset(("alice", "bob")),
            frozenset(("bob", "carol")),
            frozenset(("dave", "erin")),
        }
        assert session.spanner_distance("alice", "carol") == 2.0
        assert session.spanner_distance("alice", "zoe-never-seen") == float("inf")

        path = tmp_path / "strings.bin"
        session.checkpoint(path)
        restored = load_session(path)
        assert restored.space.externals() == session.space.externals()
        assert restored.connected("alice", "carol")
        restored.ingest_external([("carol", "dave", +1)])
        assert restored.connected("alice", "erin")

    def test_cut_estimate_of_unknown_ids_is_zero(self):
        space = VertexSpace.interned(100, ids="strings")
        session = GraphSession(
            space, "cut-unknown", enable_spanner=False,
            sparsifier_k=1, sparsifier_params=SLIM, agm_rounds=6,
        )
        session.ingest_external([("a", "b", +1), ("b", "c", +1)])
        # A side made only of never-seen ids is isolated: cut weight 0,
        # never some arbitrary interned vertex's cut.
        assert session.cut_estimate({"zoe", "yann"}) == 0.0
        assert session.cut_estimate({"a", "never-seen"}) == session.cut_estimate({"a"})

    def test_int_ids_beyond_direct_universe(self):
        space = VertexSpace.interned(100, ids="ints")
        session = GraphSession(
            space, "big-ints", enable_spanner=False, enable_sparsifier=False,
            agm_rounds=6,
        )
        a, b = (1 << 32) - 1, (1 << 31) + 7
        session.ingest_external([(a, b, +1)])
        assert session.connected(a, b)
        assert not session.connected(a, 123456)


class TestSparseGenerators:
    def test_sparse_touch_stream_respects_touched_bound(self):
        stream = sparse_touch_stream(10**6, 32, 500, "gen-sparse")
        endpoints = {v for update in stream for v in update.pair}
        assert len(endpoints) <= 32
        assert all(0 <= v < 10**6 for v in endpoints)
        assert stream.num_deletions() > 0
        for pair, multiplicity in stream.final_multiplicities().items():
            assert multiplicity == 1

    def test_power_law_stream_is_skewed(self):
        stream = power_law_universe_stream(10**6, 64, 1200, "gen-power", exponent=2.0)
        degree: dict[int, int] = {}
        for update in stream:
            if update.sign == 1:
                for v in update.pair:
                    degree[v] = degree.get(v, 0) + 1
        counts = sorted(degree.values(), reverse=True)
        # The hottest id should dominate the median id by a wide margin.
        assert counts[0] >= 5 * max(1, counts[len(counts) // 2])

    def test_sparse_session_ops_shape(self):
        ops = sparse_session_ops(
            10**6, 24, 400, "gen-ops", query_every=100, query_repeats=2
        )
        kinds = [op[0] for op in ops]
        assert "ingest" in kinds and "query" in kinds
        total = sum(len(op[1]) for op in ops if op[0] == "ingest")
        assert total == 400
        for op in ops:
            if op[0] == "query" and op[1] in ("connected", "spanner_distance"):
                u, v = op[2]
                assert u != v
