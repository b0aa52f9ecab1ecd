"""Tests for the live sketch-store session (repro.service.session)."""

import pytest

from repro.core import SparsifierParams, TwoPassSpannerBuilder
from repro.graph.cuts import cut_value
from repro.service import GraphSession
from repro.stream import DynamicStream, EdgeUpdate, mixed_workload_stream
from repro.util.rng import derive_seed

#: Slim sparsifier constants so sessions finalize in test time.
SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)


def make_session(n=14, seed=7, **kwargs):
    kwargs.setdefault("sparsifier_k", 1)
    kwargs.setdefault("sparsifier_params", SLIM)
    return GraphSession(n, seed, **kwargs)


class TestIngestAndLedger:
    def test_ledger_tracks_live_graph(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        stream = mixed_workload_stream(14, 600, seed=3)
        session.ingest_batch(list(stream))
        assert session.live_graph() == stream.final_graph()
        assert session.num_live_edges() == stream.final_graph().num_edges()

    def test_epoch_advances_per_batch(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        assert session.epoch == 0
        session.ingest(EdgeUpdate(0, 1, +1))
        session.ingest_batch([EdgeUpdate(1, 2, +1), EdgeUpdate(2, 3, +1)])
        assert session.epoch == 2
        assert session.updates_ingested == 3
        session.ingest_batch([])  # no-op: nothing to invalidate
        assert session.epoch == 2

    def test_negative_multiplicity_rejected_atomically(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        session.ingest(EdgeUpdate(0, 1, +1))
        state_before = list(session._connectivity.shard_state_ints(0))
        with pytest.raises(ValueError, match="negative"):
            session.ingest_batch([EdgeUpdate(1, 2, +1), EdgeUpdate(3, 4, -1)])
        # The bad batch must not have half-landed: ledger, epoch and
        # sketch state all unchanged.
        assert session.epoch == 1
        assert session.num_live_edges() == 1
        assert list(session._connectivity.shard_state_ints(0)) == state_before

    def test_turnstile_weight_change_rejected(self):
        session = make_session(weight_bounds=(1.0, 4.0), enable_spanner=False,
                               enable_sparsifier=False)
        session.ingest(EdgeUpdate(0, 1, +1, 2.0))
        with pytest.raises(ValueError, match="turnstile"):
            session.ingest(EdgeUpdate(0, 1, +1, 3.0))

    def test_unweighted_session_rejects_weights(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        with pytest.raises(ValueError, match="weight_bounds"):
            session.ingest(EdgeUpdate(0, 1, +1, 2.0))

    def test_out_of_range_vertices_rejected(self):
        session = make_session(n=4, enable_spanner=False, enable_sparsifier=False)
        with pytest.raises(ValueError, match="outside"):
            session.ingest(EdgeUpdate(0, 9, +1))

    def test_insert_delete_reinsert_with_new_weight(self):
        session = make_session(weight_bounds=(1.0, 4.0), enable_spanner=False,
                               enable_sparsifier=False)
        session.ingest_batch([
            EdgeUpdate(0, 1, +1, 2.0),
            EdgeUpdate(0, 1, -1, 2.0),
            EdgeUpdate(0, 1, +1, 3.0),
        ])
        assert session.live_graph().weight(0, 1) == 3.0


class TestConnectivityQueries:
    def test_components_match_ground_truth(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        stream = mixed_workload_stream(14, 800, seed=5, delete_fraction=0.4)
        tokens = list(stream)
        for start in range(0, len(tokens), 200):
            session.ingest_batch(tokens[start : start + 200])
            truth = DynamicStream(14, tokens[: start + 200]).final_graph()
            assert sorted(map(sorted, session.components())) == sorted(
                map(sorted, truth.connected_components())
            )

    def test_connected_pairs(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        session.ingest_batch([EdgeUpdate(0, 1, +1), EdgeUpdate(2, 3, +1)])
        assert session.connected(0, 1)
        assert not session.connected(0, 2)
        with pytest.raises(ValueError):
            session.connected(0, 99)

    def test_forest_spans_components(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        stream = mixed_workload_stream(14, 500, seed=9)
        session.ingest_batch(list(stream))
        forest = session.spanning_forest()
        truth = stream.final_graph()
        assert len(forest) == 14 - len(truth.connected_components())
        for a, b in forest:
            assert truth.has_edge(a, b)


class TestSnapshotQueries:
    def test_spanner_snapshot_equals_full_two_pass_run(self):
        """The linearity claim behind mid-stream spanner queries: the
        synthesized pass 2 over the net multiset lands in the exact state
        of a genuine two-pass run over the whole history."""
        session = make_session(enable_sparsifier=False)
        tokens = list(mixed_workload_stream(14, 700, seed=11, delete_fraction=0.4))
        session.ingest_batch(tokens)
        snapshot = session.spanner_snapshot()
        reference = TwoPassSpannerBuilder(
            14, 2, derive_seed(7, "session", "spanner")
        ).run(DynamicStream(14, tokens), batch_size=128)
        assert snapshot.spanner.edge_set() == reference.spanner.edge_set()

    def test_spanner_stretch_holds_mid_stream(self):
        from repro.graph import evaluate_multiplicative_stretch

        session = make_session(enable_sparsifier=False)
        tokens = list(mixed_workload_stream(14, 900, seed=13))
        for start in range(0, len(tokens), 300):
            session.ingest_batch(tokens[start : start + 300])
            report = evaluate_multiplicative_stretch(
                session.live_graph(), session.spanner_snapshot().spanner
            )
            assert report.within(2 ** session.k)

    def test_spanner_distance_bounds(self):
        session = make_session(enable_sparsifier=False)
        session.ingest_batch([EdgeUpdate(0, 1, +1), EdgeUpdate(1, 2, +1)])
        assert session.spanner_distance(0, 0) == 0.0
        distance = session.spanner_distance(0, 2)
        assert 2.0 <= distance <= 2.0 * 2 ** session.k
        assert session.spanner_distance(0, 13) == float("inf")

    def test_cut_estimate_unweighted(self):
        session = make_session(enable_spanner=False)
        stream = mixed_workload_stream(14, 600, seed=15)
        session.ingest_batch(list(stream))
        side = set(range(7))
        estimate = session.cut_estimate(side)
        truth = cut_value(session.live_graph(), side)
        assert estimate >= 0.0
        if truth == 0:
            assert estimate == 0.0

    def test_weighted_session_cut(self):
        session = make_session(weight_bounds=(1.0, 8.0), enable_spanner=False)
        stream = mixed_workload_stream(14, 400, seed=17, weights=(1.0, 8.0))
        session.ingest_batch(list(stream))
        estimate = session.cut_estimate(range(7))
        assert estimate >= 0.0

    def test_disabled_slots_raise(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        session.ingest(EdgeUpdate(0, 1, +1))
        with pytest.raises(RuntimeError, match="spanner"):
            session.spanner_distance(0, 1)
        with pytest.raises(RuntimeError, match="sparsifier"):
            session.cut_estimate({0})

    def test_cut_argument_validation(self):
        session = make_session(enable_spanner=False)
        session.ingest(EdgeUpdate(0, 1, +1))
        with pytest.raises(ValueError, match="nonempty"):
            session.cut_estimate(())
        with pytest.raises(ValueError, match="leaves"):
            session.cut_estimate({99})

    def test_snapshot_does_not_perturb_live_state(self):
        """Finalizing a snapshot must leave the live sketches untouched
        (the clone discipline), so later ingest + queries stay exact."""
        session = make_session()
        tokens = list(mixed_workload_stream(14, 500, seed=19))
        session.ingest_batch(tokens[:250])
        before = [list(a.shard_state_ints(0)) for a in session._algorithms()]
        session.spanner_snapshot()
        session.sparsifier_snapshot()
        session.components()
        after = [list(a.shard_state_ints(0)) for a in session._algorithms()]
        assert before == after


class TestEpochCache:
    def test_repeat_queries_hit_cache(self):
        session = make_session(enable_sparsifier=False)
        session.ingest_batch([EdgeUpdate(0, 1, +1), EdgeUpdate(1, 2, +1)])
        first = session.spanner_snapshot()
        hits_before = session._cache.hits
        assert session.spanner_snapshot() is first
        assert session._cache.hits == hits_before + 1

    def test_ingest_invalidates(self):
        session = make_session(enable_sparsifier=False)
        session.ingest(EdgeUpdate(0, 1, +1))
        first = session.spanner_snapshot()
        session.ingest(EdgeUpdate(1, 2, +1))
        second = session.spanner_snapshot()
        assert second is not first
        assert (1, 2) in second.spanner.edge_set()

    def test_connected_shares_forest_decode(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        session.ingest_batch([EdgeUpdate(0, 1, +1), EdgeUpdate(2, 3, +1)])
        session.spanning_forest()  # pays the decode
        misses_before = session._cache.misses
        session.connected(0, 1)
        session.connected(2, 3)
        session.components()
        assert session._cache.misses == misses_before

    def test_stats_counters(self):
        session = make_session(enable_spanner=False, enable_sparsifier=False)
        session.ingest(EdgeUpdate(0, 1, +1))
        session.connected(0, 1)
        session.connected(0, 1)
        stats = session.stats()
        assert stats.epoch == 1
        assert stats.updates_ingested == 1
        assert stats.live_edges == 1
        assert stats.cache_hits >= 1
        assert stats.cache_misses >= 1
        assert stats.space_words > 0


class TestSessionConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            GraphSession(0, 1)
        with pytest.raises(ValueError):
            GraphSession(4, 1, weight_bounds=(2.0, 1.0))

    def test_weighted_sessions_use_weight_classes(self):
        from repro.core.sparsify import StreamingWeightedSparsifier

        session = make_session(weight_bounds=(1.0, 8.0))
        assert isinstance(session._sparsifier, StreamingWeightedSparsifier)
