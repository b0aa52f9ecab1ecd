"""Integration tests: the distributed (sharded-stream) setting.

Linear sketches must produce identical results whether the stream is
processed on one machine or sharded across servers and merged — the
property the paper's introduction motivates.  These tests exercise the
merge paths of every major structure.
"""

import pytest

from repro.agm import AgmSketch
from repro.core import TwoPassSpannerBuilder
from repro.graph import connected_gnp, evaluate_multiplicative_stretch
from repro.sketch import DistinctElementsSketch, L0Sampler, SparseRecoverySketch
from repro.stream import shard_by_edge, shard_round_robin, stream_from_graph


class TestSharding:
    def test_round_robin_partitions_tokens(self):
        graph = connected_gnp(20, 0.2, seed=1)
        stream = stream_from_graph(graph, seed=2, churn=0.5)
        shards = shard_round_robin(stream, 3)
        assert sum(len(s) for s in shards) == len(stream)
        # Interleaving: shard sizes differ by at most one.
        sizes = sorted(len(s) for s in shards)
        assert sizes[-1] - sizes[0] <= 1

    def test_by_edge_keeps_edge_updates_together(self):
        graph = connected_gnp(20, 0.2, seed=3)
        stream = stream_from_graph(graph, seed=4, churn=1.0)
        shards = shard_by_edge(stream, 4, seed=5)
        assert sum(len(s) for s in shards) == len(stream)
        owner = {}
        for server, shard in enumerate(shards):
            for update in shard:
                assert owner.setdefault(update.pair, server) == server

    def test_invalid_server_count(self):
        graph = connected_gnp(5, 0.5, seed=6)
        stream = stream_from_graph(graph, seed=7)
        with pytest.raises(ValueError):
            shard_round_robin(stream, 0)
        with pytest.raises(ValueError):
            shard_by_edge(stream, 0)


class TestSketchMergeEquivalence:
    """sketch(shard_1) + ... + sketch(shard_s) == sketch(stream)."""

    def test_sparse_recovery_merge(self):
        graph = connected_gnp(24, 0.2, seed=8)
        stream = stream_from_graph(graph, seed=9, churn=0.5)
        shards = shard_round_robin(stream, 3)

        single = SparseRecoverySketch(24 * 24, 64, seed=10)
        merged = SparseRecoverySketch(24 * 24, 64, seed=10)
        parts = [SparseRecoverySketch(24 * 24, 64, seed=10) for _ in range(3)]
        for update in stream:
            single.update(update.u * 24 + update.v, update.sign)
        for part, shard in zip(parts, shards):
            for update in shard:
                part.update(update.u * 24 + update.v, update.sign)
            merged.combine(part)
        assert merged.decode() == single.decode()

    def test_l0_sampler_merge(self):
        sampler_parts = [L0Sampler(1000, seed=11) for _ in range(2)]
        sampler_parts[0].update(5, 1)
        sampler_parts[0].update(9, 2)
        sampler_parts[1].update(5, -1)
        sampler_parts[0].combine(sampler_parts[1])
        assert sampler_parts[0].sample() == (9, 2)

    def test_distinct_elements_merge(self):
        parts = [DistinctElementsSketch(1000, seed=12) for _ in range(2)]
        for i in range(0, 64, 2):
            parts[0].update(i, 1)
        for i in range(1, 64, 2):
            parts[1].update(i, 1)
        parts[0].combine(parts[1])
        assert 32 <= parts[0].estimate() <= 128

    def test_agm_merge_across_shard_disciplines(self):
        graph = connected_gnp(24, 0.15, seed=13)
        stream = stream_from_graph(graph, seed=14, churn=0.6)
        for shards in (
            shard_round_robin(stream, 4),
            shard_by_edge(stream, 4, seed=15),
        ):
            sketches = [AgmSketch(24, seed=16) for _ in shards]
            for sketch, shard in zip(sketches, shards):
                for update in shard:
                    sketch.update(update.u, update.v, update.sign)
            merged = sketches[0]
            for sketch in sketches[1:]:
                merged.combine(sketch)
            assert len(merged.spanning_forest()) == 23


class TestDistributedSpanner:
    def test_sharded_two_pass_spanner_meets_guarantee(self):
        n, k, servers = 40, 2, 3
        graph = connected_gnp(n, 0.2, seed=17)
        stream = stream_from_graph(graph, seed=18, churn=0.4)
        shards = shard_round_robin(stream, servers)

        builders = [TwoPassSpannerBuilder(n, k, seed=19) for _ in range(servers)]
        for builder, shard in zip(builders, shards):
            builder.begin_pass(0)
            for update in shard:
                builder.process(update, 0)
        coordinator = builders[0]
        for builder in builders[1:]:
            coordinator.merge_first_pass(builder)
        coordinator.end_pass(0)

        for builder in builders[1:]:
            builder.adopt_forest_from(coordinator)
        for builder, shard in zip(builders, shards):
            for update in shard:
                builder.process(update, 1)
        for builder in builders[1:]:
            coordinator.merge_second_pass(builder)

        output = coordinator.finalize()
        report = evaluate_multiplicative_stretch(graph, output.spanner)
        assert report.within(2 ** k)
        for u, v, _ in output.spanner.edges():
            assert graph.has_edge(u, v)

    def test_merge_requires_same_seed(self):
        left = TwoPassSpannerBuilder(8, 2, seed=1)
        right = TwoPassSpannerBuilder(8, 2, seed=2)
        with pytest.raises(ValueError):
            left.merge_first_pass(right)

    def test_adopt_requires_built_forest(self):
        left = TwoPassSpannerBuilder(8, 2, seed=1)
        right = TwoPassSpannerBuilder(8, 2, seed=1)
        with pytest.raises(ValueError):
            left.adopt_forest_from(right)


class TestShardedRunner:
    """The distributed execution engine: sharded + merged state must be
    bit-identical to the single-stream state, under both sharding
    disciplines and both backends."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = connected_gnp(28, 0.18, seed=31)
        return graph, stream_from_graph(graph, seed=32, churn=0.5)

    @pytest.mark.parametrize("backend", ["serial", "mp"])
    @pytest.mark.parametrize("discipline", ["round-robin", "by-edge"])
    def test_connectivity_state_bit_identical(self, workload, backend, discipline):
        from functools import partial

        from repro.agm import ConnectivityChecker
        from repro.stream import ShardedRunner, run_passes

        graph, stream = workload
        single = ConnectivityChecker(28, seed=33)
        run_passes(stream, single)

        runner = ShardedRunner(3, backend=backend, discipline=discipline)
        coordinator = ConnectivityChecker(28, seed=33)
        for shard in runner.shard(stream):
            worker = ConnectivityChecker(28, seed=33)
            worker.begin_pass(0)
            for update in shard:
                worker.process(update, 0)
            peer = ConnectivityChecker(28, seed=33)
            peer.load_shard_state_ints(0, worker.shard_state_ints(0))
            coordinator.merge_shard(peer, 0)
        assert list(coordinator.shard_state_ints(0)) == list(single.shard_state_ints(0))

        result = runner.run(stream, partial(ConnectivityChecker, 28, 33))
        assert sorted(map(sorted, result.output)) == sorted(
            map(sorted, single.finalize())
        )

    @pytest.mark.parametrize("backend", ["serial", "mp"])
    def test_spanner_output_identical(self, workload, backend):
        from functools import partial

        from repro.stream import ShardedRunner, run_passes

        graph, stream = workload
        single = run_passes(stream, TwoPassSpannerBuilder(28, 2, seed=34))
        runner = ShardedRunner(3, backend=backend, batch_size=64)
        result = runner.run(stream, partial(TwoPassSpannerBuilder, 28, 2, 34))
        assert result.output.spanner.edge_set() == single.spanner.edge_set()
        report = evaluate_multiplicative_stretch(graph, result.output.spanner)
        assert report.within(4)

    def test_spanner_pass_states_bit_identical(self, workload):
        from functools import partial

        from repro.stream import ShardedRunner, run_passes

        _, stream = workload
        single = TwoPassSpannerBuilder(28, 2, seed=35)
        single_output = run_passes(stream, single)
        runner = ShardedRunner(4, backend="serial", discipline="by-edge")
        # Re-run distributed, then compare the coordinator's serialized
        # pass states against the single-machine builder's.
        coordinator = TwoPassSpannerBuilder(28, 2, seed=35)
        shards = runner.shard(stream)
        workers = [TwoPassSpannerBuilder(28, 2, seed=35) for _ in shards]
        for pass_index in (0, 1):
            broadcast = (
                coordinator.broadcast_state(pass_index) if pass_index else None
            )
            for worker, shard in zip(workers, shards):
                if broadcast is not None:
                    worker.adopt_broadcast(broadcast, pass_index)
                worker.begin_pass(pass_index)
                for update in shard:
                    worker.process(update, pass_index)
                peer = TwoPassSpannerBuilder(28, 2, seed=35)
                if broadcast is not None:
                    peer.adopt_broadcast(broadcast, pass_index)
                peer.load_shard_state_ints(
                    pass_index, worker.shard_state_ints(pass_index)
                )
                coordinator.merge_shard(peer, pass_index)
            coordinator.end_pass(pass_index)
            assert (
                list(coordinator.shard_state_ints(pass_index))
                == list(single.shard_state_ints(pass_index))
            ), f"pass-{pass_index} state diverged"
        assert (
            coordinator.finalize().spanner.edge_set()
            == single_output.spanner.edge_set()
        )

    def test_communication_report_shape(self, workload):
        from functools import partial

        from repro.stream import ShardedRunner

        _, stream = workload
        runner = ShardedRunner(3, backend="serial", batch_size=128)
        result = runner.run(stream, partial(TwoPassSpannerBuilder, 28, 2, 36))
        report = result.communication
        assert len(report.rounds) == 2
        assert all(len(trace.message_bytes) == 3 for trace in report.rounds)
        # Pass 1 ships no broadcast; pass 2 ships the forest to each server.
        assert report.rounds[0].broadcast_bytes == 0
        assert report.rounds[1].broadcast_bytes > 0
        assert report.total_bytes() == (
            report.uplink_bytes() + report.downlink_bytes()
        )
        assert all(size > 0 for trace in report.rounds for size in trace.message_bytes)

    def test_mp_worker_failure_surfaces(self, workload):
        from functools import partial

        from repro.stream import ShardedRunner

        _, stream = workload

        runner = ShardedRunner(2, backend="mp")
        with pytest.raises((RuntimeError, NotImplementedError)):
            # GreedySpannerBaseline-style plain algorithms are not
            # shardable; the protocol must say so loudly, not hang.
            runner.run(stream, partial(_NotShardable,))

    def test_runner_validates_configuration(self):
        from repro.stream import ShardedRunner

        with pytest.raises(ValueError):
            ShardedRunner(0)
        with pytest.raises(ValueError):
            ShardedRunner(2, backend="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardedRunner(2, discipline="alphabetical")
        with pytest.raises(ValueError):
            ShardedRunner(2, batch_size=0)


class _NotShardable:
    """A minimal StreamingAlgorithm without the sharded protocol."""

    passes_required = 1

    def begin_pass(self, pass_index):
        pass

    def process(self, update, pass_index):
        pass

    def process_batch(self, updates, pass_index):
        pass

    def end_pass(self, pass_index):
        pass

    def finalize(self):
        return None

    def broadcast_state(self, pass_index):
        return None

    def shard_state_ints(self, pass_index):
        raise NotImplementedError("_NotShardable does not support sharding")


class _DiesSilently(_NotShardable):
    """Simulates a worker killed mid-round (exits without reporting)."""

    def shard_state_ints(self, pass_index):
        import os

        os._exit(3)  # bypasses the worker's exception reporting entirely


class TestWorkerDeath:
    def test_dead_mp_worker_raises_instead_of_hanging(self):
        from functools import partial

        from repro.graph import connected_gnp
        from repro.stream import ShardedRunner, stream_from_graph

        graph = connected_gnp(8, 0.5, seed=40)
        stream = stream_from_graph(graph, seed=41)
        runner = ShardedRunner(2, backend="mp")
        with pytest.raises(RuntimeError, match="died with exit code"):
            runner.run(stream, partial(_DiesSilently,))
