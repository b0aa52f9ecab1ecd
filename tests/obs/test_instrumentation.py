"""The instrumented seams, end to end: workload spans account for the
run's wall-clock, cache/checkpoint/decode traffic reaches the counters,
and the distributed runner's RoundTrace carries span-derived timing.

These tests install an enabled tracer via ``obs.set_tracer`` (restoring
the noop singleton afterwards) and drive the real subsystems — the same
wiring ``REPRO_TRACE=1`` arms in production.
"""

import pytest

from repro import obs
from repro.service import (
    GraphSession,
    WorkloadDriver,
    load_session,
    save_session,
    scenario_ops,
)
from repro.service.session import _EpochCache
from repro.stream import (
    EdgeUpdate,
    ShardedRunner,
    mixed_workload_stream,
    stream_from_graph,
)


@pytest.fixture
def tracer():
    """An enabled tracer installed process-wide for one test."""
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    yield tracer
    obs.set_tracer(previous)


def _session(n=12, seed="obs-test"):
    return GraphSession(n, seed, k=2, enable_sparsifier=False)


# -- workload driver ---------------------------------------------------


def test_workload_phases_account_for_wall_clock(tracer, tmp_path):
    """The acceptance bar: per-phase span totals sum to within 10% of
    the root span's wall-clock, and the report reads the same spans."""
    session = _session(n=16)
    ops = scenario_ops("mixed", 16, 2_000, 7)
    driver = WorkloadDriver(
        session, checkpoint_every=1_000, checkpoint_dir=tmp_path
    )
    assert driver.tracer is tracer  # enabled process tracer is adopted
    report = driver.run(ops, scenario="mixed")

    phases = tracer.phase_seconds()
    total = phases["workload.run"]
    children = sum(
        seconds
        for path, seconds in phases.items()
        if path.count("/") == 1 and path.startswith("workload.run/")
    )
    assert total > 0
    assert children == pytest.approx(total, rel=0.10)

    # Report and trace are the same measurements — exactly, not roughly.
    assert report.ingest_seconds == pytest.approx(
        phases["workload.run/workload.ingest"], rel=1e-9
    )
    assert report.query_seconds == pytest.approx(
        phases["workload.run/workload.query"], rel=1e-9
    )
    assert report.checkpoint_seconds == pytest.approx(
        phases["workload.run/workload.checkpoint"], rel=1e-9
    )
    assert report.checkpoints >= 1


def test_workload_without_global_tracer_still_times():
    """With the noop tracer installed the driver uses a private enabled
    tracer, so the report's timings stay real."""
    assert not obs.TRACER.enabled
    session = _session()
    driver = WorkloadDriver(session)
    assert driver.tracer is not obs.TRACER
    assert driver.tracer.enabled
    report = driver.run(scenario_ops("mixed", 12, 600, 3), scenario="mixed")
    assert report.ingest_seconds > 0
    assert report.query_seconds > 0
    assert obs.TRACER.phase_seconds() == {}  # nothing leaked process-wide


# -- session cache -----------------------------------------------------


def test_cache_counters_and_stats(tracer):
    session = _session()
    session.ingest_batch(
        [EdgeUpdate(0, 1, +1), EdgeUpdate(1, 2, +1), EdgeUpdate(2, 3, +1)]
    )
    session.connected(0, 2)
    session.connected(0, 2)  # same epoch: a hit
    session.ingest_batch([EdgeUpdate(3, 4, +1)])  # advances epoch, prunes
    session.connected(0, 2)  # recompute in the new epoch

    assert tracer.counters["session.cache.hit"] == session._cache.hits
    assert tracer.counters["session.cache.miss"] == session._cache.misses
    assert tracer.counters["session.cache.prune"] == session._cache.prunes
    assert tracer.counters["session.epoch.advance"] == session.epoch
    assert "session.ingest" in tracer.phase_seconds()

    stats = session.stats()
    assert stats.cache_hits == session._cache.hits
    assert stats.cache_misses == session._cache.misses
    assert stats.cache_prunes == session._cache.prunes
    assert stats.cache_evictions == session._cache.evictions
    assert stats.cache_entries == len(session._cache)


def test_epoch_cache_bounds_same_epoch_entries():
    cache = _EpochCache(max_entries=3)
    for key in range(5):
        cache.get_or_compute(("bfs", key), epoch=1, compute=lambda k=key: k)
    assert len(cache) == 3  # FIFO-bounded within one epoch
    assert cache.evictions == 2
    # The two oldest were evicted; recomputing one is a miss.
    misses = cache.misses
    cache.get_or_compute(("bfs", 0), epoch=1, compute=lambda: 0)
    assert cache.misses == misses + 1
    # The newest survived; reading it is a hit.
    hits = cache.hits
    assert cache.get_or_compute(("bfs", 4), epoch=1, compute=lambda: -1) == 4
    assert cache.hits == hits + 1


def test_epoch_cache_prune_counts_dropped():
    cache = _EpochCache()
    cache.get_or_compute("a", epoch=1, compute=lambda: 1)
    cache.get_or_compute("b", epoch=1, compute=lambda: 2)
    cache.prune(epoch=2)
    assert len(cache) == 0
    assert cache.prunes == 2


def test_epoch_cache_rejects_unbounded():
    with pytest.raises(ValueError):
        _EpochCache(max_entries=0)


# -- checkpoint --------------------------------------------------------


def test_checkpoint_counters_and_bytes(tracer, tmp_path):
    session = _session()
    session.ingest_batch([EdgeUpdate(0, 1, +1), EdgeUpdate(1, 2, +1)])
    path = tmp_path / "ckpt.bin"
    save_session(session, path)
    restored = load_session(path)
    assert restored.updates_ingested == session.updates_ingested

    assert tracer.counters["checkpoint.writes"] == 1
    assert tracer.counters["checkpoint.restores"] == 1
    assert tracer.counters["checkpoint.bytes_written"] == path.stat().st_size
    assert tracer.counters["checkpoint.bytes_read"] == path.stat().st_size
    assert tracer.histograms["checkpoint.bytes"].count == 1
    phases = tracer.phase_seconds()
    assert phases["checkpoint.save"] > 0
    assert phases["checkpoint.load"] > 0


def test_checkpoint_codec_spans_nest_with_item_counts(tracer, tmp_path):
    """The payload's varint encode and decode are their own spans inside
    save and load, carrying the ints and bytes they handled."""
    records = []

    class Sink:
        def write(self, record):
            records.append(record)

        def close(self):
            pass

    tracer.sink = Sink()
    session = _session()
    session.ingest_batch([EdgeUpdate(0, 1, +1), EdgeUpdate(1, 2, +1)])
    path = tmp_path / "ckpt.bin"
    save_session(session, path)
    load_session(path)

    phases = tracer.phase_seconds()
    assert 0 < phases["checkpoint.save/checkpoint.encode"] <= phases["checkpoint.save"]
    assert 0 < phases["checkpoint.load/checkpoint.decode"] <= phases["checkpoint.load"]
    spans = {r["path"]: r.get("attrs") for r in records if r["type"] == "span"}
    encoded = spans["checkpoint.save/checkpoint.encode"]
    decoded = spans["checkpoint.load/checkpoint.decode"]
    assert encoded["ints"] == decoded["ints"] > 0
    data = path.read_bytes()
    assert 0 < decoded["bytes"] < len(data)


# -- sketch hot paths --------------------------------------------------


def test_scatter_and_decode_telemetry(tracer):
    session = _session(n=16)
    tokens = list(mixed_workload_stream(16, 400, "obs-decode"))
    session.ingest_batch(tokens)
    session.components()  # drives L0 decode / peeling
    assert tracer.histograms["sketch.scatter.batch"].count > 0
    assert tracer.counters["sketch.decode.attempt"] > 0
    assert tracer.counters["sketch.decode.peel_iterations"] > 0


def test_spanner_pass2_spans_and_counters(tracer):
    """A cold spanner snapshot reduces its pass-2 tables and peels them
    in one span each, and counts the nonzero cells and tables."""
    session = _session(n=16)
    session.ingest_batch(list(mixed_workload_stream(16, 400, "obs-pass2")))
    session.spanner_snapshot()
    phases = tracer.phase_seconds()
    reduce_paths = [path for path in phases if path.endswith("spanner.pass2.reduce")]
    peel_paths = [path for path in phases if path.endswith("spanner.pass2.peel")]
    assert reduce_paths and peel_paths
    assert 0 < tracer.counters["spanner.pass2.tables"] <= tracer.counters["spanner.pass2.cells"]


def test_sparsifier_pass2_decode_span_and_counters(tracer):
    """A cold sparsifier snapshot decodes every sub-spanner's tables in
    one span, in blocks it counts; it derives its tables' randomness once,
    so the next cold snapshot of the same layout derives none."""
    from repro.core import SparsifierParams

    slim = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)
    session = GraphSession(16, "obs-sparsifier", k=2, sparsifier_k=1,
                           sparsifier_params=slim, weight_bounds=(1.0, 2.0))
    session.ingest_batch(
        list(mixed_workload_stream(16, 400, "obs-sparsifier", weights=(1.0, 2.0)))
    )
    session.sparsifier_snapshot()
    phases = tracer.phase_seconds()
    decode = [path for path in phases if path.endswith("sparsifier.pass2.decode")]
    assert len(decode) == 1 and phases[decode[0]] > 0
    assert any(path.startswith(decode[0] + "/") for path in phases)  # reduce, peel
    assert tracer.counters["spanner.pass2.decode_blocks"] >= 1
    assert tracer.counters["spanner.pass2.derived_groups"] > 0
    derived = tracer.counters["spanner.pass2.derived_groups"]
    clone = session._sparsifier.clone()
    session._replay_second_pass(clone)
    clone.finalize()
    assert tracer.counters["spanner.pass2.derived_groups"] == derived


# -- distributed runner ------------------------------------------------


def _connectivity_factory():
    from functools import partial

    from repro.agm import ConnectivityChecker

    return partial(ConnectivityChecker, 12, 5)


def test_round_trace_carries_timing_when_traced(tracer):
    from repro.graph import connected_gnp

    graph = connected_gnp(12, 0.3, seed=5)
    stream = stream_from_graph(graph, seed=5, churn=0.2)
    result = ShardedRunner(2).run(stream, _connectivity_factory())
    trace = result.communication.rounds[0]
    assert trace.worker_seconds > 0
    assert trace.merge_seconds > 0
    assert result.communication.worker_seconds() > 0
    assert "workers" in result.communication.summary()
    assert tracer.counters["shard.round.uplink_bytes"] == trace.uplink_bytes()


def test_round_trace_timing_zero_when_untraced():
    from repro.graph import connected_gnp

    assert not obs.TRACER.enabled
    graph = connected_gnp(12, 0.3, seed=5)
    stream = stream_from_graph(graph, seed=5, churn=0.2)
    result = ShardedRunner(2).run(stream, _connectivity_factory())
    trace = result.communication.rounds[0]
    # Bit-identity of test expectations: untraced runs report 0.0 and
    # the summary keeps its historical byte-only shape.
    assert trace.worker_seconds == 0.0
    assert trace.merge_seconds == 0.0
    assert "workers" not in result.communication.summary()
