"""Sparse vertex-universe gates: memory proportional to touched vertices.

The lazy :class:`~repro.graph.vertex_space.VertexSpace` engine claims
that a session over a huge id space (``10^7`` logical vertices) ingests
at columnar speed while holding sketch state proportional to the
vertices that actually appear in the stream — and that it is a pure
storage change, bit-identical to the dense engine on the same touched
subgraph.  This bench pins all three claims on seeded streams:

* **full-session gate** — a four-query (connected / forest /
  spanner-distance / cut) session over a ``10^7``-id universe ingests a
  sparse-touch stream, answers every query kind, matches the exact
  ledger's components, and keeps resident words under ``1/1000`` of the
  dense-universe allocation;
* **memory-proportionality gate** — connectivity sessions at touched
  counts ``T`` and ``2T`` (same universe) must scale resident words by
  ``~2x``, not by the universe, and ingest above a conservative
  throughput floor;
* **dense/lazy identity gate** — on a moderate universe the lazy
  engine's wire state must equal the dense engine's on a long stream;
* **snapshot scale-wall gate** — on a power-law session over the same
  universe, a cold cut at 256 touched ids must grow the process's peak
  RSS by at most 70 MB (the wall recorded before pass 2 was sized by what
  it holds was 4.8 s and a 350 MB peak), and a cold spanner-distance at
  1,000 touched ids is timed and measured the same way (recorded wall:
  ~3.3 s, ~290 MB);
* **checkpoint round-trip gate** — a power-law session over the same
  universe is checkpointed, restored and checkpointed again: the two
  files must be byte-identical, and the round trip's rate (checkpoint
  bytes written and read back per second, best of three) is gated like
  the ingest rates.
* **cold sparsifier snapshot gate** — a weighted dense ``n = 32``
  session shaped like the lifecycle benchmark's query mix takes a cold
  sparsifier snapshot after each 600-token ingest; the median's rate
  (snapshots per second) is gated like the ingest rates.
* **cold AGM forest gate** — a connectivity session shaped like the
  lifecycle benchmark's powerlaw-500 workload extracts a cold spanning
  forest after each 200-token ingest; the median's rate (forests per
  second) is gated like the ingest rates.

Measured rates land in ``benchmarks/results/BENCH_sparse.json``;
``tools/perf_regress.py`` (run by ``make bench-sparse``) compares them
against the committed floors in ``benchmarks/baselines/BENCH_sparse.json``
and fails the build on a > 20% regression.  Single-core gates only (the
reference container has 1 CPU).
"""

from __future__ import annotations

import ctypes
import gc
import json
import pathlib
import time

import pytest

from repro.agm.connectivity import ConnectivityChecker
from repro.core.parameters import SparsifierParams, SpannerParams
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession, SketchLadder, WorkloadDriver, components_match_ledger
from repro.stream.generators import (
    mixed_workload_stream,
    power_law_universe_stream,
    sparse_session_ops,
    sparse_touch_stream,
)

#: The headline universe: ten million logical vertex ids.
UNIVERSE = 10_000_000

#: Touched ids for the four-query full-session gate (spanner/sparsifier
#: table layouts scale ~touched^{1.5}, so the full pipeline runs smaller
#: than the connectivity-only proportionality probe).
SESSION_TOUCHED = 384

#: Touched ids for the connectivity-only proportionality probe.
PROPORTIONALITY_TOUCHED = 4_096

#: Conservative ingest floor for the connectivity-only huge-universe
#: session (measured ~8-12k updates/s on the reference container).
INGEST_FLOOR = 2_500

#: Resident state must stay under this fraction of the dense-universe
#: allocation at bench scale.
RESIDENT_FRACTION_CEILING = 1e-3

#: Resident words at 2T touched may be at most this multiple of the
#: words at T touched (perfect proportionality would be ~2.0).
PROPORTIONALITY_CEILING = 2.8

SLIM_SPARSIFIER = SparsifierParams(
    estimate_reps_factor=0.01, estimate_levels=1, sampling_levels=1,
    sampling_rounds_factor=0.001,
)
SLIM_SPANNER = SpannerParams(table_stacks=1, table_capacity_factor=0.75)

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_sparse.json"

#: Touched ids of the cold-cut and cold-spanner snapshot probes.
WALL_CUT_TOUCHED = 256
WALL_SPANNER_TOUCHED = 1_000

#: Peak-RSS growth ceiling of the cold cut: 5x under the 350 MB wall.
WALL_CUT_PEAK_MB = 70

_RATES: dict[str, float] = {}


def _connectivity_session(touched: int) -> GraphSession:
    import math

    return GraphSession(
        VertexSpace.sparse(UNIVERSE),
        "bench-sparse-conn",
        enable_spanner=False,
        enable_sparsifier=False,
        agm_rounds=max(4, math.ceil(math.log2(touched))) + 2,
    )


def _ingest_stream(session: GraphSession, touched: int, updates: int, seed) -> float:
    tokens = list(sparse_touch_stream(UNIVERSE, touched, updates, seed))
    begin = time.perf_counter()
    for start in range(0, len(tokens), 8192):
        session.ingest_batch(tokens[start : start + 8192])
    return len(tokens) / (time.perf_counter() - begin)


@pytest.fixture(scope="module")
def proportionality_runs():
    runs = {}
    for label, touched in (("T", PROPORTIONALITY_TOUCHED), ("2T", 2 * PROPORTIONALITY_TOUCHED)):
        session = _connectivity_session(touched)
        rate = _ingest_stream(session, touched, 3 * touched, f"bench-prop-{label}")
        stats = session.stats()
        runs[label] = {
            "touched": stats.touched_vertices,
            "resident_words": stats.space_words,
            "universe_words": stats.universe_space_words,
            "rate": rate,
            "ledger_ok": components_match_ledger(session),
        }
    return runs


def test_full_session_gate(results):
    """10^7-id universe, four query kinds, resident << dense universe."""
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE),
        "bench-sparse-session",
        k=2,
        sparsifier_k=1,
        sparsifier_params=SLIM_SPARSIFIER,
        spanner_params=SLIM_SPANNER,
        agm_rounds=12,
    )
    ops = sparse_session_ops(
        UNIVERSE,
        SESSION_TOUCHED,
        3_000,
        "bench-sparse-session",
        query_every=750,
        query_repeats=2,
    )
    begin = time.perf_counter()
    report = WorkloadDriver(session).run(ops, scenario="sparse-universe")
    elapsed = time.perf_counter() - begin
    stats = session.stats()
    answered = {kind for kind in report.latencies}
    fraction = stats.space_words / stats.universe_space_words
    _RATES["sparse_session_ingest"] = round(report.ingest_rate, 1)
    table = "\n".join([
        f"sparse-universe session: {UNIVERSE:,} ids, "
        f"{stats.touched_vertices} touched, {report.updates:,} updates "
        f"({elapsed:.1f} s total):",
        f"  ingest    : {report.ingest_rate:>10,.0f} updates/s",
        f"  queries   : {sorted(answered)} all answered "
        f"({report.queries} total, {report.cache_hits} cached)",
        f"  resident  : {stats.space_words:,} words vs "
        f"{stats.universe_space_words:,} dense-universe words "
        f"(fraction {fraction:.2e}, ceiling {RESIDENT_FRACTION_CEILING:.0e})",
        f"  verified  : components match the exact ledger",
    ])
    results("bench_sparse_session", table)
    assert answered == {"connected", "forest", "spanner_distance", "cut"}, (
        f"expected all four query kinds answered, got {sorted(answered)}"
    )
    assert report.skipped_queries == 0
    assert stats.touched_vertices <= SESSION_TOUCHED
    assert fraction < RESIDENT_FRACTION_CEILING, (
        f"resident fraction {fraction:.2e} above {RESIDENT_FRACTION_CEILING}"
    )
    assert components_match_ledger(session)


def test_memory_proportionality_gate(proportionality_runs, results):
    """Resident words scale with touched vertices, not the universe."""
    base = proportionality_runs["T"]
    double = proportionality_runs["2T"]
    growth = double["resident_words"] / base["resident_words"]
    _RATES["sparse_connectivity_ingest"] = round(base["rate"], 1)
    _RATES["sparse_connectivity_ingest_2x"] = round(double["rate"], 1)
    table = "\n".join([
        f"memory proportionality over a {UNIVERSE:,}-id universe "
        f"(connectivity-only sessions):",
        f"  touched {base['touched']:>6,}: {base['resident_words']:>14,} resident words, "
        f"{base['rate']:>9,.0f} updates/s",
        f"  touched {double['touched']:>6,}: {double['resident_words']:>14,} resident words, "
        f"{double['rate']:>9,.0f} updates/s",
        f"  growth    : {growth:.2f}x for 2x touched "
        f"(ceiling {PROPORTIONALITY_CEILING}x; universe-driven would be ~1x "
        f"at {base['universe_words']:,} words)",
    ])
    results("bench_sparse_proportionality", table)
    assert base["ledger_ok"] and double["ledger_ok"]
    assert 1.4 <= growth <= PROPORTIONALITY_CEILING, (
        f"resident growth {growth:.2f}x outside the touched-proportional band"
    )
    for run in (base, double):
        assert run["resident_words"] < run["universe_words"] * 1e-2
        assert run["rate"] >= INGEST_FLOOR, (
            f"huge-universe ingest {run['rate']:,.0f} updates/s under the "
            f"{INGEST_FLOOR:,} floor"
        )


def test_dense_lazy_identity_long_stream(results):
    """Moderate universe: lazy wire state equals dense on 3*10^4 tokens."""
    n, updates = 64, 30_000
    tokens = list(sparse_touch_stream(n, n, updates, "bench-sparse-ident"))
    dense = ConnectivityChecker(n, "bench-ident")
    lazy = ConnectivityChecker(VertexSpace.sparse(n), "bench-ident")
    begin = time.perf_counter()
    for start in range(0, updates, 8192):
        dense.process_batch(tokens[start : start + 8192], 0)
    dense_rate = updates / (time.perf_counter() - begin)
    begin = time.perf_counter()
    for start in range(0, updates, 8192):
        lazy.process_batch(tokens[start : start + 8192], 0)
    lazy_rate = updates / (time.perf_counter() - begin)
    _RATES["dense_engine_connectivity"] = round(dense_rate, 1)
    _RATES["lazy_engine_connectivity"] = round(lazy_rate, 1)
    identical = dense.shard_state_ints(0) == lazy.shard_state_ints(0)
    table = "\n".join([
        f"dense vs lazy engine on the same {n}-id universe "
        f"({updates:,} tokens, batch 8,192):",
        f"  dense : {dense_rate:>10,.0f} updates/s",
        f"  lazy  : {lazy_rate:>10,.0f} updates/s",
        f"  wire  : {'bit-identical' if identical else 'DIVERGED'}",
    ])
    results("bench_sparse_identity", table)
    assert identical, "lazy engine wire state diverged from the dense engine"


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field_name}")


def _reset_peak() -> int:
    """Return freed memory to the OS and reset the peak-RSS mark (kB), so
    the next peak shows only what is allocated after this call."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    return _status_kb("VmHWM:")


def _cold_snapshot(kind: str, touched: int) -> tuple[int, float, float]:
    """(live edges, seconds, peak-RSS growth MB) of one cold ``kind``
    query on a power-law session with ``touched`` ids (30 tokens each)."""
    seed = f"bench-sparse-wall-{touched}"
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE),
        seed,
        k=2,
        sparsifier_k=1,
        sparsifier_params=SLIM_SPARSIFIER,
        spanner_params=SLIM_SPANNER,
        agm_rounds=12,
    )
    tokens = list(power_law_universe_stream(UNIVERSE, touched, 30 * touched, seed, exponent=1.2))
    for start in range(0, len(tokens), 1_000):
        session.ingest_batch(tokens[start : start + 1_000])
    pool = sorted({v for update in tokens for v in update.pair})
    args = (frozenset(pool[::2]),) if kind == "cut" else (pool[0], pool[-1])
    base = _reset_peak()
    begin = time.perf_counter()
    outcome = session.query(kind, *args)
    seconds = time.perf_counter() - begin
    grown = (_status_kb("VmHWM:") - base) / 1024
    assert outcome.ok, f"cold {kind} failed: {outcome}"
    return session.num_live_edges(), seconds, grown


def test_snapshot_scale_wall(results):
    """Pass 2 sized by what it holds: cold snapshots past the old wall."""
    cut_edges, cut_s, cut_mb = _cold_snapshot("cut", WALL_CUT_TOUCHED)
    span_edges, span_s, span_mb = _cold_snapshot("spanner-distance", WALL_SPANNER_TOUCHED)
    table = "\n".join([
        f"cold snapshots, {UNIVERSE:,}-id universe, power-law touched ids:",
        f"  cut              @ {WALL_CUT_TOUCHED:>5} touched ({cut_edges:,} live edges): "
        f"{cut_s:6.2f} s, peak RSS +{cut_mb:6.1f} MB "
        f"(ceiling {WALL_CUT_PEAK_MB} MB; recorded wall 4.8 s, 350 MB)",
        f"  spanner-distance @ {WALL_SPANNER_TOUCHED:>5} touched ({span_edges:,} live edges): "
        f"{span_s:6.2f} s, peak RSS +{span_mb:6.1f} MB (recorded wall ~3.3 s, ~290 MB)",
    ])
    results("bench_sparse_snapshot", table)
    assert cut_mb <= WALL_CUT_PEAK_MB, (
        f"cold cut grew peak RSS by {cut_mb:.1f} MB (ceiling {WALL_CUT_PEAK_MB} MB)"
    )


#: Touched ids and tokens of the checkpoint round-trip session (the
#: powerlaw-500 lifecycle workload's shape: a ~4 MB checkpoint).
ROUNDTRIP_TOUCHED = 500
ROUNDTRIP_UPDATES = 15_000


def test_checkpoint_round_trip(results, tmp_path):
    """Checkpoint -> restore -> checkpoint is byte-identical, at speed."""
    seed = "bench-sparse-roundtrip"
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE),
        seed,
        k=2,
        sparsifier_k=1,
        sparsifier_params=SLIM_SPARSIFIER,
        spanner_params=SLIM_SPANNER,
        agm_rounds=12,
    )
    tokens = list(power_law_universe_stream(
        UNIVERSE, ROUNDTRIP_TOUCHED, ROUNDTRIP_UPDATES, seed, exponent=1.2
    ))
    for start in range(0, len(tokens), 1_000):
        session.ingest_batch(tokens[start : start + 1_000])
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    timings = []
    for _ in range(3):
        begin = time.perf_counter()
        session.checkpoint(first)
        saved = time.perf_counter()
        restored = GraphSession.restore(first)
        timings.append((saved - begin, time.perf_counter() - saved))
    restored.checkpoint(second)
    size = first.stat().st_size
    save_s, load_s = min(timings, key=sum)
    rate = 2 * size / (save_s + load_s)
    _RATES["sparse_checkpoint_roundtrip"] = round(rate, 1)
    identical = first.read_bytes() == second.read_bytes()
    table = "\n".join([
        f"checkpoint round trip, {UNIVERSE:,}-id universe, "
        f"{ROUNDTRIP_TOUCHED} power-law touched ids ({size:,} B checkpoint):",
        f"  checkpoint: {save_s * 1e3:8.1f} ms",
        f"  restore   : {load_s * 1e3:8.1f} ms",
        f"  rate      : {rate / 1e6:8.2f} MB/s written and read back (best of 3)",
        f"  re-saved  : {'byte-identical' if identical else 'DIVERGED'}",
    ])
    results("bench_sparse_checkpoint", table)
    assert identical, "a restored session re-serialized to different bytes"


#: Shape of the cold-sparsifier-snapshot probe: weighted dense n=32 with
#: slim sparsifier constants, 600-token ingests (the lifecycle
#: benchmark's query-heavy workload).
SNAPSHOT_VERTICES = 32
SNAPSHOT_CHUNK = 600
SNAPSHOT_COUNT = 7
SNAPSHOT_SPARSIFIER = SparsifierParams(
    estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01
)


def test_cold_sparsifier_snapshot(results):
    """Cold sparsifier snapshots per second on a weighted dense session:
    clone, pass-2 replay from the ledger, one batched decode of every
    sub-spanner's tables, assembly.  Each ingest opens a new epoch, so
    every timed snapshot is cold."""
    seed = "bench-sparse-snapshot"
    session = GraphSession(
        SNAPSHOT_VERTICES, seed, k=2, sparsifier_k=1,
        sparsifier_params=SNAPSHOT_SPARSIFIER, weight_bounds=(1.0, 2.0),
    )
    tokens = list(mixed_workload_stream(
        SNAPSHOT_VERTICES, (SNAPSHOT_COUNT + 5) * SNAPSHOT_CHUNK, seed, weights=(1.0, 2.0)
    ))
    chunks = [tokens[i : i + SNAPSHOT_CHUNK] for i in range(0, len(tokens), SNAPSHOT_CHUNK)]
    for chunk in chunks[:5]:
        session.ingest_batch(chunk)
    session.sparsifier_snapshot()  # first layout: derives the tables' randomness
    timings = []
    for chunk in chunks[5:]:
        session.ingest_batch(chunk)
        begin = time.perf_counter()
        snapshot = session.sparsifier_snapshot()
        timings.append(time.perf_counter() - begin)
    timings.sort()
    median = timings[len(timings) // 2]
    _RATES["sparsifier_cold_snapshot"] = round(1.0 / median, 2)
    table = "\n".join([
        f"cold sparsifier snapshot, weighted dense n={SNAPSHOT_VERTICES}, "
        f"{SNAPSHOT_CHUNK}-token ingests, {len(timings)} epochs:",
        f"  median: {median * 1e3:8.1f} ms  ({1.0 / median:.2f} snapshots/s)",
        f"  range : {timings[0] * 1e3:8.1f} - {timings[-1] * 1e3:.1f} ms",
        f"  edges : {snapshot.num_edges()} in the last snapshot",
    ])
    results("bench_sparse_sparsifier_snapshot", table)
    assert snapshot.num_edges() > 0


#: Shape of the cold-forest probe: the powerlaw-500 lifecycle workload's
#: session (10^7-id universe, 500 power-law touched ids, the sizing
#: ladder from capacity 128) with connectivity only.
FOREST_TOUCHED = 500
FOREST_UPDATES = 15_000
FOREST_EPOCHS = 7
FOREST_CHUNK = 200


def test_cold_agm_forest(results):
    """Cold AGM spanning forests per second on a huge-universe power-law
    session: one batched Borůvka step per round over every component's
    L0 sampler.  Each timed forest follows an ingest, so it is cold."""
    seed = "bench-sparse-forest"
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE), seed, enable_spanner=False,
        enable_sparsifier=False, ladder=SketchLadder(start_capacity=128),
    )
    tokens = list(power_law_universe_stream(
        UNIVERSE, FOREST_TOUCHED, FOREST_UPDATES, seed, exponent=1.2
    ))
    warm = len(tokens) - FOREST_EPOCHS * FOREST_CHUNK
    for start in range(0, warm, 1_000):
        session.ingest_batch(tokens[start : min(start + 1_000, warm)])
    timings = []
    for start in range(warm, len(tokens), FOREST_CHUNK):
        session.ingest_batch(tokens[start : start + FOREST_CHUNK])
        begin = time.perf_counter()
        forest = session.spanning_forest()
        timings.append(time.perf_counter() - begin)
    timings.sort()
    median = timings[len(timings) // 2]
    _RATES["agm_cold_forest"] = round(1.0 / median, 2)
    table = "\n".join([
        f"cold AGM forest, {UNIVERSE:,}-id universe, {FOREST_TOUCHED} power-law "
        f"touched ids, {len(timings)} epochs:",
        f"  median: {median * 1e3:8.1f} ms  ({1.0 / median:.2f} forests/s)",
        f"  range : {timings[0] * 1e3:8.1f} - {timings[-1] * 1e3:.1f} ms",
        f"  edges : {len(forest)} in the last forest",
    ])
    results("bench_sparse_agm_forest", table)
    assert components_match_ledger(session)


def test_write_rates_json(proportionality_runs, results):
    """Last: persist every measured rate for tools/perf_regress.py."""
    payload = {
        "universe": UNIVERSE,
        "updates_per_second": dict(sorted(_RATES.items())),
    }
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    results(
        "bench_sparse_json",
        f"wrote {len(_RATES)} measured rates to {RESULTS_JSON.name} "
        "(regression-gated by tools/perf_regress.py)",
    )
    assert RESULTS_JSON.exists()
