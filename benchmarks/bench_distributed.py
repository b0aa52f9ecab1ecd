"""Distributed engine — sharded multi-process execution vs. one machine.

The distributed subsystem (:mod:`repro.stream.distributed`) exists so
that ``s`` servers can sketch disjoint shards of a dynamic stream and a
coordinator can reassemble the *exact* single-machine state from their
serialized messages.  This bench pins down both halves of that claim:

* **equivalence** — on a small stream, every backend x discipline
  combination must produce identical output *and* identical per-round
  message bytes (the protocol is deterministic, so the serial and mp
  backends are indistinguishable on the wire);
* **speedup** — on a ``10^6``-update dynamic stream, 4 worker processes
  (``backend="mp"``) must beat the single-stream batched run by >= 2x
  wall-clock.  The parallel section is the per-shard sketching; the
  serialized-state merge at the coordinator is sequential but its cost
  is fixed by the sketch size, not the stream length, which is exactly
  why the speedup materializes on long streams.

The speedup gate needs real cores: it is skipped (not failed) when the
host exposes fewer than 2 CPUs, and the 4-worker target is asserted
only when >= 4 CPUs are available (2 workers / >= 1.6x on 2-3 CPUs).
``docs/performance.md`` quotes the table.
"""

from __future__ import annotations

import os
import time
from functools import partial

import pytest

from repro.agm import ConnectivityChecker
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.stream import ShardedRunner, run_passes
from repro.stream.stream import DynamicStream
from repro.stream.updates import EdgeUpdate
from repro.util.rng import rng_from_seed

#: Stream length for the headline speedup measurement (the issue's 10^6).
STREAM_UPDATES = 1_000_000

#: Vertex-set size: small enough that per-shard chunks stay above the
#: batch engine's vectorization crossover, large enough to be a graph.
NUM_VERTICES = 24

#: Per-worker chunk length for the batched sketch engine.
BATCH_SIZE = 65_536

#: Workers for the headline measurement.
SERVERS = 4

#: Wall-clock gate: mp backend at 4 workers vs. the single-stream run.
SPEEDUP_FLOOR = 2.0

#: Fallback gate when only 2-3 cores are available (2 workers).
SMALL_HOST_SPEEDUP_FLOOR = 1.6


def _dynamic_stream(num_vertices: int, length: int, seed: int) -> DynamicStream:
    """A valid dynamic edge stream: inserts with interleaved deletions."""
    rng = rng_from_seed(seed, "bench-distributed")
    updates: list[EdgeUpdate] = []
    live: list[tuple[int, int]] = []
    while len(updates) < length:
        if live and rng.random() < 0.35:
            position = rng.randrange(len(live))
            live[position], live[-1] = live[-1], live[position]
            u, v = live.pop()
            updates.append(EdgeUpdate(u, v, -1))
        else:
            u = rng.randrange(num_vertices)
            v = rng.randrange(num_vertices)
            if u == v:
                continue
            live.append((min(u, v), max(u, v)))
            updates.append(EdgeUpdate(u, v, +1))
    return DynamicStream(num_vertices, updates)


def test_distributed_equivalence_and_wire_determinism(results):
    """Every backend/discipline combo: same answer, same bytes — for the
    one-pass connectivity checker and the two-pass spanner (whose pass-1
    messages are the nonzero table and cut-sketch cells)."""
    stream = _dynamic_stream(NUM_VERTICES, 4_000, seed=23)
    legs = [
        (
            "connectivity",
            partial(ConnectivityChecker, NUM_VERTICES, 5),
            lambda output: sorted(map(sorted, output)),
        ),
        (
            "spanner",
            partial(TwoPassSpannerBuilder, NUM_VERTICES, 2, 5),
            lambda output: sorted(output.spanner.edge_set()),
        ),
    ]
    rows = ["sharded vs single-stream on a 4,000-update stream (3 servers):"]
    for name, factory, answer in legs:
        reference = answer(factory().run(stream, batch_size=512))
        bytes_by_discipline: dict[str, list[int]] = {}
        for backend in ("serial", "mp"):
            for discipline in ("round-robin", "by-edge"):
                runner = ShardedRunner(
                    3, backend=backend, discipline=discipline, batch_size=512
                )
                result = runner.run(stream, factory)
                assert answer(result.output) == reference, (
                    f"{name} {backend}/{discipline} diverged from the single-stream run"
                )
                per_pass = [
                    trace.uplink_bytes() + trace.downlink_bytes()
                    for trace in result.communication.rounds
                ]
                expected = bytes_by_discipline.setdefault(discipline, per_pass)
                assert per_pass == expected, (
                    f"{name} {backend}/{discipline} message bytes differ between backends"
                )
                rows.append(
                    f"  {name:<12} {backend:<7} {discipline:<12} output identical, "
                    f"{sum(per_pass):,} B on the wire "
                    f"({' + '.join(f'{size:,}' for size in per_pass)} per pass)"
                )
    results("bench_distributed_equivalence", "\n".join(rows))


def test_distributed_speedup(results):
    """>= 2x wall-clock at 4 mp workers on a 10^6-update stream."""
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            "multi-process speedup needs >= 2 CPUs; this host exposes "
            f"{cores} (the equivalence gate above still ran)"
        )
    servers = SERVERS if cores >= SERVERS else 2
    floor = SPEEDUP_FLOOR if cores >= SERVERS else SMALL_HOST_SPEEDUP_FLOOR

    stream = _dynamic_stream(NUM_VERTICES, STREAM_UPDATES, seed=29)
    factory = partial(ConnectivityChecker, NUM_VERTICES, 5)

    start = time.perf_counter()
    single = factory().run(stream, batch_size=BATCH_SIZE)
    single_seconds = time.perf_counter() - start

    runner = ShardedRunner(servers, backend="mp", batch_size=BATCH_SIZE)
    start = time.perf_counter()
    result = runner.run(stream, factory)
    mp_seconds = time.perf_counter() - start

    assert sorted(map(sorted, result.output)) == sorted(map(sorted, single)), (
        "distributed components diverged from the single-stream run"
    )
    speedup = single_seconds / mp_seconds
    table = "\n".join([
        f"distributed speedup on a {STREAM_UPDATES:,}-update stream "
        f"(n={NUM_VERTICES}, batch {BATCH_SIZE:,}, {cores} cores):",
        f"  single-stream batched run : {single_seconds:>8.1f} s",
        f"  mp backend, {servers} workers    : {mp_seconds:>8.1f} s",
        f"  speedup                   : {speedup:>8.2f}x (gate {floor}x)",
        f"  coordinator communication : "
        f"{result.communication.total_bytes():,} B",
    ])
    results("bench_distributed_speedup", table)
    assert speedup >= floor, (
        f"mp backend speedup {speedup:.2f}x below the {floor}x gate "
        f"at {servers} workers"
    )
