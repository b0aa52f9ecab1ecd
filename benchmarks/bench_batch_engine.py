"""Batch path — scalar vs. vectorized sparse-recovery update throughput.

The one per-sketch batch path left in the sketch layer is
``SparseRecoverySketch.update_batch``: the pass-2 hash tables replay
their arbitrary-precision payloads through it on every cold spanner or
cut snapshot, and the columnar stacks spill to it.  (Graph streams ride
the columnar stacks, gated by ``bench_columnar.py``.)  This bench
measures that path on a ``10^5``-update dynamic (insert/delete) stream
over the edge-pair domain:

* updates/sec, scalar loop vs. one ``update_batch`` call per chunk,
  with the resulting sketch states asserted bit-identical;
* a perf smoke gate: the engine-level speedup (total scalar time over
  total batched time across the rows) must be >= 5x, with a per-row
  floor of 3x.

``docs/performance.md`` quotes this table.
"""

from __future__ import annotations

import time

from repro.sketch import SparseRecoverySketch
from repro.util.rng import rng_from_seed

#: Stream length for the headline measurement (the issue's 10^5).
STREAM_UPDATES = 100_000

#: Chunk length fed to each ``update_batch`` call.
BATCH_SIZE = 8_192

#: Engine-level speedup gate (scalar total time / batched total time).
ENGINE_SPEEDUP_FLOOR = 5.0

#: Per-primitive floor.
PRIMITIVE_SPEEDUP_FLOOR = 3.0


def _dynamic_stream(domain: int, length: int, seed: int) -> tuple[list[int], list[int]]:
    """A turnstile update sequence: inserts with interleaved deletions."""
    rng = rng_from_seed(seed, "bench-batch-engine")
    indices: list[int] = []
    deltas: list[int] = []
    live: list[int] = []
    for _ in range(length):
        if live and rng.random() < 0.35:
            position = rng.randrange(len(live))
            live[position], live[-1] = live[-1], live[position]
            indices.append(live.pop())
            deltas.append(-1)
        else:
            index = rng.randrange(domain)
            live.append(index)
            indices.append(index)
            deltas.append(+1)
    return indices, deltas


def _measure(factory, indices, deltas) -> tuple[float, float]:
    """(scalar seconds, batched seconds), states asserted bit-identical."""
    scalar = factory()
    start = time.perf_counter()
    for index, delta in zip(indices, deltas):
        scalar.update(index, delta)
    scalar_seconds = time.perf_counter() - start

    batched = factory()
    start = time.perf_counter()
    for chunk in range(0, len(indices), BATCH_SIZE):
        batched.update_batch(
            indices[chunk : chunk + BATCH_SIZE], deltas[chunk : chunk + BATCH_SIZE]
        )
    batched_seconds = time.perf_counter() - start

    assert scalar.state_ints() == batched.state_ints(), (
        "batched sketch state diverged from the scalar state"
    )
    return scalar_seconds, batched_seconds


def test_batch_engine_throughput(results):
    domain = 100_000
    indices, deltas = _dynamic_stream(domain, STREAM_UPDATES, seed=17)

    primitives = [
        ("SparseRecovery(B=8)", lambda: SparseRecoverySketch(domain, 8, seed="bench")),
    ]

    rows = [
        f"batch path on a {STREAM_UPDATES:,}-update dynamic stream "
        f"(batch size {BATCH_SIZE:,}, states bit-identical):",
        f"  {'primitive':<22}{'scalar up/s':>14}{'batched up/s':>14}{'speedup':>9}",
    ]
    scalar_total = 0.0
    batched_total = 0.0
    speedups: dict[str, float] = {}
    for name, factory in primitives:
        scalar_seconds, batched_seconds = _measure(factory, indices, deltas)
        scalar_total += scalar_seconds
        batched_total += batched_seconds
        speedup = scalar_seconds / batched_seconds
        speedups[name] = speedup
        rows.append(
            f"  {name:<22}"
            f"{STREAM_UPDATES / scalar_seconds:>14,.0f}"
            f"{STREAM_UPDATES / batched_seconds:>14,.0f}"
            f"{speedup:>8.1f}x"
        )

    engine_speedup = scalar_total / batched_total
    rows.append(f"  {'engine total':<22}{'':>14}{'':>14}{engine_speedup:>8.1f}x")
    results("bench_batch_engine", "\n".join(rows))

    assert engine_speedup >= ENGINE_SPEEDUP_FLOOR, (
        f"batch engine speedup {engine_speedup:.2f}x below the "
        f"{ENGINE_SPEEDUP_FLOOR}x gate"
    )
    for name, speedup in speedups.items():
        assert speedup >= PRIMITIVE_SPEEDUP_FLOOR, (
            f"{name} batched speedup {speedup:.2f}x below the "
            f"{PRIMITIVE_SPEEDUP_FLOOR}x floor"
        )
