"""The GraphSession lifecycle benchmark: workloads, the closed loop, metrics.

One caller drives one :class:`~repro.service.GraphSession` through a
lifecycle — ingest chunks, snapshot queries, checkpoints and a restore
— and waits for each call before issuing the next (a closed loop).  The
inputs are built from ``(workload, seed)`` by the repo's own stream
generators before any clock starts, so the program receives only
generated inputs.  A run repeats the lifecycle on fresh sessions
("rounds") until its time budget is spent and reports medians over the
rounds.

Every answer is checked, untimed, against ground truth from the
session's own exact ledger (``live_graph()``): ``connected`` against
exact components, ``spanner-distance`` against hop BFS within the
``[d, 2^k d]`` stretch window, the final decoded components against the
ledger, and the restored session's re-serialization against the
checkpoint's bytes.  Cut answers are scored by relative error against
the exact cut; the slim parameters promise no tight epsilon, so that
number is tracked, not judged.

The machine is shared, and its speed drifts by tens of percent within
minutes.  So every timed call is also reported at a reference host
speed: a fixed probe that uses no program code runs after each call (or
each group of repeated calls: a query's cache hits), and the calls are
rescaled by how long the probes around them took (see
:class:`HostClock`).
"""

from __future__ import annotations

import ctypes
import gc
import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.parameters import SpannerParams, SparsifierParams
from repro.graph.cuts import cut_value
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession, components_match_ledger
from repro.service.ladder import SketchLadder
from repro.stream.generators import mixed_workload_stream, power_law_universe_stream
from repro.util.rng import rng_from_seed

import tracing

#: Each query is asked this many times in a row: one cold snapshot
#: decode, then epoch-cache hits.  Ten hits per query give powerlaw-500,
#: which asks one connected query per round, 30 or more connected hits
#: per run: enough for a steady median of a 5 µs call.
ASKS = 11

#: Session constructions timed for ``setup_s``.
SETUP_REPEATS = 11

#: The host probe's median time on the machine the benchmark was written
#: on (2 cores of a shared Xeon host) in a quiet stretch: timings are
#: reported at the speed that probe time stands for.
PROBE_REFERENCE_S = 0.011

#: The probe's interpreted loop alone, at that same speed (it is about
#: 14.5% of the whole probe there).  Epoch-cache hits are rescaled by it.
LOOP_REFERENCE_S = 0.0016

#: Sparsifier constants of the dense service benchmark (10 sub-spanners).
SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)

#: Slim constants of the sparse-universe benchmark.
SLIM_SPARSIFIER = SparsifierParams(
    estimate_reps_factor=0.01, estimate_levels=1, sampling_levels=1,
    sampling_rounds_factor=0.001,
)
SLIM_SPANNER = SpannerParams(table_stacks=1, table_capacity_factor=0.75)

#: Spanner depth of every workload's session (stretch 2^K).
K = 2


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs and its session factory."""

    #: ``("ingest", tokens)``, ``("slot", groups)`` or ``("checkpoint",)``,
    #: in call order; the last is a checkpoint.  ``groups`` holds one
    #: list of ``("query", kind, args)`` per query group (see _schedule).
    ops: list
    #: Builds the session from a seed name.  Every construction gets its
    #: own name: the process interns hash families by seed, so a second
    #: session under the same seed would find its randomness prebuilt,
    #: which no user's first session does.
    make_session: Callable[[str], GraphSession]
    #: Rounds every untraced run completes, however short its time
    #: budget.  ``checkpoint_bytes`` pools their checkpoints: one session
    #: seed moves the size by several percent, and a fixed set of rounds
    #: makes one workload seed give one value.
    min_rounds: int = 1


def _pair(rng, pool: list) -> tuple:
    u = pool[rng.randrange(len(pool))]
    v = pool[rng.randrange(len(pool))]
    while v == u:
        v = pool[rng.randrange(len(pool))]
    return (u, v)


def _query(kind: str, rng, pool: list) -> tuple:
    if kind == "cut":
        side = frozenset(v for v in pool if rng.random() < 0.5) or frozenset(pool[:1])
        return ("query", kind, (side,))
    return ("query", kind, _pair(rng, pool))


def _schedule(tokens: list, chunk: int, every: int, groups: tuple, rng, pool: list) -> list:
    """Ingest calls of ``chunk`` tokens; after every ``every``-th call and
    after the last, a query slot and a checkpoint.  Each slot draws one
    query per kind of every group (a tuple of kinds); round ``r`` asks
    group ``(s + r) mod len(groups)`` at its ``s``-th slot.

    Queries and checkpoints at many epochs, with every kind asked at
    every slot over a few rounds, make each run's medians span many
    graph states, so they depend little on which seed drew them.
    """
    parts = [tokens[i : i + chunk] for i in range(0, len(tokens), chunk)]
    ops = []
    for i, part in enumerate(parts, 1):
        ops.append(("ingest", part))
        if i % every == 0 or i == len(parts):
            ops.append(("slot", [[_query(kind, rng, pool) for kind in g] for g in groups]))
            ops.append(("checkpoint",))
    return ops


#: One kind per query slot, in turn.
EACH_KIND = (("connected",), ("spanner-distance",), ("cut",))


def churn_n16(seed: str, smoke: bool = False) -> Inputs:
    """Dense n=16 churn in 32,768-token chunks: each chunk nets to at
    most 120 distinct pairs, so validation, the ledger and token
    unpacking are the ingest work.  A query slot and a checkpoint follow
    every second chunk."""
    n, chunks, chunk, min_rounds = (8, 6, 512, 1) if smoke else (16, 20, 32_768, 4)
    tokens = list(mixed_workload_stream(n, chunks * chunk, f"{seed}/stream"))
    rng = rng_from_seed(f"{seed}/queries")
    ops = _schedule(tokens, chunk, 2, EACH_KIND, rng, list(range(n)))
    return Inputs(ops, lambda name: GraphSession(
        n, name, k=K, sparsifier_k=1, sparsifier_params=SLIM
    ), min_rounds)


def powerlaw_500(seed: str, smoke: bool = False) -> Inputs:
    """10^7-id universe, 500 power-law touched ids, 1,000-token chunks:
    about one distinct pair per token, so sketching is the ingest work.
    The ladder promotes twice.  The tail asks connected and
    spanner-distance (a cut snapshot here costs gigabytes), then
    checkpoints the full state."""
    touched, updates, chunk, start, min_rounds = (
        (32, 400, 100, 8, 1) if smoke else (500, 15_000, 1_000, 128, 2)
    )
    universe = 10**7
    tokens = list(power_law_universe_stream(
        universe, touched, updates, f"{seed}/stream", exponent=1.2
    ))
    rng = rng_from_seed(f"{seed}/queries")
    pool = sorted({v for update in tokens for v in update.pair})
    ops = _schedule(tokens, chunk, len(tokens), (("connected", "spanner-distance"),), rng, pool)
    return Inputs(ops, lambda name: GraphSession(
        VertexSpace.sparse(universe), name, k=K, sparsifier_k=1,
        sparsifier_params=SLIM_SPARSIFIER, spanner_params=SLIM_SPANNER,
        ladder=SketchLadder(start_capacity=start),
    ), min_rounds)


def querymix_w32(seed: str, smoke: bool = False) -> Inputs:
    """Weighted dense n=32: 600-token ingest calls, each followed by one
    query slot (connected, spanner-distance, cut in turn) and a
    checkpoint.  Cold snapshots (clone, pass-2 replay from the ledger,
    decode) dominate."""
    n, chunks, chunk, min_rounds = (12, 3, 100, 1) if smoke else (32, 12, 600, 3)
    tokens = list(mixed_workload_stream(n, chunks * chunk, f"{seed}/stream", weights=(1.0, 2.0)))
    rng = rng_from_seed(f"{seed}/queries")
    ops = _schedule(tokens, chunk, 1, EACH_KIND, rng, list(range(n)))
    return Inputs(ops, lambda name: GraphSession(
        n, name, k=K, sparsifier_k=1, sparsifier_params=SLIM,
        weight_bounds=(1.0, 2.0),
    ), min_rounds)


WORKLOADS: dict[str, Callable[..., Inputs]] = {
    "churn-n16": churn_n16,
    "powerlaw-500": powerlaw_500,
    "querymix-w32": querymix_w32,
}


# ----------------------------------------------------------------------
# Ground truth from the ledger
# ----------------------------------------------------------------------


def _hops(graph, source: int) -> dict[int, int]:
    """Hop distances from ``source`` in the exact live graph."""
    distances = {source: 0}
    frontier = [source]
    while frontier:
        following = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in distances:
                    distances[v] = distances[u] + 1
                    following.append(v)
        frontier = following
    return distances


class _Truth:
    """Exact answers for one epoch, computed on demand from the ledger."""

    def __init__(self, session: GraphSession) -> None:
        self.epoch = session.epoch
        self.graph = session.live_graph()
        self._hops: dict[int, dict[int, int]] = {}

    def hops(self, u: int) -> dict[int, int]:
        if u not in self._hops:
            self._hops[u] = _hops(self.graph, u)
        return self._hops[u]

    def is_right(self, kind: str, args: tuple, value) -> bool | None:
        """Whether ``value`` keeps the paper's guarantee (None: not judged)."""
        if kind == "connected":
            u, v = args
            return value == (v in self.hops(u))
        if kind == "spanner-distance":
            u, v = args
            d = self.hops(u).get(v)
            if d is None:
                return value == math.inf
            return d <= value <= (2**K) * d
        return None

    def cut_error(self, side, value: float) -> float:
        exact = cut_value(self.graph, side)
        return abs(value - exact) / exact if exact else float(value != 0)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field_name}")


def _reset_peak() -> int:
    """Return freed memory to the OS, reset the peak-RSS mark, return it (kB).

    Without the trim, a round would reuse pages freed before it (by input
    generation and the set-up sessions) and its peak would show only
    what it allocated beyond them.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    return _status_kb("VmHWM:")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


_PROBE_VALUES = np.arange(1, 50_001, dtype=np.uint64)
_MERSENNE_61 = np.uint64((1 << 61) - 1)


def probe_host() -> tuple[float, float]:
    """Seconds a fixed mix of the program's kinds of work takes here,
    and seconds its first part alone takes.  The mix: an interpreted
    dict loop, uint64 arithmetic mod 2^61 - 1 on a numpy array, and
    building and sorting a list of tuples larger than a core's private
    cache.  Of five mixes tried, this one followed churn-n16's slowdowns
    most closely; the loop alone follows microsecond calls that run only
    interpreted code.  It calls no program code, so a change to the
    program cannot move it.  The collector is off while it runs: its
    tuples would otherwise trigger collections that scan the program's
    live objects, whose cost is the program's, not the host's."""
    gc.disable()
    try:
        begin = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(10_000):
            key = (i * 7919) % 4099
            counts[key] = counts.get(key, 0) + 1
        loop = time.perf_counter() - begin
        values = _PROBE_VALUES
        for _ in range(12):
            low = (values & np.uint64(0xFFFFFFFF)) * np.uint64(2654435761)
            values = (low + (values >> np.uint64(32))) % _MERSENNE_61
        pairs = [(i * 7919 % 100_003, i) for i in range(15_000)]
        pairs.sort()
        return time.perf_counter() - begin, loop
    finally:
        gc.enable()


class Timed:
    """One timed call: wall seconds, and seconds at reference host speed
    once the probe after it has run.  An ``interpreted`` call is rescaled
    by the probe's loop alone."""

    __slots__ = ("wall", "scaled", "interpreted")

    def __init__(self, wall: float, interpreted: bool = False) -> None:
        self.wall = wall
        self.scaled = math.nan
        self.interpreted = interpreted


class HostClock:
    """Rescales timed calls to the host speed of ``PROBE_REFERENCE_S``.

    On the shared machine a call's wall time moves with the neighbours'
    load by tens of percent, over seconds to minutes, and the probe
    moves with it.  :meth:`probe` times the probe and rescales every
    call since the previous probe by ``PROBE_REFERENCE_S`` ÷ the mean of
    the two probes around it.  Over 58 churn-n16 rounds this cut the
    spread of a round's lifecycle time from 23% to 8.5%; the README
    gives the effect on whole runs.

    A few-microsecond call also slows by up to 2x for milliseconds at a
    time, which the whole probe follows poorly (its numpy and sorting
    parts respond less); so an ``interpreted`` call is rescaled by
    ``LOOP_REFERENCE_S`` ÷ the mean of the two probes' loop parts.  On
    60 bursts of powerlaw-500 cache hits this cut their spread from 0.50
    to 0.14 (the whole probe: 0.31).
    """

    def __init__(self) -> None:
        self._last = probe_host()
        self._pending: list[Timed] = []

    def add(self, wall: float, interpreted: bool = False) -> Timed:
        timed = Timed(wall, interpreted)
        self._pending.append(timed)
        return timed

    def probe(self) -> None:
        after = probe_host()
        whole = 2 * PROBE_REFERENCE_S / (self._last[0] + after[0])
        loop = 2 * LOOP_REFERENCE_S / (self._last[1] + after[1])
        for timed in self._pending:
            timed.scaled = timed.wall * (loop if timed.interpreted else whole)
        self._pending.clear()
        self._last = after


# ----------------------------------------------------------------------
# One lifecycle round
# ----------------------------------------------------------------------


@dataclass
class Round:
    """Timings (:class:`Timed`) and checks of one lifecycle on a fresh session."""

    ingest: list = field(default_factory=list)
    tokens: int = 0
    #: Query kind -> its cache-miss calls / its epoch-cache hits.
    cold: dict = field(default_factory=dict)
    warm: dict = field(default_factory=dict)
    checkpoints: list = field(default_factory=list)
    checkpoint_bytes: list = field(default_factory=list)
    restores: list = field(default_factory=list)
    peak_rss_mb: float = math.nan
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    cut_errors: list = field(default_factory=list)
    #: Traced rounds: the untraced twin's time for each ingest call,
    #: per-layer metrics, (ingest wall, self time of the spans below it,
    #: span count), and the spans if they are kept.
    twin_ingest: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    attribution: tuple = (math.nan, math.nan, 0)
    log: tracing.SpanLog | None = None

    def lifecycle_s(self, clock: str) -> float:
        """Sum of the timed calls but the restores, on ``clock`` (a
        :class:`Timed` attribute)."""
        calls = [*self.ingest, *self.checkpoints]
        calls += [t for asks in (self.cold, self.warm) for values in asks.values() for t in values]
        return sum(getattr(t, clock) for t in calls)


class _Loop:
    """The closed-loop caller: times each call and counts failures."""

    def __init__(self, record: Round, log: tracing.SpanLog | None) -> None:
        self.record = record
        self.log = log
        with self.untimed():
            self.clock = HostClock()

    def call(self, label: str, fn, interpreted: bool = False):
        """``(Timed, result, ok)``; a call that raised is a failed op.
        The call's scaled time is set by the next :meth:`probe`."""
        record = self.record
        record.attempted += 1
        log = self.log
        index = -1
        if log is not None:
            log.op_id = record.attempted
            index = log.open(label)
        begin = time.perf_counter()
        ok = True
        try:
            result = fn()
        except Exception:  # the loop must keep running; count and report
            traceback.print_exc(file=sys.stderr)
            record.failed += 1
            result, ok = None, False
        elapsed = time.perf_counter() - begin
        if log is not None:
            log.close(index)
        return self.clock.add(elapsed, interpreted), result, ok

    def probe(self) -> None:
        with self.untimed():
            self.clock.probe()

    @contextmanager
    def untimed(self):
        """Checks between calls: no spans recorded."""
        if self.log is None:
            yield
            return
        self.log.recording = False
        try:
            yield
        finally:
            self.log.recording = True


def _twin_ingest(loop: _Loop, twin: GraphSession, tokens: list) -> float:
    with loop.untimed():
        begin = time.perf_counter()
        twin.ingest_batch(tokens)
        return time.perf_counter() - begin


def run_round(
    inputs: Inputs, workdir: Path, tag: str, log: tracing.SpanLog | None, turn: int = 0
) -> Round:
    """The ``turn``-th lifecycle on a fresh session; ``log`` records spans
    when given (its wrappers must be installed by the caller).  The turn
    picks each slot's query group, and on odd turns the traced session's
    twin goes first on each ingest call, so that alternate rounds cancel
    any first-caller advantage."""
    record = Round()
    checkpoint = workdir / "round.ckpt"
    again = workdir / "round.again.ckpt"
    peak_before = _reset_peak()
    session = inputs.make_session(f"{tag}/session")
    # Traced rounds also feed every ingest call to an identical untraced
    # twin, in alternating order, so the tracing cost is measured under
    # the same machine load as the traced call itself.
    twin = None if log is None else inputs.make_session(f"{tag}/session")
    loop = _Loop(record, log)
    truth = None
    slots = 0
    if log is not None:
        log.recording = True
    for op in inputs.ops:
        if op[0] == "ingest":
            tokens = op[1]
            twin_first = twin is not None and (len(record.ingest) + turn) % 2 == 1
            if twin_first:
                record.twin_ingest.append(_twin_ingest(loop, twin, tokens))
            timed, _, _ = loop.call("op.ingest", lambda: session.ingest_batch(tokens))
            loop.probe()
            record.ingest.append(timed)
            record.tokens += len(tokens)
            if twin is not None and not twin_first:
                record.twin_ingest.append(_twin_ingest(loop, twin, tokens))
        elif op[0] == "checkpoint":
            timed, _, saved = loop.call("op.checkpoint", lambda: session.checkpoint(checkpoint))
            loop.probe()
            record.checkpoints.append(timed)
            if not saved:
                continue
            timed, restored, _ = loop.call(
                "op.restore", lambda: GraphSession.restore(checkpoint)
            )
            loop.probe()
            record.restores.append(timed)
            with loop.untimed():
                record.checkpoint_bytes.append(checkpoint.stat().st_size)
                record.checked += 1
                if restored is None:
                    record.wrong += 1
                else:
                    restored.checkpoint(again)
                    record.wrong += again.read_bytes() != checkpoint.read_bytes()
                del restored
        else:
            groups = op[1]
            for _, kind, args in groups[(slots + turn) % len(groups)]:
                for ask in range(ASKS):
                    timed, outcome, answered = loop.call(
                        f"op.query.{kind}", lambda: session.query(kind, *args),
                        interpreted=ask > 0,
                    )
                    (record.warm if ask else record.cold).setdefault(kind, []).append(timed)
                    if answered and not outcome.ok:
                        record.failed += 1
                    elif answered:
                        with loop.untimed():
                            if truth is None or truth.epoch != session.epoch:
                                truth = _Truth(session)
                            right = truth.is_right(kind, args, outcome.value)
                            if right is not None:
                                record.checked += 1
                                record.wrong += not right
                            elif ask == 0:
                                record.cut_errors.append(truth.cut_error(args[0], outcome.value))
                    # A probe right before the cache hits, and one right
                    # after them, so that both bracket the hits closely.
                    if ask == 0:
                        loop.probe()
                loop.probe()
            slots += 1
    if log is not None:
        log.recording = False
    record.peak_rss_mb = (_status_kb("VmHWM:") - peak_before) / 1024
    record.checked += 1
    record.wrong += not components_match_ledger(session)
    if log is not None:
        profile = tracing.Profile(log)
        record.layers = layer_metrics(profile, session)
        record.attribution = (*profile.subtree_self("op.ingest"), len(log))
        record.log = log
    for path in (checkpoint, again):
        path.unlink(missing_ok=True)
    return record


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if values else math.nan


#: Kernels every workload calls; the per-layer set reports these.
#: ``polyhash61`` is up to a quarter of ingest and ``powmod61`` a sixth
#: or more of a cold snapshot.
TRACKED_KERNELS = (
    "stack_positions_terms", "scatter_sum_mod61", "addmod61", "mulmod61",
    "polyhash61", "polyhash61_rows", "powmod61", "powmod61_bases", "build_pow_table",
)


def layer_metrics(p: tracing.Profile, session: GraphSession) -> dict:
    """Per-layer numbers of one traced round."""
    stats = session.stats()
    words = {type(a).__name__: a.space_words() for a in session._algorithms()}
    sparsifier_words = sum(v for k, v in words.items() if "Sparsifier" in k)
    metrics = {
        "service.validate.s": p.inclusive("service.validate"),
        "service.ingest.self_s": p.self_of("service.ingest"),
        "service.net_updates.s": p.inclusive("service.net_updates"),
        "service.cache.hit_ratio": stats.cache_hits / max(1, stats.cache_hits + stats.cache_misses),
        "service.ledger.words": 4 * session.num_live_edges(),
        "stream.unpack.s": p.inclusive("stream.unpack"),
        "stream.unpack.tokens": p.items_of("stream.unpack"),
        "stream.aggregate.s": p.inclusive("stream.aggregate"),
        "stream.aggregate.out_ratio": p.out_of("stream.aggregate") / max(1, p.items_of("stream.aggregate")),
        "slot.connectivity.s": p.inclusive("slot.connectivity"),
        "agm.forest.s": p.inclusive("agm.forest"),
        "agm.words": words["ConnectivityChecker"],
        "slot.spanner.s": p.inclusive("slot.spanner"),
        "spanner.ingest.self_s": p.self_of("slot.spanner"),
        "spanner.clone.s": p.inclusive("spanner.clone"),
        "spanner.pass2.s": p.inclusive("spanner.pass2"),
        "spanner.finalize.s": p.inclusive("spanner.finalize"),
        "spanner.words": words["TwoPassSpannerBuilder"],
        "slot.sparsifier.s": p.inclusive("slot.sparsifier"),
        "sparsifier.route.self_s": p.self_of("slot.sparsifier", "sparsifier.pass2"),
        "sparsifier.route_ratio": p.route_ratio(),
        "sparsifier.words": sparsifier_words,
        "snapshot.clone.s": p.inclusive("spanner.clone", "sparsifier.clone"),
        "snapshot.pass2.s": p.inclusive("spanner.pass2", "sparsifier.pass2"),
        "snapshot.finalize.s": p.inclusive("spanner.finalize", "sparsifier.finalize"),
        "stack.scatter.self_s": p.self_of("stack.scatter"),
        "stack.scatter.calls": p.calls("stack.scatter"),
        "stack.scatter.incidences": p.items_of("stack.scatter"),
        "l0stack.scatter.self_s": p.self_of("l0stack.scatter"),
        "graph.bfs.s": p.inclusive("graph.bfs"),
        "checkpoint.save.s": p.inclusive("checkpoint.save"),
        "checkpoint.load.s": p.inclusive("checkpoint.load"),
    }
    for kernel in TRACKED_KERNELS:
        metrics[f"kernel.{kernel}.s"] = p.inclusive(f"kernel.{kernel}")
        metrics[f"kernel.{kernel}.calls"] = p.calls(f"kernel.{kernel}")
        metrics[f"kernel.{kernel}.elements"] = p.items_of(f"kernel.{kernel}")
    return metrics


def _pooled(rounds: list[Round], clock: str) -> dict[str, list]:
    """Every timed call of the rounds by kind, in seconds on ``clock``."""
    pools = {
        "ingest": [t for r in rounds for t in r.ingest],
        "checkpoints": [t for r in rounds for t in r.checkpoints],
        "restores": [t for r in rounds for t in r.restores],
    }
    for r in rounds:
        for cache in ("cold", "warm"):
            for kind, values in getattr(r, cache).items():
                pools.setdefault(f"{cache}.{kind}", []).extend(values)
    return {key: [getattr(t, clock) for t in values] for key, values in pools.items()}


def end_to_end(
    rounds: list[Round], setup: list[Timed], min_rounds: int, clock: str = "scaled"
) -> tuple[dict, dict]:
    """The user-visible metrics over a run's untraced rounds, and the
    sample count behind each; timings on ``clock`` (``"scaled"``: at
    reference host speed, ``"wall"``: as the calls took here).  Timings
    are medians: on a shared machine a tail percentile of a few dozen
    samples moves with the neighbours' load more than with the program.
    Checkpoint sizes come from the first ``min_rounds`` rounds, which
    every run completes."""
    pool = _pooled(rounds, clock)
    sizes = [b for r in rounds[:min_rounds] for b in r.checkpoint_bytes]
    table = {
        "setup_s": (_median([getattr(t, clock) for t in setup]), len(setup)),
        "lifecycle_s": (_median([r.lifecycle_s(clock) for r in rounds]), len(rounds)),
        "ingest_ups": (sum(r.tokens for r in rounds) / sum(pool["ingest"]), len(pool["ingest"])),
        "ingest_chunk_p50_ms": (_median(pool["ingest"]) * 1e3, len(pool["ingest"])),
        "connected_cold_p50_ms": (
            _median(pool["cold.connected"]) * 1e3, len(pool["cold.connected"])
        ),
        "spanner_cold_p50_ms": (
            _median(pool["cold.spanner-distance"]) * 1e3, len(pool["cold.spanner-distance"])
        ),
        # One kind only: each kind's hits form their own cluster (connected
        # ~4 µs, spanner-distance ~12 µs), and a median pooled over two
        # kinds asked equally often would sit between them.
        "connected_warm_p50_us": (
            _median(pool["warm.connected"]) * 1e6, len(pool["warm.connected"])
        ),
        "checkpoint_s": (_median(pool["checkpoints"]), len(pool["checkpoints"])),
        "restore_s": (_median(pool["restores"]), len(pool["restores"])),
        "checkpoint_bytes": (_median(sizes), len(sizes)),
        # The first round's peak: later rounds reuse pages and caches the
        # process already holds, which a user's first session cannot.
        "peak_rss_mb": (rounds[0].peak_rss_mb, 1),
    }
    return {k: v for k, (v, _) in table.items()}, {k: n for k, (_, n) in table.items()}


def tails(rounds: list[Round]) -> dict:
    """Reported, not gated: p90 of each latency pool, and cold cut p50,
    at reference host speed."""
    pool = _pooled(rounds, "scaled")
    report = {"ingest_chunk_p90_ms": (_p90(pool["ingest"]) * 1e3, len(pool["ingest"]))}
    for key, values in pool.items():
        if key.startswith("cold."):
            kind = key[5:].replace("-distance", "")
            report[f"{kind}_cold_p90_ms"] = (_p90(values) * 1e3, len(values))
    if "cold.cut" in pool:
        report["cut_cold_p50_ms"] = (_median(pool["cold.cut"]) * 1e3, len(pool["cold.cut"]))
    return report


def per_layer(traced: list[Round]) -> dict:
    """Median over traced rounds of each layer metric, plus the tracing
    cost: 1 - traced ÷ untraced ``ingest_ups``, the untraced rate being
    the twin session's on the same calls."""
    metrics = {k: _median([r.layers[k] for r in traced]) for k in traced[0].layers}
    traced_s = sum(t.wall for r in traced for t in r.ingest)
    twin_s = sum(t for r in traced for t in r.twin_ingest)
    metrics["trace.overhead"] = 1.0 - twin_s / traced_s
    return metrics


def measure(
    name: str,
    seed: int,
    seconds: float,
    workdir: Path,
    trace: bool = False,
    smoke: bool = False,
    trace_out: Path | None = None,
) -> dict:
    """Run one workload for ``seconds`` and return its full result.

    Untraced runs report the end-to-end metrics; traced runs report the
    per-layer metrics, and ``trace_out`` receives their spans as JSONL.
    Every run reports its answer checks.
    """
    inputs = WORKLOADS[name](f"lifecycle/{name}/{seed}", smoke=smoke)
    # Session seed names depend on the workload and the round, not on the
    # workload seed.  The program's own hash randomness sets how much work
    # a cold spanner snapshot does: with names drawn from the workload
    # seed, churn-n16's cold spanner median repeated for each seed but
    # spread 18% across ten seeds, and 10% with these names.  The seed
    # varies the inputs; every run draws the same sessions.
    base = f"lifecycle/{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    # The pre-built tokens are the harness's, not the program's: keep the
    # collector from re-scanning millions of them during timed calls.
    gc.collect()
    gc.freeze()
    try:
        setup: list[Timed] = []
        clock = HostClock()
        for index in range(0 if trace else SETUP_REPEATS):
            begin = time.perf_counter()
            session = inputs.make_session(f"{base}/setup/{index}")
            setup.append(clock.add(time.perf_counter() - begin))
            del session
            clock.probe()
        rounds: list[Round] = []
        min_rounds = 1 if trace else inputs.min_rounds
        begin = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - begin < seconds:
            turn = len(rounds)
            tag = f"{base}/round/{turn}"
            if trace:
                log = tracing.SpanLog()
                with tracing.installed(log):
                    rounds.append(run_round(inputs, workdir, tag, log, turn))
                if trace_out is None:
                    rounds[-1].log = None
            else:
                rounds.append(run_round(inputs, workdir, tag, None, turn))
    finally:
        gc.unfreeze()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    checked = sum(r.checked for r in rounds)
    wrong = sum(r.wrong for r in rounds)
    cut_errors = [e for r in rounds for e in r.cut_errors]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(rounds),
        "checks": {
            "attempted": attempted,
            "failed": failed,
            "checked": checked,
            "wrong": wrong,
            "op_fail_ratio": failed / attempted,
            "wrong_answer_ratio": wrong / max(1, checked),
            "cut_rel_err_p50": _median(cut_errors),
            "cut_answers": len(cut_errors),
        },
    }
    if not trace:
        result["end_to_end"], result["samples"] = end_to_end(rounds, setup, min_rounds)
        result["wall"], _ = end_to_end(rounds, setup, min_rounds, clock="wall")
        result["tails"] = tails(rounds)
        return result
    result["per_layer"] = per_layer(rounds)
    result["attribution"] = {
        "ingest_wall_s": _median([r.attribution[0] for r in rounds]),
        "ingest_attributed_s": _median([r.attribution[1] for r in rounds]),
        "spans_per_round": _median([r.attribution[2] for r in rounds]),
    }
    if trace_out is not None:
        with open(trace_out, "w") as handle:
            for index, record in enumerate(rounds):
                record.log.write_jsonl(handle, index)
    return result
