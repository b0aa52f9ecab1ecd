"""The live sketch store: one long-lived, queryable session per graph.

PRs 1-2 made the paper's algorithms fast (batched kernels) and
distributed (sharded execution), but every answer still required
replaying a finite stream end to end.  :class:`GraphSession` turns the
same linear sketches into a *service*: it owns one mergeable sketch
state per graph, accepts continuous :class:`~repro.stream.updates.EdgeUpdate`
ingest forever, and answers connectivity / spanner / cut queries at any
point of the unbounded stream — the serving model the paper's
``S x = S x^1 + ... + S x^s`` identity was built for.

How queries work mid-stream
---------------------------
Every query *finalizes a clone* of the sketch state (the ``clone()``
contract of :mod:`repro.sketch`), so decoding never perturbs — and is
never perturbed by — continued ingest.  The two-pass algorithms pose an
extra puzzle: their second pass re-reads the stream, which a live
session cannot do.  Linearity dissolves it: pass-2 state is a linear
function of the update tokens, so tokens that canceled (an insert and
its later delete) contribute exactly zero to every cell — replaying only
the *net* live-edge multiset lands in bit-identical pass-2 state.  The
session keeps that multiset (the *ledger*: multiplicity and weight per
live pair, exactly what :class:`~repro.stream.stream.DynamicStream`
tracks to enforce the model) and synthesizes pass 2 from it at query
time.

Epoch-tagged caching
--------------------
Finalizing a snapshot costs a full decode (Borůvka, forest build, table
peeling), which would be wasteful for a query-heavy workload where the
graph changes rarely.  Every successful ingest bumps the session
``epoch``; every query result is memoized under its epoch, so repeated
queries between updates are a dictionary hit (the service benchmark
gates this at >= 10x cheaper than the first finalize).

Durability
----------
:meth:`GraphSession.checkpoint` persists the full session state through
the same ``state_ints()``/``from_state_ints()`` varint protocol the
distributed runner ships over the wire;
:meth:`GraphSession.restore` recovers it bit-identically after a crash
(see :mod:`repro.service.checkpoint`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.agm.connectivity import ConnectivityChecker
from repro.agm.spanning_forest import DisjointSets, SparseDisjointSets
from repro.core.parameters import SpannerParams, SparsifierParams
from repro.core.sparsify import StreamingSparsifier, StreamingWeightedSparsifier
from repro.core.two_pass_spanner import TwoPassSpannerBuilder
from repro.graph.cuts import cut_value
from repro.graph.distances import bfs_distances
from repro.graph.graph import Graph
from repro.graph.vertex_space import VertexSpace, as_vertex_space
from repro import faults, obs
from repro.service.ladder import SketchLadder
from repro.sketch import kernels as _kernels
from repro.stream.space import SpaceReport
from repro.stream.updates import EdgeUpdate
from repro.util import sanitize as _sanitize
from repro.util.rng import derive_seed

__all__ = ["GraphSession", "SessionStats", "QueryOutcome"]

#: Chunk length used when feeding ingest batches and pass-2 replays
#: through the batched sketch engine.
_REPLAY_CHUNK = 65_536


@dataclass(frozen=True)
class SessionStats:
    """A point-in-time summary of a :class:`GraphSession`."""

    epoch: int
    updates_ingested: int
    live_edges: int
    cache_hits: int
    cache_misses: int
    #: Entries dropped because their epoch went stale (ingest pruning).
    cache_prunes: int
    #: Entries dropped to hold the same-epoch entry bound (per-source
    #: BFS keys would otherwise grow without limit within an epoch).
    cache_evictions: int
    #: Memoized query results currently resident.
    cache_entries: int
    space_words: int
    #: What a dense allocation over the full vertex universe would hold;
    #: equals ``space_words`` for dense sessions, and dwarfs it for lazy
    #: sparse-universe sessions (resident state tracks touched vertices).
    universe_space_words: int
    #: Vertices holding resident sketch rows (dense: the universe size).
    touched_vertices: int
    #: Corrupt checkpoints skipped by the last ``CheckpointStore``
    #: fallback that restored this session (0 = newest was intact).
    checkpoint_fallbacks: int = 0
    #: Shard worker retries absorbed on this session's behalf (bumped
    #: by harnesses that run sharded verification for the session).
    shard_retries: int = 0
    #: Queries answered degraded (decode failure -> low-confidence
    #: :class:`QueryOutcome` instead of an exception).
    degraded_queries: int = 0
    #: Sizing-ladder promotions absorbed so far (0: no ladder attached).
    ladder_promotions: int = 0
    #: Current ladder capacity rung (0: no ladder attached).
    ladder_rung: int = 0


@dataclass(frozen=True)
class QueryOutcome:
    """A structured query answer that survives decode failures.

    :meth:`GraphSession.query` returns one of these instead of raising
    when a sketch decode fails: ``ok`` is ``False``, ``value`` is
    ``None``, ``confidence`` is ``"degraded"`` and ``detail`` names the
    failure.  Healthy answers carry ``confidence="whp"`` — the paper's
    with-high-probability guarantee — so callers can branch on
    confidence instead of wrapping every query in try/except.  Degraded
    outcomes are never cached: the next query at the same epoch retries
    the decode.
    """

    kind: str
    value: object
    ok: bool
    confidence: str
    detail: str = ""


class _EpochCache:
    """Memoized query results, invalidated by epoch mismatch.

    Bounded two ways: :meth:`prune` drops stale-epoch entries on every
    ingest, and inserts evict the oldest entry once ``max_entries``
    same-epoch results are resident — a query-heavy session issuing
    ``("spanner-bfs", u)`` for many sources between updates stays
    bounded within an epoch too.  Hit/miss/prune/eviction traffic is
    counted here and mirrored to the tracer (``session.cache.*``).
    """

    __slots__ = ("_entries", "hits", "misses", "prunes", "evictions", "max_entries")

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.prunes = 0
        self.evictions = 0
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(self, key, epoch: int, compute):
        entry = self._entries.get(key)
        if entry is not None and entry[0] == epoch:
            self.hits += 1
            obs.TRACER.count("session.cache.hit")
            return entry[1]
        self.misses += 1
        obs.TRACER.count("session.cache.miss")
        value = compute()
        if entry is None and len(self._entries) >= self.max_entries:
            # FIFO eviction: dict preserves insertion order, so the
            # first key is the oldest resident result.
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
            obs.TRACER.count("session.cache.evict")
        self._entries[key] = (epoch, value)
        return value

    def prune(self, epoch: int) -> None:
        """Drop entries from earlier epochs (ingest calls this so stale
        per-source BFS maps don't accumulate without bound)."""
        before = len(self._entries)
        self._entries = {
            key: entry for key, entry in self._entries.items() if entry[0] == epoch
        }
        dropped = before - len(self._entries)
        if dropped:
            self.prunes += dropped
            obs.TRACER.count("session.cache.prune", dropped)


class GraphSession:
    """Continuous-ingest sketch state for one graph, with snapshot queries.

    Parameters
    ----------
    num_vertices:
        The vertex universe (fixed for the session's lifetime): a plain
        int for the historical dense engine, or a
        :class:`~repro.graph.vertex_space.VertexSpace` — sparse spaces
        (``VertexSpace.sparse(10**7)``) keep resident sketch rows
        proportional to *touched* vertices, and interned spaces
        (``VertexSpace.interned(capacity, ids="strings")``) let ingest
        and queries speak external ids (strings, or arbitrary 32-bit
        ints) that are interned to stable logical ids on first sight.
    seed:
        Master randomness name; sessions built from equal
        ``(num_vertices, seed, config)`` hold summable sketches — and a
        restored checkpoint re-derives the identical randomness.
    k:
        Spanner depth (stretch ``2^k``) of the spanner slot.
    enable_spanner / enable_sparsifier:
        Which query families the session serves beyond connectivity
        (always on).  Disabling a slot removes its ingest cost; its
        queries then raise ``RuntimeError``.
    sparsifier_k / sparsifier_params / spanner_params:
        Constant calibration forwarded to the underlying pipelines.
    weight_bounds:
        ``None`` serves unweighted streams; ``(w_min, w_max)`` switches
        the sparsifier slot to the weighted weight-class pipeline
        (Section 6's reduction) and lets ingest carry arbitrary weights
        in the declared range.
    agm_rounds:
        Optional explicit Borůvka round count for the connectivity
        sketch.  Sparse-universe sessions whose touched count is far
        below the universe size can pass ``~log2(expected touched) + 2``
        instead of paying the universe-derived default.
    ladder:
        Optional :class:`~repro.service.ladder.SketchLadder`: the
        session starts provisioned for the ladder's first capacity rung
        and *promotes itself* (connectivity rebuild + net-ledger replay,
        answers unchanged by linearity) whenever ingest pushes the
        touched-vertex count past the current rung — no up-front size
        guess, no manual ``agm_rounds`` tuning (mutually exclusive with
        ``agm_rounds``).
    """

    def __init__(
        self,
        num_vertices: int | VertexSpace,
        seed: int | str,
        k: int = 2,
        enable_spanner: bool = True,
        enable_sparsifier: bool = True,
        sparsifier_k: int = 1,
        sparsifier_params: SparsifierParams | None = None,
        spanner_params: SpannerParams | None = None,
        weight_bounds: tuple[float, float] | None = None,
        agm_rounds: int | None = None,
        rotation: int = 0,
        ladder: SketchLadder | None = None,
    ):
        if not isinstance(seed, (int, str)):
            raise TypeError(
                "seed must be an int or str — checkpoint headers JSON-round-trip "
                f"it to re-derive identical randomness; got {type(seed).__name__}"
            )
        if weight_bounds is not None and not 0 < weight_bounds[0] <= weight_bounds[1]:
            raise ValueError(f"need 0 < w_min <= w_max, got {weight_bounds}")
        self.space = as_vertex_space(num_vertices)
        self.num_vertices = self.space.universe_size
        self.seed = seed
        self.k = k
        self.enable_spanner = enable_spanner
        self.enable_sparsifier = enable_sparsifier
        self.sparsifier_k = sparsifier_k
        self.sparsifier_params = sparsifier_params
        self.spanner_params = spanner_params
        self.weight_bounds = weight_bounds
        self.ladder = ladder
        if ladder is not None:
            if agm_rounds is not None:
                raise ValueError(
                    "pass ladder OR agm_rounds, not both — an attached ladder "
                    "owns the connectivity round depth"
                )
            if ladder.max_capacity is None:
                # Capacity beyond the universe is meaningless; cap the
                # ladder there so promotion terminates.
                ladder.max_capacity = max(
                    self.space.universe_size, ladder.start_capacity
                )
            agm_rounds = ladder.rounds()
        self.agm_rounds = agm_rounds
        if rotation < 0:
            raise ValueError(f"rotation must be >= 0, got {rotation}")
        self.rotation = rotation
        self.checkpoint_fallbacks = 0
        self.shard_retries = 0
        self.degraded_queries = 0

        self._build_algorithms()

        # The ledger: live-edge multiplicities and weights — the same
        # bookkeeping DynamicStream keeps to enforce the model, promoted
        # to service state because it is exactly the net multiset pass-2
        # replays are synthesized from.
        self._multiplicity: dict[tuple[int, int], int] = {}
        self._weight: dict[tuple[int, int], float] = {}
        self.epoch = 0
        self.updates_ingested = 0
        self._cache = _EpochCache()

    # ------------------------------------------------------------------
    # External ids (interned spaces)
    # ------------------------------------------------------------------

    def _lookup_vertex(self, vertex) -> int | None:
        """Logical id of a query-side vertex (no interning on queries).

        Identity spaces accept anything integer-like (``operator.index``
        covers numpy ids taken straight from edge arrays); interned
        spaces resolve external ids, unseen ones to ``None``.
        """
        if self.space.is_interned:
            return self.space.lookup(vertex)
        try:
            logical = operator.index(vertex)
        # sketchlint: disable=SL602 type probe, not a recovery path: "not an int" IS the answer (None)
        except TypeError:
            return None
        return logical if 0 <= logical < self.num_vertices else None

    def external_update(self, u, v, sign: int = 1, weight: float = 1.0) -> EdgeUpdate:
        """Build a logical :class:`EdgeUpdate` from external vertex ids.

        Interned spaces assign logical ids on first sight here; identity
        spaces validate the ints.  The returned token feeds
        :meth:`ingest` / :meth:`ingest_batch` unchanged.
        """
        return EdgeUpdate(self.space.intern(u), self.space.intern(v), sign, weight)

    def ingest_external(self, tokens) -> None:
        """Ingest ``(u, v, sign)`` / ``(u, v, sign, weight)`` tuples of
        external ids (convenience wrapper over :meth:`external_update`)."""
        self.ingest_batch([self.external_update(*token) for token in tokens])

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _slot_seed(self, name: str) -> int:
        """Derived seed for one algorithm slot under the current rotation.

        Rotation 0 keeps the historical ``(seed, "session", name)`` path
        bit-exactly (every pre-rotation checkpoint and test depends on
        it); rotation ``r > 0`` extends the path, giving an independent
        hash family per rotation.
        """
        if self.rotation == 0:
            return derive_seed(self.seed, "session", name)
        return derive_seed(self.seed, "session", name, "rotation", self.rotation)

    def _build_algorithms(self) -> None:
        """(Re)build every enabled slot from config + rotation, at pass 0."""
        self._connectivity = ConnectivityChecker(
            self.space,
            self._slot_seed("connectivity"),
            rounds=self.agm_rounds,
        )
        self._spanner: TwoPassSpannerBuilder | None = None
        if self.enable_spanner:
            self._spanner = TwoPassSpannerBuilder(
                self.space,
                self.k,
                self._slot_seed("spanner"),
                params=self.spanner_params,
            )
        self._sparsifier: StreamingSparsifier | StreamingWeightedSparsifier | None = None
        if self.enable_sparsifier:
            if self.weight_bounds is None:
                self._sparsifier = StreamingSparsifier(
                    self.space,
                    self._slot_seed("sparsifier"),
                    k=self.sparsifier_k,
                    params=self.sparsifier_params,
                )
            else:
                self._sparsifier = StreamingWeightedSparsifier(
                    self.space,
                    self._slot_seed("sparsifier"),
                    self.weight_bounds[0],
                    self.weight_bounds[1],
                    k=self.sparsifier_k,
                    params=self.sparsifier_params,
                )
        for algorithm in self._algorithms():
            algorithm.begin_pass(0)

    def rotate_sketches(self) -> int:
        """Re-derive every hash family and rebuild sketch state exactly.

        The adaptive-adversary mitigation: an adversary that has learned
        this session's randomness from query answers (the regime where
        oblivious sketch guarantees crack — see ``docs/robustness.md``)
        is reset, because every sampler hash family is re-derived under
        the bumped rotation counter while the *graph* is preserved
        exactly — the ledger is the net update multiset, and by
        linearity replaying it lands the fresh sketches in the same
        state the full history would have.  Costs one ledger replay;
        bumps the epoch (cached snapshots describe retired sketches).
        Returns the new rotation number; checkpoints persist it, so a
        restored session keeps the rotated randomness.
        """
        with obs.TRACER.span("session.rotate"):
            self.rotation += 1
            self._build_algorithms()
            tokens = self._net_updates()
            for algorithm in self._algorithms():
                for start in range(0, len(tokens), _REPLAY_CHUNK):
                    algorithm.process_batch(tokens[start : start + _REPLAY_CHUNK], 0)
            self.epoch += 1
            self._cache.prune(self.epoch)
        obs.TRACER.count("session.rotations")
        return self.rotation

    def _algorithms(self):
        yield self._connectivity
        if self._spanner is not None:
            yield self._spanner
        if self._sparsifier is not None:
            yield self._sparsifier

    def _validate(self, updates: Sequence[EdgeUpdate]) -> None:
        """Check a whole batch against the model *before* any commit.

        A batch either lands atomically or raises with the session
        untouched — a service cannot afford half-applied batches.
        """
        touched_mult: dict[tuple[int, int], int] = {}
        touched_weight: dict[tuple[int, int], float | None] = {}
        bounds = self.weight_bounds
        for update in updates:
            if not 0 <= update.u < self.num_vertices or not 0 <= update.v < self.num_vertices:
                raise ValueError(
                    f"update touches vertices {update.pair} outside "
                    f"[0, {self.num_vertices})"
                )
            if bounds is None:
                if update.weight != 1.0:
                    raise ValueError(
                        f"unweighted session got weight {update.weight}; construct "
                        "the session with weight_bounds to serve weighted streams"
                    )
            elif not bounds[0] <= update.weight <= bounds[1]:
                raise ValueError(
                    f"weight {update.weight} outside the declared bounds {bounds}"
                )
            pair = update.pair
            if pair in touched_mult:
                current = touched_mult[pair]
                weight = touched_weight[pair]
            else:
                current = self._multiplicity.get(pair, 0)
                weight = self._weight.get(pair)
            if current > 0 and weight != update.weight:
                raise ValueError(
                    f"edge {pair} is live with weight {weight}; the model forbids "
                    f"turnstile weight changes (got {update.weight})"
                )
            updated = current + update.sign
            if updated < 0:
                raise ValueError(f"edge {pair} multiplicity would become negative")
            touched_mult[pair] = updated
            touched_weight[pair] = update.weight if updated > 0 else None

    def ingest(self, update: EdgeUpdate) -> None:
        """Ingest a single stream token (see :meth:`ingest_batch`)."""
        self.ingest_batch([update])

    def ingest_batch(self, updates: Sequence[EdgeUpdate]) -> None:
        """Ingest a contiguous chunk of the unbounded update stream.

        The chunk is validated against the model invariants first (bad
        chunks raise and leave the session untouched), then the ledger
        and every enabled sketch absorb it through the batched engine.
        Amortized O(1) sketch work per token; each successful call bumps
        the session epoch, invalidating memoized query results.
        """
        if not updates:
            return
        with obs.TRACER.span("session.ingest", kernel=_kernels.active_backend()):
            self._validate(updates)
            for update in updates:
                pair = update.pair
                updated = self._multiplicity.get(pair, 0) + update.sign
                if updated == 0:
                    del self._multiplicity[pair]
                    del self._weight[pair]
                else:
                    self._multiplicity[pair] = updated
                    self._weight[pair] = update.weight
            for algorithm in self._algorithms():
                for start in range(0, len(updates), _REPLAY_CHUNK):
                    algorithm.process_batch(updates[start : start + _REPLAY_CHUNK], 0)
            self.updates_ingested += len(updates)
            if self.ladder is not None and self.ladder.should_promote(
                self._connectivity._sketch.num_touched_vertices()
            ):
                self._promote()
            self.epoch += 1
            self._cache.prune(self.epoch)
        obs.TRACER.observe("session.ingest.batch", len(updates))
        obs.TRACER.count("session.epoch.advance")

    def _promote(self) -> None:
        """Grow the connectivity sketch to the ladder's next rung.

        Rebuilds *only* the connectivity slot at the new round depth and
        replays the net live-edge ledger into it — by linearity the
        result is bit-identical to the sketch a session provisioned at
        the new rung from the start would hold after the same stream
        (the same argument behind :meth:`rotate_sketches` and the
        synthesized second passes).  The spanner and sparsifier slots
        are sized by their own parameters and keep their full-history
        state untouched.  One promotion jumps straight to the smallest
        rung holding the current touched count, so a huge batch costs
        one rebuild, not one per rung crossed.
        """
        touched = self._connectivity._sketch.num_touched_vertices()
        target = self.ladder.rung_for(touched)
        with obs.TRACER.span("session.ladder.promote", rung=target, touched=touched):
            self.agm_rounds = self.ladder.promote_to(target)
            self._connectivity = ConnectivityChecker(
                self.space,
                self._slot_seed("connectivity"),
                rounds=self.agm_rounds,
            )
            self._connectivity.begin_pass(0)
            tokens = self._net_updates()
            for start in range(0, len(tokens), _REPLAY_CHUNK):
                self._connectivity.process_batch(
                    tokens[start : start + _REPLAY_CHUNK], 0
                )
        obs.TRACER.count("session.ladder.promote")

    # ------------------------------------------------------------------
    # The ledger (exact service-plane state)
    # ------------------------------------------------------------------

    def num_live_edges(self) -> int:
        """Distinct live edges (multiplicity collapsed)."""
        return len(self._multiplicity)

    def live_graph(self) -> Graph:
        """The exact current graph implied by the ledger.

        This is service-plane bookkeeping (the stream model's own
        multiset), exposed for verification and workload drivers; the
        sketch-decoded queries below never read it except to synthesize
        pass-2 replays.
        """
        graph = Graph(self.num_vertices)
        for (u, v), multiplicity in self._multiplicity.items():
            if multiplicity > 0:
                graph.add_edge(u, v, self._weight[(u, v)])
        return graph

    def _net_updates(self) -> list[EdgeUpdate]:
        """The net live-edge multiset as insert tokens, sorted by pair.

        By linearity, feeding these as a second pass lands in state
        bit-identical to replaying the entire history (canceled tokens
        contribute zero to every integer and mod-p cell), which is what
        makes two-pass queries answerable mid-stream.
        """
        tokens: list[EdgeUpdate] = []
        for pair in sorted(self._multiplicity):
            update = EdgeUpdate(pair[0], pair[1], +1, self._weight[pair])
            tokens.extend([update] * self._multiplicity[pair])
        return tokens

    # ------------------------------------------------------------------
    # Snapshot queries
    # ------------------------------------------------------------------

    def _forest_snapshot(self):
        """(forest edges, vertex -> component label), one decode per epoch.

        Dense sessions label every universe vertex (a list); lazy
        sessions label touched vertices only (a dict) — any untouched
        vertex of a huge universe is implicitly its own singleton.
        """

        def compute():
            # No clone here: AGM forest extraction is read-only by
            # construction (Boruvka sums rows into fresh arrays), so the
            # snapshot discipline costs nothing on this hot path.
            with obs.TRACER.span("session.snapshot.forest"):
                if faults.ACTIVE is not None:
                    faults.ACTIVE.maybe_fail_decode("forest")
                return compute_forest()

        def compute_forest():
            forest = self._connectivity.spanning_forest()
            if self.space.lazy:
                sparse_dsu = SparseDisjointSets(
                    self._connectivity._sketch.touched_vertices()
                )
                for a, b in forest:
                    sparse_dsu.union(a, b)
                labels: dict[int, int] | list[int] = {
                    vertex: sparse_dsu.find(vertex) for vertex in sparse_dsu.parent
                }
            else:
                dsu = DisjointSets(self.num_vertices)
                for a, b in forest:
                    dsu.union(a, b)
                labels = [dsu.find(v) for v in range(self.num_vertices)]
            return (forest, labels)

        return self._cache.get_or_compute("forest", self.epoch, compute)

    def spanning_forest(self) -> list[tuple[int, int]]:
        """A spanning forest of the current graph (whp), snapshot-decoded
        (logical vertex ids; see :meth:`spanning_forest_external`)."""
        with obs.TRACER.span("session.query.forest"):
            return self._forest_snapshot()[0]

    def spanning_forest_external(self) -> list[tuple]:
        """The forest with external vertex labels (interned spaces)."""
        return [
            (self.space.label(a), self.space.label(b))
            for a, b in self.spanning_forest()
        ]

    def components(self) -> list[set[int]]:
        """Connected components of the current graph (whp).

        Dense sessions enumerate every vertex (isolated universe
        vertices are singletons, the historical behavior); lazy sessions
        return components of *touched* vertices only.
        """
        _, labels = self._forest_snapshot()
        groups: dict[int, set[int]] = {}
        items = labels.items() if isinstance(labels, dict) else enumerate(labels)
        for vertex, label in items:
            groups.setdefault(label, set()).add(vertex)
        return list(groups.values())

    def connected(self, u, v) -> bool:
        """Whether ``u`` and ``v`` are connected in the current graph (whp).

        Accepts logical ids (identity spaces) or external ids (interned
        spaces; an id the session never saw is trivially isolated).
        First call per epoch pays one forest decode; subsequent calls
        are cache hits (O(1))."""
        with obs.TRACER.span("session.query.connected"):
            lu, lv = self._lookup_vertex(u), self._lookup_vertex(v)
            if not self.space.is_interned and (lu is None or lv is None):
                raise ValueError(
                    f"vertices ({u}, {v}) outside [0, {self.num_vertices})"
                )
            if lu is None or lv is None:
                return u == v
            if lu == lv:
                return True
            _, labels = self._forest_snapshot()
            if isinstance(labels, dict):
                return labels.get(lu, ("isolated", lu)) == labels.get(
                    lv, ("isolated", lv)
                )
            return labels[lu] == labels[lv]

    def _require(self, slot, name: str):
        if slot is None:
            raise RuntimeError(
                f"this session was built with {name} disabled; construct "
                f"GraphSession(..., enable_{name}=True) to serve these queries"
            )
        return slot

    def _replay_second_pass(self, clone) -> None:
        """Drive a cloned two-pass algorithm through its synthesized
        second pass over the net live-edge multiset."""
        clone.end_pass(0)
        clone.begin_pass(1)
        tokens = self._net_updates()
        for start in range(0, len(tokens), _REPLAY_CHUNK):
            clone.process_batch(tokens[start : start + _REPLAY_CHUNK], 1)
        clone.end_pass(1)

    def spanner_snapshot(self):
        """Finalize a ``2^k``-spanner of the current graph.

        Clones the continuously-ingested pass-1 sketches, builds the
        cluster forest on the clone, synthesizes pass 2 from the net
        multiset, and decodes — the live state is never touched.  Cached
        per epoch; returns the builder's
        :class:`~repro.core.offline_spanner.SpannerOutput`.
        """
        spanner = self._require(self._spanner, "spanner")

        def compute():
            with obs.TRACER.span("session.snapshot.spanner"):
                if faults.ACTIVE is not None:
                    faults.ACTIVE.maybe_fail_decode("spanner")
                clone = spanner.clone()
                if _sanitize.ENABLED:
                    _sanitize.check_clone_independent(spanner, clone)
                self._replay_second_pass(clone)
                return clone.finalize()

        return self._cache.get_or_compute("spanner", self.epoch, compute)

    def spanner_distance(self, u: int, v: int) -> float:
        """Estimate ``d(u, v)``: exact lower bound, ``2^k`` upper stretch.

        BFS runs on the epoch's spanner snapshot and is memoized per
        source vertex, so query bursts against a quiet graph are cheap.
        Returns ``inf`` for pairs the spanner does not connect.
        """
        with obs.TRACER.span("session.query.spanner_distance"):
            lu, lv = self._lookup_vertex(u), self._lookup_vertex(v)
            if not self.space.is_interned and (lu is None or lv is None):
                raise ValueError(
                    f"vertices ({u}, {v}) outside [0, {self.num_vertices})"
                )
            if u == v or (lu is not None and lu == lv):
                return 0.0
            if lu is None or lv is None:
                return math.inf
            u, v = lu, lv
            output = self.spanner_snapshot()

            def compute():
                return bfs_distances(output.spanner, u)

            distances = self._cache.get_or_compute(
                ("spanner-bfs", u), self.epoch, compute
            )
            return float(distances.get(v, math.inf))

    def sparsifier_snapshot(self) -> Graph:
        """Finalize a weighted spectral sparsifier of the current graph.

        Same snapshot discipline as :meth:`spanner_snapshot`, over the
        streaming sparsification pipeline (weight-class reduction when
        the session is weighted).  Cached per epoch.
        """
        sparsifier = self._require(self._sparsifier, "sparsifier")

        def compute():
            with obs.TRACER.span("session.snapshot.sparsifier"):
                if faults.ACTIVE is not None:
                    faults.ACTIVE.maybe_fail_decode("sparsifier")
                clone = sparsifier.clone()
                if _sanitize.ENABLED:
                    _sanitize.check_clone_independent(sparsifier, clone)
                self._replay_second_pass(clone)
                return clone.finalize()

        return self._cache.get_or_compute("sparsifier", self.epoch, compute)

    def cut_estimate(self, side: Iterable[int]) -> float:
        """Estimated weight of the cut ``(side, V - side)``.

        Evaluated on the epoch's sparsifier snapshot — the sparsifier
        preserves all cuts to ``(1 ± eps)``, so this answers arbitrary
        cut queries from sketch-sized state.
        """
        with obs.TRACER.span("session.query.cut"):
            side_set = frozenset(side)
            if not side_set:
                raise ValueError("cut side must be nonempty")
            if self.space.is_interned:
                logical = {self._lookup_vertex(v) for v in side_set}
                side_set = frozenset(v for v in logical if v is not None)
                if not side_set:
                    return 0.0  # only never-seen ids: an isolated side cuts nothing
            else:
                logical = {self._lookup_vertex(v) for v in side_set}
                if None in logical:
                    raise ValueError(f"cut side leaves [0, {self.num_vertices})")
                side_set = frozenset(logical)
            return cut_value(self.sparsifier_snapshot(), side_set)

    # ------------------------------------------------------------------
    # Structured queries (graceful degradation)
    # ------------------------------------------------------------------

    #: Query kinds :meth:`query` serves, mapped to the raising methods.
    _QUERY_KINDS = {
        "components": "components",
        "forest": "spanning_forest",
        "connected": "connected",
        "spanner-distance": "spanner_distance",
        "cut": "cut_estimate",
    }

    #: Decode failures that degrade a query instead of raising.  Config
    #: errors (disabled slot, out-of-range vertex) still raise: they
    #: are caller bugs, not sketch-state trouble.
    _DEGRADABLE = (faults.InjectedDecodeFailure,)

    def query(self, kind: str, *args) -> QueryOutcome:
        """Answer a query as a :class:`QueryOutcome`, never decode-raising.

        ``kind`` is one of ``components`` / ``forest`` / ``connected`` /
        ``spanner-distance`` / ``cut``, with the same arguments as the
        corresponding method.  A sketch decode failure is absorbed into
        a degraded outcome (``ok=False``, ``confidence="degraded"``,
        counted as ``session.degraded_query``); because the epoch cache
        never stores failed computes, the very next query at this epoch
        retries the decode from scratch.  Everything else — unknown
        kinds, disabled slots, invalid vertices — raises as the direct
        methods do.
        """
        try:
            method = getattr(self, self._QUERY_KINDS[kind])
        except KeyError:
            raise ValueError(
                f"unknown query kind {kind!r}; choose from "
                f"{sorted(self._QUERY_KINDS)}"
            ) from None
        try:
            value = method(*args)
        except self._DEGRADABLE as error:
            self.degraded_queries += 1
            obs.TRACER.count("session.degraded_query")
            return QueryOutcome(
                kind=kind,
                value=None,
                ok=False,
                confidence="degraded",
                detail=str(error),
            )
        return QueryOutcome(kind=kind, value=value, ok=True, confidence="whp")

    # ------------------------------------------------------------------
    # Introspection / durability
    # ------------------------------------------------------------------

    def stats(self) -> SessionStats:
        """Current counters: epoch, ingest volume, cache traffic, space."""
        report = self.space_report()
        return SessionStats(
            epoch=self.epoch,
            updates_ingested=self.updates_ingested,
            live_edges=self.num_live_edges(),
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            cache_prunes=self._cache.prunes,
            cache_evictions=self._cache.evictions,
            cache_entries=len(self._cache),
            space_words=report.total_words(),
            universe_space_words=report.universe_words(),
            touched_vertices=self.touched_vertices(),
            checkpoint_fallbacks=self.checkpoint_fallbacks,
            shard_retries=self.shard_retries,
            degraded_queries=self.degraded_queries,
            ladder_promotions=0 if self.ladder is None else self.ladder.promotions,
            ladder_rung=0 if self.ladder is None else self.ladder.rung,
        )

    def touched_vertices(self) -> int:
        """Vertices holding resident sketch rows (dense: the universe)."""
        return len(self._connectivity._sketch.touched_vertices())

    def space_report(self) -> "SpaceReport":
        """Resident vs dense-universe words for every enabled slot.

        This is the audit behind the sparse-universe claim: resident
        words track touched vertices while the universe column shows
        what eager allocation over the full id range would cost.
        """
        report = self._connectivity.space_report()
        if self._spanner is not None:
            report = report.merged(self._spanner.space_report())
        if self._sparsifier is not None:
            sparsifier = SpaceReport()
            sparsifier.add("sparsifier pipeline", self._sparsifier.space_words())
            report = report.merged(sparsifier)
        return report

    def space_words(self) -> int:
        """Persistent sketch state in machine words (ledger excluded —
        its exact size is ``4 * live_edges`` words: endpoints,
        multiplicity and weight per edge, as the checkpoint serializes
        them; see :meth:`num_live_edges`)."""
        return sum(algorithm.space_words() for algorithm in self._algorithms())

    def snapshot_answers(self) -> dict:
        """Every enabled slot's full current answer, as one dict.

        Keys: ``components``, ``forest``, and — when the slots are
        enabled — ``spanner`` (edge list) and ``sparsifier`` (weighted
        edge list), all in sorted, directly comparable form.  This is
        the bit-identity probe the kill/restore verification (CLI
        ``serve``, the service bench, the examples) compares across
        sessions.
        """
        answers: dict = {
            "components": sorted(map(sorted, self.components())),
            "forest": sorted(self.spanning_forest()),
        }
        if self._spanner is not None:
            answers["spanner"] = sorted(self.spanner_snapshot().spanner.edge_set())
        if self._sparsifier is not None:
            answers["sparsifier"] = sorted(self.sparsifier_snapshot().edges())
        return answers

    def checkpoint(self, path) -> None:
        """Persist the full session state to ``path`` (varint protocol);
        see :func:`repro.service.checkpoint.save_session`."""
        from repro.service.checkpoint import save_session

        save_session(self, path)

    @classmethod
    def restore(cls, path) -> "GraphSession":
        """Rebuild a session bit-identically from a checkpoint file;
        see :func:`repro.service.checkpoint.load_session`."""
        from repro.service.checkpoint import load_session

        return load_session(path)

    def __repr__(self) -> str:
        return (
            f"GraphSession(n={self.num_vertices}, epoch={self.epoch}, "
            f"updates={self.updates_ingested}, live_edges={self.num_live_edges()})"
        )
