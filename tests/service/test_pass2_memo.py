"""The pass-2 randomness memo and the batched sparsifier decode, on
dense, weighted and lazy (10^7-id) sessions with slim sparsifier
parameters.

Every builder keeps its pass-2 tables' derived randomness in a memo
shared with its clones, so a cold snapshot lays out its tables again
without deriving them; the sparsifier decodes every sub-spanner's tables
in one batched decode.  Neither may change an answer or a byte: the
snapshots, cut estimates, pass-2 wires and checkpoints below are equal
with the memo cleared and with it warm.
"""

import hashlib

import numpy as np
import pytest

from repro.core import SparsifierParams
from repro.core.sparsify import StreamingWeightedSparsifier
from repro.graph.cuts import cut_value
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession
from repro.stream import mixed_workload_stream
from repro.stream.generators import power_law_universe_stream
from repro.util import sanitize

SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)
KINDS = ["dense", "weighted", "lazy"]


def _session_and_tokens(kind):
    if kind == "lazy":
        n = 10**7
        tokens = list(power_law_universe_stream(n, 60, 700, f"memo-{kind}", exponent=1.2))
        space = VertexSpace.sparse(n)
    else:
        n = 20
        bounds = (1.0, 2.0) if kind == "weighted" else None
        tokens = list(mixed_workload_stream(n, 700, seed=f"memo-{kind}", weights=bounds))
        space = n
    session = GraphSession(
        space, f"memo-{kind}", k=2, sparsifier_k=1, sparsifier_params=SLIM,
        weight_bounds=(1.0, 2.0) if kind == "weighted" else None,
    )
    return session, tokens


def _sub_spanners(sparsifier):
    pipelines = (
        sparsifier._pipelines
        if isinstance(sparsifier, StreamingWeightedSparsifier)
        else [sparsifier]
    )
    return [builder for pipeline in pipelines for builder in pipeline._all_builders()]


def _clear_memos(session):
    for builder in _sub_spanners(session._sparsifier) + [session._spanner]:
        builder._random_memo.clear()
        builder._y_depth_memo.clear()


def _cold_snapshot(session):
    """A cold sparsifier snapshot of the session: the replayed clone, its
    pass-2 wire, and the sparsifier it finalizes to."""
    clone = session._sparsifier.clone()
    session._replay_second_pass(clone)
    wire = clone.shard_state_ints(1)
    return clone, wire, clone.finalize()


def _checkpoint_sha(session, path):
    session.checkpoint(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", KINDS)
def test_memo_state_changes_no_answer_and_no_byte(tmp_path, kind):
    session, tokens = _session_and_tokens(kind)
    session.ingest_batch(tokens)
    _clear_memos(session)
    sha_cleared = _checkpoint_sha(session, tmp_path / "cleared.bin")
    _, wire_cold, cold = _cold_snapshot(session)
    # The memos are warm now (filled by the snapshot's clones).
    assert all(builder._random_memo for builder in _sub_spanners(session._sparsifier))
    assert any(builder._y_depth_memo for builder in _sub_spanners(session._sparsifier))
    _, wire_warm, warm = _cold_snapshot(session)
    assert sorted(warm.edges()) == sorted(cold.edges())
    assert wire_warm == wire_cold
    assert _checkpoint_sha(session, tmp_path / "warm.bin") == sha_cleared
    # The session's own answers come from the same snapshot.
    assert sorted(session.sparsifier_snapshot().edges()) == sorted(cold.edges())
    side = sorted({u for u, v, _ in cold.edges()} | {v for u, v, _ in cold.edges()})[::2]
    estimate = session.cut_estimate(side)
    assert estimate == cut_value(cold, set(side)) == cut_value(warm, set(side))


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_never_mutates_the_live_sparsifier(kind):
    session, tokens = _session_and_tokens(kind)
    session.ingest_batch(tokens)
    live = session._sparsifier
    before = list(live.shard_state_ints(0))
    clone, _, _ = _cold_snapshot(session)  # replayed and finalized
    sanitize.check_clone_independent(live, clone)
    assert list(live.shard_state_ints(0)) == before
    assert all(builder.forest is None for builder in _sub_spanners(live))


def test_memo_resets_when_effective_n_changes():
    """Each builder's memo holds the entries of one effective n: the one
    its latest snapshot laid its tables out for."""
    session, tokens = _session_and_tokens("lazy")
    builders = _sub_spanners(session._sparsifier)
    layouts = []
    for part in (tokens[:300], tokens[300:]):
        session.ingest_batch(part)
        clone, _, _ = _cold_snapshot(session)
        sizes = [builder._table_effective_n for builder in _sub_spanners(clone)]
        assert [list(builder._random_memo) for builder in builders] == [[n] for n in sizes]
        layouts.append(sizes)
    # More touched vertices: new effective sizes, older entries dropped.
    assert all(after >= before for before, after in zip(*layouts))
    assert layouts[0] != layouts[1]


@pytest.mark.parametrize("kind", KINDS)
def test_routing_depths_come_from_the_shared_memo(kind):
    """Every routed vertex's ``Y_j`` depths are hashed once per builder
    and kept in the memo its clones share: a snapshot routes with the
    memo's raw levels capped at its layout's depth, exactly as hashing
    them afresh, and the spanner and sparsifier come out unchanged."""
    session, tokens = _session_and_tokens(kind)
    session.ingest_batch(tokens)
    _clear_memos(session)
    spanner = session._spanner.clone()
    session._replay_second_pass(spanner)
    cold_spanner = spanner.finalize()
    clone, _, cold = _cold_snapshot(session)
    for builder in [spanner] + _sub_spanners(clone):
        routing = builder._routing
        if routing is None:
            continue
        fresh = np.array(
            [
                np.minimum(sampler.level_array(routing.vertices), builder._active_vertex_levels)
                for sampler in builder._y_samplers
            ],
            dtype=np.int64,
        ).reshape(routing.y_depth.shape)
        assert np.array_equal(routing.y_depth, fresh)
        assert set(routing.vertices.tolist()) <= set(builder._y_depth_memo)
    assert session._spanner._y_depth_memo is spanner._y_depth_memo
    warm_spanner = session._spanner.clone()
    session._replay_second_pass(warm_spanner)
    warm_output = warm_spanner.finalize()
    assert sorted(warm_output.spanner.edges()) == sorted(cold_spanner.spanner.edges())
    assert warm_output.observed_edges == cold_spanner.observed_edges
    _, _, warm = _cold_snapshot(session)
    assert sorted(warm.edges()) == sorted(cold.edges())
