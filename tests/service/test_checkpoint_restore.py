"""Failure injection for the sketch store: crash, restore, bit-identity.

The durability claim: a session killed at *any* epoch and restored from
its checkpoint finishes the stream with answers bit-identical to a
session that never crashed.  These tests crash at seeded random epochs
for every algorithm slot combination, over unweighted and weighted
mixed workloads (the generator of
:func:`repro.stream.generators.mixed_workload_stream`), and compare both
the decoded answers and the raw serialized sketch states.
"""

import pytest

from repro.core import SparsifierParams
from repro.service import CheckpointError, GraphSession, load_session
from repro.stream import mixed_workload_stream
from repro.util.rng import rng_from_seed

SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)

#: (name, session kwargs, weighted stream?) — the three algorithms each
#: get a dedicated crash/restore run, plus the weighted pipeline.
CONFIGS = [
    ("connectivity", dict(enable_spanner=False, enable_sparsifier=False), False),
    ("spanner", dict(enable_sparsifier=False), False),
    ("sparsifier", dict(enable_spanner=False, sparsifier_k=1,
                        sparsifier_params=SLIM), False),
    ("all-unweighted", dict(sparsifier_k=1, sparsifier_params=SLIM), False),
    ("connectivity-weighted", dict(enable_spanner=False, enable_sparsifier=False,
                                   weight_bounds=(1.0, 8.0)), True),
    ("spanner-weighted", dict(enable_sparsifier=False,
                              weight_bounds=(1.0, 8.0)), True),
    ("sparsifier-weighted", dict(enable_spanner=False, sparsifier_k=1,
                                 sparsifier_params=SLIM,
                                 weight_bounds=(1.0, 8.0)), True),
]

NUM_VERTICES = 12
STREAM_LENGTH = 480
CHUNK = 40


def final_answers(session):
    answers = session.snapshot_answers()
    # Stronger than the decoded answers: the exact ledger and the raw
    # serialized sketch states must also round-trip.
    answers["ledger"] = sorted(session.live_graph().edges())
    answers["states"] = [list(a.shard_state_ints(0)) for a in session._algorithms()]
    return answers


@pytest.mark.parametrize("name,kwargs,weighted", CONFIGS,
                         ids=[config[0] for config in CONFIGS])
def test_crash_restore_bit_identity(tmp_path, name, kwargs, weighted):
    tokens = list(
        mixed_workload_stream(
            NUM_VERTICES, STREAM_LENGTH, seed=f"crash-{name}",
            weights=(1.0, 8.0) if weighted else None,
        )
    )

    def run_uninterrupted():
        session = GraphSession(NUM_VERTICES, f"ck-{name}", **kwargs)
        for start in range(0, len(tokens), CHUNK):
            session.ingest_batch(tokens[start : start + CHUNK])
        return final_answers(session)

    reference = run_uninterrupted()

    rng = rng_from_seed("crash-epochs", name)
    total_chunks = len(tokens) // CHUNK
    crash_chunks = sorted(rng.sample(range(1, total_chunks), 2))
    for crash_chunk in crash_chunks:
        session = GraphSession(NUM_VERTICES, f"ck-{name}", **kwargs)
        for start in range(0, crash_chunk * CHUNK, CHUNK):
            session.ingest_batch(tokens[start : start + CHUNK])
        path = tmp_path / f"{name}-{crash_chunk}.bin"
        session.checkpoint(path)
        del session  # the crash

        restored = load_session(path)
        assert restored.updates_ingested == crash_chunk * CHUNK
        for start in range(crash_chunk * CHUNK, len(tokens), CHUNK):
            restored.ingest_batch(tokens[start : start + CHUNK])
        assert final_answers(restored) == reference, (
            f"{name}: restore at chunk {crash_chunk} diverged"
        )


def test_checkpoint_preserves_mid_session_weights(tmp_path):
    session = GraphSession(8, 1, enable_spanner=False, enable_sparsifier=False,
                           weight_bounds=(0.5, 16.0))
    stream = mixed_workload_stream(8, 120, seed=2, weights=(0.5, 16.0))
    session.ingest_batch(list(stream))
    path = tmp_path / "weighted.bin"
    session.checkpoint(path)
    restored = load_session(path)
    # Exact float64 round trip, not approximate.
    assert sorted(restored.live_graph().edges()) == sorted(session.live_graph().edges())
    assert restored.weight_bounds == session.weight_bounds


@pytest.mark.parametrize("kind", ["dense", "weighted", "lazy"])
def test_restored_state_digest_equals_live(tmp_path, kind):
    """The digest reads the summarized vectors, not the resident rows: a
    restored session interns only the rows its wire ships, while the
    live one keeps rows whose deltas netted to zero, yet both digest the
    same."""
    from repro.graph.vertex_space import VertexSpace

    n = 24
    space = VertexSpace.sparse(n) if kind == "lazy" else n
    bounds = (1.0, 8.0) if kind == "weighted" else None
    session = GraphSession(space, f"digest-{kind}", enable_spanner=False,
                           enable_sparsifier=False, weight_bounds=bounds)
    stream = mixed_workload_stream(n, 900, seed=f"digest-{kind}", weights=bounds)
    for chunk in stream.iter_batches(50):
        session.ingest_batch(chunk)
    path = tmp_path / f"{kind}.bin"
    session.checkpoint(path)
    restored = load_session(path)
    live, back = session._connectivity, restored._connectivity
    assert list(live.shard_state_ints(0)) == list(back.shard_state_ints(0))
    assert live.state_digest() == back.state_digest()


def test_restore_continues_epoch_and_counters(tmp_path):
    session = GraphSession(8, 3, enable_spanner=False, enable_sparsifier=False)
    stream = mixed_workload_stream(8, 90, seed=4)
    for chunk in stream.iter_batches(30):
        session.ingest_batch(chunk)
    path = tmp_path / "counters.bin"
    session.checkpoint(path)
    restored = load_session(path)
    assert restored.epoch == session.epoch
    assert restored.updates_ingested == session.updates_ingested
    assert restored.num_live_edges() == session.num_live_edges()


def test_corrupt_and_missing_checkpoints_raise(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_session(tmp_path / "missing.bin")
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError, match="not a sketch-store checkpoint"):
        load_session(bogus)
    session = GraphSession(6, 5, enable_spanner=False, enable_sparsifier=False)
    session.ingest_batch(list(mixed_workload_stream(6, 40, seed=6)))
    path = tmp_path / "truncated.bin"
    session.checkpoint(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(CheckpointError):
        load_session(path)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_stale_format_is_refused_with_a_pointed_message(tmp_path, version):
    """An older layout (v3 shipped nonzero rows, not nonzero cells) is
    refused by name, never misread."""
    from repro.service import checkpoint as ckpt

    session = GraphSession(6, 9, enable_spanner=False, enable_sparsifier=False)
    session.ingest_batch(list(mixed_workload_stream(6, 40, seed=9)))
    path = tmp_path / "stale.bin"
    session.checkpoint(path)
    stale = f"repro-sketchstore-v{version}\n".encode()
    assert stale in ckpt._STALE_MAGICS and ckpt.MAGIC == b"repro-sketchstore-v4\n"
    path.write_bytes(stale + path.read_bytes()[len(ckpt.MAGIC) :])
    with pytest.raises(CheckpointError, match=f"v{version} checkpoint.*re-create"):
        load_session(path)


def test_checkpoint_overwrite_is_atomic(tmp_path):
    session = GraphSession(6, 7, enable_spanner=False, enable_sparsifier=False)
    session.ingest_batch(list(mixed_workload_stream(6, 40, seed=8)))
    path = tmp_path / "atomic.bin"
    session.checkpoint(path)
    first = path.read_bytes()
    session.checkpoint(path)  # same state: replaces with identical bytes
    assert path.read_bytes() == first
    assert not path.with_name(path.name + ".tmp").exists()


@pytest.mark.parametrize("kind", ["dense-churn", "powerlaw-1e7"])
def test_live_and_restored_space_agree_after_every_ingest(tmp_path, kind):
    """Space charges the rows holding a nonzero cell — the rows the wire
    ships — so a session restored after any ingest reports the live
    session's words, rows whose cells cancelled across ingests
    included (they stay resident in the live stacks only)."""
    from repro.graph.vertex_space import VertexSpace
    from repro.stream.generators import power_law_universe_stream

    if kind == "dense-churn":
        space, chunk = 16, 2000
        tokens = list(mixed_workload_stream(16, 20_000, seed="space-churn"))
    else:
        space, chunk = VertexSpace.sparse(10**7), 250
        tokens = list(power_law_universe_stream(
            10**7, 80, 2500, "space-powerlaw", exponent=1.2
        ))
    session = GraphSession(space, f"space-{kind}", k=3, sparsifier_k=1, sparsifier_params=SLIM)
    path = tmp_path / "space.bin"
    for start in range(0, len(tokens), chunk):
        session.ingest_batch(tokens[start : start + chunk])
        session.checkpoint(path)
        restored = load_session(path)
        assert restored.space_report() == session.space_report()
        assert restored.stats().space_words == session.stats().space_words
