"""Checkpoint/restore for live sessions — crash durability in one file.

A checkpoint is everything a :class:`~repro.service.session.GraphSession`
cannot re-derive from its seed:

* a JSON header with the session *configuration* (vertex space, seed,
  enabled slots, parameter dataclasses, weight bounds, AGM rounds,
  sketch-rotation counter) and counters (epoch, updates ingested) —
  configuration re-derives every hash family, so no randomness is ever
  written.  Interned spaces also persist their external-id table in
  logical order, so a restored session re-derives the identical id
  assignment;
* the *ledger* (live-edge multiplicities and exact float64 weight bits);
* every enabled algorithm's pass-0 dynamic state through the same
  ``shard_state_ints`` / varint protocol the distributed runner ships
  over the wire (:mod:`repro.sketch.serialize`) — a checkpoint is
  literally a coordinator message written to disk.

Restoring builds a fresh same-config session (identical derived
randomness), overwrites the dynamic state in place, and resumes: because
every later ingest and decode is deterministic given the state, a
killed-and-restored session finishes with answers bit-identical to an
uninterrupted run — the property ``tests/service/test_checkpoint_restore.py``
pins down for all three algorithms on weighted and unweighted streams.

Durability posture (v3):

* **Atomic writes** — temp file + ``os.replace``; a crash *during*
  checkpointing leaves the previous checkpoint intact, and a failed
  write (e.g. disk full) cleans up its temp file and surfaces as
  :class:`CheckpointError`.
* **CRC32-framed sections** — header and payload are each wrapped in a
  ``(length, crc32)`` frame, so truncation and bit-rot are *detected*
  (pointed :class:`CheckpointError`) instead of decoding into silently
  wrong sketch state.
* **Keep-last-N rotation + fallback** — :class:`CheckpointStore` keeps
  the newest N checkpoints of a session and its :meth:`~CheckpointStore.load_latest`
  walks newest→oldest past corrupt files (counting
  ``checkpoint.corrupt_detected`` / ``checkpoint.fallback``), so one
  torn file costs re-ingesting one checkpoint interval, not the session.

Fault injection (:mod:`repro.faults`) hooks the writer: a plan can
force an ``OSError`` mid-write or corrupt the just-renamed file, which
is how the chaos suite proves the recovery paths above actually run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path

from repro import faults, obs
from repro.core.parameters import SpannerParams, SparsifierParams
from repro.graph.vertex_space import VertexSpace
from repro.service.ladder import SketchLadder
from repro.service.session import GraphSession
from repro.sketch.serialize import pack_ints, unpack_ints

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "save_session",
    "load_session",
]

#: File magic; bump the suffix on incompatible layout changes.
#: v3: CRC32-framed sections — header and payload each carry a
#: ``(length, crc32)`` frame so corruption is detected at load time.
MAGIC = b"repro-sketchstore-v3\n"

#: Previous layouts, recognized only to fail with a pointed message.
_STALE_MAGICS = (b"repro-sketchstore-v1\n", b"repro-sketchstore-v2\n")

#: Per-section frame: big-endian (byte length, CRC32 of the bytes).
_FRAME = struct.Struct(">II")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or inconsistent."""


def _float_bits(value: float) -> int:
    """Exact float64 -> int encoding (weights must round-trip bit-for-bit)."""
    return struct.unpack(">Q", struct.pack(">d", value))[0]


def _bits_float(bits: int) -> float:
    """Inverse of :func:`_float_bits`."""
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def _params_dict(params) -> dict | None:
    return None if params is None else dataclasses.asdict(params)


def _header(session: GraphSession) -> dict:
    return {
        "num_vertices": session.num_vertices,
        "space": session.space.config(),
        "externals": session.space.externals(),
        "agm_rounds": session.agm_rounds,
        "seed": session.seed,
        "k": session.k,
        "enable_spanner": session.enable_spanner,
        "enable_sparsifier": session.enable_sparsifier,
        "sparsifier_k": session.sparsifier_k,
        "sparsifier_params": _params_dict(session.sparsifier_params),
        "spanner_params": _params_dict(session.spanner_params),
        "weight_bounds": (
            None
            if session.weight_bounds is None
            else [_float_bits(session.weight_bounds[0]), _float_bits(session.weight_bounds[1])]
        ),
        "rotation": session.rotation,
        "ladder": None if session.ladder is None else session.ladder.config(),
        "epoch": session.epoch,
        "updates_ingested": session.updates_ingested,
    }


def _frame(section: bytes) -> tuple[bytes, bytes]:
    """A section's ``(length, crc32)`` frame header plus the section."""
    return _FRAME.pack(len(section), zlib.crc32(section) & 0xFFFFFFFF), section


def _write_atomic(path: Path, chunks: list[bytes], fail_at_byte: int | None) -> int:
    """Write ``chunks`` to ``path`` via temp + rename; returns bytes written.

    ``fail_at_byte`` is the fault-injection budget: when set, an
    :class:`OSError` fires once that many bytes are out, modelling a
    full disk / yanked volume.  Any :class:`OSError` (injected or real)
    removes the temp file and re-raises as :class:`CheckpointError`, so
    a failed save leaves the previous checkpoint intact and no temp
    litter behind.
    """
    temp = path.with_name(path.name + ".tmp")
    written = 0
    try:
        with open(temp, "wb") as handle:
            for chunk in chunks:
                if fail_at_byte is not None and written + len(chunk) > fail_at_byte:
                    handle.write(chunk[: fail_at_byte - written])
                    raise OSError(
                        f"injected I/O error after {fail_at_byte} bytes"
                    )
                handle.write(chunk)
                written += len(chunk)
        os.replace(temp, path)
    except OSError as error:
        temp.unlink(missing_ok=True)
        obs.TRACER.count("checkpoint.write_failures")
        raise CheckpointError(f"cannot write checkpoint {path}: {error}") from error
    return written


def save_session(session: GraphSession, path) -> None:
    """Write ``session``'s full state to ``path`` atomically.

    Layout: magic line, then two CRC32-framed sections — the JSON
    header and a varint-packed int sequence holding the ledger followed
    by one length-prefixed ``shard_state_ints(0)`` block per enabled
    algorithm.  Raises :class:`CheckpointError` if the write fails (the
    temp file is cleaned up and any previous checkpoint is untouched).
    """
    with obs.TRACER.span("checkpoint.save"):
        flat: list[int] = [len(session._multiplicity)]
        for pair in sorted(session._multiplicity):
            flat.extend(
                (
                    pair[0],
                    pair[1],
                    session._multiplicity[pair],
                    _float_bits(session._weight[pair]),
                )
            )
        for algorithm in session._algorithms():
            block = algorithm.shard_state_ints(0)
            flat.append(len(block))
            flat.extend(block)
        with obs.TRACER.span("checkpoint.encode", ints=len(flat)):
            payload = pack_ints(flat)
        header = json.dumps(_header(session), sort_keys=True).encode("utf-8")

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        injected = faults.ACTIVE.checkpoint_faults() if faults.ACTIVE is not None else None
        chunks = [MAGIC, *_frame(header), *_frame(payload)]
        total = _write_atomic(
            path, chunks, None if injected is None else injected.fail_at_byte
        )
        if injected is not None:
            for spec in injected.corrupt:
                faults.apply_corruption(path, spec)
                faults.ACTIVE.record(f"{spec.describe()} path={path.name}")
    obs.TRACER.count("checkpoint.writes")
    obs.TRACER.count("checkpoint.bytes_written", total)
    obs.TRACER.observe("checkpoint.bytes", total)


def load_session(path) -> GraphSession:
    """Rebuild the checkpointed session from ``path``, bit-identically.

    Raises :class:`CheckpointError` on a missing/corrupt file.  The
    returned session continues exactly where the saved one stopped: same
    epoch, same counters, same sketch cells — so its future answers
    match an uninterrupted run's.
    """
    with obs.TRACER.span("checkpoint.load"):
        return _load_session(path)


def _read_section(path: Path, data: bytes, start: int, what: str) -> tuple[bytes, int]:
    """Decode one CRC32-framed section; returns (section, next offset)."""
    if start + _FRAME.size > len(data):
        raise CheckpointError(f"{path}: truncated {what} frame")
    length, stored_crc = _FRAME.unpack_from(data, start)
    end = start + _FRAME.size + length
    if end > len(data):
        raise CheckpointError(
            f"{path}: truncated {what} section ({end - len(data)} bytes missing)"
        )
    section = data[start + _FRAME.size : end]
    actual_crc = zlib.crc32(section) & 0xFFFFFFFF
    if actual_crc != stored_crc:
        raise CheckpointError(
            f"{path}: {what} CRC mismatch "
            f"(stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x})"
        )
    return section, end


def _load_session(path) -> GraphSession:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    obs.TRACER.count("checkpoint.restores")
    obs.TRACER.count("checkpoint.bytes_read", len(data))
    if not data.startswith(MAGIC):
        for stale in _STALE_MAGICS:
            if data.startswith(stale):
                raise CheckpointError(
                    f"{path} is a {stale[:-1].decode()} checkpoint; the CRC-framed "
                    "v3 layout changed the file format — re-create the session "
                    "and take a fresh checkpoint"
                )
        raise CheckpointError(f"{path} is not a sketch-store checkpoint")

    header_bytes, cursor_bytes = _read_section(path, data, len(MAGIC), "header")
    payload, cursor_bytes = _read_section(path, data, cursor_bytes, "payload")
    if cursor_bytes != len(data):
        raise CheckpointError(
            f"{path}: {len(data) - cursor_bytes} trailing bytes after payload"
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        with obs.TRACER.span("checkpoint.decode", bytes=len(payload)) as span:
            values = unpack_ints(payload)
            span.annotate(ints=len(values))
    except ValueError as error:
        raise CheckpointError(f"{path}: corrupt checkpoint: {error}") from error

    weight_bounds = header["weight_bounds"]
    if weight_bounds is not None:
        weight_bounds = (_bits_float(weight_bounds[0]), _bits_float(weight_bounds[1]))
    sparsifier_params = header["sparsifier_params"]
    spanner_params = header["spanner_params"]
    space = VertexSpace.from_config(header["space"])
    if space.is_interned:
        space.load_externals(header["externals"])
    # Pre-ladder checkpoints (<= PR 9) have no "ladder" key: .get keeps
    # them restorable, with the round depth coming from agm_rounds.
    ladder_config = header.get("ladder")
    ladder = None if ladder_config is None else SketchLadder.from_config(ladder_config)
    session = GraphSession(
        space,
        header["seed"],
        k=header["k"],
        enable_spanner=header["enable_spanner"],
        enable_sparsifier=header["enable_sparsifier"],
        sparsifier_k=header["sparsifier_k"],
        sparsifier_params=(
            None if sparsifier_params is None else SparsifierParams(**sparsifier_params)
        ),
        spanner_params=(
            None if spanner_params is None else SpannerParams(**spanner_params)
        ),
        weight_bounds=weight_bounds,
        agm_rounds=None if ladder is not None else header["agm_rounds"],
        rotation=int(header["rotation"]),
        ladder=ladder,
    )

    cursor = 0
    try:
        ledger_len = values[cursor]
        cursor += 1
        for _ in range(ledger_len):
            u, v, multiplicity, weight_bits = values[cursor : cursor + 4]
            cursor += 4
            session._multiplicity[(int(u), int(v))] = int(multiplicity)
            session._weight[(int(u), int(v))] = _bits_float(int(weight_bits))
        for algorithm in session._algorithms():
            length = int(values[cursor])
            cursor += 1
            algorithm.load_shard_state_ints(0, values[cursor : cursor + length])
            cursor += length
    except (IndexError, ValueError) as error:
        raise CheckpointError(f"{path}: inconsistent payload: {error}") from error
    if cursor != len(values):
        raise CheckpointError(
            f"{path}: {len(values) - cursor} unconsumed payload ints"
        )
    session.epoch = int(header["epoch"])
    session.updates_ingested = int(header["updates_ingested"])
    return session


class CheckpointStore:
    """Keep-last-N rotating checkpoints with newest-intact fallback.

    A store owns one directory of ``ckpt-<epoch>.bin`` files for one
    session.  :meth:`save` writes the session at its current epoch and
    prunes beyond ``keep_last``; :meth:`load_latest` restores from the
    newest checkpoint that passes the CRC frames, walking past corrupt
    or torn files (each counted as ``checkpoint.corrupt_detected``)
    and recording how many were skipped on the restored session's
    ``checkpoint_fallbacks`` counter.  Only when *every* candidate is
    bad does it raise, with a :class:`CheckpointError` naming each
    file's failure.
    """

    def __init__(self, root, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.root = Path(root)
        self.keep_last = keep_last

    def path_for(self, epoch: int) -> Path:
        """The checkpoint file path for ``epoch``."""
        # Zero-padded so lexicographic directory order == epoch order.
        return self.root / f"ckpt-{epoch:012d}.bin"

    def checkpoints(self) -> list[Path]:
        """All checkpoint files, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("ckpt-*.bin"))

    def save(self, session: GraphSession) -> Path:
        """Checkpoint ``session`` at its current epoch and prune old files."""
        path = self.path_for(session.epoch)
        save_session(session, path)
        for stale in self.checkpoints()[: -self.keep_last]:
            stale.unlink(missing_ok=True)
        return path

    def load_latest(self) -> GraphSession:
        """Restore from the newest intact checkpoint, newest→oldest."""
        candidates = self.checkpoints()
        if not candidates:
            raise CheckpointError(f"no checkpoints under {self.root}")
        failures: list[str] = []
        last_error: CheckpointError | None = None
        for candidate in reversed(candidates):
            try:
                session = load_session(candidate)
            except CheckpointError as error:
                obs.TRACER.count("checkpoint.corrupt_detected")
                failures.append(str(error))
                last_error = error
                continue
            if failures:
                obs.TRACER.count("checkpoint.fallback", len(failures))
                session.checkpoint_fallbacks = len(failures)
            return session
        summary = "; ".join(failures)
        raise CheckpointError(
            f"all {len(candidates)} checkpoints under {self.root} are corrupt: "
            f"{summary}"
        ) from last_error
