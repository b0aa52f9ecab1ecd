"""The ``REPRO_SANITIZE=1`` runtime sanitizer.

Two arms: armed kernels must accept every canonical input unchanged
(the whole tier-1 sketch suite also runs under ``make test-sanitize``)
and must *trip* on seeded violations — a non-canonical operand, a float
array, an out-of-range scatter position, an aliased clone.  Disarmed
(the default), nothing may raise.
"""

import importlib

import numpy as np
import pytest

from repro.service.session import GraphSession
from repro.sketch import kernels
from repro.sketch.hashing import MERSENNE_61
from repro.stream.updates import EdgeUpdate
from repro.util import sanitize


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", True)


CANONICAL = np.array([0, 1, 12345, MERSENNE_61 - 1], dtype=np.uint64)


def test_armed_kernels_accept_canonical_operands(armed):
    other = np.array([5, 0, MERSENNE_61 - 1, 7], dtype=np.uint64)
    assert int(kernels.addmod61(CANONICAL, other)[0]) == 5
    kernels.submod61(CANONICAL, other)
    kernels.mulmod61(CANONICAL, other)
    kernels.scatter_sum_mod61(4, np.array([0, 1, 2, 3]), CANONICAL)


def test_armed_mulmod_trips_on_overflow(armed):
    # p itself is the canonical-range violation: == p, not < p.
    seeded = np.array([MERSENNE_61], dtype=np.uint64)
    with pytest.raises(sanitize.SanitizeError, match="canonical"):
        kernels.mulmod61(seeded, np.array([1], dtype=np.uint64))


def test_armed_addmod_trips_on_overflow(armed):
    seeded = np.array([MERSENNE_61 + 5], dtype=np.uint64)
    with pytest.raises(sanitize.SanitizeError):
        kernels.addmod61(CANONICAL[:1], seeded)


def test_armed_kernels_trip_on_float_contamination(armed):
    floats = np.array([1.0, 2.0])
    with pytest.raises(sanitize.SanitizeError, match="float"):
        kernels.scatter_sum_mod61(2, np.array([0, 1]), floats)


def test_armed_scatter_trips_on_position_out_of_range(armed):
    terms = np.array([1, 2], dtype=np.uint64)
    with pytest.raises(sanitize.SanitizeError, match="position"):
        kernels.scatter_sum_mod61(2, np.array([0, 2]), terms)
    with pytest.raises(sanitize.SanitizeError, match="position"):
        kernels.scatter_sum_mod61(2, np.array([-1, 0]), terms)


def test_disarmed_kernels_skip_all_checks(monkeypatch):
    monkeypatch.setattr(sanitize, "ENABLED", False)
    seeded = np.array([MERSENNE_61], dtype=np.uint64)
    kernels.mulmod61(seeded, seeded)  # wraps silently; must not raise
    kernels.scatter_sum_mod61(1, np.array([0]), seeded)


def test_enabled_reads_environment_at_import(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert importlib.reload(sanitize).ENABLED
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not importlib.reload(sanitize).ENABLED


# -- clone independence ------------------------------------------------


class _AliasingClone:
    """A deliberately broken clone: shares its live counter buffer."""

    def __init__(self):
        self.counters = np.zeros(8, dtype=np.uint64)
        self.nested = {"rows": [np.ones(4, dtype=np.uint64)]}

    def clone(self):
        twin = _AliasingClone.__new__(_AliasingClone)
        twin.counters = self.counters  # the bug: aliased, not copied
        twin.nested = {"rows": [np.array(self.nested["rows"][0])]}
        return twin


def test_aliasing_clone_trips():
    original = _AliasingClone()
    with pytest.raises(sanitize.SanitizeError, match="aliases"):
        sanitize.check_clone_independent(original, original.clone())


def test_independent_clone_passes():
    original = _AliasingClone()
    twin = original.clone()
    twin.counters = np.array(original.counters)
    sanitize.check_clone_independent(original, twin)


def test_shared_hash_tables_are_exempt():
    class WithSharedTables:
        def __init__(self, table):
            self._pow_table = table  # interned by design
            self.state = np.zeros(4, dtype=np.uint64)

    table = np.arange(16, dtype=np.uint64)
    original = WithSharedTables(table)
    twin = WithSharedTables(table)
    sanitize.check_clone_independent(original, twin)


def test_zero_size_arrays_are_exempt():
    class Empty:
        def __init__(self, buf):
            self.buf = buf

    shared_empty = np.empty(0, dtype=np.uint64)
    sanitize.check_clone_independent(Empty(shared_empty), Empty(shared_empty))


def test_session_snapshots_pass_armed(armed):
    session = GraphSession(12, "sanitize-session", k=2)
    for u, v in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 3), (7, 8)]:
        session.ingest(EdgeUpdate(u, v, 1))
    session.spanner_snapshot()
    session.sparsifier_snapshot()
    assert session.connected(0, 1)
