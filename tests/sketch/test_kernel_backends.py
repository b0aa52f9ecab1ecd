"""Cross-backend bit-identity for the pluggable field kernels.

The dispatch seam (:mod:`repro.sketch.kernels`) promises that both
backends — ``reference`` (the audited numpy oracle) and ``limb`` (the
fused in-place fast path) — land the *same canonical residues* in
``[0, p)`` on every input.  This suite is that promise's enforcement:
hypothesis drives random operands, the boundary rail pins the field's
edge cases (0, ``p - 1``, ``p``, ``2^61``, ``2^64 - 1``), and the
selection tests pin the env-var semantics the CI kernel matrix relies
on.
"""

import os
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import kernels
from repro.sketch.hashing import MERSENNE_61
from repro.sketch.kernels import limb as limb_mod
from repro.sketch.kernels import reference as ref_mod

P = MERSENNE_61

#: Field-edge operands every elementwise comparison must include: the
#: canonical extremes and the limb rails (a full low limb, a full high
#: limb, the 29-bit fold boundary).  The documented kernel contract is
#: operands in ``[0, p)`` — sanitize mode asserts it — so the rail stays
#: canonical; non-canonical keys are exercised by the polyhash tests,
#: whose normalization is part of the kernel.
BOUNDARY = [
    0, 1, 2, (1 << 29) - 1, 1 << 29, (1 << 32) - 1, 1 << 32,
    ((1 << 28) - 1) << 32, P - 2, P - 1,
]

#: Raw 64-bit keys for the hash kernels, which normalize internally.
RAW_KEYS = [0, 1, P - 1, P, P + 1, 1 << 61, (1 << 61) + 5, 2 * P - 1]

#: Backend modules held to the reference oracle.
BACKENDS = [pytest.param(limb_mod, id="limb")]


def uint64s(min_size=0, max_size=64):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        min_size=min_size, max_size=max_size,
    )


def as_u64(values):
    return np.array(values, dtype=np.uint64)


def assert_same(expected, actual):
    expected, actual = np.asarray(expected), np.asarray(actual)
    assert expected.dtype == actual.dtype
    np.testing.assert_array_equal(expected, actual)


# -- elementwise kernels ----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@given(pairs=st.lists(st.tuples(
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
), max_size=64))
@settings(max_examples=50, deadline=None)
def test_mulmod61_matches_reference(backend, pairs):
    pairs = pairs + [(a, b) for a in BOUNDARY for b in BOUNDARY]
    a = as_u64([p[0] for p in pairs])
    b = as_u64([p[1] for p in pairs])
    assert_same(ref_mod.mulmod61(a, b), backend.mulmod61(a, b))


@pytest.mark.parametrize("backend", BACKENDS)
@given(values=uint64s())
@settings(max_examples=50, deadline=None)
def test_add_sub_match_reference(backend, values):
    # add/sub take canonical residues (their callers guarantee it).
    canon = as_u64([v % P for v in values + BOUNDARY])
    rolled = np.roll(canon, 1)
    assert_same(ref_mod.addmod61(canon, rolled), backend.addmod61(canon, rolled))
    assert_same(ref_mod.submod61(canon, rolled), backend.submod61(canon, rolled))


@pytest.mark.parametrize("backend", BACKENDS)
@given(coeffs=uint64s(min_size=1, max_size=8), xs=uint64s())
@settings(max_examples=50, deadline=None)
def test_polyhash61_matches_reference(backend, coeffs, xs):
    # uint64 keys are in-contract below 2p (one conditional fold).
    keys = as_u64([x % (2 * P) for x in xs] + RAW_KEYS)
    coefficients = [c % P for c in coeffs]
    assert_same(
        ref_mod.polyhash61(coefficients, keys),
        backend.polyhash61(coefficients, keys),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    matrix=st.lists(uint64s(min_size=4, max_size=4), min_size=1, max_size=5),
    xs=uint64s(),
)
@settings(max_examples=50, deadline=None)
def test_polyhash61_multi_matches_reference(backend, matrix, xs):
    coeff_matrix = as_u64([[c % P for c in row] for row in matrix])
    keys = as_u64([x % (2 * P) for x in xs] + RAW_KEYS)
    assert_same(
        ref_mod.polyhash61_multi(coeff_matrix, keys),
        backend.polyhash61_multi(coeff_matrix, keys),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    bases=st.lists(st.integers(min_value=0, max_value=P - 1), max_size=4),
    max_exponent=st.sampled_from([0, 255, 256, 10**14, 1 << 61]),
)
@settings(max_examples=30, deadline=None)
def test_build_pow_table_matches_reference(backend, bases, max_exponent):
    bases = bases + [1, 2, P - 1]
    want = ref_mod.build_pow_table(bases, max_exponent)
    got = backend.build_pow_table(as_u64(bases), max_exponent)
    assert_same(want, got)
    windows = got.shape[1]
    assert got.shape == (len(bases), windows, 256)
    assert 256 ** windows > max_exponent
    # Spot-check the table's meaning against scalar pow.
    for g, base in enumerate(bases):
        for i, j in [(0, 0), (0, 1), (0, 255), (windows - 1, 17), (windows - 1, 255)]:
            assert int(got[g, i, j]) == pow(base, j * 256**i, P)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    cells=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_scatter_sum_mod61_matches_reference(backend, cells, data):
    n = data.draw(st.integers(min_value=0, max_value=64))
    positions = np.array(
        data.draw(st.lists(
            st.integers(min_value=0, max_value=cells - 1),
            min_size=n, max_size=n,
        )),
        dtype=np.int64,
    )
    # Spill-forcing magnitudes: many max-value terms in one cell
    # overflow the 64-bit planes unless the implementation handles
    # carries exactly like the reference does.
    terms = as_u64(data.draw(st.lists(
        st.sampled_from([0, 1, P - 1, (1 << 61) - 2, (1 << 32) - 1]),
        min_size=n, max_size=n,
    )))
    assert_same(
        ref_mod.scatter_sum_mod61(cells, positions, terms),
        backend.scatter_sum_mod61(cells, positions, terms),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stack_positions_terms_matches_reference(backend, data):
    num_groups = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.integers(min_value=1, max_value=4))
    buckets = data.draw(st.integers(min_value=1, max_value=32))
    field = st.integers(min_value=0, max_value=P - 1)
    bucket_coeffs = as_u64([
        [[data.draw(field) for _ in range(4)] for _ in range(rows)]
        for _ in range(num_groups)
    ])
    n = data.draw(st.integers(min_value=0, max_value=48))
    indices = np.array(
        data.draw(st.lists(
            st.integers(min_value=0, max_value=1 << 40), min_size=n, max_size=n,
        )),
        dtype=np.int64,
    )
    groups = np.array(
        data.draw(st.lists(
            st.integers(min_value=0, max_value=num_groups - 1), min_size=n, max_size=n,
        )),
        dtype=np.int64,
    )
    residues = as_u64(data.draw(st.lists(field, min_size=n, max_size=n)))
    bases = [data.draw(st.integers(min_value=2, max_value=P - 1)) for _ in range(num_groups)]
    table = ref_mod.build_pow_table(bases, 1 << 40)
    want_pos, want_terms = ref_mod.stack_positions_terms(
        bucket_coeffs, table, indices, residues, buckets, groups
    )
    got_pos, got_terms = backend.stack_positions_terms(
        bucket_coeffs, table, indices, residues, buckets, groups
    )
    assert_same(want_pos, got_pos)
    assert_same(want_terms, got_terms)
    # The oracle itself: each incidence hashed and powered with its
    # own group's seeds.
    for t in range(n):
        g, x = int(groups[t]), int(indices[t])
        term = int(residues[t]) * pow(bases[g], x, P) % P
        assert int(want_terms[t]) == term
        for r in range(rows):
            coefficients = [int(c) for c in bucket_coeffs[g, r]]
            acc = 0
            for c in coefficients:
                acc = (acc * x + c) % P
            assert int(want_pos[r, t]) == acc % buckets


# -- negative deltas through the caller-facing coercion ----------------


@given(deltas=st.lists(st.integers(min_value=-(1 << 62), max_value=1 << 62), max_size=64))
@settings(max_examples=50, deadline=None)
def test_negative_deltas_coerce_identically(deltas):
    """Signed deltas enter the kernels via as_field_array; the limb
    backend must multiply the resulting residues like the reference."""
    residues = kernels.as_field_array(np.array(deltas + [-1, -(P - 1), -P], dtype=object))
    other = np.roll(residues, 1)
    want = ref_mod.mulmod61(residues, other)
    assert_same(want, limb_mod.mulmod61(residues, other))


@pytest.mark.parametrize("values", [
    [(1 << 86), -(1 << 86), (1 << 86) + 5, -(1 << 86) - 5],
    [-(1 << 63), (1 << 63) - 1, -1, 0, 1],
    [P - 1, P, P + 1, -(P - 1), -P, -(P + 1), 2 * P, -2 * P],
    [3, -3, 1 << 70, -(1 << 70), 7, -7],
    [],
])
def test_as_field_array_is_exact(values):
    """The object-array reduction is Python's non-negative ``%``: exact
    far past 64 bits, at ``int64`` min, around ``p``, on mixed signs,
    and on empty input, whether the deltas come as a list or an object
    array."""
    want = np.array([int(v) % P for v in values], dtype=np.uint64)
    assert_same(want, kernels.as_field_array(values))
    assert_same(want, kernels.as_field_array(np.array(values, dtype=object)))
    if all(-(1 << 63) <= v < (1 << 63) for v in values):
        assert_same(want, kernels.as_field_array(np.array(values, dtype=np.int64)))


# -- scratch-buffer independence ---------------------------------------


def test_limb_outputs_are_fresh_arrays():
    """Public limb kernels must never leak their scratch pool: two
    back-to-back calls return independent arrays."""
    a = as_u64([5, P - 1, 1 << 40])
    b = as_u64([7, P - 1, 3])
    first = limb_mod.mulmod61(a, b)
    snapshot = first.copy()
    limb_mod.mulmod61(b, a)
    assert_same(snapshot, first)


# -- selection / env semantics -----------------------------------------


@pytest.fixture
def restore_backend():
    previous = kernels.active_backend()
    yield
    kernels.select_backend(previous)


def test_auto_and_empty_select_limb(restore_backend):
    assert kernels.select_backend("auto") == "limb"
    assert kernels.select_backend(None) == "limb"
    assert kernels.select_backend("") == "limb"
    assert kernels.active_backend() == "limb"


def test_explicit_selection_and_unknown_name(restore_backend):
    assert kernels.select_backend("reference") == "reference"
    assert kernels.active_backend() == "reference"
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.select_backend("simd")
    # A failed selection leaves the previous backend active.
    assert kernels.active_backend() == "reference"


def test_dispatch_follows_selection(restore_backend):
    """Call sites that imported the dispatch functions before a swap
    must follow it — the wrappers delegate through the active table."""
    a, b = as_u64([3, P - 1]), as_u64([5, P - 1])
    kernels.select_backend("reference")
    want = kernels.mulmod61(a, b)
    kernels.select_backend("limb")
    assert_same(want, kernels.mulmod61(a, b))


def test_env_var_is_honored_in_a_fresh_process():
    code = (
        "from repro.sketch import kernels; print(kernels.active_backend())"
    )
    for env_value, expect in [("reference", "reference"), ("limb", "limb"), ("", "limb")]:
        env = dict(os.environ, REPRO_KERNEL=env_value)
        env["PYTHONPATH"] = "src"
        result = subprocess.run(
            ["python", "-c", code], capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expect


def test_native_is_an_unknown_backend(restore_backend):
    """Only the two numpy backends exist: ``native`` is rejected like
    any other unknown name, and the active backend stays in place."""
    assert kernels.select_backend("limb") == "limb"
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.select_backend("native")
    assert kernels.active_backend() == "limb"


def test_every_backend_module_serves_every_kernel(restore_backend):
    """The active backend is a module, so each must define every
    dispatched name (``limb`` re-exports what it does not override)."""
    for name, module in (("reference", ref_mod), ("limb", limb_mod)):
        assert kernels.select_backend(name) == name
        assert kernels.active_backend() == name
        for kernel in kernels.KERNEL_NAMES:
            assert callable(getattr(module, kernel)), (name, kernel)
