"""Tests for k-wise independent hashing and nested samplers."""

import collections
import hashlib
import random

import pytest

from repro.sketch.hashing import MERSENNE_61, KWiseHash, NestedSampler, _field_element
from repro.util.rng import derive_seed, rng_from_seed


def _incremental_derive_seed(master, *parts):
    """The part-by-part SHA-256 feed ``derive_seed`` once ran."""
    hasher = hashlib.sha256()
    hasher.update(repr(master).encode("utf-8"))
    for part in parts:
        hasher.update(b"/")
        hasher.update(repr(part).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def _random_part(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-(2**70), 2**70)
    if kind == 1:
        return "".join(rng.choice("abc/-éx0 ") for _ in range(rng.randrange(8)))
    if kind == 2:
        return (rng.randrange(100), f"p{rng.randrange(9)}", (rng.random(),))
    return rng.uniform(-1e9, 1e9)


class _ScriptedRandom(random.Random):
    """A ``Random`` whose ``getrandbits`` replays a script (so
    ``randrange`` rejects through the same draws)."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def getrandbits(self, k):
        return self.script.pop(0)


class TestSeedDerivationBits:
    """``derive_seed`` hashes one joined message and ``KWiseHash`` draws
    with ``getrandbits``: both give the very bits of the incremental
    hasher and ``Random.randrange`` they replaced."""

    def test_derive_seed_matches_the_incremental_hasher(self):
        rng = random.Random("derive-seed-bits")
        for _ in range(1500):
            master = _random_part(rng) if rng.random() < 0.5 else rng.randrange(2**64)
            parts = tuple(_random_part(rng) for _ in range(rng.randrange(6)))
            assert derive_seed(master, *parts) == _incremental_derive_seed(master, *parts)

    def test_coefficients_match_randrange(self):
        seeds = list(range(1000)) + [f"s{i}" for i in range(100)] + [2**63 + 5, "x/y"]
        for seed in seeds:
            k = 1 + seed % 7 if isinstance(seed, int) else 4
            rng = rng_from_seed(seed, "kwise", k)
            expected = [rng.randrange(MERSENNE_61) for _ in range(k)]
            assert list(KWiseHash(k, seed).coefficients) == expected

    def test_draw_rejects_p_as_randrange_does(self):
        script = [MERSENNE_61, MERSENNE_61, 5, MERSENNE_61 - 1]
        ours, theirs = _ScriptedRandom(script), _ScriptedRandom(script)
        assert [_field_element(ours), _field_element(ours)] == [5, MERSENNE_61 - 1]
        assert [theirs.randrange(MERSENNE_61) for _ in range(2)] == [5, MERSENNE_61 - 1]


class TestKWiseHash:
    def test_deterministic_for_same_seed(self):
        first = KWiseHash(4, seed=42)
        second = KWiseHash(4, seed=42)
        assert [first(x) for x in range(100)] == [second(x) for x in range(100)]

    def test_different_seeds_differ(self):
        first = KWiseHash(4, seed=1)
        second = KWiseHash(4, seed=2)
        assert [first(x) for x in range(32)] != [second(x) for x in range(32)]

    def test_range(self):
        hasher = KWiseHash(6, seed=7)
        for x in range(1000):
            assert 0 <= hasher(x) < MERSENNE_61

    def test_unit_in_unit_interval(self):
        hasher = KWiseHash(4, seed=9)
        for x in range(1000):
            assert 0.0 <= hasher.unit(x) < 1.0

    def test_bucket_range_and_spread(self):
        hasher = KWiseHash(4, seed=3)
        counts = collections.Counter(hasher.bucket(x, 8) for x in range(8000))
        assert set(counts) <= set(range(8))
        # Roughly uniform: every bucket within 30% of the mean.
        for bucket in range(8):
            assert 0.7 * 1000 < counts[bucket] < 1.3 * 1000

    def test_included_marginal_rate(self):
        hasher = KWiseHash(8, seed=5)
        hits = sum(1 for x in range(20000) if hasher.included(x, 0.25))
        assert 0.22 * 20000 < hits < 0.28 * 20000

    def test_pairwise_independence_statistic(self):
        # For a pair (x, y), events {h(x) even} and {h(y) even} should be
        # nearly independent; measure the joint frequency.
        hasher = KWiseHash(4, seed=11)
        joint = sum(
            1 for x in range(0, 4000, 2) if hasher(x) % 2 == 0 and hasher(x + 1) % 2 == 0
        )
        assert 0.2 * 2000 < joint < 0.3 * 2000

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KWiseHash(0, seed=1)

    def test_invalid_bucket_count_rejected(self):
        hasher = KWiseHash(4, seed=1)
        with pytest.raises(ValueError):
            hasher.bucket(3, 0)

    def test_space_words(self):
        assert KWiseHash(4, seed=1).space_words() == 4
        assert KWiseHash(16, seed=1).space_words() == 16


class TestNestedSampler:
    def test_levels_are_nested(self):
        sampler = NestedSampler(max_level=10, seed=13)
        for x in range(500):
            deepest = sampler.level(x)
            for j in range(deepest + 1):
                assert sampler.contains(x, j)
            if deepest < sampler.max_level:
                assert not sampler.contains(x, deepest + 1)

    def test_level_zero_contains_everything(self):
        sampler = NestedSampler(max_level=6, seed=17)
        assert all(sampler.contains(x, 0) for x in range(200))

    def test_geometric_level_distribution(self):
        sampler = NestedSampler(max_level=20, seed=19)
        n = 40000
        at_least_one = sum(1 for x in range(n) if sampler.level(x) >= 1)
        at_least_two = sum(1 for x in range(n) if sampler.level(x) >= 2)
        assert 0.45 * n < at_least_one < 0.55 * n
        assert 0.2 * n < at_least_two < 0.3 * n

    def test_max_level_caps(self):
        sampler = NestedSampler(max_level=3, seed=23)
        assert all(sampler.level(x) <= 3 for x in range(2000))

    def test_negative_max_level_rejected(self):
        with pytest.raises(ValueError):
            NestedSampler(max_level=-1, seed=1)

    def test_deterministic(self):
        first = NestedSampler(max_level=8, seed=29)
        second = NestedSampler(max_level=8, seed=29)
        assert [first.level(x) for x in range(300)] == [second.level(x) for x in range(300)]
