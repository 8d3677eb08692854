"""Tests for the Carter-Wegman hash families."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    BucketHashFamily,
    HashConfig,
    MERSENNE_PRIME,
    PolynomialHash,
    SignHashFamily,
)
from repro.hashing.carter_wegman import mod_mersenne, polynomial_hashes
from repro.hashing.families import buckets_stacked


class TestModMersenne:
    def test_small_values_unchanged(self):
        for x in (0, 1, 17, MERSENNE_PRIME - 1):
            assert mod_mersenne(x) == x

    def test_prime_maps_to_zero(self):
        assert mod_mersenne(MERSENNE_PRIME) == 0
        assert mod_mersenne(2 * MERSENNE_PRIME) == 0

    @given(st.integers(min_value=0, max_value=MERSENNE_PRIME**2 * 4))
    def test_matches_builtin_mod(self, x):
        assert mod_mersenne(x) == x % MERSENNE_PRIME


class TestPolynomialHash:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            PolynomialHash(0, random.Random(1))

    def test_deterministic_given_rng_state(self):
        a = PolynomialHash(3, random.Random(5))
        b = PolynomialHash(3, random.Random(5))
        assert all(a(x) == b(x) for x in range(100))

    def test_values_in_field(self):
        h = PolynomialHash(4, random.Random(9))
        for x in range(0, 10_000, 37):
            assert 0 <= h(x) < MERSENNE_PRIME

    def test_leading_coefficient_nonzero(self):
        for seed in range(20):
            h = PolynomialHash(2, random.Random(seed))
            assert h.coefficients[-1] != 0

    def test_hash_array_matches_scalar(self):
        h = PolynomialHash(4, random.Random(3))
        xs = list(range(0, 5000, 113))
        arr = h.hash_array(xs)
        assert arr.dtype == np.uint64
        assert [int(v) for v in arr] == [h(x) for x in xs]

    def test_degree_one_is_constant(self):
        h = PolynomialHash(1, random.Random(2))
        assert h(0) == h(12345)

    def test_pairwise_collision_rate(self):
        """Pairwise independence: collision probability ~ 1/buckets."""
        buckets = 64
        hashes = polynomial_hashes(30, degree=2, seed=11)
        collisions = sum(
            1 for h in hashes for x in range(20) if
            h(x) % buckets == h(x + 1000) % buckets
        )
        trials = 30 * 20
        # Expected rate 1/64 ~ 1.6%; allow generous slack.
        assert collisions / trials < 0.08


class TestBucketHashFamily:
    def test_shape_and_range(self):
        family = BucketHashFamily(HashConfig(width=32, depth=4, seed=1))
        for item in range(200):
            cols = family.buckets(item)
            assert len(cols) == 4
            assert all(0 <= c < 32 for c in cols)

    def test_memoisation_returns_same_tuple(self):
        family = BucketHashFamily(HashConfig(width=32, depth=4, seed=1))
        assert family.buckets(7) is family.buckets(7)

    def test_same_config_same_function(self):
        config = HashConfig(width=64, depth=3, seed=9)
        a, b = BucketHashFamily(config), BucketHashFamily(config)
        assert all(a.buckets(x) == b.buckets(x) for x in range(100))

    def test_different_seeds_differ(self):
        a = BucketHashFamily(HashConfig(width=1024, depth=3, seed=1))
        b = BucketHashFamily(HashConfig(width=1024, depth=3, seed=2))
        assert any(a.buckets(x) != b.buckets(x) for x in range(50))

    def test_bucket_accessor(self):
        family = BucketHashFamily(HashConfig(width=32, depth=4, seed=1))
        assert family.bucket(2, 99) == family.buckets(99)[2]

    def test_spread_is_roughly_uniform(self):
        family = BucketHashFamily(HashConfig(width=16, depth=1, seed=4))
        counts = Counter(family.bucket(0, x) for x in range(4000))
        # Each of 16 buckets expects 250; chi-square-ish slack.
        assert max(counts.values()) < 400
        assert min(counts.values()) > 120

    @pytest.mark.parametrize("width,depth", [(0, 3), (4, 0), (-1, 2)])
    def test_invalid_config_rejected(self, width, depth):
        with pytest.raises(ValueError):
            HashConfig(width=width, depth=depth, seed=0)


class TestSignHashFamily:
    def test_values_are_signs(self):
        family = SignHashFamily(HashConfig(width=1, depth=5, seed=3))
        for item in range(200):
            assert all(s in (-1, 1) for s in family.signs(item))

    def test_signs_balanced(self):
        family = SignHashFamily(HashConfig(width=1, depth=1, seed=8))
        total = sum(family.sign(0, x) for x in range(4000))
        # Mean 0, sd ~ sqrt(4000) ~ 63; allow 5 sigma.
        assert abs(total) < 320

    def test_sign_accessor(self):
        family = SignHashFamily(HashConfig(width=1, depth=4, seed=3))
        assert family.sign(1, 42) == family.signs(42)[1]

    def test_fourwise_products_balanced(self):
        """4-wise independence: E[s(a)s(b)s(c)s(d)] = 0 for distinct keys."""
        family = SignHashFamily(HashConfig(width=1, depth=1, seed=6))
        rng = random.Random(0)
        total = 0
        trials = 2000
        for _ in range(trials):
            keys = rng.sample(range(100_000), 4)
            prod = 1
            for k in keys:
                prod *= family.sign(0, k)
            total += prod
        assert abs(total) < 5 * trials**0.5


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=0, max_value=1000),
)
def test_bucket_family_stable_across_calls(item, seed):
    family = BucketHashFamily(HashConfig(width=128, depth=3, seed=seed))
    assert family.buckets(item) == family.buckets(item)


item_columns = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**63 - 1),
        st.integers(min_value=MERSENNE_PRIME - 2, max_value=MERSENNE_PRIME + 2),
        st.sampled_from([0, 1, 2**61, 2**62, 2**63 - 1]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(item_columns, min_size=1, max_size=4).map(
        lambda cols: [col[: min(map(len, cols))] for col in cols]
    ),
    widths=st.lists(st.integers(min_value=1, max_value=5000), min_size=4, max_size=4),
    seed=st.integers(min_value=0, max_value=1000),
    depth=st.integers(min_value=1, max_value=5),
)
def test_stacked_evaluation_equals_the_scalar_rows(columns, widths, seed, depth):
    """One broadcast over every family and row equals each row's scalar
    Horner evaluation, for items across [0, 2^63) including the field
    modulus and past it."""
    families = [
        BucketHashFamily(HashConfig(width=width, depth=depth, seed=seed + i))
        for i, width in enumerate(widths[: len(columns)])
    ]
    arrays = [np.array(col, dtype=np.int64) for col in columns]
    stacked = buckets_stacked(families, arrays)
    assert stacked.shape == (len(families), depth, len(columns[0]))
    for family, col, got in zip(families, columns, stacked):
        assert got.tolist() == family.buckets_many(np.array(col)).tolist()
        for row, h in enumerate(family._hashes):
            assert got[row].tolist() == [h(x) % family.width for x in col]
            assert h.eval_many(np.array(col, dtype=np.int64)).tolist() == [
                h(x) for x in col
            ]
    signs = SignHashFamily(HashConfig(width=1, depth=depth, seed=seed))
    got = signs.signs_many(arrays[0])
    assert [tuple(got[:, i].tolist()) for i in range(len(columns[0]))] == [
        signs.signs(x) for x in columns[0]
    ]


def test_eval_many_reduces_python_ints_past_64_bits():
    h = PolynomialHash(3, random.Random(4))
    xs = [0, 2**64, 2**70 + 5, MERSENNE_PRIME * 3]
    assert h.eval_many(np.array(xs, dtype=object)).tolist() == [h(x) for x in xs]
    with pytest.raises(ValueError, match="non-negative"):
        h.eval_many(np.array([2**64, -1], dtype=object))
