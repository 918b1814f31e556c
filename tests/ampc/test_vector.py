"""The vectorized splitmix64 kernels are bit-for-bit twins of the scalars.

:mod:`repro.ampc.vector` re-implements the hashing/rank kernels over
numpy uint64 arrays so the columnar data plane can place and rank whole
shards at a time.  Placement and priorities decide every simulated
metric, so each kernel must agree with its scalar reference exactly —
not approximately — on every input either side can see.
"""

import random

import numpy as np

from repro.ampc.hashing import _MASK, _splitmix64, stable_hash
from repro.ampc.vector import (hash_ranks, placement_ids, splitmix64_u64,
                               stable_hash_u64, vertex_ranks_u64)
from repro.core.ranks import hash_rank, vertex_ranks

SEED = 20260730


def _random_u64s(rng, count):
    boundary = [0, 1, _MASK - 1, _MASK, (1 << 63) - 1, 1 << 63]
    values = [rng.randrange(0, 1 << 64) for _ in range(count)]
    return boundary + values


class TestSplitmixKernels:
    def test_splitmix64_matches_scalar(self):
        rng = random.Random(SEED)
        keys = _random_u64s(rng, 2000)
        got = splitmix64_u64(np.array(keys, dtype=np.uint64))
        for key, value in zip(keys, got.tolist()):
            assert value == _splitmix64(key), key

    def test_stable_hash_matches_scalar(self):
        rng = random.Random(SEED + 1)
        keys = _random_u64s(rng, 2000)
        got = stable_hash_u64(np.array(keys, dtype=np.uint64))
        for key, value in zip(keys, got.tolist()):
            assert value == stable_hash(key), key

    def test_placement_matches_scalar_modulus(self):
        rng = random.Random(SEED + 2)
        keys = [rng.randrange(0, 1 << 32) for _ in range(1000)]
        for modulus in (1, 2, 3, 4, 7, 16, 61):
            got = placement_ids(np.array(keys, dtype=np.int64), modulus)
            for key, value in zip(keys, got.tolist()):
                assert value == stable_hash(key) % modulus, (key, modulus)


class TestRankKernels:
    def test_hash_ranks_single_item(self):
        rng = random.Random(SEED + 3)
        items = [rng.randrange(0, 1 << 40) for _ in range(1500)]
        for seed in (0, 3, 12345):
            got = hash_ranks(seed, np.array(items, dtype=np.uint64))
            for item, value in zip(items, got.tolist()):
                assert value == hash_rank(seed, item), (seed, item)

    def test_hash_ranks_item_pairs(self):
        rng = random.Random(SEED + 4)
        a = [rng.randrange(0, 1 << 32) for _ in range(1500)]
        b = [rng.randrange(0, 1 << 32) for _ in range(1500)]
        got = hash_ranks(7, np.array(a, dtype=np.uint64),
                         np.array(b, dtype=np.uint64))
        for x, y, value in zip(a, b, got.tolist()):
            assert value == hash_rank(7, x, y), (x, y)

    def test_vertex_ranks_match_scalar_list(self):
        for seed in (0, 1, 99):
            got = vertex_ranks_u64(257, seed)
            assert got.tolist() == vertex_ranks(257, seed)

    def test_ranks_land_in_unit_interval(self):
        got = vertex_ranks_u64(4096, 11)
        assert float(got.min()) >= 0.0
        assert float(got.max()) < 1.0
