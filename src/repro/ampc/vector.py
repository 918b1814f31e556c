"""Vectorized twins of the scalar hashing/rank kernels (numpy).

The columnar data plane moves whole shards at a time, so placement and
priority hashing must run over arrays rather than one key per call.
This module holds the numpy ports of the splitmix64 kernels from
:mod:`repro.ampc.hashing` and :mod:`repro.core.ranks`; each one is an
*exact* bit-for-bit twin of its scalar reference (uint64 arithmetic wraps
mod 2**64 exactly like the ``& _MASK`` chain, and the uint64→float64
conversion rounds to nearest even, same as Python's ``int * float``) —
``tests/ampc/test_vector.py`` asserts equality on randomized inputs.

numpy is a hard requirement of the package: the prepare stages, the
batch record layout and the frontier sweeps have no other form.  The
scalar kernels stay as the specifications these twins are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.ampc.hashing import _MASK, _SEED, _splitmix64

__all__ = [
    "splitmix64_u64",
    "stable_hash_u64",
    "placement_ids",
    "hash_ranks",
    "vertex_ranks_u64",
]

#: scales a uint64 hash into [0, 1); a power of two, so the scaling is exact
_INV_2_64 = 1.0 / float(1 << 64)

_U64 = np.uint64
_C_GAMMA = _U64(0x9E3779B97F4A7C15)
_C_MIX1 = _U64(0xBF58476D1CE4E5B9)
_C_MIX2 = _U64(0x94D049BB133111EB)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)
_SEED_U64 = _U64(_SEED)


def splitmix64_u64(x):
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = x + _C_GAMMA
    x = (x ^ (x >> _S30)) * _C_MIX1
    x = (x ^ (x >> _S27)) * _C_MIX2
    return x ^ (x >> _S31)


def stable_hash_u64(keys):
    """``stable_hash`` of non-negative int keys, as a uint64 array.

    Matches the inlined small-int fast path (and therefore
    ``_fold(_SEED, key)``) exactly for ``0 <= key <= 2**64 - 1``.
    """
    keys = np.asarray(keys).astype(np.uint64, copy=False)
    return splitmix64_u64(_SEED_U64 ^ keys)


def placement_ids(keys, modulus):
    """``stable_hash(key) % modulus`` for an array of vertex-id keys.

    The shard/machine placement rule of ``DHTStore.shard_of`` and
    ``Cluster.machine_for``, over a whole column of keys at once.
    """
    return (stable_hash_u64(keys) % _U64(modulus)).astype(np.int64)


def hash_ranks(seed, *item_arrays):
    """``hash_rank(seed, *items)`` over parallel item arrays.

    ``hash_ranks(seed, a, b)[i] == hash_rank(seed, a[i], b[i])``
    bit-for-bit; items must be non-negative ints.
    """
    state = _U64(_splitmix64(seed & _MASK))
    acc = None
    for items in item_arrays:
        items = np.asarray(items).astype(np.uint64, copy=False)
        acc = splitmix64_u64((state if acc is None else acc) ^ items)
    return acc * _INV_2_64


def vertex_ranks_u64(num_vertices, seed):
    """``vertex_ranks(num_vertices, seed)`` as a float64 array."""
    return hash_ranks(seed, np.arange(num_vertices, dtype=np.uint64))
