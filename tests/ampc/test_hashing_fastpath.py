"""Property tests: the fast paths are value-identical to their references.

``stable_hash`` carries an inlined single-``splitmix64`` path for small
non-negative ints, and ``estimate_bytes`` dispatches on exact type with a
flat sequence walk; both keep their original implementations in-repo as
executable specifications (``stable_hash_reference``,
``estimate_bytes_reference``).  These tests drive randomized keys and
values of every supported shape through both and require exact agreement —
placement (and therefore every simulated metric) must not move by a single
bit when the fast paths change.
"""

import random

import pytest

from repro.ampc.cost_model import (_sequence_bytes, estimate_bytes,
                                   estimate_bytes_reference)
from repro.ampc.hashing import _MASK, stable_hash, stable_hash_reference

SEED = 20260729


def _random_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.randrange(0, 1 << 16)  # small vertex-id ints
    if kind == 1:
        return rng.randrange(0, 1 << 64)  # boundary-straddling ints
    if kind == 2:
        return -rng.randrange(0, 1 << 70)  # negative / multi-limb ints
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return rng.random() * rng.choice([1.0, 1e9, -1e9])
    if kind == 5:
        return float(rng.randrange(-1000, 1000))  # integral floats
    if kind == 6:
        return "".join(rng.choice("abcdeλµ☂") for _ in range(rng.randrange(6)))
    return None


def _random_value(rng: random.Random, depth: int = 0):
    if depth < 3 and rng.random() < 0.4:
        items = [_random_value(rng, depth + 1)
                 for _ in range(rng.randrange(4))]
        shape = rng.randrange(3)
        if shape == 0:
            return tuple(items)
        if shape == 1:
            return list(items)
        # dict values keep keys scalar (what algorithms actually store)
        return {_random_scalar(rng): item for item in items}
    return _random_scalar(rng)


def _random_key(rng: random.Random, depth: int = 0):
    # Keys must be hashable: scalars and (nested) tuples thereof.
    if depth < 3 and rng.random() < 0.35:
        return tuple(_random_key(rng, depth + 1)
                     for _ in range(rng.randrange(4)))
    scalar = _random_scalar(rng)
    return scalar if scalar is not None else 0


class TestStableHashFastPath:
    def test_randomized_keys_agree_with_reference(self):
        rng = random.Random(SEED)
        for _ in range(4000):
            key = _random_key(rng)
            assert stable_hash(key) == stable_hash_reference(key), key

    def test_fast_path_boundaries(self):
        for key in (0, 1, 2, _MASK - 1, _MASK, _MASK + 1, 1 << 100,
                    -1, -_MASK, True, False):
            assert stable_hash(key) == stable_hash_reference(key), key

    def test_numeric_cross_type_equality_preserved(self):
        # dict key identity: True == 1 == 1.0 must stay one placement.
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(0) == stable_hash(False) == stable_hash(0.0)

    def test_frozensets_and_bytes_agree(self):
        rng = random.Random(SEED + 1)
        for _ in range(500):
            ints = frozenset(rng.randrange(1 << 32)
                             for _ in range(rng.randrange(6)))
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
            for key in (ints, blob, (blob, ints)):
                assert stable_hash(key) == stable_hash_reference(key)


class TestEstimateBytesDispatch:
    def test_randomized_values_agree_with_reference(self):
        rng = random.Random(SEED + 2)
        for _ in range(4000):
            value = _random_value(rng)
            assert estimate_bytes(value) == estimate_bytes_reference(value), \
                value

    def test_common_simulator_shapes(self):
        adjacency = tuple(range(50))
        permuted = tuple((0.25 * i, i) for i in range(40))
        tagged = [(7, ("edge", (1.5, 0, 1, 2, 3))), ("root", 9)]
        for value in (adjacency, permuted, tagged, (), {}, set(), b"abc",
                      frozenset({1, 2})):
            assert estimate_bytes(value) == estimate_bytes_reference(value)

    def test_subclasses_fall_back_to_reference(self):
        class MyTuple(tuple):
            pass

        class MyInt(int):
            pass

        assert estimate_bytes(MyTuple((1, 2))) == \
            estimate_bytes_reference((1, 2))
        assert estimate_bytes(MyInt(7)) == 8

    def test_unsupported_types_still_raise(self):
        with pytest.raises(TypeError):
            estimate_bytes(object())
        with pytest.raises(TypeError):
            estimate_bytes_reference(object())


class TestSequenceBytesUnrolledLevel:
    """`_sequence_bytes` unrolls one nesting level inline; these shapes
    pin every branch of that unrolled walk (scalar / tuple / str / other
    at both depths) against the recursive reference."""

    NESTED_SHAPES = [
        (True, False, True),                       # bools: 1 byte, not 8
        (1, (True, 2.5), "λx"),                    # mixed at both levels
        ((True,), ("tag", (False, 3))),            # tuple-in-tuple recursion
        ["a", ("b", "cλ"), (1, ("deep", (2, "e")))],
        (None, (None, True), ()),                  # Nones inside sequences
        ((b"bytes", 1), ("s", b"")),               # bytes at inner level
        [(7, ("edge", (1.5, 0, 1, 2, 3))), (9, ("root", 4))],
        (frozenset({1, 2}), ({"k": True},)),       # non-tuple inner values
    ]

    def test_nested_shapes_agree_with_reference(self):
        for value in self.NESTED_SHAPES:
            assert _sequence_bytes(value) == \
                estimate_bytes_reference(value), value
            assert estimate_bytes(value) == \
                estimate_bytes_reference(value), value

    def test_randomized_bool_str_mixtures(self):
        rng = random.Random(SEED + 3)

        def scalar():
            return rng.choice(
                [True, False, "λ" * rng.randrange(3), 1, 2.5, None, b"xy"])

        for _ in range(2000):
            value = [
                scalar() if rng.random() < 0.5 else
                tuple(scalar() if rng.random() < 0.7
                      else (scalar(), scalar())
                      for _ in range(rng.randrange(3)))
                for _ in range(rng.randrange(5))
            ]
            assert _sequence_bytes(value) == \
                estimate_bytes_reference(value), value


class TestColumnarSizesMatchReference:
    """The vectorized per-record size expression of ColumnarRecords must
    equal what ``estimate_bytes_reference`` walks out of the boxed
    records — shard-byte accounting flows through both paths."""

    def test_ragged_pair_rows(self):
        from repro.ampc.columnar import ColumnarRecords

        rng = random.Random(SEED + 4)
        counts = [rng.randrange(5) for _ in range(40)]
        indptr = [0]
        for count in counts:
            indptr.append(indptr[-1] + count)
        total = indptr[-1]
        ranks = [rng.random() for _ in range(total)]
        neighbors = [rng.randrange(1 << 20) for _ in range(total)]
        records = ColumnarRecords.ragged(list(range(40)), indptr,
                                         ranks, neighbors)
        sizes = records.value_size_list()
        for (key, value), size in zip(records.items(), sizes):
            assert size == estimate_bytes_reference(value), (key, value)
            assert size == estimate_bytes(value)

    def test_ragged_scalar_rows_and_scalars(self):
        from repro.ampc.columnar import ColumnarRecords

        ragged = ColumnarRecords.ragged([3, 1, 2], [0, 2, 2, 5],
                                        [10, 11, 12, 13, 14])
        for (_, value), size in zip(ragged.items(),
                                    ragged.value_size_list()):
            assert size == estimate_bytes_reference(value)
        scalars = ColumnarRecords.scalars([5, 6], [7, 8])
        for (_, value), size in zip(scalars.items(),
                                    scalars.value_size_list()):
            assert size == estimate_bytes_reference(value)

    def test_element_bytes_match_boxed_elements(self):
        from repro.ampc.columnar import ColumnarRecords

        records = ColumnarRecords.ragged([0, 1], [0, 1, 3],
                                         [0.5, 0.25, 0.125], [4, 5, 6])
        boxed_total = sum(estimate_bytes_reference(element)
                          for element in records.items())
        assert records.total_element_bytes() == boxed_total
