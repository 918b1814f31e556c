"""Property and fuzz tests of the record and key codec.

Decoding must hand back exactly the types that were written (an int
stays an int, a bool a bool, ``-0.0`` keeps its sign, ``nan`` its bits,
ints beyond int64 survive), the columnar writer must produce the very
bytes the boxed one does, keys must encode deterministically and
injectively, and anything that is not a whole record or key must raise
``ValueError`` — never ``struct.error`` or ``IndexError``.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ampc.columnar import ColumnarRecords
from repro.distdht.backing import (
    TOMBSTONE,
    decode_key,
    decode_record,
    encode_columnar,
    encode_int_keys,
    encode_key,
    encode_record,
)

INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(INT64, FLOATS)

#: the fixed-width forms: scalars, flat tuples, tuples of typed rows
FIXED = st.one_of(
    SCALARS,
    st.lists(INT64, max_size=12).map(tuple),
    st.lists(FLOATS, max_size=12).map(tuple),
    st.tuples(st.sampled_from([int, float]), st.sampled_from([int, float]))
    .flatmap(lambda kinds: st.lists(
        st.tuples(*(INT64 if kind is int else FLOATS for kind in kinds)),
        max_size=8).map(tuple)),
)

HASHABLE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(),
              st.binary()),
    lambda inner: st.one_of(st.lists(inner, max_size=4).map(tuple),
                            st.frozensets(inner, max_size=4)),
    max_leaves=12)

#: everything else the codec covers: big ints, bools, strings, nested
#: and mixed containers
GENERAL = st.recursive(
    st.one_of(HASHABLE, st.integers(min_value=1 << 63),
              st.integers(max_value=-(1 << 63) - 1)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(HASHABLE, inner, max_size=3),
        st.sets(HASHABLE, max_size=3)),
    max_leaves=16)


def same(a, b) -> bool:
    """Type-exact equality; floats compare bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) in (tuple, list):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return (list(map(encode_key, a)) == list(map(encode_key, b))
                and all(map(same, a.values(), b.values())))
    if type(a) in (set, frozenset):
        return sorted(map(encode_key, a)) == sorted(map(encode_key, b))
    return a == b


@settings(max_examples=80, deadline=None)
@given(value=st.one_of(FIXED, GENERAL), size=st.integers(0, 1 << 40))
def test_record_round_trip_is_type_exact(value, size):
    record = encode_record(value, size)
    assert len(record) % 8 == 0
    decoded, recorded = decode_record(record)
    assert recorded == size
    assert same(decoded, value)


@pytest.mark.parametrize("value", [
    -0.0, math.nan, True, False, None, (), [], {}, "", b"", 1 << 64,
    -(1 << 70), (1, 2.0), (True, 1), ((1, 2), (3,)), [[1, (2, "x")]],
    {"k": (2, 3), 4: [None]}, frozenset({1, "a"}), {b"x", 2.5},
    ((0.5, 1), (-0.0, 2)), (1, 1 << 63), "\udcff",
])
def test_edge_values_round_trip(value):
    decoded, _ = decode_record(encode_record(value, 8))
    assert same(decoded, value)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), fields=st.integers(1, 2), ragged=st.booleans(),
       count=st.integers(0, 6))
def test_columnar_encoding_is_byte_identical_to_boxed(data, fields, ragged,
                                                      count):
    dtypes = [data.draw(st.sampled_from([np.int64, np.int32, np.float64,
                                         np.float32]))
              for _ in range(fields)]
    keys = np.arange(count, dtype=np.int64)
    if ragged:
        rows = data.draw(st.lists(st.integers(0, 4), min_size=count,
                                  max_size=count))
        indptr = np.concatenate(([0], np.cumsum(rows, dtype=np.int64)))
        total = int(indptr[-1])
    else:
        if fields != 1:
            return  # multi-column scalars are written boxed
        indptr = None
        total = count
    cols = []
    for dtype in dtypes:
        values = np.array(data.draw(st.lists(
            st.integers(-1000, 1000), min_size=total, max_size=total)),
            dtype=np.int64)
        if np.dtype(dtype).kind == "f":
            values = values / 2
        cols.append(values.astype(dtype))
    records = ColumnarRecords(keys, indptr, cols)
    encoded = encode_columnar(records)
    assert encoded == [encode_record(value, size) for (_, value), size in
                       zip(records.items(), records.value_size_list())]
    assert encode_int_keys(b"ns|", keys) == [
        b"ns|" + encode_key(key) for key in keys.tolist()]


def test_columnar_encoding_declines_bool_and_uint64_columns():
    keys = np.arange(2, dtype=np.int64)
    for col in (np.array([True, False]), np.array([1, 2], dtype=np.uint64)):
        assert encode_columnar(ColumnarRecords.scalars(keys, col)) is None


def test_keys_are_deterministic_and_injective():
    keys = [1, "1", 1.0, True, (1,), b"1", None, 0, False, frozenset({1}),
            1 << 64, (1, "1"), ("1", 1)]
    encoded = [encode_key(key) for key in keys]
    assert encoded == [encode_key(key) for key in keys]
    assert len(set(encoded)) == len(keys)
    for key, data in zip(keys, encoded):
        assert same(decode_key(data), key)
    # a set encodes the same whatever order it was built in
    assert encode_key(frozenset(["b", "a", 3])) == encode_key(
        frozenset([3, "a", "b"]))


@settings(max_examples=40, deadline=None)
@given(key=HASHABLE)
def test_key_round_trip_and_truncations(key):
    data = encode_key(key)
    assert same(decode_key(data), key)
    for end in range(len(data)):
        with pytest.raises(ValueError):
            decode_key(data[:end])


@settings(max_examples=40, deadline=None)
@given(value=st.one_of(FIXED, GENERAL))
def test_truncated_records_raise_value_error(value):
    record = encode_record(value, 24)
    for end in range(len(record)):
        if record[:end] == TOMBSTONE:
            continue
        with pytest.raises(ValueError):
            decode_record(record[:end])


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=64))
def test_garbage_raises_value_error_only(data):
    for decode in (decode_record, decode_key):
        try:
            decode(data)
        except ValueError:
            pass
