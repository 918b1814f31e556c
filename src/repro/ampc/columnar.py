"""The batch-oriented DHT record layout: contiguous columns, boxed late.

A :class:`ColumnarRecords` is a batch of ``(key, value)`` records whose
keys and payload scalars live in flat columns instead of one boxed tuple
per record.  The layout covers the record shapes the AMPC algorithms
store — per-vertex sequences of scalars (MIS directed neighbors), of
fixed-arity rows (matching's ``(rank, neighbor)`` pairs, MSF's
``(neighbor, weight)`` pairs), and plain scalar values (MSF pointers):

* ``keys``    — int64 column, one non-negative vertex-id key per record;
* ``indptr``  — int64 row offsets (``None`` for scalar values);
* ``cols``    — one flat column per field of a payload row.

Because every scalar the algorithms store is an 8-byte int or float, the
serialized size of record ``i`` is ``8 * fields * rows_i`` — computed for
the whole batch by one vectorized expression that
``tests/ampc/test_hashing_fastpath.py`` pins against
:func:`~repro.ampc.cost_model.estimate_bytes_reference` exactly.  Shard
and machine placement hash the key column through the vectorized
splitmix64 kernel (:mod:`repro.ampc.vector`), again batch-at-a-time.

Boxing (``items()``) happens once, lazily, when a store or a PCollection
needs the actual Python objects; the boxed form is cached so the store
write and the returned records share one materialization.

The columns are numpy arrays; this is the only record layout the prepare
stages produce.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ampc.vector import placement_ids

__all__ = ["ColumnarRecords", "ValueBlock", "unbox_rows"]


class ColumnarRecords:
    """A batch of ``(key, value)`` DHT records as contiguous columns."""

    __slots__ = ("keys", "indptr", "cols", "_items", "_sizes")

    def __init__(self, keys, indptr, cols):
        self.keys = np.asarray(keys, dtype=np.int64)
        self.indptr = (None if indptr is None
                       else np.asarray(indptr, dtype=np.int64))
        if not cols:
            raise ValueError("need at least one payload column")
        self.cols = tuple(np.asarray(col) for col in cols)
        if self.indptr is not None and len(self.indptr) != len(self.keys) + 1:
            raise ValueError("indptr must have one offset per record + 1")
        self._items: Optional[List[Tuple]] = None
        self._sizes: Optional[List[int]] = None

    # -- construction conveniences ----------------------------------------

    @classmethod
    def scalars(cls, keys, values) -> "ColumnarRecords":
        """One scalar value per key (e.g. a pointer store)."""
        return cls(keys, None, (values,))

    @classmethod
    def ragged(cls, keys, indptr, *cols) -> "ColumnarRecords":
        """Tuple values: record i is ``tuple(rows[indptr[i]:indptr[i+1]])``
        where a row is a scalar (one column) or a k-tuple (k columns)."""
        return cls(keys, indptr, cols)

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def row_counts(self):
        if self.indptr is None:
            return np.ones(len(self.keys), dtype=np.int64)
        return np.diff(self.indptr)

    # -- vectorized size accounting ---------------------------------------

    def value_sizes(self):
        """Serialized value bytes per record, as an int64 array.

        Every payload scalar is an 8-byte int or float, so record i costs
        ``8 * len(cols) * rows_i`` — exactly what ``estimate_bytes`` walks
        out of the boxed value.
        """
        if self.indptr is None:
            return np.full(len(self.keys), 8 * len(self.cols),
                           dtype=np.int64)
        return 8 * len(self.cols) * np.diff(self.indptr)

    def total_value_bytes(self) -> int:
        return int(self.value_sizes().sum())

    def element_bytes(self):
        """Bytes of each boxed ``(key, value)`` element (int key: 8)."""
        return self.value_sizes() + 8

    def total_element_bytes(self) -> int:
        """What ``PCollection._total_bytes`` charges for these elements."""
        return int(self.element_bytes().sum())

    # -- vectorized placement ---------------------------------------------

    def shard_ids(self, num_shards: int):
        return placement_ids(self.keys, num_shards)

    def machine_ids(self, num_machines: int):
        return placement_ids(self.keys, num_machines)

    # -- boxing (lazy, cached) --------------------------------------------

    def value_size_list(self) -> List[int]:
        """:meth:`value_sizes` as plain Python ints (store size memos)."""
        if self._sizes is None:
            self._sizes = self.value_sizes().tolist()
        return self._sizes

    def items(self) -> List[Tuple]:
        """The boxed ``(key, value)`` records, materialized once.

        Scalars come out as plain Python ints/floats (``tolist``), values
        as tuples of scalars or of row tuples — the exact objects the
        per-element reference path would have built.
        """
        if self._items is None:
            keys = self.keys.tolist()
            if self.indptr is None:
                values = self.cols[0].tolist()
                if len(self.cols) != 1:
                    rows = list(zip(*(col.tolist() for col in self.cols)))
                    values = rows
            else:
                offsets = self.indptr.tolist()
                if len(self.cols) == 1:
                    flat = self.cols[0].tolist()
                else:
                    flat = list(zip(*(col.tolist() for col in self.cols)))
                values = [tuple(flat[start:stop])
                          for start, stop in zip(offsets, offsets[1:])]
            self._items = list(zip(keys, values))
        return self._items


def unbox_rows(values: Sequence, dtypes: Optional[Sequence] = None):
    """Boxed ragged store values back into flat columns.

    The inverse of :meth:`ColumnarRecords.items` for a batch of looked-up
    values: each value is a tuple of rows, or ``None`` for a missing key
    (no rows).  Rows are int scalars by default; with ``dtypes`` they are
    ``len(dtypes)``-tuples, one dtype per field.  Returns ``(row counts,
    columns)``: an int64 count per value and one flat column per field.
    """
    if None in values:
        values = [value or () for value in values]
    counts = np.fromiter(map(len, values), dtype=np.int64,
                         count=len(values))
    if dtypes is None:
        return counts, (np.fromiter(chain.from_iterable(values),
                                    dtype=np.int64,
                                    count=int(counts.sum())),)
    rows = list(chain.from_iterable(values))
    return counts, tuple(
        np.fromiter(map(itemgetter(field), rows), dtype=dtype,
                    count=len(rows))
        for field, dtype in enumerate(dtypes))


class ValueBlock:
    """The answer to one batched read, boxed values in key order.

    What :meth:`~repro.ampc.dht.DHTStore.lookup_block` returns on a store
    holding Python objects: ``values()`` is the ``lookup_many`` list
    (None for misses), and the column views unbox it.  A backed store
    returns a subclass that answers the column views straight from its
    fixed-width records instead.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Sequence):
        self._values = values

    def values(self) -> Sequence:
        return self._values

    def columns(self, dtypes: Optional[Sequence] = None):
        """``(row counts, columns)`` — exactly :func:`unbox_rows` of
        :meth:`values`."""
        return unbox_rows(self.values(), dtypes)

    def scalars(self, dtype=np.int64, missing=-1):
        """One scalar value per key as a column, ``missing`` for misses."""
        values = self.values()
        return np.fromiter(
            (missing if value is None else value for value in values),
            dtype=dtype, count=len(values))
