"""Distributed hash tables: the defining primitive of the AMPC model.

The model (Section 2) provides a sequence of hash tables D0, D1, ...; in
round i machines read D_{i-1} and write D_i.  :class:`DHTService` owns the
tables and enforces that lifecycle: a store accepts writes until it is
*sealed*, after which it is read-only (the AMPC read/write separation), and
a store can be configured to reject reads until sealed (strict mode).

Each store is sharded across the cluster's machines by key hash;
per-shard read counts are tracked so that contention (the hot-key concern
of Section 2, "Caching and Query Contention") is observable in tests and
benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.ampc.columnar import ValueBlock
from repro.ampc.cost_model import estimate_bytes
from repro.ampc.hashing import _MASK, _SEED, stable_hash
from repro.ampc.vector import placement_ids

#: below this many keys a batched read routes key by key (the vectorised
#: pass has a fixed cost of a few array round trips)
_VECTOR_ROUTING_MIN_KEYS = 32


class StoreSealedError(RuntimeError):
    """Raised on writes to a sealed store (or strict reads of an open one)."""


def next_delta_name(name: str) -> str:
    """The canonical name for the next derivation generation of ``name``.

    ``ranks`` -> ``ranks+delta`` -> ``ranks+delta2`` -> ``ranks+delta3``:
    every generation in a derivation chain gets a *distinct* name.  The
    old scheme collapsed every generation onto ``base+delta``, so a
    grandchild collided with its own parent whenever the two met in the
    same registry (or the same cache-key space) — ``_unique_store_name``
    suffixing could not save the cases where the parent was registered
    after the child name was chosen.
    """
    base, sep, tail = name.partition("+delta")
    if sep and (not tail or tail.isdigit()):
        generation = int(tail) if tail else 1
        return f"{base}+delta{generation + 1}"
    # no tag, or "+delta<non-digits>" (part of the base name, not a tag)
    return f"{name}+delta"


class DHTStore:
    """One distributed hash table D_i, sharded over the cluster machines."""

    def __init__(self, name: str, num_shards: int, *, strict_rounds: bool = False):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.name = name
        self.num_shards = num_shards
        self.sealed = False
        self._strict_rounds = strict_rounds
        #: key -> shard memo: shard placement is a pure hash, and query
        #: processes revisit hot keys many times per stage — one dict get
        #: beats re-running splitmix64 on every touch
        self._shard_memo: Dict[Any, int] = {}
        self._shards: List[Dict[Any, Any]] = [dict() for _ in range(num_shards)]
        #: serialized size of each live entry, recorded at write time so
        #: reads never re-walk values (and overwrites can refund exactly)
        self._sizes: List[Dict[Any, int]] = [dict() for _ in range(num_shards)]
        #: reads served per shard (contention accounting)
        self.shard_reads: List[int] = [0] * num_shards
        self.total_entries = 0
        self.total_value_bytes = 0

    def shard_of(self, key: Any) -> int:
        # Stable across interpreter runs: placement (and therefore shard
        # contention metrics) must not depend on PYTHONHASHSEED.  The
        # vertex-id case inlines stable_hash's single-splitmix64 fast
        # path — this runs once per simulated KV operation.
        shard = self._shard_memo.get(key)
        if shard is not None:
            return shard
        if type(key) is int and 0 <= key <= _MASK:
            x = ((_SEED ^ key) + 0x9E3779B97F4A7C15) & _MASK
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            shard = (x ^ (x >> 31)) % self.num_shards
        else:
            shard = stable_hash(key) % self.num_shards
        self._shard_memo[key] = shard
        return shard

    # -- writes --------------------------------------------------------

    def write(self, key: Any, value: Any) -> int:
        """Store a key-value pair; returns the serialized value size.

        Duplicate keys overwrite, matching the put semantics of the
        key-value stores the paper builds on; the replaced entry's
        recorded size is refunded, so ``total_value_bytes`` always equals
        the live entries' sizes.
        """
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_index = self.shard_of(key)
        sizes = self._sizes[shard_index]
        value_bytes = estimate_bytes(value)
        replaced = sizes.get(key)
        if replaced is None:
            self.total_entries += 1
            self.total_value_bytes += value_bytes
        else:
            self.total_value_bytes += value_bytes - replaced
        self._shards[shard_index][key] = value
        sizes[key] = value_bytes
        return value_bytes

    def write_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        """Bulk :meth:`write`: one pass, aggregate accounting.

        Returns the total serialized size of the written values — exactly
        ``sum(write(k, v) for k, v in items)``, computed without the
        per-item method dispatch.
        """
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_of = self.shard_of
        shards = self._shards
        size_shards = self._sizes
        total = 0
        entries_added = 0
        bytes_delta = 0
        try:
            for key, value in items:
                # Size first: an inestimable value raises before this
                # item mutates anything, and the finally block commits
                # the completed items' accounting — exactly the state a
                # write() sequence failing on the same item leaves.
                value_bytes = estimate_bytes(value)
                shard_index = shard_of(key)
                sizes = size_shards[shard_index]
                replaced = sizes.get(key)
                if replaced is None:
                    entries_added += 1
                    bytes_delta += value_bytes
                else:
                    bytes_delta += value_bytes - replaced
                shards[shard_index][key] = value
                sizes[key] = value_bytes
                total += value_bytes
        finally:
            self.total_entries += entries_added
            self.total_value_bytes += bytes_delta
        return total

    def write_columnar(self, records) -> int:
        """Batch write of a :class:`~repro.ampc.columnar.ColumnarRecords`.

        Accounting-identical to ``write_many(records.items())`` — same
        shard placement, same write-time size memo, same totals, same
        per-shard insertion order — but the sizes and shard ids arrive as
        precomputed columns (one vectorized pass each), so only the dict
        inserts remain per-record.  Derived overlays fall back to their
        own ``write_many``; backed stores override this.
        """
        if type(self) is not DHTStore:
            return self.write_many(records.items())
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_list = records.shard_ids(self.num_shards).tolist()
        size_list = records.value_size_list()
        # seed the placement memo in bulk: readers of these keys skip the
        # splitmix fallback entirely
        self._shard_memo.update(zip(records.keys.tolist(), shard_list))
        shards = self._shards
        size_shards = self._sizes
        total = 0
        entries_added = 0
        bytes_delta = 0
        for (key, value), value_bytes, shard_index in zip(
                records.items(), size_list, shard_list):
            sizes = size_shards[shard_index]
            replaced = sizes.get(key)
            if replaced is None:
                entries_added += 1
                bytes_delta += value_bytes
            else:
                bytes_delta += value_bytes - replaced
            shards[shard_index][key] = value
            sizes[key] = value_bytes
            total += value_bytes
        self.total_entries += entries_added
        self.total_value_bytes += bytes_delta
        return total

    #: backwards-compatible alias for :meth:`write_many`
    write_all = write_many

    def seal(self) -> None:
        """Freeze the store: subsequent writes raise."""
        self.sealed = True

    # -- reads ---------------------------------------------------------

    def _check_readable(self) -> None:
        if self._strict_rounds and not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} is still being written this round"
            )

    def lookup(self, key: Any) -> Any:
        """Read one key; returns None for missing keys (get semantics)."""
        if self._strict_rounds and not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} is still being written this round"
            )
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        return self._shards[shard_index].get(key)

    def lookup_with_size(self, key: Any) -> Tuple[Any, int]:
        """:meth:`lookup` plus the entry's recorded serialized size.

        The size was computed by :func:`estimate_bytes` at write time, so
        callers charging read bytes need not re-walk the value; missing
        keys report ``(None, 0)`` (what ``estimate_bytes(None)`` charges).
        """
        if self._strict_rounds and not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} is still being written this round"
            )
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        size = self._sizes[shard_index].get(key)
        if size is None:
            return None, 0
        return self._shards[shard_index][key], size

    def lookup_many(self, keys: Iterable[Any]) -> Tuple[List[Any], int]:
        """Bulk read: shard routing and read accounting in one pass.

        Returns the values in key order (None for misses) plus the total
        recorded size of the hit values — the aggregate a
        :class:`~repro.dataflow.dofn.MachineContext` charges as read
        bytes.  Per-shard read counts advance exactly as the equivalent
        :meth:`lookup` sequence would.
        """
        if self._strict_rounds and not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} is still being written this round"
            )
        shards = self._shards
        size_shards = self._sizes
        values: List[Any] = []
        append = values.append
        total = 0
        routed = (self._route_batch(keys)
                  if type(keys) is list
                  and len(keys) >= _VECTOR_ROUTING_MIN_KEYS else None)
        if routed is None:
            shard_of = self.shard_of
            shard_reads = self.shard_reads
            for key in keys:
                shard_index = shard_of(key)
                shard_reads[shard_index] += 1
                size = size_shards[shard_index].get(key)
                if size is None:
                    append(None)
                else:
                    append(shards[shard_index][key])
                    total += size
        else:
            for key, shard_index in zip(keys, routed):
                size = size_shards[shard_index].get(key)
                if size is None:
                    append(None)
                else:
                    append(shards[shard_index][key])
                    total += size
        return values, total

    def lookup_block(self, keys: List[Any]) -> Tuple[ValueBlock, int]:
        """:meth:`lookup_many` as a block the sweeps read columns from.

        Same reads, same ``shard_reads``, same byte total; the block's
        ``values()`` is the ``lookup_many`` list and ``columns(dtypes)``
        its :func:`~repro.ampc.columnar.unbox_rows`.  Backed stores
        override this to answer from their records without boxing.
        """
        values, total = self.lookup_many(keys)
        return ValueBlock(values), total

    def _route_batch(self, keys: List[Any]) -> Optional[List[int]]:
        """Shard of each key of a large batch, reads counted — or None.

        A batch of vertex-id keys (what a frontier sweep reads) is routed
        by one vectorised placement hash and one histogram instead of a
        memo probe and a counter bump per key: same shards, same
        ``shard_reads``.  Anything else is left to the caller's per-key
        loop (None).
        """
        if not set(map(type, keys)) <= {int}:
            return None
        try:
            column = np.asarray(keys, dtype=np.int64)
        except OverflowError:  # beyond int64: the scalar hash copes
            return None
        if column.min() < 0:
            return None
        shard_ids = placement_ids(column, self.num_shards)
        shard_reads = self.shard_reads
        for shard_index, reads in enumerate(np.bincount(
                shard_ids, minlength=self.num_shards).tolist()):
            shard_reads[shard_index] += reads
        return shard_ids.tolist()

    def contains(self, key: Any) -> bool:
        """Membership probe; charged and round-checked like :meth:`lookup`."""
        if self._strict_rounds and not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} is still being written this round"
            )
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        return key in self._shards[shard_index]

    # -- derivation ------------------------------------------------------

    def _entry(self, key: Any, shard_index: int) -> Optional[Tuple[Any, int]]:
        """The live ``(value, recorded size)`` under ``key``, or None.

        Internal, uncharged: derived children resolve fall-through reads
        with it, so reading through a child never perturbs this store's
        ``shard_reads`` contention metrics.
        """
        size = self._sizes[shard_index].get(key)
        if size is None:
            return None
        return self._shards[shard_index][key], size

    def _entry_size(self, key: Any, shard_index: int) -> Optional[int]:
        """The recorded size of the live entry under ``key``, or None —
        :meth:`_entry` without touching the value."""
        return self._sizes[shard_index].get(key)

    def derive(self, name: Optional[str] = None) -> "DerivedDHTStore":
        """Unseal this sealed store into a copy-on-write child.

        The child reads fall through to this store; its writes and deletes
        land in a private overlay, so patching a DHT-resident artifact can
        never mutate an entry another cached artifact still serves.  Byte
        and entry accounting on the child stays exact — overlay deltas are
        applied to this store's write-time memoized sizes.  Only sealed
        (immutable) stores can be derived, and deriving a child is itself
        derivable, so repeated patch generations chain — each generation
        under a distinct default name (see :func:`next_delta_name`).
        """
        if not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} must be sealed before it can be "
                "derived (an unsealed parent could drift under the child)"
            )
        return self._derived_class(name or next_delta_name(self.name), self)

    def folded(self, name: Optional[str] = None) -> "DHTStore":
        """Flatten the logical view into a fresh, flat, sealed store.

        The result has no parent chain: identical logical content,
        identical recorded entry sizes (the write-time memoized sizes are
        copied, not re-estimated), fresh ``shard_reads``.  The Session
        cache uses this to fold old derivation generations once a lineage
        outgrows its max-generations knob, releasing the parent stores.
        """
        flat = self._spawn_sibling(name or self.name)
        shard_of = self.shard_of
        entry_of = self._entry
        for key in self.keys():
            value, size = entry_of(key, shard_of(key))
            flat._install(key, value, size)
        flat.seal()
        return flat

    def _spawn_sibling(self, name: str) -> "DHTStore":
        """An empty unsealed store with this store's shape and storage."""
        return DHTStore(name, self.num_shards,
                        strict_rounds=self._strict_rounds)

    def _install(self, key: Any, value: Any, size: int) -> None:
        """Raw insert with a pre-recorded size (folding only; uncharged)."""
        shard_index = self.shard_of(key)
        self._shards[shard_index][key] = value
        self._sizes[shard_index][key] = size
        self.total_entries += 1
        self.total_value_bytes += size

    def cache_resident_bytes(self) -> int:
        """What this store costs the local process (Session cache sizing)."""
        return self.total_value_bytes + 8 * self.total_entries

    # -- introspection (driver-side; free of charge) ---------------------

    def keys(self) -> List[Any]:
        result = []
        for shard in self._shards:
            result.extend(shard.keys())
        return result

    def max_shard_load(self) -> int:
        return max(self.shard_reads)

    def __len__(self) -> int:
        return self.total_entries

    def __repr__(self) -> str:
        return (
            f"DHTStore({self.name!r}, entries={self.total_entries}, "
            f"sealed={self.sealed})"
        )


class DerivedDHTStore(DHTStore):
    """A copy-on-write overlay over a sealed parent store.

    Reads resolve overlay-first (tombstones, then overlay entries, then
    the parent chain); writes and deletes touch only the overlay.  The
    aggregate counters (``total_entries`` / ``total_value_bytes``) always
    describe the *logical* store — parent plus overlay — using the
    write-time memoized sizes, so they equal what a from-scratch store
    with the same final content would report.  ``shard_reads`` counts this
    store's own reads only; the parent's metrics never move.
    """

    def __init__(self, name: str, parent: DHTStore):
        super().__init__(name, parent.num_shards,
                         strict_rounds=parent._strict_rounds)
        self.parent = parent
        self.total_entries = parent.total_entries
        self.total_value_bytes = parent.total_value_bytes
        #: keys shadow-deleted from the parent view
        self._deleted: List[set] = [set() for _ in range(self.num_shards)]

    # -- resolution ------------------------------------------------------

    def _entry(self, key: Any, shard_index: int) -> Optional[Tuple[Any, int]]:
        if key in self._deleted[shard_index]:
            return None
        size = self._sizes[shard_index].get(key)
        if size is not None:
            return self._shards[shard_index][key], size
        return self.parent._entry(key, shard_index)

    def _entry_size(self, key: Any, shard_index: int) -> Optional[int]:
        if key in self._deleted[shard_index]:
            return None
        size = self._sizes[shard_index].get(key)
        if size is not None:
            return size
        return self.parent._entry_size(key, shard_index)

    # -- writes ----------------------------------------------------------

    def write(self, key: Any, value: Any) -> int:
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_index = self.shard_of(key)
        value_bytes = estimate_bytes(value)
        sizes = self._sizes[shard_index]
        replaced = sizes.get(key)
        if replaced is not None:
            self.total_value_bytes += value_bytes - replaced
        else:
            deleted = self._deleted[shard_index]
            if key in deleted:
                deleted.discard(key)
                self.total_entries += 1
                self.total_value_bytes += value_bytes
            else:
                shadowed = self.parent._entry_size(key, shard_index)
                if shadowed is None:
                    self.total_entries += 1
                    self.total_value_bytes += value_bytes
                else:
                    self.total_value_bytes += value_bytes - shadowed
        self._shards[shard_index][key] = value
        sizes[key] = value_bytes
        return value_bytes

    def write_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        # Overlay accounting needs the per-key parent probe, so the bulk
        # path is a plain loop over write() (still one call per item from
        # the caller's perspective, charge-identical).
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        write = self.write
        return sum(write(key, value) for key, value in items)

    write_all = write_many

    def delete(self, key: Any) -> bool:
        """Remove ``key`` from the logical view; True if it was present.

        Overlay entries are dropped; parent entries are tombstoned (the
        parent itself is immutable).
        """
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_index = self.shard_of(key)
        removed = self._sizes[shard_index].pop(key, None)
        if removed is not None:
            del self._shards[shard_index][key]
            self.total_entries -= 1
            self.total_value_bytes -= removed
            if self.parent._entry_size(key, shard_index) is not None:
                self._deleted[shard_index].add(key)
            return True
        if key in self._deleted[shard_index]:
            return False
        shadowed = self.parent._entry_size(key, shard_index)
        if shadowed is None:
            return False
        self._deleted[shard_index].add(key)
        self.total_entries -= 1
        self.total_value_bytes -= shadowed
        return True

    # -- reads -----------------------------------------------------------

    def lookup(self, key: Any) -> Any:
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        entry = self._entry(key, shard_index)
        return None if entry is None else entry[0]

    def lookup_with_size(self, key: Any) -> Tuple[Any, int]:
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        entry = self._entry(key, shard_index)
        if entry is None:
            return None, 0
        return entry

    def lookup_many(self, keys: Iterable[Any]) -> Tuple[List[Any], int]:
        self._check_readable()
        shard_of = self.shard_of
        shard_reads = self.shard_reads
        entry_of = self._entry
        values: List[Any] = []
        append = values.append
        total = 0
        for key in keys:
            shard_index = shard_of(key)
            shard_reads[shard_index] += 1
            entry = entry_of(key, shard_index)
            if entry is None:
                append(None)
            else:
                append(entry[0])
                total += entry[1]
        return values, total

    def contains(self, key: Any) -> bool:
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        return self._entry(key, shard_index) is not None

    # -- introspection ---------------------------------------------------

    def keys(self) -> List[Any]:
        result = []
        for shard in self._shards:
            result.extend(shard.keys())
        # parent.keys() is already the parent's *logical* view, so chained
        # derivations compose
        for key in self.parent.keys():
            shard_index = self.shard_of(key)
            if (key not in self._shards[shard_index]
                    and key not in self._deleted[shard_index]):
                result.append(key)
        return result

    def __repr__(self) -> str:
        return (
            f"DerivedDHTStore({self.name!r}, entries={self.total_entries}, "
            f"parent={self.parent.name!r}, sealed={self.sealed})"
        )


#: class instantiated by :meth:`DHTStore.derive`; the backed adapter
#: (repro.distdht.store) overrides it so derivation stays in-backing
DHTStore._derived_class = DerivedDHTStore
DerivedDHTStore._derived_class = DerivedDHTStore


class DHTService:
    """Factory and registry for the DHT sequence D0, D1, ...

    With ``backing`` set (a :class:`~repro.distdht.backing.BackingStore`),
    created stores are :class:`~repro.distdht.store.BackedDHTStore`
    adapters whose values physically live in that backing store; the
    accounting surface is identical either way.
    """

    def __init__(self, num_shards: int, *, strict_rounds: bool = False,
                 backing=None):
        self.num_shards = num_shards
        self.strict_rounds = strict_rounds
        self.backing = backing
        self._stores: Dict[str, DHTStore] = {}
        self._counter = 0

    def create(self, name: Optional[str] = None) -> DHTStore:
        if name is None:
            name = f"D{self._counter}"
        if name in self._stores:
            raise ValueError(f"store {name!r} already exists")
        self._counter += 1
        if self.backing is not None:
            from repro.distdht.store import BackedDHTStore
            store = BackedDHTStore(name, self.num_shards,
                                   backing=self.backing,
                                   strict_rounds=self.strict_rounds)
        else:
            store = DHTStore(name, self.num_shards,
                             strict_rounds=self.strict_rounds)
        self._stores[name] = store
        return store

    def register(self, store: DHTStore) -> DHTStore:
        """Adopt an externally constructed store (e.g. a derived child)."""
        if store.name in self._stores:
            raise ValueError(f"store {store.name!r} already exists")
        self._counter += 1
        self._stores[store.name] = store
        return store

    def get(self, name: str) -> DHTStore:
        return self._stores[name]

    def stores(self) -> List[DHTStore]:
        return list(self._stores.values())
