"""DHTStore-compatible adapters over a real :class:`BackingStore`.

:class:`BackedDHTStore` subclasses the simulated
:class:`~repro.ampc.dht.DHTStore` and keeps **all cost-model accounting
at the adapter boundary**: the same ``shard_of`` placement, the same
write-time :func:`~repro.ampc.cost_model.estimate_bytes` charge, the same
per-shard ``shard_reads`` counters, the same strict-round checks, and the
same partial-commit semantics when a bulk write fails mid-batch.  Only
the physical storage differs — values are encoded into fixed-width or
tagged records (see :mod:`repro.distdht.backing`) and live in shared
memory or on DHT nodes instead of an in-process dict.  A run on a backed
store therefore reports **byte-identical simulated metrics** to the same
run on a simulated store; the golden-metrics suite is parametrized over
backends to prove it.

Each store claims a unique byte-key *namespace* inside its backing store
(pid + counter, so any number of worker processes can share one socket
cluster without key collisions), and registers a finalizer that drops the
namespace when the store object is garbage-collected — cache eviction in
the Session automatically frees the backing-store records it addressed.

The one observable difference from the simulated store: values round-trip
through the record codec, so a lookup returns a *copy* of the written
object rather than the object itself.  A batched read
(:meth:`BackedDHTStore.lookup_block`) fetches every hit in one
``get_many`` per namespace and hands the sweeps a
:class:`~repro.distdht.backing.RecordBlock`, whose columns come straight
out of the records' words.  Sealed-store discipline (write, seal, then
read) makes that invisible to well-behaved specs — the conformance suite
verifies every registered spec is one.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.ampc.cost_model import estimate_bytes
from repro.ampc.dht import (_VECTOR_ROUTING_MIN_KEYS, DerivedDHTStore,
                            DHTStore, StoreSealedError)
from repro.distdht.backing import (
    TOMBSTONE,
    BackingStore,
    RecordBlock,
    decode_record,
    encode_columnar,
    encode_int_keys,
    encode_key,
    encode_record,
)

_NS_COUNTER = itertools.count()


def _fresh_namespace(name: str) -> bytes:
    """A byte-key prefix no other store (in any process) is using.

    The pid + per-process counter pair is unique across every process
    sharing one backing store (the multi-worker socket-cluster case); the
    store name rides along for debuggability of raw scans.
    """
    return f"s{os.getpid():x}.{next(_NS_COUNTER):x}|{name}|".encode("ascii")


def _release_namespace(backing: BackingStore, namespace: bytes) -> None:
    try:
        backing.delete_prefix(namespace)
    except Exception:  # noqa: BLE001 - backing may already be closed/gone
        pass


class BackedDHTStore(DHTStore):
    """A :class:`DHTStore` whose values physically live in a backing store.

    The per-shard ``_sizes`` index (write-time estimated sizes) stays in
    the owning process — it *is* the accounting state and is what the
    simulated store keeps too — while the encoded values go to the
    backing.  Each record also embeds its recorded size, so a record
    fetched by locator in another process carries its own charge.
    """

    def __init__(self, name: str, num_shards: int, *,
                 backing: BackingStore, strict_rounds: bool = False):
        super().__init__(name, num_shards, strict_rounds=strict_rounds)
        self._backing = backing
        self._ns = _fresh_namespace(name)
        # Free the namespace when the store object dies: Session cache
        # eviction then reclaims the backing-store records automatically.
        self._ns_finalizer = weakref.finalize(
            self, _release_namespace, backing, self._ns)

    @property
    def backing(self) -> BackingStore:
        return self._backing

    def _key_bytes(self, key: Any) -> bytes:
        return self._ns + encode_key(key)

    def repair(self):
        """Anti-entropy sweep of this store's namespace.

        Converges the backing replicas for every record this store
        wrote; a no-op (returns None) on single-copy backings (sim /
        mem / shm), a :class:`~repro.distdht.repair.RepairReport` on
        the socket backend.  Pure backing-level traffic — simulated
        metrics are unaffected.
        """
        repair = getattr(self._backing, "repair", None)
        if repair is None:
            return None
        return repair(self._ns)

    # -- writes (accounting identical to DHTStore.write/write_many) ------

    def write(self, key: Any, value: Any) -> int:
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
        self._backing.put(self._key_bytes(key),
                          encode_record(value, value_bytes))
        sizes[key] = value_bytes
        return value_bytes

    def write_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_of = self.shard_of
        size_shards = self._sizes
        key_bytes = self._key_bytes
        batch: List[Tuple[bytes, bytes]] = []
        total = 0
        entries_added = 0
        bytes_delta = 0
        try:
            for key, value in items:
                # Size first, as in the simulated store: an inestimable
                # value raises before this item mutates anything, and the
                # finally block commits the completed items — accounting
                # and physical records stay in lockstep.
                value_bytes = estimate_bytes(value)
                shard_index = shard_of(key)
                sizes = size_shards[shard_index]
                replaced = sizes.get(key)
                if replaced is None:
                    entries_added += 1
                    bytes_delta += value_bytes
                else:
                    bytes_delta += value_bytes - replaced
                sizes[key] = value_bytes
                batch.append((key_bytes(key),
                              encode_record(value, value_bytes)))
                total += value_bytes
        finally:
            self.total_entries += entries_added
            self.total_value_bytes += bytes_delta
            if batch:
                self._backing.put_many(batch)
        return total

    write_all = write_many

    def write_columnar(self, records) -> int:
        """Accounting-identical to ``write_many(records.items())``, but
        the records are encoded in one numpy pass
        (:func:`~repro.distdht.backing.encode_columnar`) and sent as one
        ``put_many`` — no value is boxed."""
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        encoded = encode_columnar(records)
        if encoded is None:
            return self.write_many(records.items())
        key_list = records.keys.tolist()
        size_shards = self._sizes
        total = 0
        entries_added = 0
        bytes_delta = 0
        for key, value_bytes, shard_index in zip(
                key_list, records.value_size_list(),
                records.shard_ids(self.num_shards).tolist()):
            sizes = size_shards[shard_index]
            replaced = sizes.get(key)
            if replaced is None:
                entries_added += 1
                bytes_delta += value_bytes
            else:
                bytes_delta += value_bytes - replaced
            sizes[key] = value_bytes
            total += value_bytes
        self.total_entries += entries_added
        self.total_value_bytes += bytes_delta
        self._backing.put_many(
            list(zip(encode_int_keys(self._ns, records.keys), encoded)))
        return total

    # -- reads (charging identical to DHTStore) ---------------------------

    def _vanished(self, key: Any) -> KeyError:
        return KeyError(
            f"store {self.name!r}: record for {key!r} vanished from the "
            f"{self._backing.kind} backing store")

    def _fetch_value(self, key: Any, size: int) -> Any:
        record = self._backing.get(self._key_bytes(key))
        if record is None:
            raise self._vanished(key)
        entry = decode_record(record)
        if entry is None or entry[1] != size:
            raise ValueError(
                f"store {self.name!r}: record for {key!r} does not match "
                f"its size index entry ({size})")
        return entry[0]

    def lookup(self, key: Any) -> Any:
        return self.lookup_with_size(key)[0]

    def lookup_with_size(self, key: Any) -> Tuple[Any, int]:
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        size = self._sizes[shard_index].get(key)
        if size is None:
            return None, 0
        return self._fetch_value(key, size), size

    def lookup_many(self, keys: Iterable[Any]) -> Tuple[List[Any], int]:
        block, total = self.lookup_block(
            keys if isinstance(keys, (list, tuple)) else list(keys))
        return block.values(), total

    def lookup_block(self, keys) -> Tuple[RecordBlock, int]:
        """The batch's hits in one ``get_many`` per namespace, as a
        :class:`~repro.distdht.backing.RecordBlock` (decoded only when
        asked); reads, bytes and ``shard_reads`` as in ``lookup_many``."""
        self._check_readable()
        column = None
        shards = (self._route_batch(keys)
                  if len(keys) >= _VECTOR_ROUTING_MIN_KEYS else None)
        if shards is None:
            shard_of = self.shard_of
            shard_reads = self.shard_reads
            shards = []
            for key in keys:
                shard_index = shard_of(key)
                shard_reads[shard_index] += 1
                shards.append(shard_index)
        else:
            column = np.asarray(keys, dtype=np.int64)
        hits, sizes, groups = self._resolve(keys, shards)
        records: List[Any] = [None] * len(hits)
        for owner, indices in groups:
            positions = [hits[index] for index in indices]
            if column is not None:
                key_bytes = encode_int_keys(owner._ns, column[positions])
            else:
                key_bytes = [owner._key_bytes(keys[position])
                             for position in positions]
            fetched = self._backing.get_many(key_bytes)
            if None in fetched:
                raise owner._vanished(keys[positions[fetched.index(None)]])
            if len(groups) == 1:
                records = fetched
            else:
                for index, record in zip(indices, fetched):
                    records[index] = record
        return RecordBlock(len(keys), hits, records, sizes), sum(sizes)

    def _resolve(self, keys, shards):
        """-> (positions of the hits, their recorded sizes, and for each
        store of the chain holding some of them: (store, indices into
        the hits))."""
        size_shards = self._sizes
        found = [size_shards[shard_index].get(key)
                 for key, shard_index in zip(keys, shards)]
        hits = [index for index, size in enumerate(found)
                if size is not None]
        groups = [(self, range(len(hits)))] if hits else []
        return hits, [found[index] for index in hits], groups

    def contains(self, key: Any) -> bool:
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        return key in self._sizes[shard_index]

    # -- derivation / folding ---------------------------------------------

    def _entry(self, key: Any, shard_index: int) -> Optional[Tuple[Any, int]]:
        found = self._owner(key, shard_index)
        if found is None:
            return None
        owner, size = found
        return owner._fetch_value(key, size), size

    def _owner(self, key: Any, shard_index: int):
        """-> (the store in the chain holding ``key``, its recorded
        size), or None."""
        size = self._sizes[shard_index].get(key)
        return None if size is None else (self, size)

    def _spawn_sibling(self, name: str) -> "BackedDHTStore":
        return BackedDHTStore(name, self.num_shards, backing=self._backing,
                              strict_rounds=self._strict_rounds)

    def _install(self, key: Any, value: Any, size: int) -> None:
        shard_index = self.shard_of(key)
        self._backing.put(self._key_bytes(key), encode_record(value, size))
        self._sizes[shard_index][key] = size
        self.total_entries += 1
        self.total_value_bytes += size

    # -- introspection ----------------------------------------------------

    def keys(self) -> List[Any]:
        result: List[Any] = []
        for sizes in self._sizes:
            result.extend(sizes.keys())
        return result

    def cache_resident_bytes(self) -> int:
        # Remote backings hold the payload elsewhere — only the local
        # size index occupies this process; shm payload is host RAM and
        # counts in full, like the simulated store.
        if self._backing.remote:
            return 16 * self.total_entries
        return self.total_value_bytes + 8 * self.total_entries

    def release(self) -> None:
        """Drop this store's records from the backing store now."""
        self._ns_finalizer()

    def __repr__(self) -> str:
        return (
            f"BackedDHTStore({self.name!r}, backing={self._backing.kind}, "
            f"entries={self.total_entries}, sealed={self.sealed})"
        )


class BackedDerivedDHTStore(DerivedDHTStore):
    """Copy-on-write overlay over a sealed backed parent.

    Accounting mirrors :class:`~repro.ampc.dht.DerivedDHTStore` exactly
    (overlay deltas against the parent's memoized sizes); the overlay's
    values — and explicit tombstone records for shadow-deletes, keeping
    the backing's raw view self-describing — live under this store's own
    namespace in the same backing store as the parent.
    """

    def __init__(self, name: str, parent: DHTStore):
        backing = getattr(parent, "_backing", None)
        if backing is None:
            raise TypeError(
                "BackedDerivedDHTStore needs a backed parent, got "
                f"{type(parent).__name__}")
        super().__init__(name, parent)
        self._backing: BackingStore = backing
        self._ns = _fresh_namespace(name)
        self._ns_finalizer = weakref.finalize(
            self, _release_namespace, backing, self._ns)

    backing = BackedDHTStore.backing
    _key_bytes = BackedDHTStore._key_bytes
    _vanished = BackedDHTStore._vanished
    _fetch_value = BackedDHTStore._fetch_value
    lookup_many = BackedDHTStore.lookup_many
    lookup_block = BackedDHTStore.lookup_block
    _spawn_sibling = BackedDHTStore._spawn_sibling
    _install = BackedDHTStore._install
    cache_resident_bytes = BackedDHTStore.cache_resident_bytes
    release = BackedDHTStore.release
    repair = BackedDHTStore.repair

    # -- resolution (single-key reads are inherited: they go through
    # _entry; batched ones through _resolve) -------------------------------

    _entry = BackedDHTStore._entry

    def _owner(self, key: Any, shard_index: int):
        if key in self._deleted[shard_index]:
            return None
        size = self._sizes[shard_index].get(key)
        if size is not None:
            return self, size
        return self.parent._owner(key, shard_index)

    def _resolve(self, keys, shards):
        """Overlay and tombstones resolved locally, generation by
        generation; the records are then fetched per owning namespace."""
        hits: List[int] = []
        sizes: List[int] = []
        groups: Dict[Any, List[int]] = {}
        owner_of = self._owner
        for position, (key, shard_index) in enumerate(zip(keys, shards)):
            found = owner_of(key, shard_index)
            if found is not None:
                groups.setdefault(found[0], []).append(len(hits))
                hits.append(position)
                sizes.append(found[1])
        return hits, sizes, list(groups.items())

    # -- writes (accounting identical to DerivedDHTStore) -----------------

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
        self._backing.put(self._key_bytes(key),
                          encode_record(value, value_bytes))
        sizes[key] = value_bytes
        return value_bytes

    def write_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        write = self.write
        return sum(write(key, value) for key, value in items)

    write_all = write_many

    def delete(self, key: Any) -> bool:
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")
        shard_index = self.shard_of(key)
        removed = self._sizes[shard_index].pop(key, None)
        if removed is not None:
            self.total_entries -= 1
            self.total_value_bytes -= removed
            if self.parent._entry_size(key, shard_index) is not None:
                self._deleted[shard_index].add(key)
                self._backing.put(self._key_bytes(key), TOMBSTONE)
            else:
                self._backing.delete(self._key_bytes(key))
            return True
        if key in self._deleted[shard_index]:
            return False
        shadowed = self.parent._entry_size(key, shard_index)
        if shadowed is None:
            return False
        self._deleted[shard_index].add(key)
        self._backing.put(self._key_bytes(key), TOMBSTONE)
        self.total_entries -= 1
        self.total_value_bytes -= shadowed
        return True

    # -- introspection ----------------------------------------------------

    def keys(self) -> List[Any]:
        result: List[Any] = []
        for sizes in self._sizes:
            result.extend(sizes.keys())
        for key in self.parent.keys():
            shard_index = self.shard_of(key)
            if (key not in self._sizes[shard_index]
                    and key not in self._deleted[shard_index]):
                result.append(key)
        return result

    def __repr__(self) -> str:
        return (
            f"BackedDerivedDHTStore({self.name!r}, "
            f"backing={self._backing.kind}, entries={self.total_entries}, "
            f"parent={self.parent.name!r}, sealed={self.sealed})"
        )


# derive() on a backed store yields a backed child (same backing store)
BackedDHTStore._derived_class = BackedDerivedDHTStore
BackedDerivedDHTStore._derived_class = BackedDerivedDHTStore
