"""The backed lane: a store's values as records in a :class:`BackingStore`.

:class:`BackedDHTStore` is a :class:`~repro.ampc.dht.DHTStore` on a
:class:`BackedLane`.  All cost accounting is the store's code, shared with
the simulator, so a backed run reports **byte-identical simulated
metrics**.  The lane only moves bytes: records that carry their recorded
size (:mod:`repro.distdht.backing`), read back as one ``get_many`` per
owning generation into a :class:`~repro.distdht.backing.RecordBlock`.  A
derived child gets a child lane in the same backing.  Each lane claims a
unique key *namespace* (pid + counter: processes can share one socket
cluster), dropped by a finalizer when the lane dies.  Lookups return
decoded *copies* of the written values.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Any, Dict, List

from repro.ampc.dht import DHTStore, vertex_column
from repro.distdht.backing import (TOMBSTONE, BackingStore, RecordBlock,
                                   decode_record, encode_columnar,
                                   encode_int_keys, encode_key, encode_record)

_NS_COUNTER = itertools.count()


def _release_namespace(backing: BackingStore, namespace: bytes) -> None:
    try:
        backing.delete_prefix(namespace)
    except Exception:  # noqa: BLE001 - backing may already be closed/gone
        pass


class BackedLane:
    """One store generation's records under a namespace of a backing
    (the lane protocol of :class:`~repro.ampc.dht.SimLane`)."""

    def __init__(self, backing: BackingStore, name: str):
        self.backing = backing
        self.name = name
        # the store name rides along for debuggability of raw scans
        self.ns = f"s{os.getpid():x}.{next(_NS_COUNTER):x}|{name}|".encode()
        #: drops the namespace now, or when the lane dies
        self.release = weakref.finalize(
            self, _release_namespace, backing, self.ns)

    def key_bytes(self, key: Any) -> bytes:
        return self.ns + encode_key(key)

    def child(self, name: str) -> "BackedLane":
        return BackedLane(self.backing, name)

    def put_many(self, keys, shards, values, sizes) -> None:
        self.backing.put_many(list(zip(map(self.key_bytes, keys),
                                       map(encode_record, values, sizes))))

    def put_columnar(self, records, keys, shards, sizes) -> None:
        encoded = encode_columnar(records)
        if encoded is None:  # a shape with no fixed-width record
            values = [value for _key, value in records.items()]
            return self.put_many(keys, shards, values, sizes)
        self.backing.put_many(
            list(zip(encode_int_keys(self.ns, records.keys), encoded)))

    def _vanished(self, key: Any) -> KeyError:
        return KeyError(
            f"store {self.name!r}: record for {key!r} vanished from the "
            f"{self.backing.kind} backing store")

    def get(self, key: Any, shard_index: int, size: int) -> Any:
        record = self.backing.get(self.key_bytes(key))
        if record is None:
            raise self._vanished(key)
        entry = decode_record(record)
        if entry is None or entry[1] != size:
            raise ValueError(
                f"store {self.name!r}: record for {key!r} does not match "
                f"its size index entry ({size})")
        return entry[0]

    def block(self, keys, shards, found, owners) -> RecordBlock:
        """The hits' records, one ``get_many`` per owning generation."""
        hits = [index for index, size in enumerate(found) if size is not None]
        groups: Dict[BackedLane, Any] = {}
        if owners is None:
            if hits:
                groups[self] = range(len(hits))
        else:
            for rank, position in enumerate(hits):
                groups.setdefault(owners[position], []).append(rank)
        column = vertex_column(keys)
        records: List[Any] = [None] * len(hits)
        for lane, ranks in groups.items():
            positions = [hits[rank] for rank in ranks]
            if column is not None:
                key_bytes = encode_int_keys(lane.ns, column[positions])
            else:
                key_bytes = [lane.key_bytes(keys[position])
                             for position in positions]
            fetched = self.backing.get_many(key_bytes)
            if None in fetched:
                raise lane._vanished(keys[positions[fetched.index(None)]])
            if len(groups) == 1:
                records = fetched
            else:
                for rank, record in zip(ranks, fetched):
                    records[rank] = record
        return RecordBlock(len(keys), hits, records, [found[p] for p in hits])

    def delete(self, key: Any, shard_index: int) -> None:
        self.backing.delete(self.key_bytes(key))

    def tombstone(self, key: Any, shard_index: int) -> None:
        # an explicit record keeps the backing's raw view self-describing
        self.backing.put(self.key_bytes(key), TOMBSTONE)

    def resident_bytes(self, entries: int, value_bytes: int) -> int:
        # a remote payload lives elsewhere, only the size index is local;
        # shm payload is host RAM and counts in full, like the simulator's
        if self.backing.remote:
            return 16 * entries
        return value_bytes + 8 * entries


class BackedDHTStore(DHTStore):
    """A :class:`DHTStore` whose values live in ``backing``."""

    def __init__(self, name: str, num_shards: int, *,
                 backing: BackingStore, strict_rounds: bool = False):
        super().__init__(name, num_shards, strict_rounds=strict_rounds)
        self._lane = BackedLane(backing, name)

    def _spawn_sibling(self, name: str) -> "BackedDHTStore":
        return BackedDHTStore(name, self.num_shards, backing=self.backing,
                              strict_rounds=self._strict_rounds)

    def repair(self):
        """Anti-entropy sweep of this store's namespace: a
        :class:`~repro.distdht.repair.RepairReport` on the socket backend,
        None on single-copy backings; simulated metrics are unaffected."""
        repair = getattr(self.backing, "repair", None)
        return None if repair is None else repair(self._lane.ns)

    def release(self) -> None:
        """Drop this store's records from the backing store now."""
        self._lane.release()
