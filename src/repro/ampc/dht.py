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

How an entry is *accounted* is decided here, once, whatever holds the
values: :class:`DHTStore` (a flat store) and :class:`DerivedDHTStore` (a
copy-on-write overlay) own placement, the write-time size index, the
totals, ``shard_reads``, the strict-round check, partial commits, overlay
deltas, tombstones, ``derive``, ``folded`` and ``keys``.  The values live
in the store's *lane*, which works a batch at a time: :class:`SimLane`
holds them by reference in per-shard dicts, and
:class:`~repro.distdht.store.BackedLane` keeps them as records in a
:class:`~repro.distdht.backing.BackingStore`.  A store commits the
accounting of a write only once its lane has stored the values, so a
failed put leaves nothing charged.

A derivation chain resolves a key with the same few lookups at any
depth: the store's own open overlay, then a merged *chain view* of every
sealed generation above the flat root (key -> owning lane and size, or a
tombstone; the newest generation wins), then the root.  The chain's tip
owns the view: ``derive`` hands it to the child without copying it, and
the child merges its own overlay in when it is sealed, so memory stays
linear in the total overlay and a derive-and-seal costs O(batch).  An
ancestor read after its child sealed, or a second child of one parent,
finds the view moved on and rebuilds one of its own from the overlays
along its parent chain.  A merge bumps the view's version before it
touches an entry, and a read re-checks the version after it is done, so a
read that overlapped a child's seal (another thread) reads again.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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


def vertex_column(keys) -> Optional[np.ndarray]:
    """A large batch of vertex-id keys as an int64 column, else None.

    What the vectorised paths take: at least
    ``_VECTOR_ROUTING_MIN_KEYS`` keys, every one a non-negative int that
    fits int64 (anything else is routed key by key).
    """
    if len(keys) < _VECTOR_ROUTING_MIN_KEYS \
            or not set(map(type, keys)) <= {int}:
        return None
    try:
        column = np.asarray(keys, dtype=np.int64)
    except OverflowError:  # beyond int64: the scalar hash copes
        return None
    return column if column.min() >= 0 else None


class _GatheredBlock(ValueBlock):
    """A batch read whose values are gathered when first asked for.

    Charging a read needs only the resolved sizes; matching's walk never
    looks at the values, so the sim lane does not fetch them for it.
    """

    __slots__ = ("_gather",)

    def __init__(self, gather: Callable[[], List[Any]]):
        super().__init__(None)
        self._gather = gather

    def values(self) -> List[Any]:
        if self._values is None:
            self._values = self._gather()
        return self._values


class SimLane:
    """The simulator's lane: values by reference, one dict per shard.

    The lane protocol a store drives, a batch at a time — the store has
    already placed every key (``shards``) and sized every value:

    * ``put_many`` / ``put_columnar`` store values — a put that raises
      has stored none;
    * ``get`` and ``block`` return the values of resolved keys — ``found``
      holds each key's recorded size (None: a miss) and ``owners`` each
      key's owning lane in a derived chain (None: every hit is this
      lane's);
    * ``delete`` drops an entry of this generation, ``tombstone``
      shadows a parent's; ``child`` opens the lane of a derived
      generation; ``resident_bytes`` sizes the store for the cache.
    """

    backing = None

    def __init__(self, num_shards: int):
        self._values: List[Dict[Any, Any]] = [
            dict() for _ in range(num_shards)]

    def child(self, name: str) -> "SimLane":
        return SimLane(len(self._values))

    def put_many(self, keys, shards, values, sizes) -> None:
        value_shards = self._values
        for key, shard_index, value in zip(keys, shards, values):
            value_shards[shard_index][key] = value

    def put_columnar(self, records, keys, shards, sizes) -> None:
        value_shards = self._values
        for (key, value), shard_index in zip(records.items(), shards):
            value_shards[shard_index][key] = value

    def get(self, key: Any, shard_index: int, size: int) -> Any:
        return self._values[shard_index][key]

    def block(self, keys, shards, found, owners) -> ValueBlock:
        if owners is None:
            value_shards = self._values
            return _GatheredBlock(lambda: [
                value_shards[shard_index].get(key)
                for key, shard_index in zip(keys, shards)])
        return _GatheredBlock(lambda: [
            None if lane is None else lane._values[shard_index][key]
            for key, shard_index, lane in zip(keys, shards, owners)])

    def delete(self, key: Any, shard_index: int) -> None:
        self._values[shard_index].pop(key, None)

    #: the overlay's tombstone set already hides the parent entry
    tombstone = delete

    @staticmethod
    def resident_bytes(entries: int, value_bytes: int) -> int:
        return value_bytes + 8 * entries


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
        #: serialized size of each entry this generation holds, recorded
        #: at write time so reads never re-walk values (and overwrites can
        #: refund exactly) — the store's index, whatever lane holds values
        self._sizes: List[Dict[Any, int]] = [dict() for _ in range(num_shards)]
        #: reads served per shard (contention accounting)
        self.shard_reads: List[int] = [0] * num_shards
        self.total_entries = 0
        self.total_value_bytes = 0
        #: where the values physically live (backed stores swap theirs in)
        self._lane = SimLane(num_shards)

    @property
    def backing(self):
        """The :class:`~repro.distdht.backing.BackingStore` holding this
        store's values, or None on the simulator."""
        return self._lane.backing

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

    def _check_writable(self) -> None:
        if self.sealed:
            raise StoreSealedError(f"store {self.name!r} is sealed")

    def write(self, key: Any, value: Any) -> int:
        """Store a key-value pair; returns the serialized value size.

        Duplicate keys overwrite, matching the put semantics of the
        key-value stores the paper builds on; the replaced entry's
        recorded size is refunded, so ``total_value_bytes`` always equals
        the live entries' sizes.
        """
        return self.write_many(((key, value),))

    def write_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        """Bulk :meth:`write`; returns the total serialized value size.

        Each value is sized before anything of its item is kept: an
        inestimable value stops the batch there, and the completed prefix
        is still committed — exactly the state a :meth:`write` sequence
        failing on the same item leaves.
        """
        self._check_writable()
        shard_of = self.shard_of
        keys: List[Any] = []
        shards: List[int] = []
        values: List[Any] = []
        sizes: List[int] = []
        try:
            for key, value in items:
                value_bytes = estimate_bytes(value)
                shards.append(shard_of(key))
                keys.append(key)
                values.append(value)
                sizes.append(value_bytes)
        finally:
            if keys:
                self._commit(keys, shards, values, sizes)
        return sum(sizes)

    def write_columnar(self, records) -> int:
        """Batch write of a :class:`~repro.ampc.columnar.ColumnarRecords`.

        Accounting-identical to ``write_many(records.items())`` — same
        shard placement, same write-time size index, same totals, same
        per-shard insertion order — but the sizes and shard ids arrive as
        precomputed columns (one vectorized pass each), and the lane takes
        the batch whole: the sim lane boxes it, a backed lane encodes it
        in one numpy pass.
        """
        self._check_writable()
        keys = records.keys.tolist()
        shards = records.shard_ids(self.num_shards).tolist()
        sizes = records.value_size_list()
        self._lane.put_columnar(records, keys, shards, sizes)
        # seed the placement memo in bulk: readers of these keys skip the
        # splitmix fallback entirely
        self._shard_memo.update(zip(keys, shards))
        self._account(keys, shards, sizes)
        return sum(sizes)

    def _commit(self, keys, shards, values, sizes) -> None:
        """Store a sized batch in the lane, then account for it — a put
        that raises leaves the accounting untouched."""
        self._lane.put_many(keys, shards, values, sizes)
        self._account(keys, shards, sizes)

    def _account(self, keys, shards, sizes) -> None:
        """Index the sizes of a batch the lane has stored; totals follow."""
        size_shards = self._sizes
        entries_added = 0
        bytes_delta = 0
        for key, shard_index, value_bytes in zip(keys, shards, sizes):
            index = size_shards[shard_index]
            replaced = index.get(key)
            index[key] = value_bytes
            if replaced is None:
                entries_added += 1
                bytes_delta += value_bytes
            else:
                bytes_delta += value_bytes - replaced
        self.total_entries += entries_added
        self.total_value_bytes += bytes_delta

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
        return self.lookup_with_size(key)[0]

    def lookup_with_size(self, key: Any) -> Tuple[Any, int]:
        """:meth:`lookup` plus the entry's recorded serialized size.

        The size was computed by :func:`estimate_bytes` at write time, so
        callers charging read bytes need not re-walk the value; missing
        keys report ``(None, 0)`` (what ``estimate_bytes(None)`` charges).
        """
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        found = self._owner(key, shard_index)
        if found is None:
            return None, 0
        lane, size = found
        return lane.get(key, shard_index, size), size

    def lookup_many(self, keys: Iterable[Any]) -> Tuple[List[Any], int]:
        """Bulk read: shard routing and read accounting batch-at-a-time.

        Returns the values in key order (None for misses) plus the total
        recorded size of the hit values — the aggregate a
        :class:`~repro.dataflow.dofn.MachineContext` charges as read
        bytes.  Per-shard read counts advance exactly as the equivalent
        :meth:`lookup` sequence would.
        """
        block, total = self.lookup_block(
            keys if isinstance(keys, (list, tuple)) else list(keys))
        return block.values(), total

    def lookup_block(self, keys) -> Tuple[ValueBlock, int]:
        """:meth:`lookup_many` as a block the sweeps read columns from.

        Same reads, same ``shard_reads``, same byte total; the block's
        ``values()`` is the ``lookup_many`` list and ``columns(dtypes)``
        its :func:`~repro.ampc.columnar.unbox_rows`.  The lane builds the
        block: the sim lane gathers values only when asked, a backed lane
        fetches one batch per owning generation and answers columns
        straight from the records.
        """
        self._check_readable()
        shards = self._route_batch(keys)
        found, owners = self._resolve(keys, shards)
        return (self._lane.block(keys, shards, found, owners),
                sum(filter(None, found)))

    def _route_batch(self, keys) -> List[int]:
        """Shard of each key of a batch, one read charged to each.

        A large batch of vertex-id keys (what a frontier sweep reads) is
        routed by one vectorised placement hash and one histogram instead
        of a memo probe and a counter bump per key: same shards, same
        ``shard_reads``.
        """
        shard_reads = self.shard_reads
        column = vertex_column(keys)
        if column is None:
            shard_of = self.shard_of
            shards = [shard_of(key) for key in keys]
            for shard_index in shards:
                shard_reads[shard_index] += 1
            return shards
        shard_ids = placement_ids(column, self.num_shards)
        for shard_index, reads in enumerate(np.bincount(
                shard_ids, minlength=self.num_shards).tolist()):
            shard_reads[shard_index] += reads
        return shard_ids.tolist()

    def contains(self, key: Any) -> bool:
        """Membership probe; charged and round-checked like :meth:`lookup`."""
        self._check_readable()
        shard_index = self.shard_of(key)
        self.shard_reads[shard_index] += 1
        return self._owner(key, shard_index) is not None

    # -- resolution (internal, uncharged) ---------------------------------

    def _owner(self, key: Any, shard_index: int):
        """-> (the lane holding ``key``'s live entry, its recorded size),
        or None.  Uncharged: a derived child resolves fall-through reads
        with it, so reading through a child never perturbs this store's
        ``shard_reads`` contention metrics."""
        size = self._sizes[shard_index].get(key)
        return None if size is None else (self._lane, size)

    def _resolve(self, keys, shards):
        """-> (each key's recorded size or None, each key's owning lane —
        None here: every hit of a flat store is its own lane's)."""
        size_shards = self._sizes
        return [size_shards[shard_index].get(key)
                for key, shard_index in zip(keys, shards)], None

    # -- derivation ------------------------------------------------------

    def derive(self, name: Optional[str] = None) -> "DerivedDHTStore":
        """Unseal this sealed store into a copy-on-write child.

        The child reads fall through to this store; its writes and deletes
        land in a private overlay (a child lane of this store's lane), so
        patching a DHT-resident artifact can never mutate an entry another
        cached artifact still serves.  Byte and entry accounting on the
        child stays exact — overlay deltas are applied to this store's
        write-time memoized sizes.  Only sealed (immutable) stores can be
        derived, and deriving a child is itself derivable, so repeated
        patch generations chain — each generation under a distinct default
        name (see :func:`next_delta_name`).
        """
        if not self.sealed:
            raise StoreSealedError(
                f"store {self.name!r} must be sealed before it can be "
                "derived (an unsealed parent could drift under the child)"
            )
        return DerivedDHTStore(name or next_delta_name(self.name), self)

    def folded(self, name: Optional[str] = None) -> "DHTStore":
        """Flatten the logical view into a fresh, flat, sealed store.

        The result has no parent chain: identical logical content,
        identical recorded entry sizes (the write-time memoized sizes are
        copied, not re-estimated), fresh ``shard_reads``, and the same
        kind of lane.  The Session cache uses this to collapse a cache
        entry's derivation chain once it outgrows the max-generations knob.
        """
        flat = self._spawn_sibling(name or self.name)
        keys, shards, sizes, owners = self._live()
        if keys:
            values = self._lane.block(keys, shards, sizes, owners).values()
            flat._commit(keys, shards, values, sizes)
        flat.seal()
        return flat

    def _spawn_sibling(self, name: str) -> "DHTStore":
        """An empty unsealed flat store with this store's shape and lane
        kind."""
        return DHTStore(name, self.num_shards,
                        strict_rounds=self._strict_rounds)

    def cache_resident_bytes(self) -> int:
        """What this store costs the local process (Session cache sizing)."""
        return self._lane.resident_bytes(self.total_entries,
                                         self.total_value_bytes)

    # -- introspection (driver-side; free of charge) ---------------------

    def keys(self) -> List[Any]:
        return self._live()[0]

    def _live(self):
        """-> (keys, shards, sizes, owners) of every live entry, shard by
        shard; owners is None: every entry is this store's lane's."""
        keys: List[Any] = []
        shards: List[int] = []
        sizes: List[int] = []
        for shard_index, index in enumerate(self._sizes):
            keys.extend(index)
            shards.extend([shard_index] * len(index))
            sizes.extend(index.values())
        return keys, shards, sizes, None

    def max_shard_load(self) -> int:
        return max(self.shard_reads)

    def __len__(self) -> int:
        return self.total_entries

    def _describe(self) -> str:
        backing = self.backing
        kind = "" if backing is None else f"backing={backing.kind}, "
        return f"{self.name!r}, {kind}entries={self.total_entries}"

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self._describe()}, "
                f"sealed={self.sealed})")


class _ChainView:
    """The overlays of a derivation chain merged into one lookup table.

    ``entries`` maps key -> (owning lane, recorded size), or None where
    a generation tombstoned the key; generations merge oldest first, so
    the newest one wins.  ``version`` counts merges, and moves before a
    merge changes any entry: a store reads the view only at the version
    it last saw (see :meth:`DerivedDHTStore._chain`).
    """

    __slots__ = ("entries", "version")

    def __init__(self):
        self.entries: Dict[Any, Any] = {}
        self.version = 0

    def merge(self, generation: "DerivedDHTStore") -> None:
        """Lay a sealed generation's overlay over the view."""
        self.version += 1
        entries = self.entries
        lane = generation._lane
        for own, gone in zip(generation._sizes, generation._deleted):
            for key, size in own.items():
                entries[key] = (lane, size)
            entries.update(dict.fromkeys(gone))


#: a chain-view miss (None there is a tombstone)
_ABSENT = object()

#: makes a seal's "is the view still mine?" check and its merge one step
_MERGE_LOCK = threading.Lock()


class DerivedDHTStore(DHTStore):
    """A copy-on-write overlay over a sealed parent store.

    A read resolves against the open overlay (entries, then tombstones),
    then the chain view — every sealed generation between this one and
    the flat ``root``, merged, this one included once it is sealed — then
    the root: the same few lookups at any depth.  Writes and deletes touch
    only the overlay, whose values live in a child of the parent's lane.
    The aggregate counters (``total_entries`` / ``total_value_bytes``)
    always describe the *logical* store — parent plus overlay — using the
    write-time memoized sizes, so they equal what a from-scratch store
    with the same final content would report.  ``shard_reads`` counts
    this store's own reads only; the parent's metrics never move.
    """

    def __init__(self, name: str, parent: DHTStore):
        super().__init__(name, parent.num_shards,
                         strict_rounds=parent._strict_rounds)
        self._lane = parent._lane.child(name)
        self.parent = parent
        self.total_entries = parent.total_entries
        self.total_value_bytes = parent.total_value_bytes
        #: keys shadow-deleted from the parent view
        self._deleted: List[set] = [set() for _ in range(self.num_shards)]
        # The chain tip owns the view: a child takes its parent's view
        # without copying it and merges its own overlay in when sealed.
        if isinstance(parent, DerivedDHTStore):
            #: the flat store at the bottom of the chain
            self.root: DHTStore = parent.root
            self._view = parent._chain()
        else:
            self.root = parent
            self._view = _ChainView()
        self._view_version = self._view.version

    def seal(self) -> None:
        """Freeze the overlay and merge it into the chain view (unless the
        view moved on without this store; :meth:`_chain` rebuilds it)."""
        with _MERGE_LOCK:
            if not self.sealed and self._view.version == self._view_version:
                self._view.merge(self)
                self._view_version = self._view.version
            super().seal()

    # -- resolution ------------------------------------------------------

    def _chain(self) -> _ChainView:
        """The view of the chain: every generation from the root's child
        to this one, this one included once it is sealed.

        It is stale once another generation merged into it since this
        store last did — a sealed child of this store, or a sibling
        sealed first.  Then this store rebuilds a view of its own from
        the overlays along its parent chain: O(total overlay), and only
        an ancestor read after its child sealed, or a second child of one
        parent, takes this path.
        """
        view = self._view
        if view.version != self._view_version:
            generations = []
            node = self if self.sealed else self.parent
            while isinstance(node, DerivedDHTStore):
                generations.append(node)
                node = node.parent
            view = _ChainView()
            for generation in reversed(generations):
                view.merge(generation)
            self._view = view
            self._view_version = view.version
        return view

    def _inherited(self, key: Any, shard_index: int):
        """What the view and then the root hold for ``key``: (owning
        lane, recorded size), or None — the generations under an open
        overlay, or the whole chain once this store is sealed."""
        view = self._view
        if view.version != self._view_version:
            view = self._chain()
        entry = view.entries.get(key, _ABSENT)
        if view.version != self._view_version:  # a merge overlapped
            return self._inherited(key, shard_index)
        if entry is not _ABSENT:
            return entry
        root = self.root
        size = root._sizes[shard_index].get(key)
        return None if size is None else (root._lane, size)

    def _owner(self, key: Any, shard_index: int):
        if not self.sealed:  # an open overlay is not in the view yet
            size = self._sizes[shard_index].get(key)
            if size is not None:
                return self._lane, size
            if key in self._deleted[shard_index]:
                return None
        return self._inherited(key, shard_index)

    def _resolve(self, keys, shards):
        # Read the whole batch from the root, then re-resolve only the
        # keys some generation shadows: a sealed generation's overlay is
        # in the view, an open one's is checked first.
        view = self._chain()
        version = view.version
        root = self.root
        found, _ = root._resolve(keys, shards)
        root_lane = root._lane
        owners = [None if size is None else root_lane for size in found]
        entries = view.entries
        shadowed = entries.keys() & keys
        if not self.sealed:
            shadowed.update(*self._sizes, *self._deleted)
        if shadowed:
            owner_of = None if self.sealed else self._owner
            for position in [position for position, key in enumerate(keys)
                             if key in shadowed]:
                key = keys[position]
                entry = (entries[key] if owner_of is None
                         else owner_of(key, shards[position]))
                if entry is None:
                    found[position] = owners[position] = None
                else:
                    owners[position], found[position] = entry
        if view.version != version:  # a merge overlapped: read again
            return self._resolve(keys, shards)
        return found, owners

    # -- writes ----------------------------------------------------------

    def _account(self, keys, shards, sizes) -> None:
        # An overlay entry's delta is against what the logical view held
        # before: its own earlier entry, nothing (a tombstoned key comes
        # back), or the inherited entry it now shadows.
        size_shards = self._sizes
        deleted_shards = self._deleted
        inherited = self._inherited
        entries_added = 0
        bytes_delta = 0
        for key, shard_index, value_bytes in zip(keys, shards, sizes):
            index = size_shards[shard_index]
            replaced = index.get(key)
            if replaced is None:
                deleted = deleted_shards[shard_index]
                if key in deleted:
                    deleted.discard(key)
                else:
                    shadowed = inherited(key, shard_index)
                    if shadowed is not None:
                        replaced = shadowed[1]
            index[key] = value_bytes
            if replaced is None:
                entries_added += 1
                bytes_delta += value_bytes
            else:
                bytes_delta += value_bytes - replaced
        self.total_entries += entries_added
        self.total_value_bytes += bytes_delta

    def delete(self, key: Any) -> bool:
        """Remove ``key`` from the logical view; True if it was present.

        Overlay entries are dropped; inherited entries are tombstoned (the
        parent itself is immutable).  The lane acts first, so a failed
        delete leaves the accounting as it was.
        """
        self._check_writable()
        shard_index = self.shard_of(key)
        found = self._owner(key, shard_index)
        if found is None:
            return False
        if self._inherited(key, shard_index) is not None:
            self._lane.tombstone(key, shard_index)
            self._deleted[shard_index].add(key)
        else:
            self._lane.delete(key, shard_index)
        self._sizes[shard_index].pop(key, None)
        self.total_entries -= 1
        self.total_value_bytes -= found[1]
        return True

    # -- derivation / introspection --------------------------------------

    def _spawn_sibling(self, name: str) -> DHTStore:
        return self.root._spawn_sibling(name)

    def _live(self):
        # own entries first, then the view's and the root's unshadowed
        keys, shards, sizes, _ = super()._live()
        owners = [self._lane] * len(keys)
        own_shards = self._sizes
        deleted_shards = self._deleted
        view = self._chain()
        version = view.version
        chain = view.entries
        shard_of = self.shard_of
        for key, entry in list(chain.items()):
            if entry is None:
                continue
            shard_index = shard_of(key)
            if (key not in own_shards[shard_index]
                    and key not in deleted_shards[shard_index]):
                keys.append(key)
                shards.append(shard_index)
                sizes.append(entry[1])
                owners.append(entry[0])
        root = self.root
        for shard_index, (base, own, gone) in enumerate(zip(
                root._sizes, own_shards, deleted_shards)):
            kept = [key for key in base if key not in chain
                    and key not in own and key not in gone]
            keys.extend(kept)
            shards.extend([shard_index] * len(kept))
            sizes.extend([base[key] for key in kept])
            owners.extend([root._lane] * len(kept))
        if view.version != version:  # a merge overlapped: read again
            return self._live()
        return keys, shards, sizes, owners

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self._describe()}, "
                f"parent={self.parent.name!r}, sealed={self.sealed})")


class DHTService:
    """Factory and registry for the DHT sequence D0, D1, ...

    With ``backing`` set (a :class:`~repro.distdht.backing.BackingStore`),
    created stores are :class:`~repro.distdht.store.BackedDHTStore`\\ s,
    whose values physically live in that backing store; the accounting
    is the same code either way.
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
