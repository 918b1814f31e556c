"""Derived (copy-on-write) DHT stores: the patch-in-place primitive.

A derived child overlays a sealed parent: writes and deletes land in the
overlay, reads fall through, and the child's aggregate accounting always
matches a from-scratch store with the same final content — while the
parent (which another cache entry may still serve) never changes at all.
Every test runs on simulated stores and on backed ones (``mem``, ``shm``).
"""

import pytest

from repro.ampc.columnar import ColumnarRecords
from repro.ampc.dht import DHTService, StoreSealedError
from repro.distdht.backing import InMemoryBackingStore
from repro.distdht.shm import SharedMemoryBackingStore


@pytest.fixture(params=["sim", "mem", "shm"])
def backing(request):
    """None for simulated stores, else the backing their values live in
    (a derived child of a backed store stays in its parent's backing)."""
    if request.param == "sim":
        yield None
        return
    kind = (InMemoryBackingStore if request.param == "mem"
            else SharedMemoryBackingStore)
    with kind() as store:
        yield store


@pytest.fixture
def base_store(backing):
    """``base_store(entries, num_shards=4, sealed=True,
    strict_rounds=False)``: a store of the parametrized kind holding
    ``entries``."""
    def build(entries, num_shards=4, sealed=True, strict_rounds=False):
        store = DHTService(num_shards, strict_rounds=strict_rounds,
                           backing=backing).create("base")
        for key, value in entries:
            store.write(key, value)
        if sealed:
            store.seal()
        return store
    return build


def _snapshot(store):
    return {key: store.lookup_with_size(key) for key in store.keys()}


class TestDerivation:
    def test_derive_requires_sealed_parent(self, base_store):
        store = base_store([(1, "a")], sealed=False)
        with pytest.raises(StoreSealedError):
            store.derive()

    def test_child_reads_fall_through(self, base_store):
        parent = base_store([(1, (2, 3)), (2, (1,)), (3, ())])
        child = parent.derive()
        assert child.lookup(1) == (2, 3)
        assert child.lookup(9) is None
        assert child.contains(2)
        values, size = child.lookup_many([1, 2, 9])
        assert values == [(2, 3), (1,), None]
        assert size > 0

    def test_child_reads_never_charge_the_parent(self, base_store):
        parent = base_store([(1, "a"), (2, "b")])
        reads_before = list(parent.shard_reads)
        child = parent.derive()
        child.lookup(1)
        child.lookup_many([1, 2])
        child.contains(2)
        child.lookup_with_size(1)
        assert parent.shard_reads == reads_before
        assert sum(child.shard_reads) == 5

    def test_overlay_write_shadows_without_mutating_parent(self, base_store):
        parent = base_store([(1, (2, 3)), (2, (1,))])
        before = _snapshot(parent)
        bytes_before = parent.total_value_bytes
        child = parent.derive()
        child.write(1, (9, 9, 9))
        child.write(7, (1,))
        assert child.lookup(1) == (9, 9, 9)
        assert child.lookup(7) == (1,)
        assert parent.lookup(1) == (2, 3)
        assert parent.lookup(7) is None
        assert _snapshot(parent) == before
        assert parent.total_value_bytes == bytes_before

    def test_accounting_matches_a_from_scratch_store(self, base_store):
        parent = base_store([(k, (k, k + 1)) for k in range(10)])
        child = parent.derive()
        child.write(3, (0,))          # shadow with a smaller value
        child.write(99, (1, 2, 3))    # brand new key
        child.delete(5)               # tombstone a parent key
        child.write(4, (4, 5))        # overwrite with identical content
        child.delete(99)              # delete an overlay-only key
        child.write(5, (5,))          # resurrect a tombstoned key
        final = {key: child.lookup(key) for key in child.keys()}
        rebuilt = base_store(sorted(final.items()), sealed=False)
        assert child.total_entries == rebuilt.total_entries == len(final)
        assert child.total_value_bytes == rebuilt.total_value_bytes
        assert len(child) == rebuilt.total_entries

    def test_delete_semantics(self, base_store):
        parent = base_store([(1, "a"), (2, "b")])
        child = parent.derive()
        assert child.delete(1) is True
        assert child.delete(1) is False      # already tombstoned
        assert child.delete(42) is False     # never existed
        assert child.lookup(1) is None
        assert not child.contains(1)
        assert parent.lookup(1) == "a"
        assert sorted(child.keys()) == [2]

    def test_lookup_with_size_reports_live_entry(self, base_store):
        parent = base_store([(1, (2, 3))])
        child = parent.derive()
        value, size = child.lookup_with_size(1)
        assert value == (2, 3)
        assert size == parent.lookup_with_size(1)[1]
        child.write(1, (2, 3, 4, 5))
        assert child.lookup_with_size(1)[1] > size

    def test_chained_derivation(self, base_store):
        parent = base_store([(1, "a"), (2, "b")])
        child = parent.derive()
        child.write(2, "B")
        child.write(3, "c")
        child.seal()
        grandchild = child.derive()
        grandchild.delete(1)
        grandchild.write(4, "d")
        assert grandchild.lookup(2) == "B"   # child overlay
        assert grandchild.lookup(1) is None  # own tombstone
        assert grandchild.lookup(3) == "c"
        assert sorted(grandchild.keys()) == [2, 3, 4]
        assert parent.lookup(1) == "a"
        # names keep a single +delta tag across generations
        assert grandchild.name.count("+delta") == 1

    def test_sealed_child_rejects_writes_and_deletes(self, base_store):
        child = base_store([(1, "a")]).derive()
        child.seal()
        with pytest.raises(StoreSealedError):
            child.write(2, "b")
        with pytest.raises(StoreSealedError):
            child.delete(1)
        assert child.lookup(1) == "a"

    def test_strict_rounds_inherited(self, base_store):
        store = base_store([(1, "a")], num_shards=2, strict_rounds=True)
        child = store.derive()
        with pytest.raises(StoreSealedError):
            child.lookup(1)  # unsealed child, strict mode
        child.seal()
        assert child.lookup(1) == "a"

    def test_write_many_returns_total_bytes(self, base_store):
        parent = base_store([(1, "a")])
        child = parent.derive()
        total = child.write_many([(1, "xyz"), (2, "pq")])
        assert total == (child.lookup_with_size(1)[1]
                         + child.lookup_with_size(2)[1])

    def test_write_columnar_on_a_child_matches_write_many(self, base_store):
        """A derived generation takes a columnar batch like any store:
        shadowing, resurrection and brand-new keys account exactly as
        the boxed writes do."""
        records = ColumnarRecords.ragged(
            [1, 2, 5, 40], [0, 2, 3, 3, 6], [7, 8, 9, 1, 2, 3])
        children = []
        for columnar in (True, False):
            child = base_store([(k, (k, k)) for k in range(6)]).derive()
            child.delete(5)
            if columnar:
                total = child.write_columnar(records)
            else:
                total = child.write_many(records.items())
            child.seal()
            children.append((total, child.total_entries,
                             child.total_value_bytes, child.keys(),
                             _snapshot(child)))
        assert children[0] == children[1]
        assert children[0][4][5] == ((), 0)
