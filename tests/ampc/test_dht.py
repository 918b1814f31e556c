"""Tests for the distributed hash table, on every kind of store: the
simulator's and backed ones over a ``mem`` and an ``shm`` backing run the
same accounting code, so they must pass the same tests."""

import pytest

from repro.ampc import DHTService, DHTStore, StoreSealedError
from repro.distdht.backing import InMemoryBackingStore
from repro.distdht.shm import SharedMemoryBackingStore


@pytest.fixture(params=["sim", "mem", "shm"])
def backing(request):
    """None for a simulated store, else the backing its values live in."""
    if request.param == "sim":
        yield None
        return
    kind = (InMemoryBackingStore if request.param == "mem"
            else SharedMemoryBackingStore)
    with kind() as store:
        yield store


@pytest.fixture
def new_store(backing):
    """``new_store(num_shards, strict_rounds=False)``: an empty store of
    the parametrized kind."""
    def new(num_shards, *, strict_rounds=False):
        return DHTService(num_shards, strict_rounds=strict_rounds,
                          backing=backing).create("t")
    return new


class TestDHTStore:
    def test_write_and_lookup(self, new_store):
        store = new_store(4)
        store.write("a", (1, 2))
        assert store.lookup("a") == (1, 2)
        assert store.lookup("missing") is None

    def test_overwrite_keeps_entry_count(self, new_store):
        store = new_store(2)
        store.write("a", 1)
        store.write("a", 2)
        assert len(store) == 1
        assert store.lookup("a") == 2

    def test_sealed_store_rejects_writes(self, new_store):
        store = new_store(2)
        store.write("a", 1)
        store.seal()
        with pytest.raises(StoreSealedError):
            store.write("b", 2)
        assert store.lookup("a") == 1

    def test_strict_round_store_rejects_early_reads(self, new_store):
        store = new_store(2, strict_rounds=True)
        store.write("a", 1)
        with pytest.raises(StoreSealedError):
            store.lookup("a")
        store.seal()
        assert store.lookup("a") == 1

    def test_shard_load_accounting(self, new_store):
        store = new_store(4)
        store.write("hot", 1)
        for _ in range(10):
            store.lookup("hot")
        assert store.max_shard_load() == 10
        assert sum(store.shard_reads) == 10

    def test_write_returns_value_bytes(self, new_store):
        store = new_store(1)
        assert store.write("k", (1, 2, 3)) == 24

    def test_write_many_and_keys(self, new_store):
        store = new_store(3)
        store.write_many([("a", 1), ("b", 2)])
        assert sorted(store.keys()) == ["a", "b"]

    def test_contains(self, new_store):
        store = new_store(2)
        store.write("a", 1)
        assert store.contains("a")
        assert not store.contains("b")

    def test_zero_shards_rejected(self, new_store):
        with pytest.raises(ValueError):
            new_store(0)


class TestDHTService:
    def test_sequential_names(self, backing):
        service = DHTService(num_shards=2, backing=backing)
        assert service.create().name == "D0"
        assert service.create().name == "D1"

    def test_named_store_and_get(self, backing):
        service = DHTService(num_shards=2, backing=backing)
        store = service.create("graph")
        assert service.get("graph") is store

    def test_duplicate_name_rejected(self, backing):
        service = DHTService(num_shards=2, backing=backing)
        service.create("x")
        with pytest.raises(ValueError):
            service.create("x")

    def test_strict_mode_propagates(self, backing):
        service = DHTService(num_shards=2, strict_rounds=True,
                             backing=backing)
        store = service.create()
        store.write("a", 1)
        with pytest.raises(StoreSealedError):
            store.lookup("a")


class TestOverwriteAccounting:
    def test_overwrite_refunds_replaced_size(self, new_store):
        """Regression: duplicate-key writes used to inflate
        total_value_bytes by the replaced entry's size forever."""
        store = new_store(4)
        store.write("a", (1, 2, 3))       # 24 bytes
        store.write("a", (1,))            # now 8 bytes live
        assert store.total_value_bytes == 8
        store.write("a", (1, 2, 3, 4))    # now 32 bytes live
        assert store.total_value_bytes == 32
        assert store.total_entries == 1

    def test_overwrite_heavy_store_matches_live_sizes(self, new_store):
        from repro.ampc.cost_model import estimate_bytes

        store = new_store(3)
        for round_index in range(5):
            for key in range(20):
                store.write(key, tuple(range(key % 7 + round_index)))
        live = sum(
            estimate_bytes(store.lookup(key)) for key in store.keys()
        )
        assert store.total_value_bytes == live
        assert store.total_entries == 20

    def test_write_many_overwrites_like_write(self, new_store):
        a, b = new_store(2), new_store(2)
        items = [(k % 4, tuple(range(k))) for k in range(12)]
        for key, value in items:
            a.write(key, value)
        returned = b.write_many(items)
        assert returned == sum(
            DHTStore("x", 1).write(k, v) for k, v in items
        )
        assert b.total_value_bytes == a.total_value_bytes
        assert b.total_entries == a.total_entries


class TestBatchedStoreOps:
    def test_lookup_many_matches_lookup_sequence(self, new_store):
        a, b = new_store(4), new_store(4)
        for store in (a, b):
            for key in range(10):
                store.write(key, tuple(range(key)))
        keys = [3, 7, 99, 3, 0]
        expected = [a.lookup(key) for key in keys]
        values, total = b.lookup_many(keys)
        assert values == expected
        assert total == sum(
            DHTStore("x", 1).write(0, v) if v is not None else 0
            for v in expected
        )
        assert a.shard_reads == b.shard_reads

    def test_lookup_with_size_returns_recorded_size(self, new_store):
        store = new_store(2)
        store.write(5, (1, 2, 3))
        assert store.lookup_with_size(5) == ((1, 2, 3), 24)
        assert store.lookup_with_size(6) == (None, 0)

    def test_strict_rounds_apply_to_batched_reads(self, new_store):
        store = new_store(2, strict_rounds=True)
        store.write(1, (1,))
        with pytest.raises(StoreSealedError):
            store.lookup_many([1])
        with pytest.raises(StoreSealedError):
            store.lookup_with_size(1)
        store.seal()
        assert store.lookup_many([1]) == ([(1,)], 8)

    def test_sealed_store_rejects_write_many(self, new_store):
        store = new_store(2)
        store.seal()
        with pytest.raises(StoreSealedError):
            store.write_many([(1, 2)])

    def test_write_many_partial_failure_keeps_accounting_consistent(self, new_store):
        store = new_store(2)
        with pytest.raises(TypeError):
            store.write_many([(1, (1, 2)), (2, object()), (3, (3,))])
        # The failing item wrote nothing; the completed prefix is fully
        # accounted, exactly like the equivalent write() sequence.
        assert store.lookup(1) == (1, 2)
        assert store.lookup(2) is None
        assert store.lookup(3) is None
        assert store.total_entries == 1
        assert store.total_value_bytes == 16
        store.write(1, (5,))  # overwrite refund stays correct afterwards
        assert store.total_value_bytes == 8
