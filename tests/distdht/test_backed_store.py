"""BackedDHTStore and its derived children: accounting parity with the
simulated stores, namespace lifetime, and lineage folding."""

import gc

import pytest

from repro.ampc.dht import (DerivedDHTStore, DHTService, DHTStore,
                            StoreSealedError)
from repro.distdht.backing import InMemoryBackingStore
from repro.distdht.shm import SharedMemoryBackingStore
from repro.distdht.sockets import DHTNodeServer, SocketBackingStore
from repro.distdht.store import BackedDHTStore

SHARDS = 4


def _accounting(store):
    """Everything the cost model observes about a store."""
    return {
        "total_entries": store.total_entries,
        "total_value_bytes": store.total_value_bytes,
        "shard_reads": list(store.shard_reads),
        "sealed": store.sealed,
    }


def _drive(store):
    """A fixed op sequence exercising writes, overwrites and reads."""
    observations = []
    observations.append(store.write(("v", 1), (1, "payload")))
    observations.append(store.write_many(
        [(("v", i), (i, [i] * i)) for i in range(2, 7)]))
    observations.append(store.write(("v", 1), (1, "replaced")))  # overwrite
    store.seal()
    observations.append(store.lookup(("v", 3)))
    observations.append(store.lookup(("v", 99)))
    observations.append(store.lookup_with_size(("v", 4)))
    observations.append(store.lookup_many(
        [("v", 2), ("v", 404), ("v", 6)]))
    observations.append(store.contains(("v", 5)))
    observations.append(sorted(store.keys()))
    return observations


@pytest.fixture(params=["mem", "shm"])
def backing(request):
    if request.param == "mem":
        store = InMemoryBackingStore()
    else:
        store = SharedMemoryBackingStore()
    with store:
        yield store


class TestParityWithSimulatedStore:
    def test_identical_observations_and_accounting(self, backing):
        simulated = DHTStore("s", SHARDS)
        backed = BackedDHTStore("s", SHARDS, backing=backing)
        assert _drive(simulated) == _drive(backed)
        assert _accounting(simulated) == _accounting(backed)

    def test_sealed_store_rejects_writes(self, backing):
        backed = BackedDHTStore("s", SHARDS, backing=backing)
        backed.write("k", 1)
        backed.seal()
        with pytest.raises(StoreSealedError):
            backed.write("k", 2)

    def test_partial_commit_on_inestimable_value(self, backing):
        """write_many failing mid-batch commits the completed prefix with
        accounting and physical records in lockstep — like the simulator."""
        simulated = DHTStore("s", SHARDS)
        backed = BackedDHTStore("s", SHARDS, backing=backing)

        def items():
            yield "a", (1, 2)
            yield "b", object()  # estimate_bytes cannot size this

        for store in (simulated, backed):
            with pytest.raises(TypeError):
                store.write_many(items())
            store.seal()
        assert _accounting(simulated) == _accounting(backed)
        assert backed.lookup("a") == (1, 2)
        assert backed.lookup("b") is None

    def test_derived_store_parity(self, backing):
        def build(parent_cls, child_factory):
            parent = parent_cls("p", SHARDS)
            parent.write_many([(i, i * 10) for i in range(8)])
            parent.seal()
            child = child_factory(parent)
            child.write(3, "patched")
            child.write(100, "new")
            child.delete(5)        # shadow-delete of a parent key
            child.delete(100)      # delete of an overlay-only key
            child.write(5, "back")  # resurrect the shadow-deleted key
            child.seal()
            reads = [child.lookup(k) for k in (0, 3, 5, 100, 7)]
            return reads, _accounting(child), sorted(child.keys())

        simulated = build(DHTStore, lambda p: p.derive("d"))
        backed = build(
            lambda name, shards: BackedDHTStore(name, shards,
                                                backing=backing),
            lambda p: p.derive("d"))
        assert simulated == backed

    def test_derive_on_backed_store_yields_backed_child(self, backing):
        parent = BackedDHTStore("p", SHARDS, backing=backing)
        parent.write("k", 1)
        parent.seal()
        child = parent.derive()
        assert child.backing is backing
        child.seal()
        grandchild = child.derive()
        assert grandchild.backing is backing

    def test_values_round_trip_by_copy(self, backing):
        """The one documented difference: lookups return equal copies,
        not the written object itself."""
        backed = BackedDHTStore("s", SHARDS, backing=backing)
        value = {"nested": [1, 2, 3]}
        backed.write("k", value)
        backed.seal()
        fetched = backed.lookup("k")
        assert fetched == value
        assert fetched is not value


class TestOneAccountingCore:
    def test_backed_stores_run_the_core_methods(self, backing):
        """The backed store and its children add no accounting of their
        own: every method the cost model observes is the core's."""
        observed = ("write", "write_many", "write_columnar", "lookup",
                    "lookup_with_size", "lookup_many", "lookup_block",
                    "contains", "keys", "derive", "folded")
        root = BackedDHTStore("s", SHARDS, backing=backing)
        for name in observed:
            assert getattr(type(root), name) is getattr(DHTStore, name)
        root.seal()
        child = root.derive()
        assert type(child) is DerivedDHTStore
        for name in (*observed, "delete"):
            assert getattr(type(child), name) \
                is getattr(DerivedDHTStore, name)


class _FailingPuts(InMemoryBackingStore):
    """Writes raise while ``down``, as a socket backing's do when no
    replica is reachable."""

    down = False

    def put(self, key, record):
        if self.down:
            raise ConnectionError("no replica reachable for write")
        super().put(key, record)

    def delete(self, key):
        if self.down:
            raise ConnectionError("every replica unreachable for delete")
        return super().delete(key)


def test_a_failed_put_charges_nothing():
    """Accounting is committed only for what the backing stored: failed
    writes, batch writes, overlay writes and deletes leave every total
    as it was, and retries afterwards account exactly once."""
    backing = _FailingPuts()
    store = BackedDHTStore("s", SHARDS, backing=backing)
    store.write_many([(1, (1,)), (2, (2, 2))])
    before = _accounting(store)
    backing.down = True
    with pytest.raises(ConnectionError):
        store.write(3, (3,))
    with pytest.raises(ConnectionError):
        store.write_many([(1, (9, 9, 9)), (4, (4,))])
    assert _accounting(store) == before
    assert sorted(store.keys()) == [1, 2]
    backing.down = False
    store.write_many([(3, (3,)), (4, (4,))])
    store.seal()
    assert (store.total_entries, store.total_value_bytes) == (4, 40)
    assert [store.lookup(key) for key in (1, 2, 3, 4)] == \
        [(1,), (2, 2), (3,), (4,)]

    child = store.derive()
    backing.down = True
    for attempt in (lambda: child.write(1, (7, 7)),
                    lambda: child.write(5, (5,)),
                    lambda: child.delete(2),
                    lambda: child.delete(1)):
        with pytest.raises(ConnectionError):
            attempt()
    assert (child.total_entries, child.total_value_bytes) == (4, 40)
    assert sorted(child.keys()) == [1, 2, 3, 4]
    backing.down = False
    child.write(1, (7, 7))
    child.write(5, (5,))
    assert child.delete(2)
    child.seal()
    assert (child.total_entries, child.total_value_bytes) == (4, 40)
    assert {key: child.lookup(key) for key in child.keys()} == \
        {1: (7, 7), 3: (3,), 4: (4,), 5: (5,)}


class TestNamespaceLifetime:
    def test_store_gc_releases_backing_records(self, backing):
        store = BackedDHTStore("ephemeral", SHARDS, backing=backing)
        store.write_many([(i, i) for i in range(10)])
        store.seal()
        namespace = store._lane.ns
        assert backing.scan(namespace)
        del store
        gc.collect()
        assert backing.scan(namespace) == []

    def test_release_is_explicit_and_idempotent(self, backing):
        store = BackedDHTStore("s", SHARDS, backing=backing)
        store.write("k", 1)
        assert backing.scan(store._lane.ns)
        store.release()
        assert backing.scan(store._lane.ns) == []
        store.release()

    def test_two_stores_never_collide(self, backing):
        first = BackedDHTStore("same-name", SHARDS, backing=backing)
        second = BackedDHTStore("same-name", SHARDS, backing=backing)
        first.write("k", "first")
        second.write("k", "second")
        first.seal()
        second.seal()
        assert first.lookup("k") == "first"
        assert second.lookup("k") == "second"


class TestFolding:
    def test_folded_flattens_a_chain_with_identical_content(self, backing):
        base = BackedDHTStore("ranks", SHARDS, backing=backing)
        base.write_many([(i, i * 2) for i in range(12)])
        base.seal()
        chain = base
        for generation in range(4):
            chain = chain.derive()
            chain.write(generation, f"gen{generation}")
            chain.delete(11 - generation)
            chain.seal()
        folded = chain.folded()
        assert isinstance(folded, BackedDHTStore)
        assert folded.backing is backing
        assert folded.sealed
        assert sorted(folded.keys()) == sorted(chain.keys())
        assert folded.total_entries == chain.total_entries
        assert folded.total_value_bytes == chain.total_value_bytes
        for key in folded.keys():
            assert folded.lookup(key) == chain.lookup(key)


class TestSocketBackedStore:
    def test_parity_against_simulated_over_real_nodes(self):
        with DHTNodeServer() as node:
            backing = SocketBackingStore([node.address])
            simulated = DHTStore("s", SHARDS)
            backed = BackedDHTStore("s", SHARDS, backing=backing)
            assert _drive(simulated) == _drive(backed)
            assert _accounting(simulated) == _accounting(backed)
            backing.close()

    def test_remote_backing_shrinks_cache_residency(self):
        with DHTNodeServer() as node:
            backing = SocketBackingStore([node.address])
            backed = BackedDHTStore("s", SHARDS, backing=backing)
            backed.write_many([(i, [i] * 50) for i in range(10)])
            backed.seal()
            simulated = DHTStore("s", SHARDS)
            simulated.write_many([(i, [i] * 50) for i in range(10)])
            simulated.seal()
            # payloads live on the node, not in this process
            assert backed.cache_resident_bytes() \
                < simulated.cache_resident_bytes()
            backing.close()


class TestServiceIntegration:
    def test_dht_service_creates_backed_stores(self, backing):
        service = DHTService(SHARDS, backing=backing)
        store = service.create("ranks")
        assert isinstance(store, BackedDHTStore)
        store.write("k", 42)
        store.seal()
        assert store.lookup("k") == 42

    def test_dht_service_without_backing_is_simulated(self):
        service = DHTService(SHARDS)
        store = service.create("ranks")
        assert type(store) is DHTStore
