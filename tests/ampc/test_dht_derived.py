"""Derived (copy-on-write) DHT stores: the patch-in-place primitive.

A derived child overlays a sealed parent: writes and deletes land in the
overlay, reads fall through, and the child's aggregate accounting always
matches a from-scratch store with the same final content — while the
parent (which another cache entry may still serve) never changes at all.
Every test runs on simulated stores and on backed ones (``mem``, ``shm``).
"""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ampc.columnar import ColumnarRecords
from repro.ampc.cost_model import estimate_bytes
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


#: int keys (a probe of all of them takes the vectorised route) and str
#: keys (routed key by key); few enough that deletes and re-puts collide
_INT_KEYS = list(range(40))
_STR_KEYS = ["a", "b", "c"]
_OPS = st.one_of(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.sampled_from(_INT_KEYS + _STR_KEYS)),
    # a bulk write of 32 consecutive int keys from a start key
    st.tuples(st.just("put_many"), st.integers(0, len(_INT_KEYS) - 32)))


def _assert_matches(store, model):
    """Every read path of ``store`` agrees with the plain dict ``model``."""
    sizes = {key: estimate_bytes(value) for key, value in model.items()}
    for probe in (_INT_KEYS, _STR_KEYS):
        values, total = store.lookup_many(probe)
        assert values == [model.get(key) for key in probe]
        assert total == sum(sizes.get(key, 0) for key in probe)
    assert [store.contains(key) for key in _STR_KEYS] == [
        key in model for key in _STR_KEYS]
    assert set(store.keys()) == set(model)
    assert store.total_entries == len(model)
    assert store.total_value_bytes == sum(sizes.values())
    folded = store.folded()
    assert {key: folded.lookup(key) for key in folded.keys()} == model
    assert folded.total_value_bytes == store.total_value_bytes


class TestChainsAgainstAModel:
    """Random derivation chains read exactly like a dict per generation."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(generations=st.lists(st.lists(_OPS, max_size=10),
                                min_size=1, max_size=12),
           ancestor=st.integers(0, 11))
    def test_random_chains(self, base_store, generations, ancestor):
        root = {key: (key,) for key in _INT_KEYS[::3] + _STR_KEYS[:1]}
        chain = [base_store(sorted(root.items(), key=repr))]
        models = [root]
        for depth, ops in enumerate(generations, start=1):
            child = chain[-1].derive()
            model = dict(models[-1])
            for op, arg in ops:
                if op == "put":
                    child.write(arg, (depth, len(model)))
                    model[arg] = (depth, len(model))
                elif op == "delete":
                    assert child.delete(arg) is (arg in model)
                    model.pop(arg, None)
                else:
                    batch = [(key, (depth,)) for key in
                             _INT_KEYS[arg:arg + 32]]
                    child.write_many(batch)
                    model.update(batch)
            _assert_matches(child, model)  # the open overlay
            child.seal()
            chain.append(child)
            models.append(model)
        _assert_matches(chain[-1], models[-1])
        # an ancestor read after a child was derived from it and sealed,
        # then a second child of that ancestor
        older = min(ancestor, len(chain) - 2)
        _assert_matches(chain[older], models[older])
        fork = chain[older].derive()
        fork.delete(_STR_KEYS[0])
        fork.write(_INT_KEYS[1], ("fork",))
        fork.seal()
        model = dict(models[older])
        model.pop(_STR_KEYS[0], None)
        model[_INT_KEYS[1]] = ("fork",)
        _assert_matches(fork, model)
        _assert_matches(chain[-1], models[-1])


class TestChainMemory:
    def test_views_stay_linear_in_the_overlay(self, base_store):
        """An unfolded chain shares one view along the chain: no
        generation copies its parent's."""
        store = base_store([(key, (key,)) for key in range(100)])
        chain = []
        for generation in range(200):
            store = store.derive()
            first = 1000 * (generation + 1)
            store.write_many((first + key, (key,)) for key in range(10))
            store.seal()
            assert store.lookup(first) == (0,)
            chain.append(store)
        views = {id(generation._view): generation._view
                 for generation in chain}
        overlay = chain[-1].total_entries - chain[0].parent.total_entries
        assert overlay == 2000
        assert sum(len(view.entries) for view in views.values()) \
            <= 2 * overlay


class TestChainViewUnderThreads:
    def test_reads_hold_while_children_seal(self):
        """Sealing a child merges into the view its parent reads: readers
        of the parent and concurrently sealing siblings each still see
        exactly their own content."""
        keys = list(range(300))
        root = DHTService(4).create("base")
        root.write_many((key, (key,)) for key in keys[:200])
        root.seal()
        parent = root.derive()
        parent.write_many((key, ("p",)) for key in keys[100:250])
        parent.seal()
        expected = [(key,) if key < 100 else ("p",) if key < 250 else None
                    for key in keys]
        errors = []
        stop = threading.Event()

        def read_parent():
            while not stop.is_set():
                if parent.lookup_many(keys)[0] != expected:
                    errors.append("batch read of the parent")
                if parent.lookup(120) != ("p",):
                    errors.append("scalar read of the parent")

        def seal_children(tag):
            while not stop.is_set():
                child = parent.derive()
                child.write_many((key, (tag,)) for key in keys[::2])
                child.delete(1)
                child.seal()
                values = child.lookup_many(keys)[0]
                if values != [None if key == 1 else (tag,) if key % 2 == 0
                              else value
                              for key, value in zip(keys, expected)]:
                    errors.append(f"child {tag}")

        workers = [threading.Thread(target=read_parent) for _ in range(3)]
        workers += [threading.Thread(target=seal_children, args=(tag,))
                    for tag in ("x", "y")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
