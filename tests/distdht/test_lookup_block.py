"""``lookup_block`` against ``lookup_many`` on every store kind.

The sweeps read column blocks instead of boxed values; on every store —
sim, ``mem``, ``shm`` and a three-generation derived chain on each real
backing — the block's columns must be ``unbox_rows`` of the boxed
answer, and the charges (``kv_reads``, ``kv_read_bytes``,
``shard_reads``) must be those of ``lookup_many``.  A backed block is
checked against the local size index and is never cached.
"""

import numpy as np
import pytest

from repro.ampc.cluster import Cluster, ClusterConfig
from repro.ampc.columnar import ColumnarRecords, unbox_rows
from repro.ampc.dht import DHTStore
from repro.dataflow.dofn import MachineContext
from repro.distdht.backing import InMemoryBackingStore, encode_record
from repro.distdht.shm import SharedMemoryBackingStore
from repro.distdht.store import BackedDHTStore

SHARDS = 4
N = 90

#: the row shapes the sweeps read, by the dtypes they pass to columns()
#: (None: MIS's flat int lists); "scalars" is MSF's pointer store
SHAPES = {
    "mis": None,
    "matching": (np.float64, np.int64),
    "msf": (np.int64, np.float64),
}


def _records(shape: str) -> ColumnarRecords:
    rng = np.random.default_rng(7)
    keys = np.arange(N, dtype=np.int64)
    if shape == "scalars":
        return ColumnarRecords.scalars(keys, rng.integers(0, N, N))
    rows = rng.integers(0, 5, N)
    indptr = np.concatenate(([0], np.cumsum(rows)))
    total = int(indptr[-1])
    ints = rng.integers(0, N, total)
    floats = rng.random(total)
    cols = {"mis": (ints,), "matching": (floats, ints),
            "msf": (ints, floats)}[shape]
    return ColumnarRecords.ragged(keys, indptr, *cols)


def _patch(store, shape: str, generation: int):
    """One derived generation: overwrites (boxed), deletes, inserts."""
    child = store.derive()
    for key in range(generation, N, 7):
        value = _records(shape).items()[(key * 3) % N][1]
        child.write(key, value)
    for key in range(generation + 2, N, 11):
        child.delete(key)
    child.write(N + generation, _records(shape).items()[generation][1])
    child.seal()
    return child


def _build(kind: str, shape: str, backing=None):
    store = (DHTStore("s", SHARDS) if kind == "sim"
             else BackedDHTStore("s", SHARDS, backing=backing))
    store.write_columnar(_records(shape))
    store.seal()
    return store


def _read(store, keys, shape, block: bool):
    ctx = MachineContext(0, Cluster(ClusterConfig(num_machines=SHARDS)))
    if block:
        result = ctx.lookup_block(store, keys)
        answer = (result.scalars() if shape == "scalars"
                  else result.columns(SHAPES[shape]))
    else:
        values = ctx.lookup_many(store, keys)
        answer = (np.array([-1 if v is None else v for v in values])
                  if shape == "scalars" else unbox_rows(values,
                                                        SHAPES[shape]))
    work = ctx.work
    return answer, (work.kv_reads, work.kv_read_bytes,
                    list(store.shard_reads))


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return len(a) == len(b) and all(map(_same, a, b))


@pytest.fixture(params=["sim", "mem", "shm"])
def backing_kind(request):
    if request.param == "sim":
        yield "sim", None
    elif request.param == "mem":
        yield "mem", InMemoryBackingStore()
    else:
        with SharedMemoryBackingStore() as backing:
            yield "shm", backing


KEYS = {
    # >= 32 int keys: vectorised routing; misses and deleted keys included
    "batch": list(range(N + 4)) + [5, 5, 200],
    # a short batch routes key by key
    "short": [3, 17, N + 1, 40, 3],
}


@pytest.mark.parametrize("shape", [*SHAPES, "scalars"])
@pytest.mark.parametrize("keys", KEYS)
@pytest.mark.parametrize("generations", [0, 3])
def test_block_equals_unboxed_lookup_many(backing_kind, shape, keys,
                                          generations):
    kind, backing = backing_kind
    stores = []
    for _ in range(2):  # one store per read path: shard_reads compare
        store = _build(kind, shape, backing)
        for generation in range(generations):
            store = _patch(store, shape, generation + 1)
        stores.append(store)
    block_answer, block_charges = _read(stores[0], KEYS[keys], shape, True)
    boxed_answer, boxed_charges = _read(stores[1], KEYS[keys], shape, False)
    assert _same(block_answer, boxed_answer)
    assert block_charges == boxed_charges


class CountingBacking(InMemoryBackingStore):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def get(self, key):
        self.reads += 1
        return super().get(key)

    def get_many(self, keys):
        self.reads += len(keys)
        return [InMemoryBackingStore.get(self, key) for key in keys]


def test_every_call_fetches_every_hit_again():
    backing = CountingBacking()
    store = _patch(_build("mem", "mis", backing), "mis", 1)
    keys = list(range(40))
    hits = sum(value is not None for value in store.lookup_many(keys)[0])
    backing.reads = 0
    for call in (1, 2):
        store.lookup_block(keys)[0].columns()
        assert backing.reads == call * hits


def test_one_get_many_per_generation():
    class Batches(InMemoryBackingStore):
        calls = 0

        def get_many(self, keys):
            Batches.calls += 1
            return super().get_many(keys)

    store = _build("mem", "matching", Batches())
    for generation in (1, 2, 3):
        store = _patch(store, "matching", generation)
    Batches.calls = 0
    store.lookup_block(list(range(N)))
    assert Batches.calls == 4  # the root and three overlays


@pytest.mark.parametrize("shape", [*SHAPES, "scalars"])
def test_a_header_that_disagrees_with_the_index_raises(shape):
    backing = InMemoryBackingStore()
    store = _build("mem", shape, backing)
    value, size = store.lookup_with_size(9)
    backing.put(store._lane.key_bytes(9), encode_record(value, size + 8))
    with pytest.raises(ValueError, match="size index"):
        store.lookup_block(list(range(40)))
    with pytest.raises(ValueError):
        store.lookup(9)


def test_overlay_writes_and_deletes_read_nothing_from_the_backing():
    """A derived overlay learns a shadowed entry's size from the chain's
    local size indexes, never by fetching the parent's record."""
    backing = CountingBacking()
    store = _patch(_build("mem", "matching", backing), "matching", 1)
    child = store.derive()
    backing.reads = 0
    for key in range(0, N, 5):
        child.write(key, ((0.5, key),))
    for key in range(1, N, 5):
        child.delete(key)
    child.delete(0)  # an overlay entry that shadows a parent one
    assert backing.reads == 0
