"""The BackingStore contract, run against every backing.

One suite, parametrised over the in-memory reference, shared memory, a
one-node socket cluster and a replication-2 socket cluster, so a
behaviour cannot drift between backings unnoticed.  Backend-specific
behaviour (segments, placement, failover, healing) stays in the
backend's own test module.
"""

import pytest

from repro.distdht.backing import InMemoryBackingStore
from repro.distdht.shm import SharedMemoryBackingStore
from repro.distdht.sockets import DHTNodeServer, SocketBackingStore

BACKINGS = ("mem", "shm", "socket", "socket-r2")


@pytest.fixture(params=BACKINGS)
def store(request):
    if request.param == "mem":
        yield InMemoryBackingStore()
    elif request.param == "shm":
        # a 1 KiB first segment, so the suite also crosses segments
        with SharedMemoryBackingStore(segment_bytes=1024) as shm:
            yield shm
    else:
        count = 1 if request.param == "socket" else 2
        servers = [DHTNodeServer().start() for _ in range(count)]
        backing = SocketBackingStore([s.address for s in servers],
                                     replication=count, timeout=5.0,
                                     retries=2, backoff_s=0.01)
        try:
            yield backing
        finally:
            backing.close()
            for server in servers:
                server.close()


def test_put_get_delete_contains(store):
    assert store.get(b"a") is None
    assert not store.contains(b"a")
    store.put(b"a", b"rec-a")
    store.put(b"b", b"rec-b")
    assert store.get(b"a") == b"rec-a"
    assert store.contains(b"b")
    assert store.delete(b"a")
    assert not store.delete(b"a")
    assert store.get(b"a") is None
    assert store.get(b"b") == b"rec-b"


def test_overwrite_replaces(store):
    store.put(b"k", b"one")
    assert store.get(b"k") == b"one"
    store.put(b"k", b"two-longer")
    assert store.get(b"k") == b"two-longer"


def test_put_many_get_many_align(store):
    items = [(f"k{i}".encode(), f"v{i}".encode() * 10) for i in range(50)]
    store.put_many(items)
    keys = [b"missing"] + [key for key, _ in reversed(items)]
    assert store.get_many(keys) == \
        [None] + [record for _, record in reversed(items)]
    assert store.get_many([]) == []
    store.put_many([])  # an empty batch is a no-op


def test_scan_and_delete_prefix(store):
    store.put_many([(b"ns1|a", b"1"), (b"ns1|b", b"2"), (b"ns2|a", b"3")])
    assert sorted(store.scan(b"ns1|")) == [b"ns1|a", b"ns1|b"]
    assert store.delete_prefix(b"ns1|") == 2
    assert store.scan(b"ns1|") == []
    assert store.get(b"ns1|a") is None
    assert store.get(b"ns2|a") == b"3"


def test_contains_agrees_with_get_after_delete(store):
    store.put_many([(b"gone", b"x"), (b"kept", b"y")])
    store.delete(b"gone")
    for key in (b"gone", b"kept", b"never"):
        assert store.contains(key) == (store.get(key) is not None)
    assert store.get_many([b"gone", b"kept"]) == [None, b"y"]
    assert b"gone" not in store.scan(b"")


def test_delete_reports_whether_the_key_was_live(store):
    assert store.delete(b"k") is False      # never written
    store.put(b"k", b"v")
    assert store.delete(b"k") is True       # live
    assert store.delete(b"k") is False      # already deleted
    store.put(b"k", b"again")
    assert store.delete(b"k") is True       # written over the delete
