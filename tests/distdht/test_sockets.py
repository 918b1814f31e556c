"""Socket backend: wire protocol, placement, replication, failover."""

import random
import socket
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.ampc.hashing import stable_hash
from repro.distdht.backing import fetch
from repro.distdht.sockets import (
    OP_DELETE_PREFIX,
    OP_DIGEST,
    OP_HINT,
    OP_MGET,
    OP_MPUT,
    OP_SCAN,
    OP_TAKE_HINTS,
    STATUS_ERROR,
    STATUS_OK,
    VNODES,
    DHTNodeServer,
    FrameError,
    SocketBackingStore,
    _HEADER,
    _pack_chunks,
    _recv_frame,
    _send_frame,
    _unpack_chunks,
)


def make_store(*nodes, **overrides):
    """A client that observes a kill on its very next request."""
    options = dict(timeout=5.0, retries=0, backoff_s=0.01,
                   failure_threshold=1, probe_interval_s=0.0)
    options.update(overrides)
    return SocketBackingStore([n.address for n in nodes], **options)


def key_placed_on(store, replicas):
    """The first ``key-<i>`` whose replica set is ``replicas``."""
    for i in range(100_000):
        key = f"key-{i}".encode()
        if set(store.replicas_for(key)) == set(replicas):
            return key
    raise AssertionError(f"no key lands on {replicas}")


def raw_request(address, op, payload):
    """One hand-built frame over a fresh connection -> (status, reply)."""
    with socket.create_connection(address, timeout=5.0) as sock:
        _send_frame(sock, op, payload)
        return _recv_frame(sock)


@pytest.fixture
def node():
    with DHTNodeServer() as server:
        yield server


@pytest.fixture
def cluster():
    """Two live nodes plus a replication-2 client over them."""
    with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
        store = SocketBackingStore([node_a.address, node_b.address],
                                   replication=2, timeout=5.0,
                                   retries=2, backoff_s=0.01)
        try:
            yield node_a, node_b, store
        finally:
            store.close()


class TestSingleNode:
    def test_ping_and_stats(self, node):
        store = SocketBackingStore([node.address])
        assert store.ping() == [True]
        store.put(b"k", b"v")
        stats = store.stats()
        assert stats["kind"] == "socket"
        assert stats["remote"] is True
        store.close()

    def test_address_string_form_accepted(self, node):
        host, port = node.address
        store = SocketBackingStore([f"{host}:{port}"])
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.close()


class TestPlacement:
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_table_matches_a_ring_walk(self, replication):
        nodes = [("127.0.0.1", 7001 + i) for i in range(3)]
        store = SocketBackingStore(nodes, replication=replication)
        ring = sorted((stable_hash(f"{host}:{port}#{vnode}"), index)
                      for index, (host, port) in enumerate(nodes)
                      for vnode in range(VNODES))
        hashes = [point for point, _owner in ring]

        def ring_walk(key):
            start = bisect_right(hashes, stable_hash(key))
            replicas = []
            for step in range(len(ring)):
                owner = ring[(start + step) % len(ring)][1]
                if owner not in replicas:
                    replicas.append(owner)
                    if len(replicas) == replication:
                        break
            return replicas

        rng = random.Random(replication)
        keys = [rng.randbytes(rng.randrange(1, 24)) for _ in range(1000)]
        keys += [b""] + [point.to_bytes(8, "little") for point in hashes[:8]]
        for key in keys:
            assert list(store.replicas_for(key)) == ring_walk(key)
        store.close()

    def test_placement_is_stable_across_clients(self, cluster):
        node_a, node_b, store = cluster
        other = SocketBackingStore([node_a.address, node_b.address],
                                   replication=2)
        keys = [f"key-{i}".encode() for i in range(64)]
        assert [store.replicas_for(k) for k in keys] == \
            [other.replicas_for(k) for k in keys]
        other.close()

    def test_keys_spread_over_the_ring(self, node):
        with DHTNodeServer() as node_b:
            store = SocketBackingStore([node.address, node_b.address])
            primaries = {store.replicas_for(f"key-{i}".encode())[0]
                         for i in range(256)}
            assert primaries == {0, 1}  # both nodes carry load
            store.close()

    def test_replication_capped_at_cluster_size(self, node):
        store = SocketBackingStore([node.address], replication=3)
        assert store.replication == 1
        store.close()


class TestFailover:
    def test_reads_survive_a_killed_node(self, cluster):
        """The acceptance scenario: one of two replicas dies with reads
        outstanding on pooled connections; every record stays readable."""
        node_a, node_b, store = cluster
        items = [(f"key-{i}".encode(), f"record-{i}".encode() * 5)
                 for i in range(40)]
        store.put_many(items)
        assert store.get(items[0][0]) == items[0][1]  # pools are warm
        node_a.close()  # severs established connections too
        for key, record in items:
            assert store.get(key) == record  # replica failover, per key
        values = store.get_many([key for key, _ in items])
        assert values == [record for _, record in items]
        assert store.ping() == [False, True]

    def test_writes_land_on_surviving_replicas(self, cluster):
        node_a, node_b, store = cluster
        node_b.close()
        store.put(b"after-death", b"still-written")
        assert store.get(b"after-death") == b"still-written"

    def test_every_replica_down_is_an_error(self, cluster):
        node_a, node_b, store = cluster
        store.put(b"k", b"v")
        node_a.close()
        node_b.close()
        with pytest.raises(ConnectionError):
            store.get(b"k")

    def test_locator_fetch_fails_over(self, cluster):
        node_a, node_b, store = cluster
        store.put(b"k", b"locator-payload")
        locator = store.share(b"k")
        assert locator[0] == "dht"
        node_a.close()
        assert fetch(locator) == b"locator-payload"


class TestWriteAcknowledgement:
    """Every key of a write needs one replica that stored it."""

    def test_batch_write_raises_when_a_key_reached_no_replica(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, replication=1)
            try:
                on_a = key_placed_on(store, {0})
                on_b = key_placed_on(store, {1})
                node_b.close()
                with pytest.raises(ConnectionError):
                    store.put(on_b, b"v")
                with pytest.raises(ConnectionError):
                    store.put_many([(on_a, b"v"), (on_b, b"v")])
                assert store.get(on_a) == b"v"  # its replica did store it
                with pytest.raises(ConnectionError):
                    store.get(on_b)
                # a write that raised parks no hint to land later
                assert store.health()["counters"]["hints_parked"] == 0
            finally:
                store.close()

    def test_missed_replicas_of_acknowledged_keys_get_hints(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b, \
                DHTNodeServer() as node_c:
            store = make_store(node_a, node_b, node_c, replication=2)
            try:
                acked = key_placed_on(store, {0, 2})
                lost = key_placed_on(store, {1, 2})
                node_b.close()
                node_c.close()
                with pytest.raises(ConnectionError):
                    store.put_many([(acked, b"v"), (lost, b"w")])
                assert store.get(acked) == b"v"
                host, port = node_c.address
                parked = node_a._server.hints[f"{host}:{port}".encode()]
                assert parked == {b"P" + acked: b"v"}
                assert all(b"P" + lost not in bucket
                           for bucket in node_a._server.hints.values())
            finally:
                store.close()


class TestTombstonesAreAuthoritative:
    """A delete marker ends every read: no later replica is asked."""

    @pytest.fixture
    def straggling_delete(self):
        """r=2, no read-repair: the key is tombstoned on its primary,
        while its second replica still holds the live record."""
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, replication=2,
                               read_repair=False, repair_on_rejoin=False)
            try:
                key = b"ns|s|dead"
                store.put(key, b"v")
                assert store.delete(key)
                straggler = (node_a, node_b)[store.replicas_for(key)[1]]
                with straggler._server.data_lock:
                    straggler._server.data[key] = b"v"
                yield store, key
            finally:
                store.close()

    def test_every_client_read_misses(self, straggling_delete):
        store, key = straggling_delete
        assert store.get(key) is None
        assert store.get_many([key]) == [None]
        assert not store.contains(key)

    def test_locator_fetch_raises(self, straggling_delete):
        store, key = straggling_delete
        with pytest.raises(KeyError):
            fetch(store.share(key))


class TestFraming:
    """Frames decode exactly or not at all."""

    def test_chunks_must_fill_the_payload_exactly(self):
        frame = _pack_chunks([b"key", b"value"])
        assert _unpack_chunks(frame) == [b"key", b"value"]
        for damaged in (frame[:-2], frame + b"x", frame[:3], b""):
            with pytest.raises(FrameError):
                _unpack_chunks(damaged)

    def test_cut_short_write_is_refused_and_stores_nothing(self, node):
        frame = _pack_chunks([b"k2", b"value"])
        for op, payload in ((OP_MPUT, frame[:-2]),
                            (OP_MPUT, _pack_chunks([b"odd"])),
                            (OP_HINT, _pack_chunks([b"node", b"k"])),
                            (OP_MPUT, frame + b"trailing")):
            status, _reply = raw_request(node.address, op, payload)
            assert status == STATUS_ERROR
        assert node._server.data == {}
        assert node._server.hints == {}

    def test_malformed_replies_raise_frame_errors(self, node, monkeypatch):
        store = SocketBackingStore([node.address])
        store.put(b"k", b"v")
        client = store._clients[0]
        for reply in (b"\x01\x00", _pack_chunks([b"\x01v", b"extra"]),
                      _pack_chunks([b"\x01v"]) + b"junk"):
            monkeypatch.setattr(client, "request",
                                lambda op, payload, reply=reply: reply)
            with pytest.raises(FrameError):
                store.get(b"k")
            with pytest.raises(FrameError):
                store.get_many([b"k"])
            with pytest.raises(FrameError):
                store.put(b"k", b"v")
            with pytest.raises(FrameError):
                store.delete_prefix(b"")
        with pytest.raises(FrameError):
            store.scan(b"")  # the last reply: a chunk list plus junk
        store.close()


@pytest.fixture(scope="module")
def fuzzed_node():
    with DHTNodeServer() as server:
        store = SocketBackingStore([server.address], retries=0)
        store.put(b"canary|" + bytes(32), b"still-here")
        try:
            yield server, store
        finally:
            store.close()


@st.composite
def damaged_frames(draw):
    """A well-formed chunk list for a decoding op, cut and/or padded."""
    op = draw(st.sampled_from(
        [OP_MPUT, OP_MGET, OP_HINT, OP_TAKE_HINTS, OP_DIGEST, OP_SCAN]))
    payload = _pack_chunks(draw(st.lists(st.binary(max_size=8),
                                         max_size=6)))
    cut = draw(st.integers(0, len(payload)))
    return op, payload[:cut] + draw(st.binary(max_size=4))


FRAMES = st.one_of(
    damaged_frames(),
    st.tuples(st.integers(0, 255).filter(lambda op: op != OP_DELETE_PREFIX),
              st.binary(max_size=48)),
)


@settings(max_examples=200)
@given(frame=FRAMES, truncate=st.none() | st.integers(0, 60))
def test_fuzzed_frames_leave_the_node_serving(fuzzed_node, frame, truncate):
    """Garbage gets STATUS_ERROR (and changes nothing) or a clean answer;
    a frame cut off mid-way costs its own connection only."""
    server, store = fuzzed_node
    op, payload = frame
    wire = _HEADER.pack(op, len(payload)) + payload
    state = server._server
    with state.data_lock:
        before = (dict(state.data),
                  {target: dict(bucket)
                   for target, bucket in state.hints.items()})
    with socket.create_connection(server.address, timeout=5.0) as sock:
        if truncate is not None and truncate < len(wire):
            sock.sendall(wire[:truncate])
        else:
            sock.sendall(wire)
            status, _reply = _recv_frame(sock)
            assert status in (STATUS_OK, STATUS_ERROR)
            if status == STATUS_ERROR:
                with state.data_lock:
                    assert state.data == before[0]
                    assert state.hints == before[1]
    assert store.get(b"canary|" + bytes(32)) == b"still-here"
