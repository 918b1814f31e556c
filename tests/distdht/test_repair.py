"""Self-healing socket DHT: breaker, hints, read-repair, anti-entropy.

Every test drives real ``DHTNodeServer`` processes-worth of state over
TCP, with the deterministic knobs (``failure_threshold=1``,
``probe_interval_s=0`` + explicit ``probe_now()``, ``retries=0``) so a
kill is observed on the very next operation and recovery happens exactly
when the test asks for it.
"""

import pytest

from repro.distdht import (
    BackedDHTStore,
    NodeOutage,
    RepairReport,
    repair_store,
)
from repro.distdht.backing import TOMBSTONE, record_digest
from repro.distdht.sockets import DHTNodeServer, SocketBackingStore


def make_store(*nodes, **overrides):
    """Replication-2 client with deterministic self-healing knobs."""
    options = dict(replication=2, timeout=5.0, retries=0, backoff_s=0.01,
                   failure_threshold=1, probe_interval_s=0.0)
    options.update(overrides)
    return SocketBackingStore([n.address for n in nodes], **options)


def drop_from_node(node, key):
    """Delete one record from a node's storage behind the client's back."""
    with node._server.data_lock:
        node._server.data.pop(key, None)


class TestCircuitBreaker:
    def test_failures_open_the_circuit_and_reads_skip_it(self):
        with DHTNodeServer() as node_a:
            node_b = DHTNodeServer().start()
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            try:
                store.put(b"k", b"v")
                node_b.close()
                assert store.ping() == [True, False]  # marks b down
                health = store.health()
                assert health["nodes"][1]["down"]
                assert not health["nodes"][0]["down"]
                assert health["counters"]["nodes_marked_down"] == 1
                # replica walks now skip b without paying a timeout
                assert store.get(b"k") == b"v"
                assert store.health()["counters"]["fast_fails"] >= 1
            finally:
                store.close()

    def test_probe_now_recovers_a_restarted_node(self):
        with DHTNodeServer() as node_a:
            node_b = DHTNodeServer().start()
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            try:
                outage = NodeOutage(node_b)
                outage.__enter__()
                store.ping()
                assert store.health()["nodes"][1]["down"]
                assert store.probe_now() == []  # still dead
                node_b = outage.restart()
                assert store.probe_now() == [1]
                health = store.health()
                assert not health["nodes"][1]["down"]
                assert health["counters"]["nodes_recovered"] == 1
                assert health["counters"]["probes"] >= 1
            finally:
                store.close()
                node_b.close()

    def test_all_replicas_down_still_attempts_them(self):
        # half-open fallback: when every replica is marked down the walk
        # tries them anyway, so a quietly-recovered node serves even
        # with no prober configured
        with DHTNodeServer() as node:
            store = SocketBackingStore([node.address], retries=0,
                                       backoff_s=0.01, failure_threshold=1,
                                       probe_interval_s=0.0)
            try:
                store.put(b"k", b"v")
                node.sever_connections()  # drop pools; node stays up
                try:
                    store.get(b"k")
                except ConnectionError:
                    pass
                assert store.get(b"k") == b"v"
            finally:
                store.close()


class TestHintedHandoff:
    def test_writes_for_a_down_node_land_via_hints(self):
        with DHTNodeServer() as node_a:
            node_b = DHTNodeServer().start()
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            try:
                store.put(b"ns|s|live", b"old")
                with NodeOutage(node_b) as outage:
                    store.ping()  # observe the kill -> b marked down
                    store.put(b"ns|s|new", b"fresh")  # parked for b
                    assert store.delete(b"ns|s|live")  # tombstone parked
                    counters = store.health()["counters"]
                    assert counters["hints_parked"] >= 2
                node_b = outage.restarted  # rejoined EMPTY
                assert store.probe_now() == [1]
                counters = store.health()["counters"]
                assert counters["hints_replayed"] >= 2
                # the rejoined node holds the writes it missed, verbatim
                assert store.node_get_record(1, b"ns|s|new") == b"fresh"
                assert store.node_get_record(1, b"ns|s|live") == TOMBSTONE
                # and the client view is consistent: no resurrection
                assert store.get(b"ns|s|new") == b"fresh"
                assert store.get(b"ns|s|live") is None
            finally:
                store.close()
                node_b.close()

    def test_single_node_cluster_has_nowhere_to_park(self):
        with DHTNodeServer() as node:
            store = SocketBackingStore([node.address], retries=0,
                                       backoff_s=0.01, failure_threshold=1,
                                       probe_interval_s=0.0)
            try:
                node.sever_connections()
                store.put(b"k", b"v")  # node still up: lands directly
                assert store.health()["counters"]["hints_parked"] == 0
            finally:
                store.close()


class TestReadRepair:
    def test_failover_read_writes_the_record_back(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            servers = (node_a, node_b)
            try:
                key = b"ns|s|k"
                store.put(key, b"v")
                primary = store.replicas_for(key)[0]
                drop_from_node(servers[primary], key)
                assert store.node_get_record(primary, key) is None
                assert store.get(key) == b"v"  # served by the replica
                assert store.health()["counters"]["read_repairs"] == 1
                # the primary holds the record again
                assert store.node_get_record(primary, key) == b"v"
            finally:
                store.close()

    def test_read_repair_can_be_disabled(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, read_repair=False,
                               repair_on_rejoin=False)
            servers = (node_a, node_b)
            try:
                key = b"ns|s|k"
                store.put(key, b"v")
                primary = store.replicas_for(key)[0]
                drop_from_node(servers[primary], key)
                assert store.get(key) == b"v"
                assert store.health()["counters"]["read_repairs"] == 0
                assert store.node_get_record(primary, key) is None
            finally:
                store.close()


class TestAntiEntropy:
    def test_missing_records_are_copied_until_digests_agree(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            try:
                keys = [f"ns|s|k{i}".encode() for i in range(20)]
                store.put_many([(key, b"v" + key) for key in keys])
                for key in keys[:5]:
                    drop_from_node(node_b, key)
                report = repair_store(store)
                assert isinstance(report, RepairReport)
                assert report.converged
                assert report.keys_copied == 5
                assert report.keys_checked == 20
                assert report.namespaces["ns|s|"]["copied"] == 5
                assert store.node_digest(0) == store.node_digest(1)
                # a second sweep verifies clean in one round
                again = repair_store(store)
                assert again.converged
                assert again.rounds == 1
                assert again.keys_copied == 0
            finally:
                store.close()

    def test_tombstone_wins_over_a_live_record(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            servers = (node_a, node_b)
            try:
                key = b"ns|s|dead"
                store.put(key, b"v")
                assert store.delete(key)  # tombstones on both replicas
                # one replica "missed" the delete: it holds a live record
                straggler = store.replicas_for(key)[1]
                with servers[straggler]._server.data_lock:
                    servers[straggler]._server.data[key] = b"v"
                report = repair_store(store)
                assert report.converged
                assert report.tombstones_copied == 1
                # the delete propagated; the record did NOT resurrect
                assert store.node_get_record(straggler, key) == TOMBSTONE
                assert store.get(key) is None
                assert not store.contains(key)
            finally:
                store.close()

    def test_prefix_limits_the_sweep(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            try:
                store.put(b"ns|x|k", b"1")
                store.put(b"ns|y|k", b"2")
                drop_from_node(node_b, b"ns|x|k")
                drop_from_node(node_b, b"ns|y|k")
                report = repair_store(store, prefix=b"ns|x|")
                assert report.converged
                assert report.keys_copied == 1
                assert store.node_get_record(1, b"ns|y|k") is None
            finally:
                store.close()

    def test_unreachable_cluster_reports_not_converged(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            store = make_store(node_a, node_b, repair_on_rejoin=False)
            store.put(b"k", b"v")
            node_a.close()
            node_b.close()
            try:
                report = repair_store(store)
                assert not report.converged
                assert report.nodes_unreachable == 2
            finally:
                store.close()


class TestRejoinSemantics:
    """A node restarted empty: misses before repair, hits after."""

    def test_empty_rejoin_misses_then_repair_restores(self):
        with DHTNodeServer() as node_a:
            node_b = DHTNodeServer().start()
            store = make_store(node_a, node_b, repair_on_rejoin=False,
                               hinted_handoff=False)
            try:
                store.put(b"ns|s|kept", b"value")
                store.put(b"ns|s|dead", b"doomed")
                assert store.delete(b"ns|s|dead")
                with NodeOutage(node_b) as outage:
                    store.ping()
                node_b = outage.restarted
                assert store.probe_now() == [1]
                # pre-repair (hints were off): the node serves misses
                assert store.node_get_record(1, b"ns|s|kept") is None
                assert store.node_get_record(1, b"ns|s|dead") is None
                report = store.repair()
                assert report.converged
                # post-repair: hits, including the tombstone
                assert store.node_get_record(1, b"ns|s|kept") == b"value"
                assert store.node_get_record(1, b"ns|s|dead") == TOMBSTONE
                assert store.get(b"ns|s|kept") == b"value"
                assert store.get(b"ns|s|dead") is None  # no resurrection
            finally:
                store.close()
                node_b.close()

    def test_rejoin_auto_repair_and_callbacks(self):
        with DHTNodeServer() as node_a:
            node_b = DHTNodeServer().start()
            store = make_store(node_a, node_b)  # repair_on_rejoin=True
            rejoined = []
            store.on_rejoin.append(rejoined.append)
            try:
                store.put(b"ns|s|k1", b"v1")
                with NodeOutage(node_b) as outage:
                    store.ping()
                    store.put(b"ns|s|k2", b"v2")  # hinted
                node_b = outage.restarted
                assert store.probe_now() == [1]
                assert rejoined == [1]
                counters = store.health()["counters"]
                assert counters["auto_repairs"] == 1
                assert counters["hints_replayed"] >= 1
                # full convergence: both nodes hold identical data
                assert store.node_digest(0) == store.node_digest(1)
                assert store.get(b"ns|s|k1") == b"v1"
                assert store.get(b"ns|s|k2") == b"v2"
            finally:
                store.close()
                node_b.close()


class TestBackedStoreRepair:
    def test_repair_is_scoped_to_the_store_namespace(self):
        with DHTNodeServer() as node_a, DHTNodeServer() as node_b:
            backing = make_store(node_a, node_b, repair_on_rejoin=False)
            try:
                backed = BackedDHTStore("s", 4, backing=backing)
                backed.write("k", "payload")
                backing.put(b"unrelated", b"x")
                drop_from_node(node_b, b"unrelated")
                # desync one of the namespace's records too
                namespace_keys = backing.scan(backed._lane.ns)
                drop_from_node(node_b, namespace_keys[0])
                report = backed.repair()
                assert report.converged
                assert report.keys_copied == 1  # not the unrelated key
                assert backing.node_get_record(1, b"unrelated") is None
            finally:
                backing.close()

    def test_repair_is_none_on_backends_without_one(self):
        from repro.distdht import InMemoryBackingStore

        backed = BackedDHTStore("s", 4, backing=InMemoryBackingStore())
        backed.write("k", "v")
        assert backed.repair() is None


class TestDigestHelper:
    def test_record_digest_is_stable_and_short(self):
        assert record_digest(b"abc") == record_digest(b"abc")
        assert record_digest(b"abc") != record_digest(b"abd")
        assert len(record_digest(TOMBSTONE)) == 8
