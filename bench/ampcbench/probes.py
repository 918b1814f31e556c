"""Per-layer probes: timed calls into public functions, from outside.

Every per-layer metric that is not a counter of the deployment itself is
measured here, by calling one layer's public entry point directly on the
workload's own graphs.  The probes run in every traced run, after the
traced pass; ``bench/README.md`` says which end-to-end metric each one
should move, and on which workload.

The *staged pipeline* replays a cold op as the explicit steps ``Session``
takes (fingerprint, ``spec.prepare``, ``spec.run``, ``summarize``, then
a replay and a few ``spec.update`` patches), with one span per step; the
``core.*`` metrics are read off those steps.
"""

from __future__ import annotations

import io
import json
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ampc.cluster import ClusterConfig
from repro.ampc.columnar import ColumnarRecords
from repro.ampc.cost_model import estimate_bytes
from repro.ampc.dht import DHTStore
from repro.ampc.runtime import AMPCRuntime
from repro.ampc.vector import stable_hash_u64
from repro.api import registry
from repro.api.fingerprint import graph_fingerprint
from repro.api.session import Session
from repro.distdht.backing import (InMemoryBackingStore, decode_record,
                                   encode_key, encode_record)
from repro.distdht.shm import SharedMemoryBackingStore
from repro.distdht.sockets import SocketBackingStore
from repro.distdht.store import BackedDHTStore
from repro.graph.generators import path_graph
from repro.serve.admission import AdmissionController, estimate_query_cost
from repro.serve.pool import WorkerPool
from repro.serve.procpool import ProcessGraphService
from repro.serve.protocol import serve_socket, serve_stream
from repro.serve.service import GraphService, ServiceBase

from ampcbench.graphs import BenchGraph
from ampcbench.harness import ALGORITHMS
from ampcbench.procs import ReproProcess, repro_env
from ampcbench.spans import Tracer

Metric = Tuple[float, str]


def _seconds(action: Callable[[], Any]) -> float:
    """Wall-clock seconds ``action`` takes."""
    start = time.perf_counter()
    action()
    return time.perf_counter() - start


def _median_seconds(action: Callable[[], Any], repeats: int) -> float:
    return statistics.median(_seconds(action) for _ in range(repeats))


def _median_extra_seconds(outer: Callable[[], Any], inner: Callable[[], Any],
                          repeats: int) -> float:
    """What ``outer`` costs on top of ``inner``: the median of paired
    differences, the two measured back to back so that drift cancels."""
    return statistics.median(
        _seconds(outer) - _seconds(inner) for _ in range(repeats))


class _CannedPending:
    def __init__(self, result: Any):
        self._result = result

    def result(self, timeout: Optional[float] = None) -> Any:
        return self._result


class _StubService(ServiceBase):
    """Answers every ``submit`` with one canned result, at no cost: what
    is left of a request's time is the protocol layer's own."""

    def __init__(self, result: Any):
        self._pending = _CannedPending(result)

    def submit(self, algorithm, graph, **_options):
        return self._pending

    def close(self, wait: bool = True) -> None:
        pass


class Probes:
    """One run of every probe over one workload's graphs."""

    def __init__(self, data: Any, weighted: Any, query: Any, *, smoke: bool,
                 tracer: Tracer):
        #: the graph the data-plane probes read (SYN-64K on cold-descent)
        self.data = data
        self.weighted = weighted
        #: the graph whole-query probes run on (always OK-S sized)
        self.query = query
        self.smoke = smoke
        self.tracer = tracer
        #: keys/records per micro-probe: enough for a stable per-call
        #: figure, bounded so that a large input does not take minutes
        self.sample = 300 if smoke else 4000
        self.repeats = 3 if smoke else 15
        self.config = ClusterConfig()
        self.rng = random.Random(20260928)
        self.metrics: Dict[str, Metric] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def run_staged(self) -> None:
        """The staged pipelines; they record spans, so the tracer (and its
        wrappers, which show what prepare and run call into) stay on."""
        for algorithm in ALGORITHMS:
            self.staged_pipeline(algorithm)

    def run_micro(self) -> Dict[str, Metric]:
        """Everything else, with the wrappers off: a leaf call too
        frequent to wrap is timed bare.  -> all metrics, staged included."""
        self.probe_graph_layers()
        self.probe_registry_import()
        self.probe_sim_dht()
        self.probe_vector()
        self.probe_session()
        self.probe_serve()
        self.probe_procpool()
        self.probe_backing_and_shm()
        self.probe_sockets()
        return self.metrics

    # -- graph / api -------------------------------------------------------

    def probe_graph_layers(self) -> None:
        fresh = self.data.copy()  # a copy has no cached CSR snapshot
        self.put("graph.csr.build_ms", _seconds(fresh.csr) * 1e3, "ms")
        self.put("api.fingerprint.graph_ms", _median_seconds(
            lambda: graph_fingerprint(self.data), self.repeats) * 1e3, "ms")

    def probe_registry_import(self) -> None:
        """First ``registry.get("mis")`` in a fresh interpreter — what
        every spawned or respawned worker process pays before answering."""
        script = ("import time; start = time.perf_counter(); "
                  "from repro.api import registry; registry.get('mis'); "
                  "print(time.perf_counter() - start)")
        samples = []
        for _ in range(1 if self.smoke else 3):
            done = subprocess.run(
                [sys.executable, "-c", script], check=True,
                capture_output=True, text=True, env=repro_env())
            samples.append(float(done.stdout.strip()))
        self.put("api.registry.import_ms",
                 statistics.median(samples) * 1e3, "ms")

    # -- core: the staged pipeline ------------------------------------------

    def staged_pipeline(self, algorithm: str) -> None:
        spec = registry.get(algorithm)
        source = self.weighted if spec.input_kind == "weighted" else self.data
        mirror = BenchGraph("staged", source.copy())
        graph = mirror.graph
        params = spec.algorithm_params(
            {param.name: param.default for param in spec.params})
        span = self.tracer.span
        state: Dict[str, Any] = {}

        def step(name: str, action: Callable[[], Any]) -> float:
            with span(f"staged.{name}"):
                return _seconds(lambda: state.__setitem__(name, action()))

        with span("staged", op=f"staged:{algorithm}"):
            step("fingerprint", lambda: graph_fingerprint(graph))
            runtime = AMPCRuntime(config=self.config)
            prepare_s = step("prepare", lambda: spec.prepare(
                graph, runtime=runtime, seed=0))
            run_s = step("run", lambda: spec.run(
                graph, runtime=runtime, seed=0, prepared=state["prepare"],
                **params))
            step("summarize", lambda: spec.summarize(state["run"], graph))
            kv_reads = runtime.metrics.kv_reads
            replay_s = step("replay", lambda: spec.run(
                graph, runtime=AMPCRuntime(config=self.config), seed=0,
                prepared=state["prepare"], **params))
            update_s = []
            prepared = state["prepare"]
            for _ in range(3 if self.smoke else 5):
                insertions, deletions = mirror.draw_batch(self.rng)
                mirror.apply_locally(insertions, deletions)
                update_s.append(step("update", lambda: spec.update(
                    prepared, graph, runtime=AMPCRuntime(config=self.config),
                    seed=0, insertions=insertions, deletions=deletions)))
                prepared = state["update"]
        layer = f"core.{algorithm}"
        self.put(f"{layer}.prepare_ms", prepare_s * 1e3, "ms")
        self.put(f"{layer}.run_ms", run_s * 1e3, "ms")
        self.put(f"{layer}.replay_ms", replay_s * 1e3, "ms")
        self.put(f"{layer}.update_ms", statistics.median(update_s) * 1e3,
                 "ms")
        self.put(f"{layer}.kv_reads", kv_reads, "count")
        self.put(f"{layer}.us_per_kv_read", run_s * 1e6 / max(1, kv_reads),
                 "us")

    # -- ampc ---------------------------------------------------------------

    def probe_sim_dht(self) -> None:
        csr = self.data.csr()
        records = ColumnarRecords.ragged(
            np.arange(self.data.num_vertices), csr.indptr, csr.indices)
        store = DHTStore("probe", self.config.num_machines)
        write_s = _seconds(lambda: store.write_columnar(records))
        self.put("ampc.dht.write_columnar_us_per_record",
                 write_s * 1e6 / max(1, len(records)), "us")
        store.seal()
        keys = store.keys()

        def lookups(target: DHTStore) -> float:
            lookup = target.lookup_with_size

            def sweep() -> None:
                for key in keys:
                    lookup(key)
            return _median_seconds(sweep, 5) * 1e6 / len(keys)

        self.put("ampc.dht.lookup_us", lookups(store), "us")
        derived = store
        for generation in range(8):
            derived = derived.derive()
            derived.write(keys[generation], (generation,))
            derived.seal()
        self.put("ampc.dht.derived_lookup_us", lookups(derived), "us")

    def probe_vector(self) -> None:
        keys = np.arange(1 << 16, dtype=np.uint64)
        seconds = _median_seconds(lambda: stable_hash_u64(keys), 21)
        self.put("ampc.vector.hash_ns_per_key", seconds * 1e9 / len(keys),
                 "ns")

    # -- api.session ---------------------------------------------------------

    def probe_session(self) -> None:
        spec = registry.get("mis")
        runtime = AMPCRuntime(config=self.config)
        prepared = spec.prepare(self.query, runtime=runtime, seed=0)
        spec.run(self.query, runtime=runtime, seed=0, prepared=prepared)
        with Session(self.config) as session:
            session.run("mis", self.query, seed=0)
            self.put("api.session.hit_overhead_us", _median_extra_seconds(
                lambda: session.run("mis", self.query, seed=0),
                lambda: spec.run(
                    self.query, runtime=AMPCRuntime(config=self.config),
                    seed=0, prepared=prepared),
                self.repeats) * 1e6, "us")

        mirror = BenchGraph("session", self.query.copy())
        with Session(self.config, max_chain_generations=8) as session:
            handle = session.load("probe", mirror.graph)
            hosted = ("mis", "matching")
            for algorithm in hosted:
                session.prepare(algorithm, handle, seed=0)
            cycles = []
            for _ in range(9):  # the ninth batch folds the chain
                insertions, deletions = mirror.draw_batch(self.rng)

                def cycle() -> None:
                    handle.apply_batch(insertions, deletions)
                    for algorithm in hosted:
                        session.prepare(algorithm, handle, seed=0)
                cycles.append(_seconds(cycle))
            self.put("api.session.update_ms",
                     statistics.median(cycles[:8]) * 1e3, "ms")
            self.put("api.session.fold_ms", cycles[8] * 1e3, "ms")

    # -- serve ----------------------------------------------------------------

    def probe_serve(self) -> None:
        with Session(self.config) as session:
            canned = session.run("mis", self.query, seed=0)
        stub = _StubService(canned)
        requests = 200 if self.smoke else 2000
        lines = "".join(
            json.dumps({"op": "run", "algorithm": "mis", "graph": "g",
                        "seed": 0, "id": index}) + "\n"
            for index in range(requests))
        self.put("serve.protocol.request_us", _seconds(
            lambda: serve_stream(stub, io.StringIO(lines), io.StringIO())
        ) * 1e6 / requests, "us")

        server = serve_socket(stub)
        thread = threading.Thread(target=server.serve_forever, args=(0.02,),
                                  daemon=True, name="bench-probe-server")
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2],
                                          30.0) as connection:
                stream = connection.makefile("rwb")
                ping = (json.dumps({"op": "ping"}) + "\n").encode("utf-8")

                def pings() -> None:
                    for _ in range(requests):
                        stream.write(ping)
                        stream.flush()
                        stream.readline()
                self.put("serve.protocol.ping_us",
                         _seconds(pings) * 1e6 / requests, "us")
                stream.close()
        finally:
            server.close(drain=1.0)
            thread.join(5.0)

        spec = registry.get("mis")
        controller = AdmissionController(1e9)
        vertices, edges = self.query.num_vertices, self.query.num_edges

        def price() -> None:
            for _ in range(requests):
                cost = estimate_query_cost(spec, vertices, edges,
                                           cached=True, config=self.config)
                controller.try_acquire(cost)
                controller.release(cost)
        self.put("serve.admission.price_us",
                 _seconds(price) * 1e6 / requests, "us")

        pool = WorkerPool(2)
        try:
            def dispatch() -> None:
                for _ in range(requests):
                    pool.submit(int).result()
            self.put("serve.pool.dispatch_us",
                     _seconds(dispatch) * 1e6 / requests, "us")
        finally:
            pool.close()

        with GraphService(self.config, workers=2, max_inflight_cost=1e9,
                          default_deadline_s=30) as service:
            service.load("probe", self.query)
            service.submit("mis", "probe", seed=0).result()
            self.put("serve.service.overhead_us", _median_extra_seconds(
                lambda: service.submit("mis", "probe", seed=0).result(),
                lambda: service.session.run("mis", "probe", seed=0),
                self.repeats) * 1e6, "us")

    def probe_procpool(self) -> None:
        service: Optional[ProcessGraphService] = None

        def spawn() -> None:
            nonlocal service
            service = ProcessGraphService(self.config, processes=2,
                                          max_inflight_cost=1e9,
                                          default_deadline_s=30)
            # an 8-vertex path: the first answer costs spawn + the
            # worker's first-use imports, not a query
            service.submit("mis", path_graph(8), seed=0).result()

        try:
            self.put("serve.procpool.spawn_ms", _seconds(spawn) * 1e3, "ms")
            service.load("probe", self.query)

            def cold() -> None:
                service.submit("mis", "probe", seed=0,
                               reuse_preprocessing=False).result()
            # both runs prepare from scratch; only the first one also
            # pickles the graph through the pipe and registers it
            self.put("serve.procpool.ship_ms",
                     (_seconds(cold) - _seconds(cold)) * 1e3, "ms")
            service.submit("mis", "probe", seed=0).result()
            with Session(self.config) as session:
                session.run("mis", self.query, seed=0)
                self.put("serve.procpool.roundtrip_us", _median_extra_seconds(
                    lambda: service.submit("mis", "probe", seed=0).result(),
                    lambda: session.run("mis", self.query, seed=0),
                    self.repeats) * 1e6, "us")
        finally:
            if service is not None:
                service.close()

    # -- distdht ----------------------------------------------------------------

    def _matching_records(self) -> List[Tuple[Any, Any, int]]:
        """(key, value, recorded size) of the prepared ``matching`` records."""
        prepared = registry.get("matching").prepare(
            self.query, runtime=AMPCRuntime(config=self.config), seed=0)
        return [(key, value, estimate_bytes(value))
                for key, value in prepared.records[:self.sample]]

    def probe_backing_and_shm(self) -> None:
        records = self._matching_records()
        count = len(records)
        encoded: List[bytes] = []

        def encode() -> None:
            encoded.extend(encode_record(value, size)
                           for _key, value, size in records)
        self.put("distdht.backing.encode_us", _seconds(encode) * 1e6 / count,
                 "us")

        def decode() -> None:
            for record in encoded:
                decode_record(record)
        self.put("distdht.backing.decode_us",
                 _median_seconds(decode, 5) * 1e6 / count, "us")

        store = BackedDHTStore("probe", self.config.num_machines,
                               backing=InMemoryBackingStore())
        store.write_many((key, value) for key, value, _size in records)
        store.seal()

        def lookups() -> None:
            for key, _value, _size in records:
                store.lookup_with_size(key)
        self.put("distdht.store.lookup_us",
                 _median_seconds(lookups, 5) * 1e6 / count, "us")
        store.release()

        #: the same records as raw backing-store items, for the socket probes
        self._items = [(b"probe|" + encode_key(key), record)
                       for (key, _value, _size), record
                       in zip(records, encoded)]
        with SharedMemoryBackingStore() as shm:
            self.put("distdht.shm.put_many_us_per_record",
                     _seconds(lambda: shm.put_many(self._items)) * 1e6
                     / count, "us")

            def gets() -> None:
                for key, _record in self._items:
                    shm.get(key)
            self.put("distdht.shm.get_us",
                     _median_seconds(gets, 5) * 1e6 / count, "us")

    def probe_sockets(self) -> None:
        nodes = [ReproProcess(f"probe-dht-{index}",
                              ["dht-server", "--port", "0"])
                 for index in range(2)]
        try:
            self._socket_probes([node.wait_ready() for node in nodes])
        finally:
            for node in nodes:
                node.stop()

    def _socket_probes(self, nodes: List[Tuple[str, int]]) -> None:
        items = self._items
        count = len(items)
        keys = [key for key, _record in items]
        store = SocketBackingStore(nodes, replication=2)
        try:
            self.put("distdht.sockets.put_many_us_per_record",
                     _seconds(lambda: store.put_many(items)) * 1e6 / count,
                     "us")
            single = keys[:max(50, count // 8)]

            def gets() -> None:
                for key in single:
                    store.get(key)
            self.put("distdht.sockets.get_us",
                     _median_seconds(gets, 3) * 1e6 / len(single), "us")
            self.put("distdht.sockets.get_many_us_per_key",
                     _median_seconds(lambda: store.get_many(keys), 3) * 1e6
                     / count, "us")
            store.delete_prefix(b"probe|")

            # backing-store calls behind one cache-served matching query
            calls = [0]
            for name in ("get", "get_many", "put", "put_many", "contains",
                         "delete"):
                method = getattr(store, name)

                def counting(*args, _method=method, **kwargs):
                    calls[0] += 1
                    return _method(*args, **kwargs)
                setattr(store, name, counting)
            session = Session(self.config, backend=store)
            session.run("matching", self.query, seed=0)
            calls[0] = 0
            session.run("matching", self.query, seed=0)
            self.put("distdht.sockets.calls_per_query", calls[0], "count")
            session.clear_preprocessing()
        finally:
            store.close()
