"""Process-parallel serving: the dispatcher core across N worker processes.

:class:`~repro.serve.service.GraphService` runs every query under one
Python GIL — fine for I/O-shaped work, but the simulator is pure Python,
so concurrent throughput saturates at one core.  This module lifts that
limit the way the paper's production deployment does (many workers over a
shared DHT): :class:`ProcessGraphService` owns **N worker processes, each
with a private** :class:`~repro.api.session.Session`.  It is the thread
service's dispatcher core (:class:`~repro.serve.service.ServiceBase`) with
one lane per worker process, each with its own ``max_inflight_cost``
admission budget; what lives here is only what is about processes:

* **Worker lifecycle and the pipe messages** (``run`` / ``update`` /
  ``stats`` / ``unload`` / ``close``, heartbeats back); a crashed worker
  is respawned in its slot.
* **Fingerprint-affinity routing.**  All queries for the same graph
  content go to the same worker, so its preprocessing cache serves every
  repeat — mirroring the per-shard ownership of the MPC connectivity
  systems.  Affinity is assigned on first sight to the least-loaded
  worker; when the affinity worker's run queue is ``spill_threshold``
  deeper than the least-loaded worker's, the query spills over (and
  **re-prepares** there) and the affinity follows.
* **Ship once, reference forever.**  A graph crosses the process boundary
  at most once per worker: pickled into the first ``run`` message on
  ``sim``, or written once to the shared store on ``shm``/``socket``
  (:class:`_BlobRef`); later messages carry only the fingerprint.
* **Delta shipping.**  ``update`` sends the edge batch by fingerprint pair
  to every worker holding the graph, never the graph itself.
* **The monitor**: heartbeat-silent busy workers are killed and respawned;
  sustained queue depth grows the pool up to ``autoscale_max``.

``stats()`` merges the workers' :meth:`~repro.api.session.Session.stats_snapshot`
through :meth:`~repro.api.session.SessionStats.sum` into the core's
schema, plus routing counters (``affinity_routed`` / ``rebalances`` /
``graphs_shipped``) and the per-worker breakdown.

Per-query outputs are byte-identical to sequential ``Session.run``: the
worker runs the same spec on the same graph with the same seed; only
wall-clock placement changes.

::

    with ProcessGraphService(ClusterConfig(num_machines=10),
                             processes=4) as service:
        service.load("web", graph)
        pending = [service.submit("mis", "web", seed=s) for s in range(8)]
        results = [p.result() for p in pending]
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import fields
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.ampc.cluster import ClusterConfig
from repro.ampc.faults import FaultPlan
from repro.api import registry
from repro.api.fingerprint import FingerprintMemo
from repro.api.result import RunResult
from repro.api.session import GraphHandle, Session, SessionStats
from repro.distdht.backend import create_backend
from repro.distdht.backing import fetch
from repro.serve.admission import AdmissionController, PeakHoldLoadEstimator
from repro.serve.pool import (DeadlineExceededError, PendingResult,
                              ServiceClosedError, WorkerDiedError, WorkerPool)
from repro.serve.service import ServiceBase, _Query

#: SessionStats field names, for flattening per-worker snapshots
_SESSION_STAT_FIELDS = tuple(field.name for field in fields(SessionStats))

_BLOB_NS_COUNTER = itertools.count()


class _BlobRef:
    """A shared-store locator standing in for a pickled graph.

    On a real backend (``shm``/``socket``) the dispatcher writes each
    graph's pickle into the shared backing store **once** and run
    messages carry this tiny reference instead of the payload: ship-once
    becomes write-once, and N workers (including respawned ones) resolve
    the same physical bytes via :func:`repro.distdht.backing.fetch` —
    with replica failover where the backend has replicas.
    """

    __slots__ = ("locator",)

    def __init__(self, locator: Any):
        self.locator = locator

    def __getstate__(self):
        return self.locator

    def __setstate__(self, state):
        self.locator = state


# ---------------------------------------------------------------------------
# Worker process side


def _stats_payload(session: Session, pinned: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "stats": session.stats_snapshot(),
        "cached_preprocessings": session.cached_preprocessings,
        "cache_bytes": session.cache_bytes,
        "graphs_loaded": len(pinned),
        "pid": os.getpid(),
    }


def _send_error(conn, request_id: int, error: BaseException) -> None:
    """Ship an exception; fall back to a summary when it won't pickle."""
    try:
        conn.send(("err", request_id, error))
    except Exception:  # noqa: BLE001 - unpicklable exception payloads
        conn.send(("err", request_id,
                   RuntimeError(f"{type(error).__name__}: {error}")))


def _heartbeat_loop(conn, send_lock: threading.Lock,
                    stop: threading.Event, interval_s: float) -> None:
    """Worker-side liveness beacon: one tiny ``("hb", ...)`` message per
    interval, even while the main loop is deep in a long query (the GIL
    timeslices this thread through).  Silence therefore means the
    *process* is wedged — stopped, deadlocked, or stuck in C — which is
    exactly the signal the dispatcher's hung-worker detector keys on.
    """
    while not stop.wait(interval_s):
        try:
            with send_lock:
                conn.send(("hb", 0, None))
        except (OSError, ValueError, BrokenPipeError):
            return


def _worker_main(conn, index: int, config: Optional[ClusterConfig],
                 fault_plan: Optional[FaultPlan], strict_rounds: bool,
                 max_cache_bytes: Optional[int],
                 backend_spec: Tuple[str, Optional[List[Any]], int] = (
                     "sim", None, 1),
                 heartbeat_interval_s: float = 0.5) -> None:
    """One worker: a private Session answering run/stats messages.

    Graphs arrive at most once each — pickled into the message on the
    simulated backend, or as a :class:`_BlobRef` resolved out of the
    shared backing store on a real one — and are registered (and pinned)
    under their fingerprint; later ``run`` messages reference the
    fingerprint only.  The loop is strictly sequential — per-run metrics
    isolation inside a worker is the Session's own guarantee.  A side
    heartbeat thread beats every ``heartbeat_interval_s`` so the
    dispatcher can tell "busy" from "hung"; a ``run`` whose deadline
    already passed while queued in the pipe is answered with
    :class:`~repro.serve.pool.DeadlineExceededError` without executing.
    """
    # A forked worker inherits the dispatcher's loaded registry and this
    # is a no-op; a spawned one imports the spec modules here, at start-up,
    # instead of inside its first query.
    registry.specs()
    backend, dht_nodes, replication = backend_spec
    session = Session(config, fault_plan=fault_plan,
                      strict_rounds=strict_rounds,
                      max_cache_bytes=max_cache_bytes,
                      backend=backend, dht_nodes=dht_nodes,
                      replication=replication)
    pinned: Dict[str, Any] = {}
    send_lock = threading.Lock()
    stop_beat = threading.Event()
    threading.Thread(target=_heartbeat_loop,
                     args=(conn, send_lock, stop_beat, heartbeat_interval_s),
                     name=f"repro-worker-hb-{index}", daemon=True).start()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    def send_error(request_id: int, error: BaseException) -> None:
        with send_lock:
            _send_error(conn, request_id, error)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "close":
            break
        if op == "unload":
            _, fingerprint = message
            pinned.pop(fingerprint, None)
            session.unload(fingerprint)
            continue
        if op == "update":
            (_, request_id, old_fingerprint, new_fingerprint,
             insertions, deletions) = message
            try:
                # Apply the delta to the resident copy: the graph does NOT
                # cross the process boundary again.  The handle's
                # fingerprint chain-updates, and the next run on it
                # patches this session's cached artifacts through the
                # specs' update hooks.
                handle = session.handle(old_fingerprint)
                handle.apply_batch(insertions, deletions)
                if new_fingerprint != old_fingerprint:
                    session.load(new_fingerprint, handle)
                    session.unload(old_fingerprint)
                    graph = pinned.pop(old_fingerprint, None)
                    if graph is not None:
                        pinned[new_fingerprint] = graph
                send(("ok", request_id, handle.fingerprint))
            except BaseException as error:  # noqa: BLE001
                send_error(request_id, error)
            continue
        if op == "run":
            (_, request_id, algorithm, fingerprint, graph, seed,
             reuse, params, deadline_at) = message
            try:
                # Absorb a shipped graph even when the deadline has
                # passed: the dispatcher marked it shipped at submit, so
                # later runs arrive fingerprint-only — dropping the ship
                # here would orphan the fingerprint for good.
                if graph is not None and fingerprint not in pinned:
                    if isinstance(graph, _BlobRef):
                        # write-once fronting: resolve the shared bytes
                        # (replica failover inside fetch) — the pickle
                        # crossed no pipe and exists once per cluster
                        graph = pickle.loads(fetch(graph.locator))
                    pinned[fingerprint] = graph
                    session.load(fingerprint, graph)
                if (deadline_at is not None
                        and time.monotonic() >= deadline_at):
                    # expired while queued in the pipe: cancel the run
                    send_error(request_id, DeadlineExceededError(
                        f"deadline passed before {algorithm!r} started "
                        f"on worker {index}"))
                    continue
                result = session.run(algorithm, fingerprint, seed=seed,
                                     reuse_preprocessing=reuse, **params)
                send(("ok", request_id, result))
            except BaseException as error:  # noqa: BLE001 - report, not die
                send_error(request_id, error)
        elif op == "stats":
            _, request_id = message
            try:
                send(("ok", request_id, _stats_payload(session, pinned)))
            except BaseException as error:  # noqa: BLE001
                send_error(request_id, error)
        # unknown ops are ignored: a newer dispatcher must not kill an
        # older worker
    stop_beat.set()
    session.close()  # release shm segments / DHT connections


# ---------------------------------------------------------------------------
# Dispatcher side


class _Outstanding(NamedTuple):
    """One in-flight request: its future, and the caller-facing graph name
    a run result is stamped with."""

    pending: PendingResult
    graph_name: Optional[str]
    is_run: bool


class _WorkerClient:
    """Dispatcher-side handle for one worker process: one lane.

    Sends are serialized under ``send_lock`` — which also guards the
    ``shipped`` set, so the ship-the-graph-exactly-once decision is
    atomic with the send that carries it (two racing submits can never
    reorder a fingerprint-only run in front of the shipping run).  A
    dedicated reader thread resolves :class:`PendingResult` futures as
    responses arrive.
    """

    def __init__(self, index: int, ctx, worker_args: Tuple, on_death=None,
                 admission: Optional[AdmissionController] = None):
        self.index = index
        #: called (with this client) from the reader thread once the
        #: worker process is gone and its leftovers are failed — the
        #: dispatcher's respawn hook
        self.on_death = on_death
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, index) + worker_args,
            name=f"repro-serve-worker-{index}", daemon=True)
        self.process.start()
        child_conn.close()
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.idle = threading.Condition(self.lock)
        self.pending: Dict[int, _Outstanding] = {}
        self.shipped: set = set()           # fingerprints resident remotely
        self.inflight_runs = 0              # routing load signal
        self.accepting = True
        self.alive = True
        self.last_stats: Optional[Dict[str, Any]] = None
        #: this lane's token-budget gate (None = admission off)
        self.admission = admission
        #: hung-worker signal: flipped by the reader on *any* inbound
        #: message (heartbeats included); the monitor clears it each tick
        #: and counts consecutive silent ticks in ``heartbeat_misses``
        self.beat_seen = False
        self.heartbeat_misses = 0
        self._next_id = 0
        self.reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"repro-serve-reader-{index}")
        self.reader.start()

    # -- request side ------------------------------------------------------

    def _register(self, graph_name: Optional[str],
                  is_run: bool) -> Tuple[int, PendingResult]:
        pending = PendingResult()
        with self.lock:
            # runs are refused once the client stops accepting; stats
            # requests stay allowed while the process is alive, so the
            # close path can capture a final snapshot after the drain
            if not self.alive or (is_run and not self.accepting):
                raise ServiceClosedError(
                    f"worker {self.index} is not accepting requests")
            self._next_id += 1
            request_id = self._next_id
            self.pending[request_id] = _Outstanding(
                pending, graph_name, is_run)
            if is_run:
                self.inflight_runs += 1
        return request_id, pending

    def _discard(self, request_id: int) -> None:
        with self.lock:
            outstanding = self.pending.pop(request_id, None)
            if outstanding is not None and outstanding.is_run:
                self.inflight_runs -= 1
            if not self.pending:
                self.idle.notify_all()

    @contextmanager
    def _sending(self, request_id: int) -> Iterator[None]:
        """Hold the send lock for one registered request's send.  A failed
        send discards the request — a leak would inflate inflight_runs
        and hang close's drain — and surfaces the error: a broken pipe as
        :class:`WorkerDiedError`, anything else (an unpicklable graph or
        parameter) as itself."""
        try:
            with self.send_lock:
                yield
        except (OSError, BrokenPipeError) as error:
            self._discard(request_id)
            raise WorkerDiedError(
                f"worker {self.index} pipe is closed: {error}") from error
        except BaseException:
            self._discard(request_id)
            raise

    def submit_run(self, algorithm: str, fingerprint: str, graph: Any,
                   seed: int, reuse: bool, params: Dict[str, Any],
                   graph_name: Optional[str],
                   deadline_at: Optional[float] = None) -> PendingResult:
        """Route one query to this worker, shipping the graph if unseen.

        ``deadline_at`` (absolute ``time.monotonic()`` seconds) rides in
        the message; the worker answers expired-in-queue runs with
        ``DeadlineExceededError`` instead of executing them.
        """
        request_id, pending = self._register(graph_name, is_run=True)
        with self._sending(request_id):
            ship = fingerprint not in self.shipped
            self.conn.send(("run", request_id, algorithm, fingerprint,
                            graph if ship else None, seed, reuse,
                            dict(params), deadline_at))
            if ship:
                self.shipped.add(fingerprint)
        return pending

    def submit_update(self, old_fingerprint: str, new_fingerprint: str,
                      insertions, deletions) -> PendingResult:
        """Ship an edge delta by fingerprint pair (never the whole graph).

        Under the send lock the resident-set bookkeeping moves
        ``old -> new`` atomically with the send, so a racing submit for
        the new fingerprint pipelines a fingerprint-only run *behind*
        this update instead of re-pickling the graph.
        """
        request_id, pending = self._register(None, is_run=True)
        with self._sending(request_id):
            self.conn.send(("update", request_id, old_fingerprint,
                            new_fingerprint, list(insertions),
                            list(deletions)))
            self.shipped.discard(old_fingerprint)
            self.shipped.add(new_fingerprint)
        return pending

    def request_stats(self) -> PendingResult:
        request_id, pending = self._register(None, is_run=False)
        with self._sending(request_id):
            self.conn.send(("stats", request_id))
        return pending

    def send_unload(self, fingerprint: str) -> None:
        try:
            with self.send_lock:
                self.shipped.discard(fingerprint)
                self.conn.send(("unload", fingerprint))
        except (OSError, ValueError, BrokenPipeError):
            pass  # a dead worker has nothing to unload

    # -- response side -----------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            kind, request_id, payload = message
            self.beat_seen = True
            if kind == "hb":  # liveness beacon, no request attached
                continue
            with self.lock:
                outstanding = self.pending.pop(request_id, None)
                if outstanding is not None and outstanding.is_run:
                    self.inflight_runs -= 1
                if not self.pending:
                    self.idle.notify_all()
            if outstanding is None:
                continue
            if kind == "ok":
                if isinstance(payload, RunResult):
                    # workers key graphs by fingerprint; restore the
                    # caller-facing registration name
                    payload.graph_name = outstanding.graph_name
                outstanding.pending._resolve(payload)
            else:
                outstanding.pending._fail(payload)
        # worker gone: fail whatever is still outstanding
        with self.lock:
            self.alive = False
            self.accepting = False
            leftovers = list(self.pending.values())
            self.pending.clear()
            self.inflight_runs = 0
            self.idle.notify_all()
        error = WorkerDiedError(
            f"worker {self.index} (pid {self.process.pid}) exited with "
            "requests outstanding")
        # respawn FIRST so a retry dispatched from a leftover's done-
        # callback can route to the replacement even in a 1-worker pool
        if self.on_death is not None:
            try:
                self.on_death(self)
            except Exception:  # noqa: BLE001 - the reader must not die
                pass
        for outstanding in leftovers:
            outstanding.pending._fail(error)

    # -- lifecycle ---------------------------------------------------------

    def stop_accepting(self) -> None:
        with self.lock:
            self.accepting = False

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no requests are outstanding; False on timeout."""
        with self.lock:
            return self.idle.wait_for(lambda: not self.pending, timeout)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Send the close sentinel and reap the process."""
        try:
            with self.send_lock:
                self.conn.send(("close",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        self.reader.join(timeout)


class ProcessGraphService(ServiceBase):
    """The dispatcher core with one lane per worker process.

    Same contract as :class:`~repro.serve.service.GraphService`
    (``load``/``submit``/``query``/``update``/``stats``/``close``, and the
    JSON-lines protocol drives it unchanged); the difference is **where**
    queries run: each worker process owns a private Session, so
    concurrent CPU-bound queries actually run in parallel instead of
    time-slicing one GIL.

    ``spill_threshold`` tunes the affinity/latency trade-off: a query
    leaves its graph's affinity worker only when that worker's run queue
    is at least this much deeper than the least-loaded worker's (the
    spill-over re-prepares the graph there, and affinity follows).
    """

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 processes: int = 2,
                 fault_plan: Optional[FaultPlan] = None,
                 strict_rounds: bool = False,
                 max_cache_bytes: Optional[int] = None,
                 spill_threshold: int = 4,
                 backend: str = "sim",
                 dht_nodes: Optional[List[Any]] = None,
                 replication: int = 1,
                 mp_context: Optional[str] = None,
                 max_inflight_cost: Optional[float] = None,
                 admission_queue_factor: float = 2.0,
                 admission_decay_s: float = 5.0,
                 default_deadline_s: Optional[float] = None,
                 autoscale_max: Optional[int] = None,
                 monitor_interval_s: float = 0.5,
                 hung_after_intervals: Optional[int] = 20,
                 scale_after_intervals: int = 4,
                 heartbeat_interval_s: float = 0.25,
                 retry_worker_death: bool = True):
        if processes < 1:
            raise ValueError("need at least one worker process")
        if spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        if autoscale_max is not None and autoscale_max < processes:
            raise ValueError("autoscale_max must be >= processes")
        if not isinstance(backend, str):
            raise TypeError(
                "ProcessGraphService needs a backend spec string "
                "(workers construct their own stores); got "
                f"{type(backend).__name__}")
        self._init_core(default_deadline_s, bool(retry_worker_death),
                        admission_queue_factor, admission_decay_s)
        self._config = config
        self._spill_threshold = spill_threshold
        self.backend = backend
        #: spawn parameters, kept for worker respawn after a crash: the
        #: context, and ``_worker_main``'s arguments after the index
        self._ctx = multiprocessing.get_context(mp_context)
        self._worker_args = (
            config, fault_plan, strict_rounds, max_cache_bytes,
            (backend, list(dht_nodes) if dht_nodes else None, replication),
            heartbeat_interval_s)
        #: the dispatcher's shared store for write-once graph blobs (None
        #: on "sim", where graphs pickle into the pipe per worker).  On
        #: "shm" the workers attach the dispatcher's segments; on
        #: "socket" the blobs live on the DHT nodes with replication R.
        self._blob_store = create_backend(backend, nodes=dht_nodes,
                                          replication=replication)
        self._blob_ns = (
            f"blob{os.getpid():x}.{next(_BLOB_NS_COUNTER):x}|".encode("ascii"))
        #: fingerprint -> blob locator, for graphs published to the
        #: shared store; its length is the write-once "graphs_shipped"
        self._published: Dict[str, Any] = {}
        self._graphs_published = 0
        self._workers_respawned = 0
        #: final stats payloads of workers that died and were replaced,
        #: so merged counters stay coherent across respawns (best-effort:
        #: only what the dead worker last reported)
        self._retired_stats: List[Dict[str, Any]] = []
        #: admission: each worker lane carries its own token budget of
        #: ``max_inflight_cost`` priced simulated-seconds
        self._max_inflight_cost = max_inflight_cost
        # import every spec module before the first fork: fresh, respawned
        # and autoscaled workers start with the registry already loaded
        registry.specs()
        self._clients = [self._spawn(index) for index in range(processes)]
        self._affinity: Dict[str, int] = {}
        self._fingerprints = FingerprintMemo()
        self._affinity_routed = 0
        self._rebalances = 0
        #: control-plane thread pool: fans out per-worker stats gathering
        #: and close-time draining without serializing on slow workers
        self._control = WorkerPool(min(4, processes),
                                   name="repro-procpool-ctl")
        #: autoscaling + hung-worker monitor
        self._base_processes = processes
        self._autoscale_max = autoscale_max
        self._monitor_interval_s = monitor_interval_s
        self._hung_after_intervals = hung_after_intervals
        self._scale_after_intervals = max(1, scale_after_intervals)
        self._workers_hung = 0
        self._grow_streak = 0
        #: peak-hold over total queued runs: shrink only once pressure
        #: has *stayed* off, so scale decisions don't flap
        self._depth_estimator = PeakHoldLoadEstimator(admission_decay_s)
        self._monitor_stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        if autoscale_max is not None or hung_after_intervals is not None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, daemon=True,
                name="repro-procpool-monitor")
            self._monitor.start()

    # bound here, not inherited: class-level wrappers (tracers) look the
    # method up in this class's own namespace
    submit = ServiceBase.submit

    # -- worker lifecycle --------------------------------------------------

    @property
    def processes(self) -> int:
        return len(self._clients)

    def _spawn(self, index: int) -> _WorkerClient:
        return _WorkerClient(index, self._ctx, self._worker_args,
                             on_death=self._on_worker_death,
                             admission=self._gate(self._max_inflight_cost))

    # -- write-once blob publication ---------------------------------------

    def _blob_key(self, fingerprint: str) -> bytes:
        return self._blob_ns + fingerprint.encode("ascii")

    def _publish(self, fingerprint: str, graph: Any) -> _BlobRef:
        """The graph's shared-store locator, writing the pickle at most
        once per fingerprint — every worker (and every respawn) reads the
        same physical bytes."""
        with self._lock:
            locator = self._published.get(fingerprint)
        if locator is None:
            key = self._blob_key(fingerprint)
            self._blob_store.put(
                key, pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
            locator = self._blob_store.share(key)
            with self._lock:
                if fingerprint not in self._published:
                    self._published[fingerprint] = locator
                    self._graphs_published += 1
        return _BlobRef(locator)

    def _unpublish(self, fingerprint: str) -> None:
        with self._lock:
            locator = self._published.pop(fingerprint, None)
        if locator is not None:
            try:
                self._blob_store.delete(self._blob_key(fingerprint))
            except Exception:  # noqa: BLE001 - nodes may be unreachable
                pass

    def _on_worker_death(self, client: _WorkerClient) -> None:
        """Respawn a crashed worker in place (reader-thread callback).

        The replacement takes the dead worker's slot, so existing affinity
        assignments keep routing to the same index; its resident set
        starts empty, and the dispatcher re-ships each pinned graph lazily
        on the next query routed there (every submit carries the live
        graph object precisely for this).  The dead worker's last reported
        stats are retired into the merged view.
        """
        with self._lock:
            if (self._closed or client.index >= len(self._clients)
                    or self._clients[client.index] is not client):
                return  # already retired (close or scale-down)
            if client.last_stats is not None:
                self._retired_stats.append(client.last_stats)
            self._clients[client.index] = self._spawn(client.index)
            self._workers_respawned += 1
        try:
            client.conn.close()
        except OSError:
            pass

    # -- load monitor: hung-worker detection + autoscaling ------------------

    def _monitor_loop(self) -> None:
        """Periodic sweep: count heartbeat-silent ticks per busy worker
        (kill + respawn past the threshold) and grow/shrink the pool on
        sustained queue depth.  Runs until close() sets the stop event.
        """
        while not self._monitor_stop.wait(self._monitor_interval_s):
            with self._lock:
                if self._closed:
                    return
                clients = list(self._clients)
            if self._hung_after_intervals is not None:
                self._sweep_hung(clients)
            if self._autoscale_max is not None:
                self._autoscale(clients)

    def _sweep_hung(self, clients: List[_WorkerClient]) -> None:
        for client in clients:
            with client.lock:
                busy = bool(client.pending) and client.alive
            if not busy:
                client.heartbeat_misses = 0
                client.beat_seen = False
                continue
            if client.beat_seen:
                client.beat_seen = False
                client.heartbeat_misses = 0
                continue
            client.heartbeat_misses += 1
            if client.heartbeat_misses < self._hung_after_intervals:
                continue
            # No message of any kind for N intervals while requests are
            # outstanding: the process is wedged (its heartbeat thread
            # would beat through a long query).  SIGKILL it — the pipe
            # EOF then drives the exact same fail-leftovers + respawn
            # path as a crash.
            with self._lock:
                self._workers_hung += 1
            try:
                client.process.kill()
            except OSError:
                pass

    def _autoscale(self, clients: List[_WorkerClient]) -> None:
        loads = [c.inflight_runs for c in clients if c.alive]
        if not loads:
            return
        depth = sum(loads)
        held_depth = self._depth_estimator.observe(depth)
        if (min(loads) >= self._spill_threshold
                and len(clients) < self._autoscale_max):
            # every worker is backlogged deeper than spill can fix
            self._grow_streak += 1
            if self._grow_streak >= self._scale_after_intervals:
                self._grow_streak = 0
                self._scale_up()
            return
        self._grow_streak = 0
        if held_depth <= 0.5 and len(clients) > self._base_processes:
            # pressure has stayed off long enough for the peak-hold to
            # decay — retire the newest extra worker
            self._scale_down()

    def _scale_up(self) -> None:
        with self._lock:
            if self._closed or len(self._clients) >= self._autoscale_max:
                return
            self._clients.append(self._spawn(len(self._clients)))
            self._counts["workers_scaled"] += 1

    def _scale_down(self) -> None:
        with self._lock:
            if self._closed or len(self._clients) <= self._base_processes:
                return
            client = self._clients.pop()
            self._counts["workers_scaled"] += 1
            # drop affinities pointing at the retired slot; the next
            # query on those graphs re-homes to a surviving worker
            for fingerprint in [f for f, i in self._affinity.items()
                                if i >= len(self._clients)]:
                del self._affinity[fingerprint]
        client.stop_accepting()

        def retire(client=client):
            client.drain(60.0)
            try:
                payload = client.request_stats().result(10.0)
            except Exception:  # noqa: BLE001 - best-effort snapshot
                payload = client.last_stats
            with self._lock:
                if payload is not None:
                    self._retired_stats.append(payload)
            client.shutdown()

        try:
            self._control.submit(retire)
        except ServiceClosedError:
            client.shutdown(timeout=1.0)

    # -- lanes: one per worker process -------------------------------------

    def _register(self, name: str, graph: Any) -> GraphHandle:
        # not shipped here: the graph crosses the process boundary on the
        # first query routed to each worker that needs it
        return GraphHandle(name, graph)

    def _pick_lane(self, query: _Query) -> _WorkerClient:
        if query.handle is not None:
            query.graph, query.fingerprint = query.handle.resolve()
        elif query.fingerprint is None:
            query.fingerprint = self._fingerprints.fingerprint(query.graph)
        with self._lock:
            return self._route(query.fingerprint)

    def _route(self, fingerprint: str) -> _WorkerClient:
        """Pick the worker for one query.  Caller holds the lock.

        Affinity first: the fingerprint's assigned worker, so its
        preprocessing cache hits.  A new fingerprint is assigned to the
        least-loaded worker.  When the affinity worker's run queue is
        ``spill_threshold`` deeper than the least-loaded worker's, the
        query (and the affinity) moves there instead.
        """
        alive = [c for c in self._clients if c.alive and c.accepting]
        if not alive:
            raise ServiceClosedError("all worker processes have exited")
        least = min(alive, key=lambda c: (c.inflight_runs, c.index))
        index = self._affinity.get(fingerprint)
        # scale-down may have retired the affinity index entirely
        home = (self._clients[index]
                if index is not None and index < len(self._clients)
                and self._clients[index] in alive
                else None)
        if home is None:
            self._affinity[fingerprint] = least.index
            return least
        if (home is not least
                and home.inflight_runs - least.inflight_runs
                >= self._spill_threshold):
            self._affinity[fingerprint] = least.index
            self._rebalances += 1
            return least
        self._affinity_routed += 1
        return home

    def _lanes(self) -> List[_WorkerClient]:
        return list(self._clients)

    def _is_warm(self, lane: _WorkerClient, query: _Query) -> bool:
        # cached-state proxy: once the graph is resident on the worker,
        # repeat queries ride its warm artifact cache
        return query.fingerprint in lane.shipped

    def _start(self, lane: _WorkerClient, query: _Query) -> PendingResult:
        ship = query.graph
        if self._blob_store is not None:
            # ship-once becomes write-once: the message carries a tiny
            # locator; the pickle exists once in the shared store no
            # matter how many workers (or respawns or retries) resolve it
            ship = self._publish(query.fingerprint, query.graph)
        return lane.submit_run(
            query.spec.name, query.fingerprint, ship, query.seed,
            query.reuse, query.params,
            query.handle.name if query.handle is not None else None,
            deadline_at=query.deadline_at)

    def _forget(self, name: Optional[str], fingerprints: List[str]) -> None:
        """Drop the routing, the shared blob and every resident copy of
        each fingerprint."""
        with self._lock:
            for fingerprint in fingerprints:
                self._affinity.pop(fingerprint, None)
            clients = list(self._clients)
        for fingerprint in fingerprints:
            self._unpublish(fingerprint)
            for client in clients:
                if fingerprint in client.shipped:
                    client.send_unload(fingerprint)

    def _after_update(self, handle: GraphHandle, old_fingerprint: str,
                      insertions: List[Tuple], deletions: List[Tuple],
                      derived: Optional[Tuple[str, Any, GraphHandle]]
                      ) -> None:
        """Ship the batch by fingerprint pair — O(batch) on the pipe
        instead of re-pickling the whole graph — to every worker holding
        the old content; each applies it to its resident copy and patches
        its cached artifacts on the next query.  Workers that never saw
        the graph (or died and respawned) get the mutated graph shipped
        lazily as usual.
        """
        new_fingerprint = handle.fingerprint
        with self._lock:
            index = self._affinity.pop(old_fingerprint, None)
            if index is not None:
                self._affinity[new_fingerprint] = index
            clients = list(self._clients)
        # stale shared blobs: the old-content pickle (and any
        # degree-weighted derivation of it) must not be resolvable
        # after the mutation — lazy re-ships publish the new content
        self._unpublish(old_fingerprint)
        if derived is not None:
            self._forget(None, [derived[2].fingerprint])
        acknowledgements = []
        for client in clients:
            if client.alive and old_fingerprint in client.shipped:
                try:
                    acknowledgements.append((client, client.submit_update(
                        old_fingerprint, new_fingerprint,
                        insertions, deletions)))
                except ServiceClosedError:
                    pass  # the respawned worker re-ships lazily
        for client, acknowledgement in acknowledgements:
            try:
                acknowledgement.result(60.0)
            except ServiceClosedError:
                pass  # failover/respawn re-ships lazily
            except Exception:  # noqa: BLE001 - any failure, same remedy
                # the worker could not apply the delta (or timed out):
                # its resident copy is unknown, so stop claiming it holds
                # the new content — the next query routed there re-ships
                # the full mutated graph
                with client.send_lock:
                    client.shipped.discard(new_fingerprint)

    # -- accounting / lifecycle --------------------------------------------

    def worker_stats(self, timeout: Optional[float] = 60.0
                     ) -> List[Dict[str, Any]]:
        """Per-worker stats, index-ordered: SessionStats fields flat plus
        cache gauges.  Degrades gracefully: a hung, dead, or erroring
        worker contributes its last known snapshot with ``stale: True``
        instead of losing the healthy workers' numbers — one sick worker
        must never take down the observability of the rest.
        """

        def fetch(client: _WorkerClient):
            fresh = False
            try:
                payload = client.request_stats().result(timeout)
                fresh = True
            except Exception:  # noqa: BLE001 - hung/dead/error payload:
                payload = client.last_stats  # serve the stale snapshot
            else:
                client.last_stats = payload
            return client.index, payload, fresh

        clients = list(self._clients)
        rows: Dict[int, Tuple[Optional[Dict[str, Any]], bool]] = {}
        try:
            for index, payload, fresh in self._control.map_unordered(
                    fetch, clients):
                rows[index] = (payload, fresh)
        except ServiceClosedError:
            # the control pool is closed (service already closed): fall
            # back to the serial path, which serves last known snapshots
            for client in clients:
                index, payload, fresh = fetch(client)
                rows[index] = (payload, fresh)
        snapshots = []
        for client in clients:
            payload, fresh = rows.get(client.index, (None, False))
            payload = payload or {
                "stats": SessionStats(), "cached_preprocessings": 0,
                "cache_bytes": 0, "graphs_loaded": 0, "pid": None,
            }
            flat = dict(payload["stats"].to_dict())
            flat["worker"] = client.index
            flat["pid"] = payload.get("pid")
            flat["stale"] = not fresh
            flat["cached_preprocessings"] = payload["cached_preprocessings"]
            flat["cache_bytes"] = payload["cache_bytes"]
            flat["graphs_shipped"] = len(client.shipped)
            snapshots.append(flat)
        return snapshots

    def _session_stats(self, timeout: Optional[float]) -> Dict[str, Any]:
        """The workers' merged SessionStats (replaced workers' last reports
        included), cache gauges, routing counters, and the per-worker
        breakdown under ``per_worker``."""
        per_worker = self.worker_stats(timeout)
        merged = SessionStats.sum(
            SessionStats(**{f: row[f] for f in _SESSION_STAT_FIELDS})
            for row in per_worker)
        with self._lock:
            for payload in self._retired_stats:
                merged.merge(payload["stats"])
            stats: Dict[str, Any] = {
                "workers": len(self._clients),
                "processes": len(self._clients),
                "workers_hung": self._workers_hung,
                "affinity_routed": self._affinity_routed,
                "rebalances": self._rebalances,
                "workers_respawned": self._workers_respawned,
                # write-once fronting: a graph "ships" when its blob is
                # written to the shared store, however many workers read it
                "graphs_shipped": self._graphs_published,
            }
        if self._blob_store is None:
            stats["graphs_shipped"] = sum(
                row["graphs_shipped"] for row in per_worker)
        stats["stale_workers"] = [row["worker"] for row in per_worker
                                  if row["stale"]]
        stats["cached_preprocessings"] = sum(
            row["cached_preprocessings"] for row in per_worker)
        stats["cache_bytes"] = sum(row["cache_bytes"] for row in per_worker)
        stats.update(merged.to_dict())
        stats["per_worker"] = per_worker
        return stats

    def _close_lanes(self, wait: bool) -> None:
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(self._monitor_interval_s * 4 + 5.0)
        for client in self._clients:
            client.stop_accepting()
        if wait:
            for _ in self._control.map_unordered(
                    lambda client: client.drain(300.0), self._clients):
                pass
            # capture final per-worker snapshots so stats() stays
            # coherent after the processes are gone
            self.worker_stats(timeout=10.0)
        for client in self._clients:
            client.shutdown()
        self._control.close(wait=False)
        if self._blob_store is not None:
            try:
                self._blob_store.delete_prefix(self._blob_ns)
            except Exception:  # noqa: BLE001 - nodes may already be gone
                pass
            self._blob_store.close()
