"""Process-parallel serving: a GraphService across N worker processes.

:class:`~repro.serve.service.GraphService` runs every query under one
Python GIL — fine for I/O-shaped work, but the simulator is pure Python,
so concurrent throughput saturates at one core.  This module lifts that
limit the way the paper's production deployment does (many workers over a
shared DHT): :class:`ProcessGraphService` owns **N worker processes, each
with a private** :class:`~repro.api.session.Session`, behind the exact
:class:`~repro.serve.service.ServiceBase` contract the thread service and
the JSON-lines protocol already speak.

Design:

* **Fingerprint-affinity routing.**  Queries are routed by the graph's
  content fingerprint (:mod:`repro.api.fingerprint`): all queries for the
  same graph go to the same worker, so that worker's preprocessing cache
  serves every repeat — mirroring the per-shard ownership of the MPC
  connectivity systems.  Affinity is assigned on first sight to the
  least-loaded worker.
* **Ship once, reference forever.**  A graph crosses the process boundary
  at most once per worker: the first query pickles it into the ``run``
  message, the worker registers it under its fingerprint, and every later
  message carries only the fingerprint.
* **Hot-queue rebalancing.**  When the affinity worker's run queue is
  ``spill_threshold`` deeper than the least-loaded worker's, the query
  spills over: it is routed to the least-loaded worker (shipping the
  graph if unseen — the spill-over **re-prepare**) and the affinity moves
  there, so subsequent queries follow the now-warm cache instead of
  piling onto the hot worker.
* **Coherent stats.**  Each worker ships its
  :meth:`~repro.api.session.Session.stats_snapshot`;
  :meth:`ProcessGraphService.stats` merges them through
  :meth:`~repro.api.session.SessionStats.sum` into the same flat view
  ``GraphService.stats()`` reports, plus routing counters
  (``affinity_routed`` / ``rebalances`` / ``graphs_shipped``) and the
  per-worker breakdown.

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
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ampc.cluster import ClusterConfig
from repro.ampc.faults import FaultPlan
from repro.api import registry
from repro.api.fingerprint import FingerprintMemo, graph_fingerprint
from repro.api.result import RunResult
from repro.api.session import GraphHandle, Session, SessionStats
from repro.distdht.backend import create_backend
from repro.distdht.backing import fetch
from repro.graph.generators import degree_weighted
from repro.graph.graph import WeightedGraph
from repro.serve.admission import (AdmissionController, OverloadedError,
                                   PeakHoldLoadEstimator,
                                   estimate_query_cost)
from repro.serve.pool import (DeadlineExceededError, PendingResult,
                              ServiceClosedError, WorkerPool)
from repro.serve.service import ServiceBase, derived_weighted_name

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


class WorkerDiedError(ServiceClosedError):
    """A worker process exited while requests were outstanding."""


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


class _Outstanding:
    """One in-flight request: its future plus response post-processing."""

    __slots__ = ("pending", "graph_name", "on_done", "is_run")

    def __init__(self, pending: PendingResult, graph_name: Optional[str],
                 on_done: Optional[Callable[
                     [bool, Optional[BaseException]], None]],
                 is_run: bool):
        self.pending = pending
        self.graph_name = graph_name
        self.on_done = on_done
        self.is_run = is_run


class _WorkerClient:
    """Dispatcher-side handle for one worker process.

    Sends are serialized under ``send_lock`` — which also guards the
    ``shipped`` set, so the ship-the-graph-exactly-once decision is
    atomic with the send that carries it (two racing submits can never
    reorder a fingerprint-only run in front of the shipping run).  A
    dedicated reader thread resolves :class:`PendingResult` futures as
    responses arrive.
    """

    def __init__(self, index: int, ctx, config, fault_plan, strict_rounds,
                 max_cache_bytes, on_death=None,
                 backend_spec=("sim", None, 1),
                 heartbeat_interval_s: float = 0.5,
                 admission: Optional[AdmissionController] = None):
        self.index = index
        #: called (with this client) from the reader thread once the
        #: worker process is gone and its leftovers are failed — the
        #: dispatcher's respawn hook
        self.on_death = on_death
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, index, config, fault_plan, strict_rounds,
                  max_cache_bytes, backend_spec, heartbeat_interval_s),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
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
        #: this worker's token-budget gate (None = admission off)
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
                  on_done: Optional[Callable[
                      [bool, Optional[BaseException]], None]],
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
                pending, graph_name, on_done, is_run)
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

    def submit_run(self, algorithm: str, fingerprint: str, graph: Any,
                   seed: int, reuse: bool, params: Dict[str, Any],
                   graph_name: Optional[str],
                   on_done: Callable[[bool, Optional[BaseException]], None],
                   deadline_at: Optional[float] = None) -> PendingResult:
        """Route one query to this worker, shipping the graph if unseen.

        ``deadline_at`` (absolute ``time.monotonic()`` seconds) rides in
        the message; the worker answers expired-in-queue runs with
        ``DeadlineExceededError`` instead of executing them.
        """
        request_id, pending = self._register(graph_name, on_done,
                                             is_run=True)
        try:
            with self.send_lock:
                ship = fingerprint not in self.shipped
                self.conn.send(("run", request_id, algorithm, fingerprint,
                                graph if ship else None, seed, reuse,
                                dict(params), deadline_at))
                if ship:
                    self.shipped.add(fingerprint)
        except (OSError, BrokenPipeError) as error:
            self._discard(request_id)
            raise WorkerDiedError(
                f"worker {self.index} pipe is closed: {error}") from error
        except BaseException:
            # e.g. an unpicklable graph/param: surface the real error to
            # the submitter, but never leak the registered pending entry
            # (a leak would inflate inflight_runs and hang close's drain)
            self._discard(request_id)
            raise
        return pending

    def submit_update(self, old_fingerprint: str, new_fingerprint: str,
                      insertions, deletions) -> PendingResult:
        """Ship an edge delta by fingerprint pair (never the whole graph).

        Under the send lock the resident-set bookkeeping moves
        ``old -> new`` atomically with the send, so a racing submit for
        the new fingerprint pipelines a fingerprint-only run *behind*
        this update instead of re-pickling the graph.
        """
        request_id, pending = self._register(None, None, is_run=True)
        try:
            with self.send_lock:
                self.conn.send(("update", request_id, old_fingerprint,
                                new_fingerprint, list(insertions),
                                list(deletions)))
                self.shipped.discard(old_fingerprint)
                self.shipped.add(new_fingerprint)
        except (OSError, BrokenPipeError) as error:
            self._discard(request_id)
            raise WorkerDiedError(
                f"worker {self.index} pipe is closed: {error}") from error
        except BaseException:
            self._discard(request_id)
            raise
        return pending

    def request_stats(self) -> PendingResult:
        request_id, pending = self._register(None, None, is_run=False)
        try:
            with self.send_lock:
                self.conn.send(("stats", request_id))
        except (OSError, BrokenPipeError) as error:
            self._discard(request_id)
            raise WorkerDiedError(
                f"worker {self.index} pipe is closed: {error}") from error
        except BaseException:
            self._discard(request_id)
            raise
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
            ok = kind == "ok"
            if outstanding.on_done is not None:
                try:
                    outstanding.on_done(ok, None if ok else payload)
                except Exception:  # noqa: BLE001 - reader must not die
                    pass
            if ok:
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
            if outstanding.on_done is not None:
                try:
                    outstanding.on_done(False, error)
                except Exception:  # noqa: BLE001
                    pass
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
    """A GraphService whose queries run on N worker processes.

    Same contract as :class:`~repro.serve.service.GraphService`
    (``load``/``submit``/``query``/``stats``/``close``, and the JSON-lines
    protocol drives it unchanged); the difference is **where** queries
    run: each worker process owns a private Session, so concurrent
    CPU-bound queries actually run in parallel instead of time-slicing
    one GIL.

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
        ctx = multiprocessing.get_context(mp_context)
        #: spawn parameters, kept for worker respawn after a crash
        self._ctx = ctx
        self._config = config
        self._fault_plan = fault_plan
        self._strict_rounds = strict_rounds
        self._max_cache_bytes = max_cache_bytes
        self._spill_threshold = spill_threshold
        self.backend = backend
        self._backend_spec = (backend, list(dht_nodes) if dht_nodes else None,
                              replication)
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
        self._lock = threading.Lock()
        #: serializes update() end to end (graph mutation, affinity move,
        #: delta shipping) — see GraphService._update_lock
        self._update_lock = threading.Lock()
        self._closed = False
        self._workers_respawned = 0
        #: final stats payloads of workers that died and were replaced,
        #: so merged counters stay coherent across respawns (best-effort:
        #: only what the dead worker last reported)
        self._retired_stats: List[Dict[str, Any]] = []
        #: queries lacking an explicit deadline inherit this one (seconds)
        self.default_deadline_s = default_deadline_s
        #: admission: each worker carries its own token budget of
        #: ``max_inflight_cost`` priced simulated-seconds
        self._max_inflight_cost = max_inflight_cost
        self._admission_queue_factor = admission_queue_factor
        self._admission_decay_s = admission_decay_s
        self._heartbeat_interval_s = heartbeat_interval_s
        # import every spec module before the first fork: fresh, respawned
        # and autoscaled workers start with the registry already loaded
        registry.specs()
        self._clients = [self._spawn(index) for index in range(processes)]
        self._handles: Dict[str, GraphHandle] = {}
        self._pinned: Dict[str, Any] = {}
        #: base name -> (base fingerprint, derived graph, derived
        #: fingerprint); the dispatcher-side degree-weighted cache
        self._derived: Dict[str, Tuple[str, Any, str]] = {}
        self._affinity: Dict[str, int] = {}
        self._fingerprints = FingerprintMemo()
        #: queries are idempotent (same spec, graph, seed -> same result),
        #: so a query lost to a worker crash is re-dispatched once to a
        #: surviving worker instead of surfacing WorkerDiedError
        self._retry_worker_death = bool(retry_worker_death)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._queries_shed = 0
        self._queries_retried = 0
        self._deadline_exceeded = 0
        self._affinity_routed = 0
        self._rebalances = 0
        self._updates = 0
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
        self._workers_scaled = 0
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

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, index: int) -> _WorkerClient:
        admission = None
        if self._max_inflight_cost is not None:
            admission = AdmissionController(
                self._max_inflight_cost,
                queue_factor=self._admission_queue_factor,
                decay_half_life_s=self._admission_decay_s)
        return _WorkerClient(index, self._ctx, self._config,
                             self._fault_plan, self._strict_rounds,
                             self._max_cache_bytes,
                             on_death=self._on_worker_death,
                             backend_spec=self._backend_spec,
                             heartbeat_interval_s=self._heartbeat_interval_s,
                             admission=admission)

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
            self._workers_scaled += 1

    def _scale_down(self) -> None:
        with self._lock:
            if self._closed or len(self._clients) <= self._base_processes:
                return
            client = self._clients.pop()
            self._workers_scaled += 1
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

    # -- graph registry ----------------------------------------------------

    @property
    def processes(self) -> int:
        return len(self._clients)

    def load(self, name: str, graph: Any, *, pin: bool = True) -> GraphHandle:
        """Register ``graph`` under ``name`` for queries by name.

        The graph is **not** shipped to any worker here — it crosses the
        process boundary on the first query routed to each worker that
        needs it (pickled once, then referenced by fingerprint).
        """
        handle = GraphHandle(name, graph)
        with self._lock:
            self._handles[name] = handle
            if pin:
                self._pinned[name] = graph
            else:
                self._pinned.pop(name, None)
        return handle

    def unload(self, name: str) -> None:
        with self._lock:
            handle = self._handles.pop(name, None)
            self._pinned.pop(name, None)
            derived = self._derived.pop(name, None)
            fingerprints = []
            if handle is not None:
                fingerprints.append(handle.fingerprint)
            if derived is not None:
                fingerprints.append(derived[2])
            for fingerprint in fingerprints:
                self._affinity.pop(fingerprint, None)
        for fingerprint in fingerprints:
            self._unpublish(fingerprint)
            for client in self._clients:
                if fingerprint in client.shipped:
                    client.send_unload(fingerprint)

    def graphs(self) -> List[str]:
        with self._lock:
            return sorted(self._handles)

    def update(self, name: str, insertions: Any = (),
               deletions: Any = ()) -> GraphHandle:
        """Apply an edge batch to a loaded graph (see ServiceBase.update).

        The dispatcher-side copy mutates and chain-updates its
        fingerprint; every worker already holding the graph receives the
        **delta by fingerprint pair** — O(batch) on the pipe instead of
        re-pickling the whole graph — applies it to its resident copy and
        patches its cached artifacts on the next query.  Workers that
        never saw the graph (or died and respawned) get the mutated graph
        shipped lazily as usual.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            handle = self._handles.get(name)
            known = ", ".join(sorted(self._handles)) or "(none)"
        if handle is None:
            raise KeyError(f"no graph loaded as {name!r}; loaded: {known}")
        insertions = [tuple(edge) for edge in insertions]
        deletions = [tuple(edge) for edge in deletions]
        with self._update_lock:
            old_fingerprint = handle.fingerprint
            handle.apply_batch(insertions, deletions)
            new_fingerprint = handle.fingerprint
            if new_fingerprint == old_fingerprint:
                return handle
            with self._lock:
                self._updates += 1
                derived = self._derived.pop(name, None)
                index = self._affinity.pop(old_fingerprint, None)
                if index is not None:
                    self._affinity[new_fingerprint] = index
                if derived is not None:
                    self._affinity.pop(derived[2], None)
                clients = list(self._clients)
            # stale shared blobs: the old-content pickle (and any
            # degree-weighted derivation of it) must not be resolvable
            # after the mutation — lazy re-ships publish the new content
            self._unpublish(old_fingerprint)
            if derived is not None:
                self._unpublish(derived[2])
                for client in clients:
                    if derived[2] in client.shipped:
                        client.send_unload(derived[2])
            acknowledgements = []
            for client in clients:
                if client.alive and old_fingerprint in client.shipped:
                    try:
                        acknowledgements.append((client, client.submit_update(
                            old_fingerprint, new_fingerprint,
                            insertions, deletions)))
                    except (WorkerDiedError, ServiceClosedError):
                        pass  # the respawned worker re-ships lazily
            for client, acknowledgement in acknowledgements:
                try:
                    acknowledgement.result(60.0)
                except (WorkerDiedError, ServiceClosedError):
                    pass  # failover/respawn re-ships lazily
                except BaseException:
                    # the worker could not apply the delta (or timed
                    # out): its resident copy is unknown, so stop
                    # claiming it holds the new content — the next query
                    # routed there re-ships the full mutated graph
                    with client.send_lock:
                        client.shipped.discard(new_fingerprint)
            return handle

    # -- queries -----------------------------------------------------------

    def submit(self, algorithm: str, graph: Any, *, seed: int = 0,
               reuse_preprocessing: bool = True,
               deadline: Optional[float] = None,
               retry_worker_death: Optional[bool] = None,
               **params: Any) -> PendingResult:
        """Enqueue one query; returns a :class:`PendingResult`.

        Unknown algorithms, undeclared parameters and unknown graph names
        are rejected here, in the submitting thread (and process), so the
        error surfaces immediately.  When admission control is on
        (``max_inflight_cost``), the query is priced against the routed
        worker's token budget first and may be shed with
        :class:`~repro.serve.admission.OverloadedError`.  ``deadline``
        is relative seconds; a query still queued when it passes is
        cancelled worker-side before execution.

        Queries are idempotent (same spec, graph and seed produce the
        same result), so one lost to a worker crash is transparently
        re-dispatched once to a surviving worker instead of failing with
        :class:`WorkerDiedError`.  ``retry_worker_death`` overrides the
        service-wide default per query (updates are never retried — they
        mutate worker state).
        """
        spec = registry.get(algorithm)
        merged = Session._merge_params(spec, params)
        del merged  # validation only; the worker Session re-merges defaults
        obj, fingerprint, name = self._resolve(graph)
        obj, fingerprint, name = self._adapt_weighted(
            spec, obj, fingerprint, name)
        if deadline is None:
            deadline = self.default_deadline_s
        deadline_at = (time.monotonic() + deadline
                       if deadline is not None else None)
        retries = (self._retry_worker_death if retry_worker_death is None
                   else bool(retry_worker_death))
        outer = PendingResult(deadline=deadline_at)
        self._dispatch_query(spec, obj, fingerprint, name, seed,
                             reuse_preprocessing, params, deadline_at,
                             outer, attempts_left=1 if retries else 0,
                             first=True)
        return outer

    def _dispatch_query(self, spec, obj: Any, fingerprint: str,
                        name: Optional[str], seed: int, reuse: bool,
                        params: Dict[str, Any],
                        deadline_at: Optional[float],
                        outer: PendingResult, attempts_left: int,
                        first: bool) -> None:
        """One delivery attempt: route, admit, publish, send.

        The caller-facing ``outer`` pending resolves from the attempt's
        done-callback; a :class:`WorkerDiedError` with attempts left
        re-enters here (routing picks a surviving — or respawned —
        worker) instead of resolving.  On the first attempt errors
        raise synchronously, exactly as submit always did; on re-
        dispatch they fail ``outer``.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            client = self._route(fingerprint)
        price = None
        if client.admission is not None:
            price = estimate_query_cost(
                spec,
                getattr(obj, "num_vertices", 0),
                getattr(obj, "num_edges", 0),
                # cached-state proxy: once the graph is resident on the
                # worker, repeat queries ride its warm artifact cache
                cached=fingerprint in client.shipped,
                config=self._config)
            decision, retry_after = client.admission.try_acquire(price)
            if decision == "shed":
                with self._lock:
                    self._queries_shed += 1
                raise OverloadedError(
                    f"worker {client.index} overloaded, shed "
                    f"{spec.name!r} (priced {price:.3f}s); "
                    f"retry in {retry_after}s",
                    retry_after_s=retry_after)
        if first:
            with self._lock:
                self._submitted += 1
        ship = obj
        if self._blob_store is not None:
            # ship-once becomes write-once: the message carries a tiny
            # locator; the pickle exists once in the shared store no
            # matter how many workers (or respawns or retries) resolve it
            ship = self._publish(fingerprint, obj)

        def forward(inner: PendingResult, client=client,
                    price=price) -> None:
            if price is not None and client.admission is not None:
                client.admission.release(price)
            error = inner.error
            if isinstance(error, WorkerDiedError) and attempts_left > 0:
                with self._lock:
                    retryable = not self._closed
                    if retryable:
                        self._queries_retried += 1
                if retryable:
                    try:
                        self._dispatch_query(spec, obj, fingerprint, name,
                                             seed, reuse, params,
                                             deadline_at, outer,
                                             attempts_left - 1,
                                             first=False)
                        return
                    except BaseException as retry_error:  # noqa: BLE001
                        error = retry_error
            self._account_outcome(error)
            if error is None:
                outer._resolve(inner._value)
            else:
                outer._fail(error)

        try:
            inner = client.submit_run(spec.name, fingerprint, ship, seed,
                                      reuse, params, name, None,
                                      deadline_at=deadline_at)
        except BaseException as error:
            if price is not None and client.admission is not None:
                client.admission.release(price)
            if isinstance(error, WorkerDiedError) and attempts_left > 0:
                with self._lock:
                    retryable = not self._closed
                    if retryable:
                        self._queries_retried += 1
                if retryable:
                    # _submitted was already counted above; the retry is
                    # the same query, not a new one
                    self._dispatch_query(spec, obj, fingerprint, name,
                                         seed, reuse, params, deadline_at,
                                         outer, attempts_left - 1,
                                         first=False)
                    return
            raise
        inner.add_done_callback(forward)

    def _account_outcome(self, error: Optional[BaseException]) -> None:
        with self._lock:
            if error is None:
                self._completed += 1
            else:
                self._failed += 1
                if isinstance(error, DeadlineExceededError):
                    self._deadline_exceeded += 1

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

    # -- graph resolution --------------------------------------------------

    def _resolve(self, graph: Any) -> Tuple[Any, str, Optional[str]]:
        """-> (graph object, content fingerprint, registered name or None)."""
        if isinstance(graph, str):
            with self._lock:
                handle = self._handles.get(graph)
                known = ", ".join(sorted(self._handles)) or "(none)"
            if handle is None:
                raise KeyError(
                    f"no graph loaded as {graph!r}; loaded: {known}")
            graph = handle
        if isinstance(graph, GraphHandle):
            obj, fingerprint = graph.resolve()
            return obj, fingerprint, graph.name
        return graph, self._fingerprints.fingerprint(graph), None

    def _adapt_weighted(self, spec, obj: Any, fingerprint: str,
                        name: Optional[str]
                        ) -> Tuple[Any, str, Optional[str]]:
        """Weighted algorithms on unweighted graphs get the paper's
        deg(u)+deg(v) weights, derived dispatcher-side once per base
        fingerprint and shipped like any other graph."""
        if spec.input_kind != "weighted" or obj is None:
            return obj, fingerprint, name
        if isinstance(obj, WeightedGraph):
            return obj, fingerprint, name
        if name is None:
            derived = degree_weighted(obj)
            return derived, graph_fingerprint(derived), None
        with self._lock:
            cached = self._derived.get(name)
            if cached is not None and cached[0] == fingerprint:
                return cached[1], cached[2], derived_weighted_name(name)
        derived = degree_weighted(obj)
        derived_fingerprint = graph_fingerprint(derived)
        with self._lock:
            self._derived[name] = (fingerprint, derived,
                                   derived_fingerprint)
        return derived, derived_fingerprint, derived_weighted_name(name)

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

    def stats(self, timeout: Optional[float] = 60.0) -> Dict[str, Any]:
        """The merged view: GraphService's flat keys, routing counters,
        and the per-worker breakdown under ``per_worker``."""
        per_worker = self.worker_stats(timeout)
        merged = SessionStats.sum(
            SessionStats(**{f: row[f] for f in _SESSION_STAT_FIELDS})
            for row in per_worker)
        with self._lock:
            # replaced workers' last-reported counters stay in the total
            for payload in self._retired_stats:
                merged.merge(payload["stats"])
            stats: Dict[str, Any] = {
                "backend": self.backend,
                "workers": len(self._clients),
                "processes": len(self._clients),
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "queries_shed": self._queries_shed,
                "queries_retried": self._queries_retried,
                "deadline_exceeded": self._deadline_exceeded,
                "workers_scaled": self._workers_scaled,
                "workers_hung": self._workers_hung,
                "graphs_loaded": len(self._handles),
                "affinity_routed": self._affinity_routed,
                "rebalances": self._rebalances,
                "updates": self._updates,
                "workers_respawned": self._workers_respawned,
            }
            clients = list(self._clients)
        stats["stale_workers"] = [row["worker"] for row in per_worker
                                  if row.get("stale")]
        if self._max_inflight_cost is not None:
            merged_admission: Dict[str, Any] = {
                "budget": 0.0, "inflight_cost": 0.0,
                "admitted": 0, "queued": 0, "shed": 0,
            }
            for client in clients:
                if client.admission is None:
                    continue
                snap = client.admission.snapshot()
                merged_admission["budget"] += snap["budget"]
                merged_admission["inflight_cost"] += snap["inflight_cost"]
                merged_admission["admitted"] += snap["admitted"]
                merged_admission["queued"] += snap["queued"]
                merged_admission["shed"] += snap["shed"]
            stats["admission"] = merged_admission
        stats["cached_preprocessings"] = sum(
            row["cached_preprocessings"] for row in per_worker)
        stats["cache_bytes"] = sum(row["cache_bytes"] for row in per_worker)
        if self._blob_store is not None:
            # write-once fronting: a graph "ships" when its blob is
            # written to the shared store, however many workers read it
            with self._lock:
                stats["graphs_shipped"] = self._graphs_published
        else:
            stats["graphs_shipped"] = sum(
                row["graphs_shipped"] for row in per_worker)
        stats.update(merged.to_dict())
        stats["per_worker"] = per_worker
        return stats

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries; in-flight queries drain when waiting."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
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
