"""The serving core: one dispatcher, and its in-process case.

The paper's production setting is a serving system: the DHT-resident graph
outlives any single query and many queries are answered against it
concurrently.  :class:`ServiceBase` is the dispatcher every service shares:
the graph registry (an unknown name raises ``KeyError`` at ``submit``),
the paper's default ``deg(u) + deg(v)`` weights for weighted algorithms on
unweighted graphs, pricing and admit / queue / shed, deadline stamping,
the charge-back and outcome counters, the once-only re-dispatch of a query
whose worker process died, ``update`` serialisation and the ``stats()``
schema.

A service supplies *lanes*, the places a query can run, each with its own
:class:`~repro.serve.admission.AdmissionController`.  :class:`GraphService`
is the zero-process case: one lane, a bounded
:class:`~repro.serve.pool.WorkerPool` of threads over one shared
:class:`~repro.api.session.Session` (budget ``max_inflight_cost ×
workers``); every query runs on its own runtime, and the shared
preprocessing is prepared once per (stage, graph, seed-class).
:class:`~repro.serve.procpool.ProcessGraphService` has one lane per worker
process (budget ``max_inflight_cost`` each).

::

    with GraphService(ClusterConfig(num_machines=10), workers=4) as service:
        service.load("web", graph)
        pending = [service.submit("mis", "web", seed=s) for s in range(8)]
        results = [p.result() for p in pending]
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.ampc.cluster import ClusterConfig
from repro.ampc.faults import FaultPlan
from repro.api import registry
from repro.api.result import RunResult
from repro.api.session import GraphHandle, Session
from repro.graph.generators import degree_weighted
from repro.graph.graph import WeightedGraph
from repro.serve.admission import (AdmissionController, OverloadedError,
                                   estimate_query_cost)
from repro.serve.pool import (DeadlineExceededError, PendingResult,
                              ServiceClosedError, WorkerDiedError, WorkerPool)

#: registration suffix for the automatic deg(u)+deg(v) weighted derivation
DERIVED_WEIGHTED_SUFFIX = "#degree-weighted"

#: the counters every service keeps, in ``stats()`` order
_COUNTERS = ("submitted", "completed", "failed", "queries_shed",
             "queries_retried", "deadline_exceeded", "workers_scaled",
             "updates")

#: the admission snapshot fields ``stats()`` sums over a service's lanes
_ADMISSION_FIELDS = ("budget", "inflight_cost", "admitted", "queued", "shed")


@dataclass
class _Query:
    """One submitted query, resolved and adapted; a re-dispatch reuses it.
    ``graph`` and ``fingerprint`` stay None until a lane needs them."""

    spec: Any
    graph: Any
    fingerprint: Optional[str]
    handle: Optional[GraphHandle]
    seed: int
    reuse: bool
    params: Dict[str, Any]
    deadline_at: Optional[float]

    @property
    def target(self) -> Any:
        """What a Session runs: the handle when there is one, else the graph."""
        return self.handle if self.handle is not None else self.graph


class ServiceBase:
    """The dispatcher core shared by every service.

    The surface is ``load``/``unload``/``graphs``/``update``, ``submit``
    returning a :class:`~repro.serve.pool.PendingResult`, synchronous
    ``query``, ``stats`` and ``close``; the JSON-lines protocol drives any
    service through it.  A service calls :meth:`_init_core` and supplies
    the lane hooks: ``_register(name, graph)`` (the handle ``load``
    keeps); ``_pick_lane(query)`` and ``_lanes()`` (a lane is any object
    with an ``admission`` attribute); ``_is_warm(lane, query)``;
    ``_start(lane, query)`` (one attempt's PendingResult);
    ``_after_update(handle, old_fingerprint, insertions, deletions,
    derived)``; ``_forget(name, fingerprints)`` (after ``unload``);
    ``_session_stats(timeout)`` (``workers``, the merged SessionStats
    fields and cache gauges, and keys of its own); ``_close_lanes(wait)``.
    """

    def _init_core(self, default_deadline_s: Optional[float],
                   retry_worker_death: bool, admission_queue_factor: float,
                   admission_decay_s: float) -> None:
        self._lock = threading.Lock()
        #: serializes update() batches — concurrent updates to one graph
        #: must not interleave mutations (version bumps and journal
        #: records are not atomic); update-vs-query ordering remains the
        #: caller's to sequence
        self._update_lock = threading.Lock()
        self._closed = False
        self._handles: Dict[str, GraphHandle] = {}
        #: strong references to pinned graphs (handles are weak; a
        #: serving daemon owns the graphs loaded into it)
        self._pinned: Dict[str, Any] = {}
        #: name -> (base fingerprint, derived graph, derived handle): the
        #: degree-weighted derivation, rebuilt once the base changes
        self._derived: Dict[str, Tuple[str, Any, GraphHandle]] = {}
        #: queries lacking an explicit deadline inherit this one (seconds)
        self.default_deadline_s = default_deadline_s
        #: queries are idempotent (same spec, graph, seed -> same result),
        #: so one lost with its worker is re-dispatched once instead of
        #: surfacing WorkerDiedError
        self._retry_worker_death = retry_worker_death
        #: the outcome counters, reported by stats() under these names
        self._counts: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self._admission_options = {"queue_factor": admission_queue_factor,
                                   "decay_half_life_s": admission_decay_s}

    def _gate(self, budget: Optional[float]
              ) -> Optional[AdmissionController]:
        """A new lane's admission gate; None while admission is off."""
        if budget is None:
            return None
        return AdmissionController(budget, **self._admission_options)

    # -- graph registry ------------------------------------------------------

    def algorithms(self) -> List[str]:
        """Names this service can run (the registry's, in order)."""
        return registry.names()

    def load(self, name: str, graph: Any, *, pin: bool = True) -> GraphHandle:
        """Register ``graph`` under ``name`` for queries by name.

        With ``pin=True`` (the default) the service keeps the graph alive
        until :meth:`unload`; ``pin=False`` leaves lifetime to the caller
        (handles hold only a weak reference).
        """
        handle = self._register(name, graph)
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
        fingerprints = [handle.fingerprint] if handle is not None else []
        if derived is not None:
            fingerprints.append(derived[2].fingerprint)
        self._forget(name, fingerprints)

    def graphs(self) -> List[str]:
        """The names callers loaded, sorted (derivations are not listed)."""
        with self._lock:
            return sorted(self._handles)

    def _named(self, name: str) -> GraphHandle:
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            handle = self._handles.get(name)
            if handle is not None:
                return handle
            known = ", ".join(sorted(self._handles)) or "(none)"
        raise KeyError(f"no graph loaded as {name!r}; loaded: {known}")

    def update(self, name: str, insertions: Any = (),
               deletions: Any = ()) -> GraphHandle:
        """Apply an edge batch to the graph registered as ``name``.

        Deletions apply first, then insertions (``(u, v)`` pairs; weighted
        graphs take ``(u, v, w)`` insertion triples).  The graph's
        fingerprint chain-updates in O(batch) and later queries patch
        cached DHT-resident artifacts through the registered ``update``
        hooks instead of re-preparing from scratch; a stale
        ``<name>#degree-weighted`` derivation is dropped and rebuilt
        lazily.  Not synchronized with in-flight queries on the same
        graph — sequence an update after the queries whose results you
        still expect against the old content.
        """
        handle = self._named(name)
        insertions = [tuple(edge) for edge in insertions]
        deletions = [tuple(edge) for edge in deletions]
        with self._update_lock:
            old_fingerprint = handle.fingerprint
            handle.apply_batch(insertions, deletions)
            if handle.fingerprint != old_fingerprint:
                with self._lock:
                    self._counts["updates"] += 1
                    derived = self._derived.pop(name, None)
                self._after_update(handle, old_fingerprint, insertions,
                                   deletions, derived)
        return handle

    # -- queries -------------------------------------------------------------

    def submit(self, algorithm: str, graph: Any, *, seed: int = 0,
               reuse_preprocessing: bool = True,
               deadline: Optional[float] = None,
               **params: Any) -> PendingResult:
        """Enqueue one query; returns a :class:`PendingResult`.

        ``graph`` may be a loaded name, a handle, or a graph object.
        Unknown algorithms, undeclared parameters and unknown graph names
        are rejected here, in the submitting thread, as is a query that
        the routed lane's admission sheds
        (:class:`~repro.serve.admission.OverloadedError`).  ``deadline``
        is relative seconds: a query still queued when it passes is
        cancelled before execution and fails with
        :class:`~repro.serve.pool.DeadlineExceededError`.  Each service
        binds this method in its own class body.
        """
        spec = registry.get(algorithm)
        Session._merge_params(spec, params)  # fail fast on unknown params
        if deadline is None:
            deadline = self.default_deadline_s
        deadline_at = (time.monotonic() + deadline
                       if deadline is not None else None)
        query = _Query(spec, *self._resolve(spec, graph), seed,
                       reuse_preprocessing, params, deadline_at)
        retry = self._retry_worker_death
        outer = PendingResult(deadline=deadline_at) if retry else None
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._counts["submitted"] += 1
        try:
            pending = self._dispatch(query, outer, 1 if retry else 0)
        except BaseException:
            # never started: the query is not counted at all
            with self._lock:
                self._counts["submitted"] -= 1
            raise
        return outer if outer is not None else pending

    def query(self, algorithm: str, graph: Any, *, seed: int = 0,
              timeout: Optional[float] = None,
              **params: Any) -> RunResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(algorithm, graph, seed=seed,
                           **params).result(timeout)

    def _resolve(self, spec, graph: Any
                 ) -> Tuple[Any, Optional[str], Optional[GraphHandle]]:
        """-> (graph, fingerprint, handle), adapted to the spec's input.

        Weighted algorithms queried on an unweighted graph get the paper's
        default ``deg(u) + deg(v)`` weights (Section 5.2), exactly like
        the CLI.  A named graph's derivation is built once per base
        fingerprint under ``<name>#degree-weighted``, so repeat queries
        pay neither the O(n + m) construction nor the re-fingerprint.
        """
        handle = graph if isinstance(graph, GraphHandle) else None
        if isinstance(graph, str):
            handle = self._named(graph)
        if spec.input_kind != "weighted":
            return (None, None, handle) if handle else (graph, None, None)
        fingerprint = None
        if handle is not None:
            graph, fingerprint = handle.resolve()
        if isinstance(graph, WeightedGraph):
            return graph, fingerprint, handle
        if handle is None:
            return degree_weighted(graph), None, None
        with self._lock:
            cached = self._derived.get(handle.name)
        if cached is None or cached[0] != fingerprint:
            derived = degree_weighted(graph)
            cached = (fingerprint, derived, GraphHandle(
                handle.name + DERIVED_WEIGHTED_SUFFIX, derived))
            with self._lock:
                self._derived[handle.name] = cached
        return cached[1], cached[2].fingerprint, cached[2]

    def _dispatch(self, query: _Query, outer: Optional[PendingResult],
                  attempts_left: int) -> PendingResult:
        """One delivery attempt: pick a lane, price and admit, start.

        The charge is released on every path: by :meth:`_settle` once the
        attempt resolves, or here when it fails to start.  A start that
        fails with ``WorkerDiedError`` re-dispatches at once while attempts
        are left.
        """
        lane = self._pick_lane(query)
        gate = lane.admission
        price = None
        if gate is not None:
            target = query.target
            price = estimate_query_cost(
                query.spec, getattr(target, "num_vertices", 0) or 0,
                getattr(target, "num_edges", 0) or 0,
                cached=self._is_warm(lane, query), config=self._config)
            decision, retry_after = gate.try_acquire(price)
            if decision == "shed":
                with self._lock:
                    self._counts["queries_shed"] += 1
                raise OverloadedError(
                    f"service overloaded, shed {query.spec.name!r} "
                    f"(priced {price:.3f}s); retry in {retry_after}s",
                    retry_after_s=retry_after)
        try:
            pending = self._start(lane, query)
        except BaseException as error:
            if price is not None:
                gate.release(price)
            if self._retrying(error, attempts_left):
                return self._dispatch(query, outer, attempts_left - 1)
            raise
        pending.add_done_callback(
            lambda inner: self._settle(inner, query, gate, price, outer,
                                       attempts_left))
        return pending

    def _retrying(self, error: Optional[BaseException],
                  attempts_left: int) -> bool:
        """Whether a failed attempt is re-dispatched (counted if so)."""
        if attempts_left <= 0 or not isinstance(error, WorkerDiedError):
            return False
        with self._lock:
            if self._closed:
                return False
            self._counts["queries_retried"] += 1
            return True

    def _settle(self, inner: PendingResult, query: _Query,
                gate: Optional[AdmissionController], price: Optional[float],
                outer: Optional[PendingResult], attempts_left: int) -> None:
        """Done-callback of one attempt, any outcome (success, failure,
        deadline expiry in queue, cancel): charge-back, then re-dispatch or
        count the outcome and resolve the caller's future."""
        if price is not None:
            gate.release(price)
        error = inner.error
        if self._retrying(error, attempts_left):
            try:
                self._dispatch(query, outer, attempts_left - 1)
                return
            except Exception as retry_error:  # noqa: BLE001 - fails outer
                error = retry_error
        with self._lock:
            if error is None:
                self._counts["completed"] += 1
            else:
                self._counts["failed"] += 1
                if isinstance(error, DeadlineExceededError):
                    self._counts["deadline_exceeded"] += 1
        if outer is not None:
            if error is None:
                outer._resolve(inner._value)
            else:
                outer._fail(error)

    # -- accounting / lifecycle ----------------------------------------------

    def stats(self, timeout: Optional[float] = 60.0) -> Dict[str, Any]:
        """One flat schema for every service: the core's counters, the
        lane-summed admission snapshot (when admission is on), and the
        lanes' SessionStats fields and cache gauges."""
        lanes = self._session_stats(timeout)
        with self._lock:
            stats: Dict[str, Any] = {"backend": self.backend, **self._counts,
                                     "graphs_loaded": len(self._handles)}
        gates = [lane.admission.snapshot() for lane in self._lanes()
                 if lane.admission is not None]
        if gates:
            stats["admission"] = {field: sum(gate[field] for gate in gates)
                                  for field in _ADMISSION_FIELDS}
        stats.update(lanes)
        return stats

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries; in-flight queries drain when waiting."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._close_lanes(wait)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class GraphService(ServiceBase):
    """The in-process service: one lane, a thread pool over one Session."""

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 workers: int = 4,
                 max_pending: int = 0,
                 fault_plan: Optional[FaultPlan] = None,
                 strict_rounds: bool = False,
                 max_cache_bytes: Optional[int] = None,
                 backend: Any = "sim",
                 dht_nodes: Optional[List[Any]] = None,
                 replication: int = 1,
                 max_chain_generations: Optional[int] = None,
                 session: Optional[Session] = None,
                 max_inflight_cost: Optional[float] = None,
                 admission_queue_factor: float = 2.0,
                 admission_decay_s: float = 5.0,
                 default_deadline_s: Optional[float] = None):
        # threads cannot die under a query: nothing is ever re-dispatched
        self._init_core(default_deadline_s, False, admission_queue_factor,
                        admission_decay_s)
        #: whether close() owns the session's backing resources (it does
        #: unless the caller injected an externally managed session)
        self._owns_session = session is None
        self.session = session or Session(
            config,
            fault_plan=fault_plan,
            strict_rounds=strict_rounds,
            max_cache_bytes=max_cache_bytes,
            backend=backend,
            dht_nodes=dht_nodes,
            replication=replication,
            max_chain_generations=max_chain_generations,
        )
        self.backend = self.session.backend
        self._config = self.session.config
        self._pool = WorkerPool(workers, max_pending=max_pending)
        #: the lane's admission gate; ``max_inflight_cost`` is the
        #: per-worker token budget (cost-model simulated seconds), so the
        #: lane's budget scales with the pool
        self.admission = self._gate(
            None if max_inflight_cost is None
            else max_inflight_cost * self._pool.workers)

    # bound here, not inherited: class-level wrappers (tracers) look the
    # method up in this class's own namespace
    submit = ServiceBase.submit

    def _register(self, name: str, graph: Any) -> GraphHandle:
        # the Session's own handle: update() patches it, so the Session
        # sees the chain-updated fingerprint and its lineage
        return self.session.load(name, graph)

    def _after_update(self, *_update: Any) -> None:
        pass  # the Session sees the handle's new fingerprint on its next run

    def _forget(self, name: Optional[str], fingerprints: List[str]) -> None:
        self.session.unload(name)

    def _pick_lane(self, query: _Query) -> "GraphService":
        return self

    def _lanes(self) -> List["GraphService"]:
        return [self]

    def _is_warm(self, lane: Any, query: _Query) -> bool:
        return self.session.is_prepared(query.spec.name, query.target,
                                        seed=query.seed)

    def _start(self, lane: Any, query: _Query) -> PendingResult:
        return self._pool.submit(self._execute, query,
                                 deadline=query.deadline_at)

    def _execute(self, query: _Query) -> RunResult:
        return self.session.run(query.spec.name, query.target,
                                seed=query.seed,
                                reuse_preprocessing=query.reuse,
                                **query.params)

    def _session_stats(self, timeout: Optional[float]) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "workers": self._pool.workers,
            "cached_preprocessings": self.session.cached_preprocessings,
            "cache_bytes": self.session.cache_bytes,
        }
        stats.update(self.session.stats_snapshot().to_dict())
        return stats

    def _close_lanes(self, wait: bool) -> None:
        self._pool.close(wait=wait)
        if self._owns_session:
            self.session.close()
