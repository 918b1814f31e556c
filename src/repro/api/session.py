"""Sessions: one simulated cluster serving many algorithm runs.

The point of the AMPC model (and of the paper's production setting) is that
the DHT-resident graph outlives a single query: every algorithm in Section
5 starts with the same "write the directed graph to the key-value store"
stage, and a serving system amortizes that stage across queries.

:class:`Session` is that amortization boundary.  It owns one
:class:`~repro.ampc.cluster.ClusterConfig` and a preprocessing cache keyed
by **graph content** (see :mod:`repro.api.fingerprint`): the first
``session.run("mis", graph)`` pays the preprocessing shuffle and KV
writes, a second run on an equal graph (and, where the artifact is
seed-independent, a run of a sibling algorithm sharing the same
preparation, e.g. ``pagerank`` and ``random-walks``) skips them and
reports the saving in its :class:`~repro.api.result.RunResult`.

Graphs can also be registered explicitly — ``session.load("web", graph)``
returns a :class:`GraphHandle` with the fingerprint computed once, and
later runs may refer to the graph by handle or by name.  Handles hold only
a weak reference, and cache entries store no graph at all, so dropping the
last caller reference actually releases the graph's memory.

The cache is optionally bounded: ``max_cache_bytes`` enforces an LRU
policy sized by the estimated bytes of each prepared artifact, with hits,
misses and evictions counted in :class:`SessionStats`.

Sessions are **thread-safe** and are what :class:`repro.serve.GraphService`
serves concurrent queries through.  Each run gets a **fresh** runtime
(:class:`~repro.ampc.runtime.AMPCRuntime`, or
:class:`~repro.mpc.runtime.MPCRuntime` for specs declaring
``model="mpc"``), so metrics are per-run; only sealed DHT stores and
driver-side artifacts are shared, which is exactly what the model allows
(sealed stores are read-only).  Concurrent cache misses on the same key
are deduplicated: one thread prepares, the others wait and take the hit.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.ampc.cluster import ClusterConfig
from repro.ampc.cost_model import estimate_bytes
from repro.ampc.dht import DerivedDHTStore, DHTStore
from repro.ampc.faults import FaultPlan
from repro.ampc.runtime import AMPCRuntime
from repro.distdht.backend import create_backend
from repro.api import registry
from repro.api.fingerprint import (FingerprintMemo, advance_lineage,
                                   graph_fingerprint)
from repro.api.result import RunResult
from repro.graph.graph import Graph, WeightedGraph
from repro.mpc.runtime import MPCRuntime


@dataclass
class SessionStats:
    """Cross-run accounting of one Session.

    The ``*_executed`` fields accumulate each run's own metrics, so under
    concurrency they must equal the sum of the per-run numbers — the
    invariant the serving stress tests assert.
    """

    runs: int = 0
    preprocessing_hits: int = 0
    preprocessing_misses: int = 0
    #: cache entries dropped by the LRU byte budget
    preprocessing_evictions: int = 0
    #: misses served by patching a cached ancestor artifact (the
    #: batch-dynamic path) instead of re-preparing from scratch
    incremental_updates: int = 0
    #: misses that ran the full from-scratch preparation
    full_prepares: int = 0
    #: shuffles skipped thanks to the preprocessing cache
    shuffles_saved: int = 0
    #: KV writes skipped thanks to the preprocessing cache
    kv_writes_saved: int = 0
    #: executed totals summed over every run's own metrics
    shuffles_executed: int = 0
    kv_reads_executed: int = 0
    kv_writes_executed: int = 0
    simulated_time_s: float = 0.0

    def merge(self, other: "SessionStats") -> "SessionStats":
        """Accumulate ``other`` into this object, field-wise; returns self.

        Every field is additive (counts and summed simulated seconds), so
        stats from independent sessions — e.g. the per-process Sessions of
        a :class:`~repro.serve.procpool.ProcessGraphService` — merge into
        the same coherent view a single shared Session would have kept.
        """
        for field_ in fields(self):
            setattr(self, field_.name,
                    getattr(self, field_.name) + getattr(other, field_.name))
        return self

    @classmethod
    def sum(cls, parts: Iterable["SessionStats"]) -> "SessionStats":
        """A new SessionStats equal to the field-wise sum of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (JSON-safe), one key per stats field."""
        return {field_.name: getattr(self, field_.name)
                for field_ in fields(self)}


def _validate_batch(graph: Any, insertions: List[Tuple],
                    deletions: List[Tuple]) -> None:
    """Reject a malformed edge batch before any mutation happens.

    Checked per row: deletions must name distinct, present edges;
    insertions must have the right arity for the graph class (weighted
    graphs take ``(u, v, w)``) with in-range, distinct endpoints.
    """
    num_vertices = graph.num_vertices
    weighted = isinstance(graph, WeightedGraph)
    seen = set()
    for edge in deletions:
        if len(edge) < 2:
            raise ValueError(f"deletion row {edge!r} needs two endpoints")
        key = (min(edge[0], edge[1]), max(edge[0], edge[1]))
        if key in seen:
            raise ValueError(f"duplicate deletion of edge {key}")
        seen.add(key)
        if not graph.has_edge(edge[0], edge[1]):
            raise KeyError(f"cannot delete absent edge {key}")
    arity = 3 if weighted else 2
    for edge in insertions:
        if len(edge) != arity:
            raise ValueError(
                f"insertion row {edge!r} must have {arity} fields for a "
                f"{type(graph).__name__}")
        u, v = edge[0], edge[1]
        if u == v:
            raise ValueError(f"self loop on vertex {u} is not allowed")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise IndexError(
                f"edge ({u}, {v}) out of range [0, {num_vertices})")


def _compact_batch(graph: Any, insertions: List[Tuple],
                   deletions: List[Tuple]) -> Tuple[List[Tuple], List[Tuple]]:
    """Collapse matching delete+re-insert pairs out of a validated batch.

    A churny stream often deletes an edge and re-inserts it (at the same
    weight) in one batch — a logical no-op that would still grow the edge
    journal, lengthen every chained fingerprint, and make each cached
    artifact's ``update`` hook touch the edge twice.  Such pairs are
    dropped *before* any mutation or journaling.  A re-insert at a
    **different** weight is kept (it is a real weight change), as is any
    edge deleted or inserted more than once (order could matter; only the
    unambiguous 1:1 pairs compact).  Deterministic, so every replica of a
    graph compacts a shipped batch identically and chained fingerprints
    stay in agreement across processes.
    """
    if not insertions or not deletions:
        return insertions, deletions
    weighted = isinstance(graph, WeightedGraph)
    inserted_at: Dict[Tuple, List[int]] = {}
    for index, edge in enumerate(insertions):
        key = (min(edge[0], edge[1]), max(edge[0], edge[1]))
        inserted_at.setdefault(key, []).append(index)
    drop_insertions: set = set()
    kept_deletions: List[Tuple] = []
    for edge in deletions:
        key = (min(edge[0], edge[1]), max(edge[0], edge[1]))
        matches = inserted_at.get(key)
        if matches is not None and len(matches) == 1:
            index = matches[0]
            if not weighted or insertions[index][2] == graph.weight(
                    edge[0], edge[1]):
                drop_insertions.add(index)
                del inserted_at[key]
                continue
        kept_deletions.append(edge)
    if not drop_insertions:
        return insertions, deletions
    kept_insertions = [edge for index, edge in enumerate(insertions)
                       if index not in drop_insertions]
    return kept_insertions, kept_deletions


class GraphHandle:
    """An explicitly registered graph: a name plus a content fingerprint.

    The fingerprint is computed at registration; it is the cache key.
    For the repository graph classes, in-place mutations are detected
    automatically at the next run (every mutator bumps the graph's
    ``content_version``) and the handle re-fingerprints itself; for
    foreign graph-like objects only vertex/edge count changes are
    detected, so re-register (``session.load(name, graph)`` again) or
    call :meth:`refresh` after a count-preserving mutation.  Only a weak
    reference to the graph is held: a handle never keeps a dropped graph
    alive.
    """

    __slots__ = ("name", "fingerprint", "num_vertices", "num_edges",
                 "content_version", "ancestors", "_ref", "__weakref__")

    def __init__(self, name: str, graph: Any):
        self.name = name
        self._ref = weakref.ref(graph)
        #: cache lineage: up to MAX_LINEAGE past (content_version,
        #: fingerprint) pairs this handle moved through — what the
        #: Session's incremental preprocessing walks on a cache miss
        self.ancestors: Tuple = ()
        self.refresh()

    @property
    def graph(self) -> Optional[Any]:
        """The registered graph, or None once it has been collected."""
        return self._ref()

    def refresh(self) -> "GraphHandle":
        """Recompute the fingerprint from the graph's current content."""
        graph = self._ref()
        if graph is None:
            raise ReferenceError(
                f"graph {self.name!r} has been garbage-collected; "
                "load it again"
            )
        self.fingerprint = graph_fingerprint(graph)
        self.num_vertices = getattr(graph, "num_vertices", None)
        self.num_edges = getattr(graph, "num_edges", None)
        self.content_version = getattr(graph, "content_version", None)
        return self

    def resolve(self) -> Tuple[Any, str]:
        """-> (live graph object, current fingerprint), never stale.

        The staleness guard every dispatcher shares: any mutator bumps
        ``content_version`` (repository graph classes), and count changes
        catch graph-like objects without one; either triggers a
        re-fingerprint, so even count-preserving mutations never serve a
        stale artifact through a handle.
        """
        graph = self._ref()
        if graph is None:
            raise ReferenceError(
                f"graph {self.name!r} has been garbage-collected; "
                "load it again"
            )
        if (getattr(graph, "content_version", None) != self.content_version
                or getattr(graph, "num_vertices", None) != self.num_vertices
                or getattr(graph, "num_edges", None) != self.num_edges):
            self._advance(graph)
        return graph, self.fingerprint

    def _advance(self, graph: Any) -> None:
        """Bring the fingerprint up to the graph's current content.

        When the graph's edge-delta journal still covers this handle's
        version, the new fingerprint is chained from the old one in
        O(batch) (:func:`~repro.api.fingerprint.chain_fingerprint`);
        otherwise the edges are re-walked.  Either way the superseded
        (version, fingerprint) joins :attr:`ancestors`.
        """
        self.fingerprint, self.ancestors = advance_lineage(
            graph, self.content_version, self.fingerprint, self.ancestors)
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self.content_version = graph.content_version

    def apply_batch(self, insertions: Iterable = (),
                    deletions: Iterable = ()) -> "GraphHandle":
        """Apply an edge batch to the underlying graph, deletions first.

        ``insertions`` are ``(u, v)`` pairs (``(u, v, w)`` triples for a
        weighted graph); ``deletions`` are ``(u, v)`` pairs.  The handle's
        fingerprint chain-updates in O(batch), and the next ``Session.run``
        on this handle patches cached DHT-resident artifacts through the
        registered ``update`` hooks instead of re-preparing from scratch.

        The batch is validated before anything mutates, so a malformed
        row (a missing or duplicate deletion, a bad insertion arity, an
        out-of-range vertex) raises with the graph — and this handle —
        untouched, never half-applied.  Returns the handle.
        """
        graph = self._ref()
        if graph is None:
            raise ReferenceError(
                f"graph {self.name!r} has been garbage-collected; "
                "load it again"
            )
        insertions = [tuple(edge) for edge in insertions]
        deletions = [tuple(edge) for edge in deletions]
        _validate_batch(graph, insertions, deletions)
        insertions, deletions = _compact_batch(graph, insertions, deletions)
        for edge in deletions:
            graph.remove_edge(edge[0], edge[1])
        for edge in insertions:
            graph.add_edge(*edge)
        if graph.content_version != self.content_version:
            self._advance(graph)
        return self

    def __repr__(self) -> str:
        return (f"GraphHandle({self.name!r}, n={self.num_vertices}, "
                f"m={self.num_edges}, fingerprint={self.fingerprint[:8]}...)")


@dataclass
class _CacheEntry:
    prepared: Any
    #: what the preparation cost when it ran (i.e. what a hit saves)
    prep_shuffles: int
    prep_kv_writes: int
    #: estimated resident size, the unit of the LRU byte budget
    nbytes: int
    #: how many derivation generations deep this artifact's stores are
    #: (0 for a full prepare; each incremental patch adds one until the
    #: session's max_chain_generations folds the chain flat)
    generations: int = 0


def _prepared_bytes(obj: Any) -> int:
    """Estimated resident bytes of a prepared artifact.

    DHT stores report their written payload; graphs are sized from their
    counts; dataclass artifacts sum their fields; plain containers fall
    through to the cost model's serialized-size estimate.
    """
    if obj is None:
        return 0
    kind = type(obj)
    if kind is int or kind is float:
        return 8  # what estimate_bytes charges, without the dispatch walk
    if isinstance(obj, DHTStore):
        # backed stores answer for themselves: a remote backing holds
        # the payload elsewhere, so only the local index counts here
        return obj.cache_resident_bytes()
    if isinstance(obj, WeightedGraph):
        return 24 * obj.num_edges + 8 * obj.num_vertices
    if isinstance(obj, Graph):
        return 16 * obj.num_edges + 8 * obj.num_vertices
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_prepared_bytes(getattr(obj, f.name))
                   for f in fields(obj))
    if isinstance(obj, dict):
        return sum(_prepared_bytes(k) + _prepared_bytes(v)
                   for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        # Plain-data containers (record lists) size through the cost
        # model's flat dispatch; containers holding richer objects (a
        # TypeError from the dispatch) fall back to the per-item walk.
        try:
            return estimate_bytes(obj)
        except TypeError:
            return sum(_prepared_bytes(item) for item in obj)
    try:
        return estimate_bytes(obj)
    except TypeError:
        return 64


def _shallow_bytes(obj: Any) -> int:
    """The store/graph-resident part of an artifact's size, O(fields).

    Incremental updates replace a handful of records in otherwise
    same-shaped artifacts, so a patched entry is sized as the ancestor's
    measured bytes plus the delta of this cheap store-level component —
    never re-walking the O(n + m) record lists per batch.  Full prepares
    still measure exactly.
    """
    if isinstance(obj, DHTStore):
        return obj.cache_resident_bytes()
    if isinstance(obj, WeightedGraph):
        return 24 * obj.num_edges + 8 * obj.num_vertices
    if isinstance(obj, Graph):
        return 16 * obj.num_edges + 8 * obj.num_vertices
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_shallow_bytes(getattr(obj, field_.name))
                   for field_ in fields(obj))
    return 0


def _fold_stores(obj: Any, memo: Dict[int, Any]) -> Any:
    """Replace every derived-store chain in an artifact with a flat store.

    An artifact with an ``update`` hook keeps its stores in dataclass
    fields, directly or in a nested dataclass, so the walk follows those
    fields only: a derived store folds, a dataclass recurses, and any
    other value — the record lists above all — passes through unread.
    An identity memo folds a store shared between two fields once and
    keeps it shared (a dataclass likewise).
    """
    marker = id(obj)
    if marker in memo:
        return memo[marker]
    if isinstance(obj, DerivedDHTStore):
        result = obj.folded()
    elif is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        for field_ in fields(obj):
            value = getattr(obj, field_.name)
            replacement = _fold_stores(value, memo)
            if replacement is not value:
                changes[field_.name] = replacement
        result = replace(obj, **changes) if changes else obj
    else:
        return obj
    memo[marker] = result
    return result


def _split_batch(ops: Iterable[Tuple]) -> Tuple[List[Tuple], List[Tuple]]:
    """Journal ops -> (insertions, deletions) for an ``update`` hook.

    Weight changes count as insertions (the record is recomputed from the
    mutated graph either way).  The lists may overlap on an edge that was
    removed and re-added — hooks treat them as touched sets.
    """
    insertions: List[Tuple] = []
    deletions: List[Tuple] = []
    for op in ops:
        if op[0] == "remove":
            deletions.append(tuple(op[1:3]))
        else:  # "add" / "weight"
            insertions.append(tuple(op[1:]))
    return insertions, deletions


class Session:
    """One entry point for every registered AMPC/MPC algorithm.

    ::

        session = Session(ClusterConfig(num_machines=10))
        mis = session.run("mis", graph, seed=1)
        matching = session.run("matching", graph, seed=1)
        again = session.run("mis", graph, seed=1)   # preprocessing cached
        assert again.preprocessing_reused
        assert again.metrics["shuffles"] < mis.metrics["shuffles"]

        web = session.load("web", graph)            # explicit registration
        session.run("pagerank", "web", walks_per_vertex=8)

    The cache key is ``(preprocessing stage, graph fingerprint, seed)`` —
    seed only where the artifact is rank-dependent.  The fingerprint is
    content-stable, so equal graphs share preprocessing regardless of
    object identity, and in-place mutations never serve stale artifacts
    (raw-graph runs re-fingerprint; handles re-fingerprint on re-load).
    """

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 fault_plan: Optional[FaultPlan] = None,
                 strict_rounds: bool = False,
                 max_cache_bytes: Optional[int] = None,
                 backend: Any = "sim",
                 dht_nodes: Optional[List[Any]] = None,
                 replication: int = 1,
                 max_chain_generations: Optional[int] = None):
        self.config = config or ClusterConfig()
        self.fault_plan = fault_plan
        self.strict_rounds = strict_rounds
        #: LRU byte budget for prepared artifacts; None means unbounded
        self.max_cache_bytes = max_cache_bytes
        #: where DHT-store values physically live: "sim" (in-process
        #: dicts, the default), "mem"/"shm"/"socket" specs, or an
        #: already constructed BackingStore (see repro.distdht)
        self._backing = create_backend(backend, nodes=dht_nodes,
                                       replication=replication)
        self.backend = self._backing.kind if self._backing else "sim"
        #: fold an incrementally patched artifact flat once its
        #: derivation chain exceeds this many generations (None: only
        #: fingerprint-lineage limits apply)
        self.max_chain_generations = max_chain_generations
        self.stats = SessionStats()
        self._cache: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._cache_bytes = 0
        self._graphs: Dict[str, GraphHandle] = {}
        self._lock = threading.RLock()
        #: cache keys currently being prepared (miss deduplication)
        self._inflight: Dict[Tuple, threading.Event] = {}
        #: version-checked fingerprint memo for raw (un-registered)
        #: graphs — count-preserving mutations invalidate it without the
        #: per-run edge re-walk
        self._fingerprints = FingerprintMemo()

    # -- graph registration ------------------------------------------------

    def load(self, name: str, graph: Any) -> GraphHandle:
        """Register ``graph`` under ``name`` and return its handle.

        Re-loading a name re-fingerprints, so this is also how callers
        declare "I mutated this graph" — stale cache entries are isolated
        by the changed fingerprint.  (For journaled batches prefer
        ``handle.apply_batch``, which names the new content in O(batch)
        and lets cached artifacts be patched instead of rebuilt.)

        ``graph`` may also be an existing :class:`GraphHandle`: it is
        re-registered under ``name`` as-is, keeping its chain-updated
        fingerprint and cache lineage — no O(m) re-walk.
        """
        if isinstance(graph, GraphHandle):
            handle = graph
            previous = handle.name
            handle.name = name
        else:
            handle = GraphHandle(name, graph)
            previous = None
        with self._lock:
            # a re-registered handle moves: its old name must not linger
            # pointing at a handle that now reports a different name
            if previous is not None and previous != name \
                    and self._graphs.get(previous) is handle:
                del self._graphs[previous]
            self._graphs[name] = handle
        return handle

    def unload(self, name: str) -> None:
        """Forget a registered graph name (cache entries stay until LRU)."""
        with self._lock:
            self._graphs.pop(name, None)

    def handle(self, name: str) -> GraphHandle:
        """The handle registered under ``name``; KeyError when unknown."""
        with self._lock:
            try:
                return self._graphs[name]
            except KeyError:
                known = ", ".join(sorted(self._graphs)) or "(none)"
                raise KeyError(
                    f"no graph loaded as {name!r}; loaded: {known}"
                ) from None

    def graphs(self) -> List[str]:
        """Names of the registered graphs, sorted."""
        with self._lock:
            return sorted(self._graphs)

    # -- introspection -----------------------------------------------------

    def algorithms(self):
        """Names this session can run (the registry's, in order)."""
        return registry.names()

    @property
    def cached_preprocessings(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def cache_bytes(self) -> int:
        """Estimated resident bytes of every cached prepared artifact."""
        with self._lock:
            return self._cache_bytes

    def is_prepared(self, algorithm: str, graph: Any, *,
                    seed: int = 0) -> bool:
        """Whether ``(algorithm, graph, seed)``'s shared preprocessing is
        cache-resident right now — without running or building anything.

        The admission layer prices queries differently when the prepared
        artifact is already DHT-resident; this is its probe.  Advisory by
        nature: the LRU may evict between the probe and the run.
        """
        spec = registry.get(algorithm)
        _graph, fingerprint, _name, _ancestors = self._resolve_graph(graph)
        key = self._cache_key(spec, fingerprint, seed)
        with self._lock:
            return key in self._cache

    def stats_snapshot(self) -> SessionStats:
        """A consistent copy of :attr:`stats`, taken under the lock.

        Safe to ship across a process boundary (it shares no state with
        the live session) — the worker side of the process-parallel
        serving layer reports through this.
        """
        with self._lock:
            return replace(self.stats)

    def clear_preprocessing(self) -> None:
        """Drop every cached preprocessing artifact."""
        with self._lock:
            self._cache.clear()
            self._cache_bytes = 0

    def close(self) -> None:
        """Release the backing store (and the cache addressing it).

        Needed for the real backends — shm segments and DHT connections
        are OS resources — and a harmless no-op on ``"sim"``.  Idempotent.
        """
        self.clear_preprocessing()
        if self._backing is not None:
            self._backing.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def run(self, algorithm: str, graph: Any, *, seed: int = 0,
            reuse_preprocessing: bool = True, **params: Any) -> RunResult:
        """Run ``algorithm`` on ``graph`` and return its RunResult envelope.

        ``graph`` may be a graph object, a :class:`GraphHandle`, or the
        name of a graph registered with :meth:`load`.  ``params`` must be
        parameters the algorithm's spec declares; unknown names raise
        ``TypeError`` (mirroring a keyword-argument mismatch).
        ``reuse_preprocessing=False`` forces a cold run and leaves the
        cache untouched.
        """
        spec = registry.get(algorithm)
        merged = self._merge_params(spec, params)
        graph, fingerprint, graph_name, ancestors = self._resolve_graph(graph)
        runtime = self._make_runtime(spec)
        entry, reused, incremental = self._prepare(
            spec, graph, fingerprint, seed, runtime, reuse_preprocessing,
            ancestors)
        result = spec.run(graph, runtime=runtime, seed=seed,
                          prepared=entry.prepared,
                          **spec.algorithm_params(merged))
        metrics = runtime.metrics
        with self._lock:
            stats = self.stats
            stats.runs += 1
            stats.shuffles_executed += metrics.shuffles
            stats.kv_reads_executed += metrics.kv_reads
            stats.kv_writes_executed += metrics.kv_writes
            stats.simulated_time_s += metrics.simulated_time_s
            if reused:
                stats.preprocessing_hits += 1
                stats.shuffles_saved += entry.prep_shuffles
                stats.kv_writes_saved += entry.prep_kv_writes
            else:
                stats.preprocessing_misses += 1
                if incremental:
                    stats.incremental_updates += 1
                else:
                    stats.full_prepares += 1
        return RunResult(
            algorithm=spec.name,
            seed=seed,
            params=merged,
            output=result,
            summary=spec.summarize(result, graph),
            metrics=metrics.summary(),
            phases=dict(metrics.phases.items()),
            # The algorithm's logical round count (a cache-served
            # preparation round still counts); the rounds this runtime
            # actually executed are metrics["rounds"].
            rounds=getattr(result, "rounds", metrics.rounds),
            preprocessing_reused=reused,
            shuffles_saved=entry.prep_shuffles if reused else 0,
            description=spec.describe(result, graph, merged),
            graph_name=graph_name,
        )

    def prepare(self, algorithm: str, graph: Any, *, seed: int = 0) -> bool:
        """Warm the preprocessing cache for ``(algorithm, graph, seed)``.

        Runs (or incrementally patches) the algorithm's shared
        preprocessing without executing a query — the explicit pre-warm a
        serving system issues after loading or mutating a graph.  Returns
        True when the artifact was already cached.  Stats account exactly
        like a run's preprocessing would (hits/misses, the incremental
        vs. full split, executed totals), but ``runs`` does not move.
        """
        spec = registry.get(algorithm)
        graph, fingerprint, _name, ancestors = self._resolve_graph(graph)
        runtime = self._make_runtime(spec)
        entry, reused, incremental = self._prepare(
            spec, graph, fingerprint, seed, runtime, True, ancestors)
        metrics = runtime.metrics
        with self._lock:
            stats = self.stats
            stats.shuffles_executed += metrics.shuffles
            stats.kv_reads_executed += metrics.kv_reads
            stats.kv_writes_executed += metrics.kv_writes
            stats.simulated_time_s += metrics.simulated_time_s
            if reused:
                stats.preprocessing_hits += 1
                stats.shuffles_saved += entry.prep_shuffles
                stats.kv_writes_saved += entry.prep_kv_writes
            else:
                stats.preprocessing_misses += 1
                if incremental:
                    stats.incremental_updates += 1
                else:
                    stats.full_prepares += 1
        return reused

    # -- internals ---------------------------------------------------------

    def _resolve_graph(self, graph: Any
                       ) -> Tuple[Any, str, Optional[str], Tuple]:
        """-> (graph object, fingerprint, registered name or None, lineage).

        The lineage is the graph's past (content_version, fingerprint)
        pairs, oldest first — the ancestors a cache miss may patch from.
        """
        if isinstance(graph, str):
            graph = self.handle(graph)
        if isinstance(graph, GraphHandle):
            obj, fingerprint = graph.resolve()
            return obj, fingerprint, graph.name, graph.ancestors
        fingerprint, ancestors = self._fingerprints.resolve(graph)
        return graph, fingerprint, None, ancestors

    def _make_runtime(self, spec):
        if spec.model == "mpc":
            return MPCRuntime(config=self.config, fault_plan=self.fault_plan)
        return AMPCRuntime(config=self.config,
                           fault_plan=self.fault_plan,
                           strict_rounds=self.strict_rounds,
                           backing=self._backing)

    @staticmethod
    def _merge_params(spec, params: Dict[str, Any]) -> Dict[str, Any]:
        known = {p.name: p for p in spec.params}
        unknown = set(params) - set(known)
        if unknown:
            raise TypeError(
                f"{spec.name!r} got unexpected parameter(s): "
                f"{', '.join(sorted(unknown))}; "
                f"declared: {', '.join(known) or '(none)'}"
            )
        return {name: params.get(name, p.default)
                for name, p in known.items()}

    def _cache_key(self, spec, fingerprint: str, seed: int) -> Tuple:
        return (
            spec.prepare,
            fingerprint,
            seed if spec.prep_seed_sensitive else None,
        )

    def _prepare(self, spec, graph: Any, fingerprint: str, seed: int,
                 runtime, reuse: bool, ancestors: Tuple = ()):
        """-> (entry, served-from-cache, built-incrementally)."""
        if not reuse:
            return self._build_entry(spec, graph, seed, runtime), False, False
        key = self._cache_key(spec, fingerprint, seed)
        while True:
            with self._lock:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                    return entry, True, False
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            # Another thread is preparing this key: wait for it, then
            # re-check the cache (taking the hit, or becoming the builder
            # if the other thread failed).
            event.wait()
        try:
            entry = self._update_entry(spec, graph, seed, runtime, ancestors)
            incremental = entry is not None
            if entry is None:
                entry = self._build_entry(spec, graph, seed, runtime)
            with self._lock:
                self._insert(key, entry)
            return entry, False, incremental
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    def _update_entry(self, spec, graph: Any, seed: int, runtime,
                      ancestors: Tuple) -> Optional[_CacheEntry]:
        """Patch a cached ancestor artifact to this content, or None.

        Walks the graph's lineage newest-first for an ancestor fingerprint
        still in the cache whose delta the graph's journal can replay,
        then hands (old artifact, mutated graph, batch) to the spec's
        ``update`` hook.  The hook writes into a derived copy-on-write
        store, so the ancestor entry is never perturbed.
        """
        if spec.update is None or not ancestors:
            return None
        delta_since = getattr(graph, "delta_since", None)
        if delta_since is None:
            return None
        for version, ancestor_fp in reversed(ancestors):
            ops = delta_since(version)
            if ops is None:
                # The journal no longer reaches this version; older
                # ancestors are further back still.
                break
            if not ops:
                continue
            old_key = self._cache_key(spec, ancestor_fp, seed)
            with self._lock:
                old_entry = self._cache.get(old_key)
            if old_entry is None:
                continue
            insertions, deletions = _split_batch(ops)
            metrics = runtime.metrics
            shuffles_before = metrics.shuffles
            kv_writes_before = metrics.kv_writes
            prepared = spec.update(old_entry.prepared, graph,
                                   runtime=runtime, seed=seed,
                                   insertions=insertions,
                                   deletions=deletions)
            generations = old_entry.generations + 1
            if (self.max_chain_generations is not None
                    and generations > self.max_chain_generations):
                # TTL on derivation chains: collapse this entry's chain
                # into flat sealed stores.  The parent stores stay alive
                # while the superseded cache entries that hold them do,
                # until the LRU evicts those, and a lookup costs the same
                # at any chain depth, so the fold bounds neither memory
                # nor lookup cost.  Logical content and recorded sizes
                # are preserved exactly, so results are unchanged.
                prepared = _fold_stores(prepared, {})
                return _CacheEntry(
                    prepared=prepared,
                    prep_shuffles=metrics.shuffles - shuffles_before,
                    prep_kv_writes=metrics.kv_writes - kv_writes_before,
                    nbytes=_prepared_bytes(prepared),
                    generations=0,
                )
            return _CacheEntry(
                prepared=prepared,
                prep_shuffles=metrics.shuffles - shuffles_before,
                prep_kv_writes=metrics.kv_writes - kv_writes_before,
                # ancestor's measured size, moved by the store-level
                # delta: O(batch) accounting for an O(batch) patch
                nbytes=max(0, old_entry.nbytes
                           - _shallow_bytes(old_entry.prepared)
                           + _shallow_bytes(prepared)),
                generations=generations,
            )
        return None

    def _build_entry(self, spec, graph: Any, seed: int,
                     runtime) -> _CacheEntry:
        metrics = runtime.metrics
        shuffles_before = metrics.shuffles
        kv_writes_before = metrics.kv_writes
        prepared = spec.prepare(graph, runtime=runtime, seed=seed)
        return _CacheEntry(
            prepared=prepared,
            prep_shuffles=metrics.shuffles - shuffles_before,
            prep_kv_writes=metrics.kv_writes - kv_writes_before,
            nbytes=_prepared_bytes(prepared),
        )

    def _insert(self, key: Tuple, entry: _CacheEntry) -> None:
        """Insert under the LRU byte budget.  Caller holds the lock."""
        old = self._cache.pop(key, None)
        if old is not None:
            self._cache_bytes -= old.nbytes
        self._cache[key] = entry
        self._cache_bytes += entry.nbytes
        if self.max_cache_bytes is None:
            return
        # Evict least-recently-used entries; a single over-budget entry is
        # kept (evicting it would just thrash every run cold).
        while (self._cache_bytes > self.max_cache_bytes
               and len(self._cache) > 1):
            _, evicted = self._cache.popitem(last=False)
            self._cache_bytes -= evicted.nbytes
            self.stats.preprocessing_evictions += 1
