"""AMPC Maximal Independent Set (Section 5.3).

The algorithm is the O(1)-round AMPC MIS of Behnezhad et al. (2019), which
the paper implements and evaluates as its first case study:

1. **DirectGraph** (the single shuffle): assign every vertex a hashed
   priority, sort each neighborhood, and keep only edges to *lower-rank*
   (higher-priority) neighbors.
2. **KV-Write**: write the directed graph to a DHT store.
3. **IsInMIS**: for every vertex, run the recursive query process of
   Yoshida et al.: ``v`` is in the MIS iff none of its lower-rank neighbors
   is in the MIS.  The recursion performs adaptive KV lookups — the AMPC
   capability — and is memoized by the per-machine *caching* optimization
   when enabled (Section 5.3).

The practical variant's searches are independent of each other (only the
shared per-machine cache couples them, and not in what it charges), so a
machine runs them all at once as frontier sweeps with one batched KV read
per sweep — Section 5.3's multithreading; see :meth:`_IsInMIS._sweep`.

Setting ``search_budget`` runs the theory variant instead: each round every
unresolved vertex is given a lookup budget of n^epsilon; searches that
exceed it park, resolved states are written to the next DHT, and the next
round resumes against them.  This is the O(1/epsilon)-round schedule of
[19] that the practical implementation collapses to 2 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ampc.cluster import ClusterConfig
from repro.ampc.columnar import ColumnarRecords, unbox_rows
from repro.ampc.dht import DHTStore
from repro.ampc.metrics import Metrics
from repro.ampc.runtime import AMPCRuntime
from repro.ampc.vector import placement_ids, vertex_ranks_u64
from repro.api.incremental import patch_records, touched_vertices
from repro.api.registry import (AlgorithmSpec, ParamSpec, register_algorithm,
                                require_positive)
from repro.core.ranks import vertex_ranks
from repro.dataflow.columnar import (StageReplay, charge_map_stage,
                                     place_prepared, roundrobin_counts,
                                     write_columnar_store)
from repro.dataflow.dofn import DoFn, MachineContext
from repro.graph.graph import Graph

#: sentinel meaning "this search exceeded its budget this round"
_PARKED = object()


@dataclass
class MISResult:
    """Output of an AMPC MIS run."""

    independent_set: Set[int]
    metrics: Metrics
    #: number of AMPC rounds the run used (2 for the practical variant)
    rounds: int = 0
    #: vertex ranks used (shared with baselines for cross-checking)
    ranks: List[float] = field(default_factory=list)


def _direct_neighbors(vertex: int, neighbors: Sequence[int],
                      ranks: Sequence[float]) -> Tuple[int, ...]:
    """Lower-rank neighbors of ``vertex``, sorted by ascending rank."""
    me = (ranks[vertex], vertex)
    lower = [u for u in neighbors if (ranks[u], u) < me]
    lower.sort(key=lambda u: (ranks[u], u))
    return tuple(lower)


def _greedy_mis_column(records, num_vertices: int):
    """The lexicographically-first MIS of the rank-directed graph.

    ``records`` are ``(vertex, lower-rank neighbors)``; the result is a
    boolean column over vertex ids.  Round-synchronous greedy: an
    undecided vertex with no undecided lower neighbor joins, the higher
    neighbors of a joined vertex leave, and edges with a decided end stop
    constraining anything — O(log n) rounds for hashed ranks.
    """
    keys = np.fromiter((record[0] for record in records),
                       dtype=np.int64, count=len(records))
    counts, (lower,) = unbox_rows([record[1] for record in records])
    upper = np.repeat(keys, counts)
    in_mis = np.zeros(num_vertices, dtype=bool)
    undecided = np.ones(num_vertices, dtype=bool)
    while undecided.any():
        waiting = np.zeros(num_vertices, dtype=bool)
        waiting[upper] = True
        joined = undecided & ~waiting
        in_mis |= joined
        undecided &= waiting
        undecided[upper[joined[lower]]] = False
        live = undecided[upper] & undecided[lower]
        upper = upper[live]
        lower = lower[live]
    return in_mis


def _probe_edges(vertices, counts, neighbors, in_mis):
    """The probes the query process makes out of ``vertices``.

    ``neighbors`` holds each vertex's rank-sorted lower neighbors back to
    back (``counts`` per vertex).  A vertex probes them in order up to
    and including the first one in the MIS — that neighbor kicks it out,
    so the rest are never consulted.  Returns parallel ``(source,
    target)`` columns, one row per probe.
    """
    owner = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    position = np.arange(len(neighbors), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    stops = in_mis[neighbors]
    probes = counts.copy()
    np.minimum.at(probes, owner[stops], position[stops] + 1)
    probed = position < probes[owner]
    return vertices[owner[probed]], neighbors[probed]


class _IsInMIS(DoFn):
    """The recursive query process of Yoshida et al.

    Two executions, charge-identical, chosen from the run's own inputs:

    * :meth:`_resolve` walks one vertex at a time with an explicit stack.
      It serves what the sweep cannot — a per-search ``budget`` (parking
      depends on the order searches ran in), a ``resolved_store`` from an
      earlier truncated round, the per-machine cache switched off — and
      is the oracle the sweep is tested against.
    * :meth:`_sweep` keeps all of a machine's searches in flight at once
      (Section 5.3's multithreading): the unbudgeted, cache-on descent
      probes a set of vertices that does not depend on the order of the
      searches, so it is expanded as level-synchronous frontier sweeps,
      one ``lookup_block`` per sweep.

    ``resolved_store`` (theory variant only) holds states committed in
    earlier rounds; consulting it costs a KV read like any other lookup.
    ``records`` are all of ``store``'s records; the sweep derives the
    answer every search must arrive at from them (the lookups still
    fetch every adjacency list it expands).
    """

    def __init__(self, store: DHTStore, *,
                 resolved_store: Optional[DHTStore] = None,
                 budget: Optional[int] = None,
                 records: Optional[Sequence] = None,
                 num_vertices: int = 0):
        self._store = store
        self._resolved_store = resolved_store
        self._budget = budget
        self._cache: Optional[Dict[int, bool]] = None
        self._records = records
        self._num_vertices = num_vertices
        self._in_mis = None
        self._sweeps = (records is not None and budget is None
                        and resolved_store is None)
        # a first-round outcome is a function of the store alone; later
        # truncated rounds also depend on the states committed so far
        self._replay = StageReplay(
            store if resolved_store is None else None, ("is-in-mis", budget))

    def start_machine(self, ctx: MachineContext) -> None:
        self._cache = {} if ctx.caching_enabled else None

    def process(self, element, ctx):
        vertex, directed_neighbors = element
        state = self._resolve(vertex, directed_neighbors, ctx)
        if state is _PARKED:
            yield ("parked", vertex, directed_neighbors)
        elif state:
            yield ("in", vertex, ())

    def process_batch(self, partition, ctx):
        return self._replay.run(
            ctx, lambda: self._machine_outputs(partition, ctx))

    def _machine_outputs(self, partition, ctx):
        if self._sweeps and ctx.caching_enabled:
            return self._sweep(partition, ctx)
        outputs: List[Tuple] = []
        for element in partition:
            outputs.extend(self.process(element, ctx))
        return outputs

    # -- the query process, all of a machine's searches at once ------------

    def _sweep(self, partition, ctx):
        """Charge twin of the :meth:`_resolve` loop over ``partition``.

        Whatever the cache holds, a vertex probes its lower neighbors in
        rank order up to and including the first one in the MIS, so the
        machine expands a fixed closure of its roots under those probe
        edges.  Every probe is a cache hit or the one KV read that first
        expands its target; a root the searches reach only after its own
        element ran is expanded from that element for free.  Hence reads
        = closure minus the roots no earlier element reached, hits =
        probes + root checks - closure, independent of traversal order.
        """
        in_mis = self._truth()
        store = self._store
        roots = np.fromiter((record[0] for record in partition),
                            dtype=np.int64, count=len(partition))
        counts, (neighbors,) = unbox_rows(
            [record[1] for record in partition])
        expanded = np.zeros(len(in_mis), dtype=bool)
        expanded[roots] = True
        closure = len(roots)
        probe_sources = []
        probe_targets = []
        frontier = roots
        while True:
            sources, targets = _probe_edges(frontier, counts, neighbors,
                                            in_mis)
            probe_sources.append(sources)
            probe_targets.append(targets)
            reached = np.zeros(len(in_mis), dtype=bool)
            reached[targets] = True
            frontier = np.flatnonzero(reached & ~expanded)
            if not len(frontier):
                break
            expanded[frontier] = True
            closure += len(frontier)
            counts, (neighbors,) = ctx.lookup_block(
                store, frontier.tolist()).columns()
        sources = np.concatenate(probe_sources)
        targets = np.concatenate(probe_targets)
        # first[v]: index of the earliest element whose search reaches v
        element_index = np.arange(len(roots), dtype=np.int64)
        first = np.full(len(in_mis), len(roots), dtype=np.int64)
        first[roots] = element_index
        while True:
            reach = first[sources]
            earlier = reach < first[targets]
            if not earlier.any():
                break
            np.minimum.at(first, targets[earlier], reach[earlier])
        read_roots = roots[first[roots] < element_index]
        ctx.lookup_block(store, read_roots.tolist())
        ctx.work.cache_hits += len(targets) + len(roots) - closure
        return [("in", vertex, ()) for vertex in roots[in_mis[roots]].tolist()]

    def _truth(self):
        """The lexicographically-first MIS as a boolean column, once."""
        if self._in_mis is None:
            self._in_mis = _greedy_mis_column(self._records,
                                              self._num_vertices)
        return self._in_mis

    # -- the query process -------------------------------------------------

    def _known_state(self, vertex: int, ctx: MachineContext):
        """Cache, then the resolved-states DHT; None when unknown."""
        if self._cache is not None and vertex in self._cache:
            ctx.note_cache_hit()
            return self._cache[vertex]
        if self._resolved_store is not None:
            state = ctx.lookup(self._resolved_store, vertex)
            if state is not None:
                if self._cache is not None:
                    self._cache[vertex] = state
                return state
        return None

    def _remember(self, vertex: int, state: bool) -> None:
        if self._cache is not None:
            self._cache[vertex] = state

    def _resolve(self, root: int, root_neighbors: Sequence[int],
                 ctx: MachineContext):
        known_state = self._known_state
        remember = self._remember
        known = known_state(root, ctx)
        if known is not None:
            return known
        store = self._store
        lookup = ctx.lookup
        budget = self._budget
        lookups = 0
        # Each frame is [vertex, directed neighbors, next neighbor index].
        frames: List[List] = [[root, root_neighbors, 0]]
        returning: Optional[bool] = None
        while frames:
            frame = frames[-1]
            vertex, neighbors, index = frame
            if returning is not None:
                # A child finished: IN kicks the parent out of the MIS.
                child_in, returning = returning, None
                if child_in:
                    remember(vertex, False)
                    frames.pop()
                    returning = False
                    continue
                index += 1
                frame[2] = index
            descended = False
            while index < len(neighbors):
                neighbor = neighbors[index]
                known = known_state(neighbor, ctx)
                if known is True:
                    remember(vertex, False)
                    frames.pop()
                    returning = False
                    descended = True
                    break
                if known is False:
                    index += 1
                    frame[2] = index
                    continue
                if budget is not None and lookups >= budget:
                    return _PARKED
                fetched = lookup(store, neighbor)
                lookups += 1
                frames.append([neighbor, fetched or (), 0])
                descended = True
                break
            if descended:
                continue
            # Every lower-rank neighbor is out: vertex joins the MIS.
            remember(vertex, True)
            frames.pop()
            returning = True
        return returning


@dataclass
class PreparedMIS:
    """The DHT-resident rank-directed graph (Figure 1, steps 1-2).

    A :class:`~repro.api.session.Session` caches this across runs: the
    store is sealed (read-only), so later runs on other runtimes may read
    it freely.
    """

    seed: int
    ranks: List[float]
    #: ``(vertex, lower-rank neighbors)`` records, for free re-placement
    records: List[Tuple[int, Tuple[int, ...]]]
    store: DHTStore
    #: ``(num_machines, per-record machine ids)`` as :func:`prepare_mis`
    #: placed them (None after :func:`update_mis`) — lets runs on the same
    #: cluster shape re-place records without re-hashing every key
    machines: Optional[Tuple[int, object]] = None


def prepare_mis(graph: Graph, *,
                runtime: Optional[AMPCRuntime] = None,
                config: Optional[ClusterConfig] = None,
                seed: int = 0) -> PreparedMIS:
    """Figure 1, steps 1-2: direct the graph by rank and write it to the DHT.

    This is the MIS preprocessing every query shares — one shuffle plus
    the KV-write round.  The rank-directed graph is built by one
    vectorized mask + lexsort over the CSR edge columns, and the stages
    are charged from per-machine counts (:mod:`repro.dataflow.columnar`):
    a keyless ``from_items`` of the vertices (free), the ``direct-edges``
    map, the ``place-directed-graph`` repartition, the store write.
    Record order — and therefore the store's per-shard insertion order and
    every downstream metric — is that pipeline's machine-major scan
    order, reproduced by sorting vertices by ``(machine, source
    partition, position)``.
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    cluster = runtime.cluster
    num_machines = cluster.config.num_machines
    csr = graph.csr()
    n = csr.num_vertices
    rank_column = vertex_ranks_u64(n, seed)

    # Round 1: build + shuffle the rank-directed graph (Figure 1, step 1).
    with metrics.phase("DirectGraph"):
        indptr = csr.indptr
        dst = csr.indices
        degrees = np.diff(indptr)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # keep u -> v iff (rank_v, v) < (rank_u, u), the lower-rank filter
        rank_src = rank_column[src]
        rank_dst = rank_column[dst]
        keep = (rank_dst < rank_src) | ((rank_dst == rank_src) & (dst < src))
        kept_src = src[keep]
        kept_dst = dst[keep]
        kept_rank = rank_dst[keep]
        # Scan order of the repartition: the round-robin source
        # partition of vertex v is v % M, so machine m receives its
        # records sorted by (v % M, v); payload rows sort by (rank, id).
        keys = np.arange(n, dtype=np.int64)
        machines = placement_ids(keys, num_machines)
        record_order = np.lexsort((keys, keys % num_machines, machines))
        vertex_pos = np.empty(n, dtype=np.int64)
        vertex_pos[record_order] = np.arange(n, dtype=np.int64)
        edge_order = np.lexsort((kept_dst, kept_rank, vertex_pos[kept_src]))
        counts = np.bincount(kept_src, minlength=n)
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts[record_order], out=out_indptr[1:])
        records = ColumnarRecords.ragged(
            keys[record_order], out_indptr, kept_dst[edge_order])
        record_machines = machines[record_order]
        # from_items is free; the map stage charges inputs + outputs, the
        # repartition charges one shuffle of the directed records' bytes.
        charge_map_stage(cluster, roundrobin_counts(n, num_machines))
        cluster.charge_shuffle(records.total_element_bytes())

    # Figure 1, step 2: write the directed graph to the key-value store.
    with metrics.phase("KV-Write"):
        store = runtime.new_store("mis-directed-graph")
        write_columnar_store(cluster, store, records, record_machines)
    runtime.next_round()
    return PreparedMIS(seed=seed, ranks=rank_column.tolist(),
                       records=records.items(), store=store,
                       machines=(num_machines, record_machines))


def update_mis(prepared: PreparedMIS, graph: Graph, *,
               runtime: Optional[AMPCRuntime] = None,
               config: Optional[ClusterConfig] = None,
               seed: int = 0,
               insertions=(), deletions=()) -> PreparedMIS:
    """Patch the DHT-resident rank-directed graph after an edge batch.

    Only the batch's endpoints change their lower-rank neighbor lists (the
    ranks are a pure function of vertex id and seed), so their records are
    recomputed from the mutated graph and written into a derived
    copy-on-write child of the sealed store — O(batch) work, and the old
    artifact keeps serving its own cache entry untouched.
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    if prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this update uses seed {seed}"
        )
    metrics = runtime.metrics
    ranks = prepared.ranks
    touched = touched_vertices(insertions, deletions)
    with metrics.phase("PatchDirectedGraph"):
        patch = runtime.pipeline.from_items(
            [(v, _direct_neighbors(v, graph.neighbors(v), ranks))
             for v in touched]
        ).repartition(lambda record: record[0], name="place-directed-patch")
    with metrics.phase("KV-Patch"):
        store = runtime.derive_store(prepared.store)
        runtime.write_store(patch, store,
                            key_fn=lambda record: record[0],
                            value_fn=lambda record: record[1])
    runtime.next_round()
    return PreparedMIS(seed=seed, ranks=ranks,
                       records=patch_records(prepared.records,
                                             patch.collect()),
                       store=store)


def ampc_mis(graph: Graph, *,
             runtime: Optional[AMPCRuntime] = None,
             config: Optional[ClusterConfig] = None,
             seed: int = 0,
             search_budget: Optional[int] = None,
             max_rounds: int = 64,
             prepared: Optional[PreparedMIS] = None) -> MISResult:
    """Compute the lexicographically-first MIS of ``graph`` in AMPC.

    Without ``search_budget`` this is the practical 2-round implementation
    of Figure 1.  With it, the multi-round truncated theory schedule runs:
    budgets are enforced per search and unresolved vertices retry next
    round against the states committed so far.  Passing a ``prepared``
    artifact (from :func:`prepare_mis`) skips the preprocessing shuffle
    and KV-write entirely — the cross-run reuse the Session API builds on.
    """
    require_positive("search_budget", search_budget)
    require_positive("max_rounds", max_rounds)
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    if prepared is None:
        prepared = prepare_mis(graph, runtime=runtime, seed=seed)
    elif prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this run uses seed {seed}"
        )
    ranks = prepared.ranks
    store = prepared.store
    rounds_before = metrics.rounds
    directed = place_prepared(runtime.pipeline, prepared)

    # Figure 1, step 3 (+ theory retries when a budget is set).
    in_mis: Set[int] = set()
    pending = directed
    resolved_store: Optional[DHTStore] = None
    budget = search_budget
    if budget is not None:
        # Progress guarantee: the lowest-rank unresolved vertex must be able
        # to scan all of its (resolved) neighbors within one budget.
        budget = max(budget, graph.max_degree() + 1)
    rounds_used = 0
    while True:
        rounds_used += 1
        if rounds_used > max_rounds:
            raise RuntimeError(
                f"MIS did not converge within {max_rounds} rounds"
            )
        with metrics.phase("IsInMIS"):
            outcome = pending.par_do(
                _IsInMIS(store, resolved_store=resolved_store, budget=budget,
                         records=prepared.records, num_vertices=len(ranks)),
                name="is-in-mis",
            )
        parked = outcome.filter_elements(lambda r: r[0] == "parked",
                                         name="collect-parked")
        for tag, vertex, _neighbors in outcome.collect():
            if tag == "in":
                in_mis.add(vertex)
        if budget is None or parked.is_empty():
            runtime.next_round()
            break
        # Commit everything resolved so far to the next DHT and retry the
        # parked searches next round.
        with metrics.phase("CommitStates"):
            resolved_states = _resolved_states(graph, in_mis, parked)
            states = runtime.pipeline.from_items(resolved_states)
            next_store = runtime.new_store(f"mis-states-r{rounds_used}")
            runtime.write_store(states, next_store,
                                key_fn=lambda kv: kv[0],
                                value_fn=lambda kv: kv[1])
            resolved_store = next_store
        runtime.next_round()
        pending = parked.map_elements(lambda r: (r[1], r[2]),
                                      name="retry-parked")

    # The algorithm's round count: the preparation round (round 1, whether
    # executed here or served from a session cache) plus the query rounds.
    return MISResult(independent_set=in_mis, metrics=metrics,
                     rounds=metrics.rounds - rounds_before + 1, ranks=ranks)


def _resolved_states(graph: Graph, in_mis: Set[int], parked) -> List[Tuple[int, bool]]:
    """States known after a truncated round.

    A vertex is resolved OUT only once a neighbor is known IN; vertices
    neither IN nor adjacent to an IN vertex may still be undetermined, so
    only certain knowledge is committed.
    """
    parked_vertices = {record[1] for record in parked.collect()}
    states: List[Tuple[int, bool]] = []
    dominated: Set[int] = set()
    for vertex in in_mis:
        dominated.update(graph.neighbors(vertex))
    for vertex in graph.vertices():
        if vertex in in_mis:
            states.append((vertex, True))
        elif vertex in dominated:
            states.append((vertex, False))
        elif vertex not in parked_vertices:
            # Completed its search without joining: it is out.
            states.append((vertex, False))
    return states


def mpc_simulated_mis_shuffles(graph: Graph, seed: int = 0,
                               shuffle_cap: int = 100_000) -> int:
    """Shuffle count of simulating the AMPC MIS query process in plain MPC.

    Section 5.3 reports that mapping each KV lookup onto a shuffle needs
    over 1000 shuffles even on the smaller graphs, which is why the rootset
    algorithm is the MPC baseline.  Each *adaptive* lookup depends on the
    previous one, so the number of shuffles is the length of the longest
    chain of dependent lookups across all per-vertex searches — computed
    here by running the search sequentially per vertex and taking the max.
    """
    ranks = vertex_ranks(graph.num_vertices, seed)
    directed = {
        v: _direct_neighbors(v, graph.neighbors(v), ranks)
        for v in graph.vertices()
    }
    longest = 0
    for root in graph.vertices():
        lookups = 0
        frames: List[List] = [[root, directed[root], 0]]
        returning: Optional[bool] = None
        while frames:
            frame = frames[-1]
            vertex, neighbors, index = frame
            if returning is not None:
                child_in, returning = returning, None
                if child_in:
                    frames.pop()
                    returning = False
                    continue
                index += 1
                frame[2] = index
            if index < len(neighbors):
                lookups += 1
                if lookups >= shuffle_cap:
                    return shuffle_cap
                frames.append([neighbors[index], directed[neighbors[index]], 0])
            else:
                frames.pop()
                returning = True
        longest = max(longest, lookups)
    return longest


# ---------------------------------------------------------------------------
# Registry spec (the Session/CLI entry point)
# ---------------------------------------------------------------------------


def _summarize(result: MISResult, graph: Graph) -> Dict[str, int]:
    return {"output_size": len(result.independent_set),
            "rounds": result.rounds}


def _describe(result: MISResult, graph: Graph, params) -> str:
    return (f"maximal independent set: {len(result.independent_set)} "
            f"of {graph.num_vertices} vertices ({result.rounds} rounds)")


register_algorithm(AlgorithmSpec(
    name="mis",
    summary="maximal independent set",
    input_kind="graph",
    run=ampc_mis,
    prepare=prepare_mis,
    update=update_mis,
    summarize=_summarize,
    describe=_describe,
    params=(
        ParamSpec("search_budget", int, None,
                  "per-search KV lookup budget (runs the truncated "
                  "multi-round theory schedule)"),
    ),
    prep_seed_sensitive=True,  # the directed graph depends on the ranks
))
