"""AMPC Maximal Matching (Section 4 / Section 5.4).

Two algorithms, both computing the lexicographically-first maximal matching
for hashed edge ranks (so they agree with each other and with the
sequential greedy reference):

* :func:`ampc_maximal_matching` — Theorem 2 part 2 as the paper implements
  it (Section 5.4): one shuffle builds the *edge-permuted graph* (each
  vertex's incident edges sorted by rank), it is written to the DHT, and a
  per-vertex query process resolves edges adaptively.  The per-machine
  cache stores one entry per **vertex** — either its matched partner or
  the highest-rank incident edge already known unmatched — exactly the
  cache the paper describes, and what makes a machine's searches depend
  on their order (:meth:`_IsInMM._sweep` walks them in it).  An optional
  per-search budget runs the multi-round vertex-truncated theory schedule.

* :func:`ampc_matching_phases` — Theorem 2 part 1 (Algorithm 4): peel
  O(log log Delta) levels; at each level run GreedyMM on the rank-sampled
  subgraph ``H_i`` (equivalently, MIS on its line graph — Proposition 4.2)
  and drop matched vertices.  The rank threshold ``Delta^{-0.5^i}`` knocks
  the maximum degree down to ``O(sqrt(Delta_i) log n)`` per Lemma 4.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ampc.cluster import ClusterConfig
from repro.ampc.columnar import ColumnarRecords, unbox_rows
from repro.ampc.dht import DHTStore
from repro.ampc.metrics import Metrics
from repro.ampc.runtime import AMPCRuntime
from repro.ampc.vector import hash_ranks, placement_ids
from repro.api.incremental import patch_records, touched_vertices
from repro.api.registry import (AlgorithmSpec, ParamSpec, register_algorithm,
                                require_positive)
from repro.core.ranks import hash_rank
from repro.dataflow.columnar import (StageReplay, charge_map_stage,
                                     place_prepared, roundrobin_counts,
                                     write_columnar_store)
from repro.dataflow.dofn import DoFn, MachineContext
from repro.graph.graph import Graph, edge_key

EdgeId = Tuple[int, int]

#: vertex cache states (the per-vertex cache of Section 5.4)
_MATCHED = "matched"
_SEARCHED = "searched"

_PARKED = object()

#: the same cache as one float per vertex (the sweep's): a rank r in
#: [0, 1) is ``(_SEARCHED, r)``, "every edge up to rank r is out"
_UNSEEN = -1.0
_SEARCHED_OUT = 1.0  # searched to the end: unmatched
_MATCHED_STATE = 2.0

#: keys per ``lookup_block`` of the sweep's reads — bounds the records a
#: backed store holds at once
_READ_BATCH = 512


@dataclass
class MatchingResult:
    """Output of an AMPC maximal matching run."""

    matching: Set[EdgeId]
    metrics: Metrics
    rounds: int = 0
    #: Algorithm 4 only: matchings found per peeling level
    level_sizes: List[int] = field(default_factory=list)


def _edge_rank(seed: int, u: int, v: int) -> float:
    a, b = edge_key(u, v)
    return hash_rank(seed, a, b)


def _permuted_incident(vertex: int, neighbors: Sequence[int],
                       seed: int) -> Tuple[Tuple[float, int], ...]:
    """Incident edges of ``vertex`` as (rank, neighbor), rank-ascending."""
    incident = [(_edge_rank(seed, vertex, u), u) for u in neighbors]
    incident.sort(key=lambda pair: (pair[0],) + edge_key(vertex, pair[1]))
    return tuple(incident)


class _SearchPlan(NamedTuple):
    """Flat *slot* columns of the edge-permuted graph and its matching; a
    slot is one entry of one vertex's rank-sorted incident list."""

    first: np.ndarray  #: per vertex: its first slot
    degree: np.ndarray  #: per vertex: how many slots
    nbr: np.ndarray  #: per slot: the far endpoint
    rank: np.ndarray  #: per slot: the edge's rank, as stored
    twin: np.ndarray  #: per slot: the same edge's slot at the far endpoint
    take: np.ndarray  #: per slot: entries of this list its edge process probes
    is_matched: np.ndarray  #: per slot: the edge is in the matching
    partner: np.ndarray  #: per vertex: its matched neighbor, or -1


def _search_plan(records) -> _SearchPlan:
    """What the vertex searches over ``records`` will find, as columns.

    The lexicographically-first maximal matching comes from a
    round-synchronous greedy over integer edge ids in the total order
    (rank, endpoints) (Proposition 4.2: greedy MIS on the line graph) —
    an edge that is the lowest live one at both endpoints joins, edges at
    a matched vertex drop, O(log n) rounds for hashed ranks.  The edge
    process of an edge probes the lower edges at both endpoints in order
    up to and including the first matched one, ``stop``; ``take`` is
    that prefix's length at the slot's owner.
    """
    keys = np.fromiter((record[0] for record in records),
                       dtype=np.int64, count=len(records))
    counts, (rank, nbr) = unbox_rows([record[1] for record in records],
                                     (np.float64, np.int64))
    num_vertices = int(keys.max()) + 1 if len(keys) else 0
    num_slots = len(nbr)
    first = np.zeros(num_vertices, dtype=np.int64)
    first[keys] = np.cumsum(counts) - counts
    degree = np.zeros(num_vertices, dtype=np.int64)
    degree[keys] = counts
    owner = np.repeat(keys, counts)
    # a stable sort by canonical endpoints puts the two slots of an edge
    # side by side
    code = np.minimum(owner, nbr) * num_vertices + np.maximum(owner, nbr)
    by_code = np.argsort(code, kind="stable")
    left, right = by_code[0::2], by_code[1::2]
    codes = code[left]
    if (num_slots % 2 or (codes != code[right]).any()
            or (codes[1:] == codes[:-1]).any()):
        raise ValueError("records are not those of a simple symmetric graph")
    twin = np.empty(num_slots, dtype=np.int64)
    twin[left], twin[right] = right, left
    # edge ids: ``left`` holds one slot per edge in endpoint order, so a
    # stable sort by rank orders them by (rank, lo, hi)
    num_edges = len(left)
    by_rank = left[np.argsort(rank[left], kind="stable")]
    edge = np.empty(num_slots, dtype=np.int64)
    edge[by_rank] = edge[twin[by_rank]] = np.arange(num_edges)
    ends_a, ends_b = owner[by_rank], nbr[by_rank]
    in_matching = np.zeros(num_edges, dtype=bool)
    matched = np.zeros(num_vertices, dtype=bool)
    live = np.arange(num_edges)
    while len(live):
        live_a, live_b = ends_a[live], ends_b[live]
        lowest = np.full(num_vertices, num_edges)
        np.minimum.at(lowest, live_a, live)
        np.minimum.at(lowest, live_b, live)
        joined = (lowest[live_a] == live) & (lowest[live_b] == live)
        in_matching[live[joined]] = True
        matched[live_a[joined]] = matched[live_b[joined]] = True
        live = live[~(matched[live_a] | matched[live_b])]
    is_matched = in_matching[edge]
    partner = np.full(num_vertices, -1, dtype=np.int64)
    partner[owner[is_matched]] = nbr[is_matched]
    matched_edge = np.full(num_vertices, num_edges)
    matched_edge[owner[is_matched]] = edge[is_matched]
    stop = np.minimum(matched_edge[owner], matched_edge[nbr])
    stop[stop >= edge] = num_edges  # nothing matched below the edge
    # lists are rank-sorted, so (record, edge id) ascends over all slots
    base = np.repeat(np.arange(len(keys)) * (num_edges + 1), counts)
    start = first[owner]
    take = np.minimum(
        np.arange(num_slots) - start,
        np.searchsorted(base + edge, base + stop, side="right") - start)
    return _SearchPlan(first, degree, nbr, rank, twin, take, is_matched,
                       partner)


class _IsInMM(DoFn):
    """The vertex query process of Theorem 2 part 2.

    For each vertex, walk its incident edges in rank order; each edge is
    resolved by the recursive edge process (an edge joins the matching iff
    no lower-rank incident edge does).  Stops at the first matched edge.

    A machine's searches share the per-vertex cache, so what one is
    charged depends on those before it: they run in partition order, in
    one of two charge-identical ways chosen from the run's own inputs.
    :meth:`_vertex_search` makes one boxed probe at a time; it serves a
    per-search ``budget``, a ``resolved_store`` from an earlier truncated
    round and the cache switched off, and is the oracle of :meth:`_sweep`,
    which walks flat columns derived once from ``records`` (all of
    ``store``'s records) and issues the walk's reads afterwards, as
    ``lookup_block`` batches (charged, never decoded).
    """

    def __init__(self, store: DHTStore, seed: int, *,
                 resolved_store: Optional[DHTStore] = None,
                 budget: Optional[int] = None,
                 records: Optional[Sequence] = None):
        self._store = store
        self._resolved_store = resolved_store
        self._budget = budget
        self._cache: Optional[Dict[int, tuple]] = None
        self._records = records
        self._plan = None
        self._sweeps = (records is not None and budget is None
                        and resolved_store is None)
        # round 1 runs the store's own records in partition order, so the
        # cache evolves the same way every time; later truncated rounds
        # also depend on the states committed so far
        self._replay = StageReplay(
            store if resolved_store is None else None,
            ("is-in-mm", seed, budget))

    def start_machine(self, ctx: MachineContext) -> None:
        self._cache = {} if ctx.caching_enabled else None

    def process(self, element, ctx):
        vertex, incident = element
        outcome = self._vertex_search(vertex, incident, ctx)
        if outcome is _PARKED:
            yield ("parked", vertex, incident)
        elif outcome is not None:
            # Each matched edge is reported by both endpoints; the driver's
            # result set deduplicates.
            yield ("matched", vertex, outcome)

    def process_batch(self, partition, ctx):
        return self._replay.run(
            ctx, lambda: self._machine_outputs(partition, ctx))

    def _machine_outputs(self, partition, ctx):
        if self._sweeps and ctx.caching_enabled:
            return self._sweep(partition, ctx)
        return [output for element in partition
                for output in self.process(element, ctx)]

    # -- the query process, a machine's searches over slot columns ---------

    def _sweep(self, partition, ctx):
        """Charge twin of the :meth:`_vertex_search` loop over ``partition``.

        The cache is one float per vertex (see ``_UNSEEN``): "an edge of
        rank r is decided by x's state" is ``state[x] >= r``, a hit
        whenever ``state[x] >= 0`` — :meth:`_edge_status_from_states` on
        the floats the scalar code compares.  With the matching known, a
        decided edge is always out (a matched edge marks both endpoints
        at once, so one of them would have decided it in), a frame's
        outcome is ``is_matched`` and how far it walks is ``take``.

        A fetched edge, reached through endpoint p with far end q, was
        decided by neither: ranks strictly decrease along a descent and
        only roots carry a watermark, so q holds no state and p at most
        the in-progress root's.  p's lower entries were all probed (out)
        by the frame above before this edge, so each is answered again by
        exactly one present state — ``take[slot at p]`` hits, no walk;
        q's are walked, probing the far vertex alone.
        """
        if self._plan is None:
            self._plan = _search_plan(self._records)
        plan = self._plan
        (first, degree, nbr, rank, twin, take, is_matched,
         partner) = map(memoryview, plan)
        state = memoryview(np.full(len(first), _UNSEEN))
        fetched: List[int] = []

        def resolve(slot):
            """Fetch the edge at ``slot`` and run its frame to the end;
            returns the cache hits that made."""
            hits = 0
            frames = []
            while True:
                fetched.append(slot)
                hits += take[slot]
                cursor = first[nbr[slot]]
                end = cursor + take[twin[slot]]
                while True:
                    while cursor < end:
                        known = state[nbr[cursor]]
                        if known >= 0.0:
                            hits += 1
                        if known < rank[cursor]:
                            break
                        cursor += 1
                    if cursor < end:
                        # decided by neither endpoint: descend into it
                        frames.append((slot, cursor + 1, end))
                        slot = cursor
                        break
                    # frame exit: in iff every lower edge turned out out
                    if is_matched[slot]:
                        state[nbr[slot]] = _MATCHED_STATE
                        state[nbr[twin[slot]]] = _MATCHED_STATE
                    if not frames:
                        return hits
                    slot, cursor, end = frames.pop()

        hits = 0
        outputs: List[Tuple] = []
        for vertex, _incident in partition:
            known = state[vertex]
            if known >= 0.0:
                hits += 1
                if known == _MATCHED_STATE:
                    outputs.append(("matched", vertex,
                                    edge_key(vertex, partner[vertex])))
                if known >= _SEARCHED_OUT:
                    continue
            start = first[vertex]
            for slot in range(start, start + degree[vertex]):
                edge_rank = rank[slot]
                for endpoint in (vertex, nbr[slot]):
                    known = state[endpoint]
                    if known >= 0.0:
                        hits += 1
                    if known >= edge_rank:
                        break
                else:
                    hits += resolve(slot)
                    if is_matched[slot]:
                        outputs.append(("matched", vertex,
                                        edge_key(vertex, nbr[slot])))
                        break
                if state[vertex] < edge_rank:
                    state[vertex] = edge_rank
            else:
                state[vertex] = _SEARCHED_OUT
        # the reads the walk would have made, two keys per fetched edge
        slots = np.array(fetched, dtype=np.int64)
        keys = np.stack((plan.nbr[plan.twin[slots]], plan.nbr[slots]),
                        axis=1).ravel().tolist()
        for start in range(0, len(keys), _READ_BATCH):
            ctx.lookup_block(self._store, keys[start:start + _READ_BATCH])
        ctx.work.cache_hits += hits
        return outputs

    # -- vertex state ------------------------------------------------------

    def _vertex_state(self, vertex: int, ctx: MachineContext):
        if self._cache is not None and vertex in self._cache:
            ctx.note_cache_hit()
            return self._cache[vertex]
        if self._resolved_store is not None:
            state = ctx.lookup(self._resolved_store, vertex)
            if state is not None:
                state = tuple(state)
                if self._cache is not None:
                    self._cache[vertex] = state
                return state
        return None

    def _set_matched(self, u: int, v: int, rank: float) -> None:
        if self._cache is not None:
            self._cache[u] = (_MATCHED, v, rank)
            self._cache[v] = (_MATCHED, u, rank)

    def _raise_searched(self, vertex: int, rank: float) -> None:
        """Record: every edge of ``vertex`` with rank <= ``rank`` is out."""
        if self._cache is None:
            return
        state = self._cache.get(vertex)
        if state is not None and state[0] == _MATCHED:
            return
        if state is None or state[1] < rank:
            self._cache[vertex] = (_SEARCHED, rank)

    def _edge_status_from_states(self, rank: float, a: int, b: int,
                                 ctx: MachineContext) -> Optional[bool]:
        """Resolve edge (a, b) from vertex states alone, if possible."""
        for x, y in ((a, b), (b, a)):
            state = self._vertex_state(x, ctx)
            if state is None:
                continue
            if state[0] == _MATCHED:
                return state[1] == y and state[2] == rank
            if state[0] == _SEARCHED and rank <= state[1]:
                return False
        return None

    # -- the edge query process (iterative recursion) -----------------------

    def _lower_edges(self, rank: float, a: int, b: int, ctx: MachineContext,
                     counter) -> List[Tuple[float, int, int]]:
        """Incident edges of a and b with order below edge (a, b) of rank
        ``rank``, merged ascending by the global edge order.

        Both lists are needed before the merge, so the two keys go out as
        one batched KV read (the batching seam of Section 5.3), charged —
        reads, bytes, budget counter — as two ``ctx.lookup`` calls.
        """
        counter[0] += 2
        incident_a, incident_b = ctx.lookup_many(self._store, (a, b))
        me = (rank,) + edge_key(a, b)
        merged = []
        for endpoint, incident in ((a, incident_a), (b, incident_b)):
            for r, u in incident or ():
                # inline edge_key: this loop touches every incident edge
                # below the query edge, twice per resolved edge
                order = ((r, endpoint, u) if endpoint < u
                         else (r, u, endpoint))
                if order >= me:
                    # Incident lists are rank-sorted: everything after is
                    # above this edge.
                    break
                merged.append((order, endpoint, u))
        # a lower edge is incident to one endpoint only, so every order
        # occurs once
        merged.sort()
        return [(order[0], x, y) for order, x, y in merged]

    def _resolve_edge(self, rank: float, a: int, b: int,
                      ctx: MachineContext, counter) -> object:
        """True if edge (a, b) is in the matching; _PARKED on budget."""
        known = self._edge_status_from_states(rank, a, b, ctx)
        if known is not None:
            return known
        # Frame: [rank, a, b, lower_edges, index]
        frames = [[rank, a, b,
                   self._lower_edges(rank, a, b, ctx, counter), 0]]
        returning: Optional[bool] = None
        while frames:
            if self._budget is not None and counter[0] > self._budget:
                return _PARKED
            frame = frames[-1]
            erank, ea, eb, lower, index = frame
            if returning is not None:
                child_in, returning = returning, None
                if child_in:
                    frames.pop()
                    returning = False
                    continue
                index += 1
                frame[4] = index
            descended = False
            while index < len(lower):
                crank, ca, cb = lower[index]
                known = self._edge_status_from_states(crank, ca, cb, ctx)
                if known is True:
                    frames.pop()
                    returning = False
                    descended = True
                    break
                if known is False:
                    index += 1
                    frame[4] = index
                    continue
                if self._budget is not None and counter[0] > self._budget:
                    return _PARKED
                frames.append([crank, ca, cb, self._lower_edges(
                    crank, ca, cb, ctx, counter), 0])
                descended = True
                break
            if descended:
                continue
            # No lower-rank incident edge in the matching: this edge joins.
            self._set_matched(ea, eb, erank)
            frames.pop()
            returning = True
        return returning

    # -- the vertex process --------------------------------------------------

    def _vertex_search(self, vertex: int, incident, ctx: MachineContext):
        """Matched edge of ``vertex`` or None; _PARKED on budget."""
        state = self._vertex_state(vertex, ctx)
        if state is not None:
            if state[0] == _MATCHED:
                return edge_key(vertex, state[1])
            if state[0] == _SEARCHED and state[1] >= 1.0:
                return None
        counter = [0]
        for rank, neighbor in incident:
            status = self._resolve_edge(rank, vertex, neighbor, ctx, counter)
            if status is _PARKED:
                return _PARKED
            if status:
                return edge_key(vertex, neighbor)
            self._raise_searched(vertex, rank)
        self._raise_searched(vertex, 1.0)
        return None


@dataclass
class PreparedMatching:
    """The DHT-resident edge-permuted graph (Section 5.4 preprocessing)."""

    seed: int
    #: ``(vertex, rank-sorted incident edges)`` records
    records: List[Tuple[int, Tuple[Tuple[float, int], ...]]]
    store: DHTStore
    #: ``(num_machines, per-record machine ids)`` as
    #: :func:`prepare_matching` placed them (None after
    #: :func:`update_matching`) — lets runs on the same cluster shape
    #: re-place records without re-hashing every key
    machines: Optional[Tuple[int, object]] = None


def prepare_matching(graph: Graph, *,
                     runtime: Optional[AMPCRuntime] = None,
                     config: Optional[ClusterConfig] = None,
                     seed: int = 0) -> PreparedMatching:
    """The matching preprocessing: permute edges by rank, write to the DHT.

    One shuffle plus the KV-write round — cacheable across runs.  The
    edge-permuted graph is one vectorized rank pass plus one lexsort over
    the CSR edge columns; stage charges and record order follow
    :func:`repro.core.mis.prepare_mis` (``permute-edges`` map,
    ``place-permuted-graph`` repartition, store write).
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    cluster = runtime.cluster
    num_machines = cluster.config.num_machines
    csr = graph.csr()
    n = csr.num_vertices

    # Round 1: the one shuffle — the edge-permuted (rank-sorted) graph.
    with metrics.phase("PermuteGraph"):
        indptr = csr.indptr
        dst = csr.indices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        edge_ranks = hash_ranks(seed, lo, hi)
        keys = np.arange(n, dtype=np.int64)
        machines = placement_ids(keys, num_machines)
        record_order = np.lexsort((keys, keys % num_machines, machines))
        vertex_pos = np.empty(n, dtype=np.int64)
        vertex_pos[record_order] = np.arange(n, dtype=np.int64)
        # incident lists sort by (rank,) + edge_key(v, u), rank-ascending
        edge_order = np.lexsort((hi, lo, edge_ranks, vertex_pos[src]))
        counts = np.diff(indptr)
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts[record_order], out=out_indptr[1:])
        records = ColumnarRecords.ragged(
            keys[record_order], out_indptr,
            edge_ranks[edge_order], dst[edge_order])
        record_machines = machines[record_order]
        charge_map_stage(cluster, roundrobin_counts(n, num_machines))
        cluster.charge_shuffle(records.total_element_bytes())

    with metrics.phase("KV-Write"):
        store = runtime.new_store("mm-permuted-graph")
        write_columnar_store(cluster, store, records, record_machines)
    runtime.next_round()
    return PreparedMatching(seed=seed, records=records.items(), store=store,
                            machines=(num_machines, record_machines))


def update_matching(prepared: PreparedMatching, graph: Graph, *,
                    runtime: Optional[AMPCRuntime] = None,
                    config: Optional[ClusterConfig] = None,
                    seed: int = 0,
                    insertions=(), deletions=()) -> PreparedMatching:
    """Patch the DHT-resident edge-permuted graph after an edge batch.

    Edge ranks are a pure function of the endpoints and seed, so only the
    batch endpoints' rank-sorted incident lists change; they are rewritten
    into a derived copy-on-write child of the sealed store in O(batch).
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    if prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this update uses seed {seed}"
        )
    metrics = runtime.metrics
    touched = touched_vertices(insertions, deletions)
    with metrics.phase("PatchPermutedGraph"):
        patch = runtime.pipeline.from_items(
            [(v, _permuted_incident(v, graph.neighbors(v), seed))
             for v in touched]
        ).repartition(lambda record: record[0], name="place-permuted-patch")
    with metrics.phase("KV-Patch"):
        store = runtime.derive_store(prepared.store)
        runtime.write_store(patch, store,
                            key_fn=lambda record: record[0],
                            value_fn=lambda record: record[1])
    runtime.next_round()
    return PreparedMatching(seed=seed,
                            records=patch_records(prepared.records,
                                                  patch.collect()),
                            store=store)


def ampc_maximal_matching(graph: Graph, *,
                          runtime: Optional[AMPCRuntime] = None,
                          config: Optional[ClusterConfig] = None,
                          seed: int = 0,
                          search_budget: Optional[int] = None,
                          max_rounds: int = 64,
                          prepared: Optional[PreparedMatching] = None
                          ) -> MatchingResult:
    """Theorem 2 part 2: O(1)-round maximal matching via vertex searches.

    Without ``search_budget`` this is the 2-round practical implementation
    of Section 5.4; with it, the n^epsilon-truncated multi-round schedule.
    A ``prepared`` artifact (from :func:`prepare_matching`) skips the
    preprocessing shuffle and KV-write.
    """
    require_positive("search_budget", search_budget)
    require_positive("max_rounds", max_rounds)
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    if prepared is None:
        prepared = prepare_matching(graph, runtime=runtime, seed=seed)
    elif prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this run uses seed {seed}"
        )
    store = prepared.store
    rounds_before = metrics.rounds
    permuted = place_prepared(runtime.pipeline, prepared)

    matching: Set[EdgeId] = set()
    pending = permuted
    resolved_store: Optional[DHTStore] = None
    budget = search_budget
    if budget is not None:
        # A vertex must always be able to re-scan its incident list.
        budget = max(budget, 2 * graph.max_degree() + 2)
    rounds_used = 0
    while True:
        rounds_used += 1
        if rounds_used > max_rounds:
            raise RuntimeError(
                f"matching did not converge within {max_rounds} rounds"
            )
        with metrics.phase("IsInMM"):
            outcome = pending.par_do(
                _IsInMM(store, seed, resolved_store=resolved_store,
                        budget=budget, records=prepared.records),
                name="is-in-mm",
            )
        parked_records = []
        for tag, vertex, payload in outcome.collect():
            if tag == "matched":
                matching.add(payload)
            else:
                parked_records.append((vertex, payload))
        if budget is None or not parked_records:
            runtime.next_round()
            break
        with metrics.phase("CommitStates"):
            states = _vertex_states(graph, matching,
                                    {v for v, _ in parked_records}, seed)
            states_pcoll = runtime.pipeline.from_items(states)
            next_store = runtime.new_store(f"mm-states-r{rounds_used}")
            runtime.write_store(states_pcoll, next_store,
                                key_fn=lambda kv: kv[0],
                                value_fn=lambda kv: kv[1])
            resolved_store = next_store
        runtime.next_round()
        pending = runtime.pipeline.from_items(parked_records)

    # Round 1 is the preparation (possibly cache-served); the rest queried.
    return MatchingResult(matching=matching, metrics=metrics,
                          rounds=metrics.rounds - rounds_before + 1)


def _vertex_states(graph: Graph, matching: Set[EdgeId],
                   parked: Set[int], seed: int) -> List[Tuple[int, tuple]]:
    """Vertex states known after a truncated round (committed to the DHT)."""
    states: List[Tuple[int, tuple]] = []
    matched_partner: Dict[int, Tuple[int, float]] = {}
    for u, v in matching:
        rank = _edge_rank(seed, u, v)
        matched_partner[u] = (v, rank)
        matched_partner[v] = (u, rank)
    for vertex in graph.vertices():
        if vertex in matched_partner:
            partner, rank = matched_partner[vertex]
            states.append((vertex, (_MATCHED, partner, rank)))
        elif vertex not in parked:
            # Its search completed without finding a matched edge.
            states.append((vertex, (_SEARCHED, 1.0)))
    return states


# ---------------------------------------------------------------------------
# Theorem 2 part 1: Algorithm 4 (degree peeling in O(log log Delta) levels)
# ---------------------------------------------------------------------------


def _level_subgraph(graph: Graph, alive: Set[int], level: int, seed: int,
                    delta: int, log_n: float) -> Optional[Graph]:
    """The rank-sampled subgraph ``H_level`` of Algorithm 4, or None when
    the residual graph has no edges left."""
    residual, degree = _residual(graph, alive)
    if not residual:
        return None
    if degree > 10 * log_n:
        threshold = delta ** -(0.5 ** level)
        subgraph_edges = [
            edge for edge in _residual_edges(residual)
            if _edge_rank(seed, *edge) <= threshold
        ]
    else:
        subgraph_edges = list(_residual_edges(residual))
    level_graph = Graph(graph.num_vertices)
    for u, v in subgraph_edges:
        level_graph.add_edge(u, v)
    return level_graph


@dataclass
class PreparedMatchingPhases:
    """Algorithm 4 preprocessing: the level-1 sampled subgraph, staged.

    Only level 1 is known before any matching completes (later levels
    depend on which vertices matched), so the cacheable artifact is the
    level-1 subgraph plus its DHT-resident edge-permuted form — the
    PermuteGraph shuffle and KV-write every query would otherwise repeat.
    """

    seed: int
    level_graph: Optional[Graph]
    inner: Optional[PreparedMatching]


def prepare_matching_phases(graph: Graph, *,
                            runtime: Optional[AMPCRuntime] = None,
                            config: Optional[ClusterConfig] = None,
                            seed: int = 0) -> PreparedMatchingPhases:
    """Stage the level-1 sampled subgraph of Algorithm 4 into the DHT."""
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    n = graph.num_vertices
    delta = graph.max_degree()
    if delta == 0:
        return PreparedMatchingPhases(seed=seed, level_graph=None, inner=None)
    log_n = math.log(max(n, 2))
    level_graph = _level_subgraph(graph, set(graph.vertices()), 1, seed,
                                  delta, log_n)
    if level_graph is None:
        return PreparedMatchingPhases(seed=seed, level_graph=None, inner=None)
    inner = prepare_matching(level_graph, runtime=runtime, seed=seed)
    return PreparedMatchingPhases(seed=seed, level_graph=level_graph,
                                  inner=inner)


def ampc_matching_phases(graph: Graph, *,
                         runtime: Optional[AMPCRuntime] = None,
                         config: Optional[ClusterConfig] = None,
                         seed: int = 0,
                         prepared: Optional[PreparedMatchingPhases] = None
                         ) -> MatchingResult:
    """Algorithm 4: maximal matching by O(log log Delta) sampled levels.

    Level i keeps only the edges of rank at most ``Delta^{-0.5^i}`` (once
    the residual degree exceeds ``10 log n``), finds their greedy maximal
    matching via the MIS-on-line-graph query process of Proposition 4.2
    (the same query machinery as :func:`ampc_maximal_matching`, restricted
    to the sampled subgraph), and removes matched vertices.  A
    ``prepared`` artifact (from :func:`prepare_matching_phases`) serves
    level 1 from the cached DHT-resident subgraph.
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    n = graph.num_vertices
    delta = graph.max_degree()
    if delta == 0:
        return MatchingResult(matching=set(), metrics=metrics, rounds=0)
    if prepared is None:
        prepared = prepare_matching_phases(graph, runtime=runtime, seed=seed)
    elif prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this run uses seed {seed}"
        )
    log_n = math.log(max(n, 2))
    levels = max(1, math.ceil(math.log2(max(2.0, math.log2(max(delta, 2))))) + 1)
    rounds_before = metrics.rounds

    alive = set(graph.vertices())
    matching: Set[EdgeId] = set()
    level_sizes: List[int] = []
    for level in range(1, levels + 1):
        if level == 1 and prepared.level_graph is not None:
            level_graph: Optional[Graph] = prepared.level_graph
            inner = prepared.inner
        else:
            level_graph = _level_subgraph(graph, alive, level, seed,
                                          delta, log_n)
            inner = None
        if level_graph is None:
            break
        with metrics.phase(f"Level{level}"):
            level_result = ampc_maximal_matching(
                level_graph, runtime=runtime, seed=seed, prepared=inner
            )
        matched = level_result.matching
        level_sizes.append(len(matched))
        matching.update(matched)
        for u, v in matched:
            alive.discard(u)
            alive.discard(v)
    # Final sweep: the loop above is maximal w.h.p. (Lemma 4.5); guard
    # against the low-probability leftover deterministically.
    residual, degree = _residual(graph, alive)
    if residual:
        leftover = Graph(n)
        for u, v in _residual_edges(residual):
            leftover.add_edge(u, v)
        with metrics.phase("Cleanup"):
            tail = ampc_maximal_matching(leftover, runtime=runtime, seed=seed)
        matching.update(tail.matching)
        level_sizes.append(len(tail.matching))
    # Logical rounds: the level-1 preparation round (possibly cache-served)
    # plus everything executed after it — stable across cache states.
    return MatchingResult(matching=matching, metrics=metrics,
                          rounds=metrics.rounds - rounds_before + 1,
                          level_sizes=level_sizes)


def _residual(graph: Graph, alive: Set[int]):
    """Adjacency of the graph induced on ``alive`` + its max degree."""
    residual: Dict[int, List[int]] = {}
    degree = 0
    for v in alive:
        neighbors = [u for u in graph.neighbors(v) if u in alive]
        if neighbors:
            residual[v] = neighbors
            degree = max(degree, len(neighbors))
    return residual, degree


def _residual_edges(residual: Dict[int, List[int]]):
    for v, neighbors in residual.items():
        for u in neighbors:
            if v < u:
                yield (v, u)


# ---------------------------------------------------------------------------
# Registry spec (the Session/CLI entry point)
# ---------------------------------------------------------------------------


def _summarize(result: MatchingResult, graph: Graph) -> Dict[str, int]:
    return {"output_size": len(result.matching), "rounds": result.rounds}


def _describe(result: MatchingResult, graph: Graph, params) -> str:
    return (f"maximal matching: {len(result.matching)} edges "
            f"({result.rounds} rounds)")


register_algorithm(AlgorithmSpec(
    name="matching",
    summary="maximal matching",
    input_kind="graph",
    run=ampc_maximal_matching,
    prepare=prepare_matching,
    update=update_matching,
    summarize=_summarize,
    describe=_describe,
    params=(
        ParamSpec("search_budget", int, None,
                  "per-search KV lookup budget (runs the truncated "
                  "multi-round theory schedule)"),
    ),
    prep_seed_sensitive=True,  # edge ranks depend on the seed
))


def _summarize_phases(result: MatchingResult, graph: Graph) -> Dict[str, int]:
    return {"output_size": len(result.matching),
            "levels": len(result.level_sizes),
            "rounds": result.rounds}


def _describe_phases(result: MatchingResult, graph: Graph, params) -> str:
    return (f"maximal matching (Algorithm 4): {len(result.matching)} edges "
            f"over {len(result.level_sizes)} level(s)")


register_algorithm(AlgorithmSpec(
    name="matching-phases",
    summary="maximal matching via O(log log Δ) peeling levels (Algorithm 4)",
    input_kind="graph",
    run=ampc_matching_phases,
    prepare=prepare_matching_phases,
    summarize=_summarize_phases,
    describe=_describe_phases,
    prep_seed_sensitive=True,  # the level-1 sample depends on edge ranks
))
