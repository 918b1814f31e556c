"""AMPC Minimum Spanning Forest (Section 3 / Section 5.5).

Two entry points:

* :func:`ampc_msf` — the paper's *practical* implementation (Section 5.5):

  1. **SortGraph** (shuffle): per-vertex adjacency sorted by edge weight.
  2. **KV-Write**: adjacency into the DHT.
  3. **PrimSearch**: a truncated Prim search from every vertex, stopping on
     (a) the exploration budget, (b) exhausting the component, or (c)
     reaching a higher-priority (lower-rank) vertex.  Every edge the search
     adds is an MSF edge by the cut property; every visited lower-priority
     vertex emits a ``(visited, visitor)`` tuple.
  4. **Combine** (shuffle): group by visited vertex, keep the
     highest-priority visitor — a pointer forest (ranks strictly decrease
     along pointers, so no cycles).
  5. **PointerJump**: chase pointers through the DHT to tree roots.
  6. **Contract** (2 shuffles): rewrite both edge endpoints through the
     root mapping, then solve the contracted graph in memory and merge.

* :func:`ampc_msf_theory` — Algorithm 2: ternarize sparse graphs, run
  Algorithm 1 (``TruncatedPrim`` with the terminal-edge forest F), contract,
  and fall back to the dense routine.  The dense routine of Proposition 3.1
  (the [19] DenseMSF we cannot import) is substituted by repeated
  contraction rounds until the instance fits in one machine's memory — the
  same O(log log) shrink schedule, documented in DESIGN.md.

The two adaptive phases of the practical pipeline, PrimSearch and
PointerJump, keep all of a machine's searches in flight together — the
paper's multithreading (Section 5.3) — as frontier sweeps with one batched
KV read per sweep (:meth:`_PrimSearch._sweep`, :meth:`_PointerJump._sweep`);
the one-search-at-a-time forms beside them are the reference.

All variants carry the *original* endpoints of every edge through
contraction and solve with the strict total order (weight, endpoints), so
the output is edge-identical to Kruskal even with heavily tied weights
(e.g. the degree-weighted graphs of Section 5.2).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ampc.cluster import ClusterConfig
from repro.ampc.columnar import ColumnarRecords, unbox_rows
from repro.ampc.cost_model import _sequence_bytes
from repro.ampc.dht import DHTStore
from repro.ampc.metrics import Metrics
from repro.ampc.runtime import AMPCRuntime
from repro.ampc.vector import placement_ids, vertex_ranks_u64
from repro.api.incremental import patch_records, touched_vertices
from repro.api.registry import (AlgorithmSpec, ParamSpec, register_algorithm,
                                require_positive)
from repro.dataflow.columnar import (RowBlock, StageReplay, charge_map_stage,
                                     place_prepared, roundrobin_counts,
                                     write_columnar_store)
from repro.dataflow.dofn import DoFn, MachineContext
from repro.graph.graph import WeightedGraph, edge_key
from repro.graph.ternarize import ternarize

EdgeId = Tuple[int, int]
#: (weight, original_u, original_v, current_u, current_v)
EdgeRecord = Tuple[float, int, int, int, int]


@dataclass
class MSFResult:
    """Output of an AMPC MSF run: the forest plus pipeline statistics."""

    forest: List[EdgeId]
    metrics: Metrics
    rounds: int = 0
    #: vertices of the contracted graph after the Prim round(s)
    contracted_vertices: int = 0
    #: MSF edges discovered directly by the Prim searches
    prim_edges: int = 0
    #: maximum pointer-chain length seen while jumping (paper saw <= 33)
    max_pointer_depth: int = 0
    #: total forest weight, filled in by the first report that needs it
    #: (the summary and the description both do)
    weight: Optional[float] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Prim searches
# ---------------------------------------------------------------------------


#: the stored adjacency rows: ``(neighbor, weight)``
_ADJACENCY_DTYPES = (np.int64, np.float64)


class _SearchColumns:
    """One machine's Prim-search outputs as three ``(k, 2)`` int64 columns.

    ``msf`` rows are canonical ``(lo, hi)`` forest edges, ``visit`` rows
    ``(visited, visitor)``, ``ptr`` rows ``(searcher, higher-priority
    vertex it stopped at)``.  ``len()`` is the number of boxed triples the
    scalar search would have emitted — what ``par_do`` charges — and
    iterating yields exactly those triples, for consumers that want them.
    """

    __slots__ = ("msf", "visit", "ptr")

    def __init__(self, msf, visit, ptr):
        self.msf = msf
        self.visit = visit
        self.ptr = ptr

    @classmethod
    def of(cls, outputs) -> "_SearchColumns":
        """``outputs`` itself, or the columns of a boxed triple list."""
        if isinstance(outputs, cls):
            return outputs
        return cls(*(
            np.array([(a, b) for kind, a, b in outputs if kind == tag],
                     dtype=np.int64).reshape(-1, 2)
            for tag in cls.__slots__))

    def __len__(self) -> int:
        return len(self.msf) + len(self.visit) + len(self.ptr)

    def __iter__(self):
        for tag in self.__slots__:
            for a, b in getattr(self, tag).tolist():
                yield (tag, a, b)


class _PrimSearch(DoFn):
    """Truncated Prim search from every vertex (Algorithm 1, lines 5-12).

    Emits ``("msf", lo, hi)`` for each discovered MSF edge, ``("visit",
    visited, visitor)`` for every lower-priority visited vertex, and
    ``("ptr", v, u)`` when the search stops at a higher-priority vertex
    (the F edge of the theory algorithm).

    Each vertex's search is a pure function of the sealed adjacency
    store, the vertex ranks and the budget — no state crosses elements —
    so a machine advances all of its searches together, one Prim step
    per sweep and one ``lookup_block`` per sweep (:meth:`_sweep`; the
    concurrency Section 5.3's multithreading buys).  :meth:`_search` is
    the one-search-at-a-time form, the oracle the sweep is tested
    against.
    """

    def __init__(self, store: DHTStore, ranks: Sequence[float], budget: int,
                 seed: int):
        self._store = store
        self._ranks = ranks
        self._budget = budget
        self._replay = StageReplay(
            store, ("prim-search", seed, budget, len(ranks)))

    def process(self, element, ctx):
        return self._search(element, ctx)

    def process_batch(self, partition, ctx):
        return self._replay.run(ctx, lambda: self._sweep(partition, ctx))

    def _search(self, element, ctx):
        vertex, incident = element
        ranks = self._ranks
        store = self._store
        budget = self._budget
        heappop = heapq.heappop
        heappush = heapq.heappush
        my_rank = (ranks[vertex], vertex)
        visited = {vertex}
        heap = [((w,) + edge_key(vertex, u), vertex, u) for u, w in incident]
        heapq.heapify(heap)
        outputs = []
        append = outputs.append
        while heap:
            if len(visited) >= budget:
                break  # stopping condition (1): budget exhausted
            order, x, y = heappop(heap)
            if y in visited:
                continue
            visited.add(y)
            append(("msf",) + edge_key(x, y))
            if (ranks[y], y) < my_rank:
                # stopping condition (3): reached a higher-priority vertex.
                append(("ptr", vertex, y))
                break
            append(("visit", y, vertex))
            for u, w in ctx.lookup(store, y) or ():
                if u not in visited:
                    heappush(heap, ((w,) + edge_key(y, u), y, u))
        # Falling out of the loop with an empty heap is stopping
        # condition (2): the component is fully explored.
        return outputs

    def _sweep(self, partition, ctx) -> _SearchColumns:
        """Every search of ``partition``, one Prim step per sweep.

        The heap of a search is a set of rows in one flat candidate pool
        ``(search, near, far, weight)``; the heap's total order is
        ``(weight, canonical endpoints)``, the endpoints folded into one
        int ``code``.  Each sweep pops every live search's minimum row
        (rows whose far end is already visited were dropped when it was),
        emits what the scalar search emits, fetches the newly visited
        vertices' adjacency in one batch and pushes their unvisited ends.
        All live searches have visited the same number of vertices, so
        the budget cuts them off together.
        """
        store = self._store
        rank = np.asarray(self._ranks, dtype=np.float64)
        n = len(rank)
        roots = np.fromiter((record[0] for record in partition),
                            dtype=np.int64, count=len(partition))
        degrees, (far, weight) = unbox_rows(
            [record[1] for record in partition], _ADJACENCY_DTYPES)
        search = np.repeat(np.arange(len(roots), dtype=np.int64), degrees)
        near = roots[search]
        visited = roots[:, None]
        msf, visit, ptr = [], [], []
        for size in range(1, self._budget):
            # a search whose heap ran dry has explored its component
            live = np.zeros(len(roots), dtype=bool)
            live[search] = True
            if not live.all():
                search = (np.cumsum(live) - 1)[search]
                roots = roots[live]
                visited = visited[live]
            count = len(roots)
            if not count:
                break
            lightest = np.full(count, np.inf)
            np.minimum.at(lightest, search, weight)
            tied = np.flatnonzero(weight == lightest[search])
            code = (np.minimum(near[tied], far[tied]) * n
                    + np.maximum(near[tied], far[tied]))
            lowest = np.full(count, n * n, dtype=np.int64)
            np.minimum.at(lowest, search[tied], code)
            popped = tied[code == lowest[search[tied]]]
            x = np.empty(count, dtype=np.int64)
            y = np.empty(count, dtype=np.int64)
            x[search[popped]] = near[popped]
            y[search[popped]] = far[popped]
            visited = np.column_stack((visited, y))
            msf.append(np.column_stack((np.minimum(x, y), np.maximum(x, y))))
            rank_y = rank[y]
            rank_root = rank[roots]
            stopped = (rank_y < rank_root) | (
                (rank_y == rank_root) & (y < roots))
            ptr.append(np.column_stack((roots[stopped], y[stopped])))
            going = ~stopped
            explorers = np.flatnonzero(going)
            explored = y[explorers]
            visit.append(np.column_stack((explored, roots[explorers])))
            # charged even when the budget stops the search right after
            fetched = ctx.lookup_block(store, explored.tolist())
            if size + 1 >= self._budget:
                break
            degrees, (new_far, new_weight) = fetched.columns(
                _ADJACENCY_DTYPES)
            new_search = np.repeat(explorers, degrees)
            new_near = np.repeat(explored, degrees)
            push = ~(visited[new_search] == new_far[:, None]).any(axis=1)
            keep = going[search] & (far != y[search])
            search = np.concatenate((search[keep], new_search[push]))
            near = np.concatenate((near[keep], new_near[push]))
            far = np.concatenate((far[keep], new_far[push]))
            weight = np.concatenate((weight[keep], new_weight[push]))
        empty = np.empty((0, 2), dtype=np.int64)
        return _SearchColumns(*(np.concatenate(rows) if rows else empty
                                for rows in (msf, visit, ptr)))


class _PointerJump(DoFn):
    """Chase parent pointers to the root, with per-machine memoization.

    :meth:`process` walks one vertex at a time.  Given ``parents`` — the
    pointer map as a column (vertex -> parent, -1 for a root), which the
    combine stage that wrote ``store`` has in hand — a machine walks all
    of its vertices in lock step instead, one ``lookup_block`` per level
    (:meth:`_sweep`), with the same reads, cache hits and chain depths.
    """

    def __init__(self, store: DHTStore, parents=None):
        self._store = store
        self._cache: Optional[Dict[int, int]] = None
        self.max_depth = 0
        self._parents = parents
        self._root_of = None if parents is None else _root_column(parents)

    def start_machine(self, ctx: MachineContext) -> None:
        self._cache = {} if ctx.caching_enabled else None

    def process(self, element, ctx):
        vertex = element
        chain = []
        current = vertex
        while True:
            if self._cache is not None and current in self._cache:
                ctx.note_cache_hit()
                current = self._cache[current]
                break
            parent = ctx.lookup(self._store, current)
            if parent is None or parent == current:
                break
            chain.append(current)
            current = parent
        self.max_depth = max(self.max_depth, len(chain))
        if self._cache is not None:
            for node in chain:
                self._cache[node] = current
        yield (vertex, current)

    def process_batch(self, partition, ctx):
        if self._parents is not None:
            return self._sweep(partition, ctx)
        return list(chain.from_iterable(
            self.process(vertex, ctx) for vertex in partition))

    def _sweep(self, partition, ctx) -> RowBlock:
        """Charge twin of the :meth:`process` loop over ``partition``.

        A walk caches every non-root vertex it reads, so the cached set
        is closed under "parent of": vertex ``x`` is uncached exactly
        until the earliest element below it (``owner[x]``, the minimum
        element index in its subtree) has walked through.  Element ``i``
        therefore starts with a cache hit unless it owns itself, reads
        upwards while it owns what it steps onto, and ends on a hit (a
        vertex an earlier element owns) or on the root, which everyone
        who gets there reads and nobody caches (``owner`` -1).  With the
        cache off every element reads its whole path.
        """
        store = self._store
        parents = self._parents
        vertices = np.asarray(partition, dtype=np.int64)
        walker = np.arange(len(vertices), dtype=np.int64)
        if ctx.caching_enabled:
            owner = np.full(len(parents), len(vertices), dtype=np.int64)
            owner[vertices] = walker
            moved = vertices
            while len(moved):
                above = parents[moved]
                claim = owner[moved]
                earlier = (above >= 0) & (claim < owner[np.maximum(above, 0)])
                np.minimum.at(owner, above[earlier], claim[earlier])
                changed = np.zeros(len(parents), dtype=bool)
                changed[above[earlier]] = True
                moved = np.flatnonzero(changed)
            # a root is read by everyone who reaches it, never cached
            owner[self._root_of == np.arange(len(parents))] = -1
            walking = (owner[vertices] == walker) | (owner[vertices] < 0)
            ctx.work.cache_hits += len(vertices) - int(walking.sum())
            at = vertices[walking]
            walker = walker[walking]
        else:
            owner = None
            at = vertices
        depth = 0
        while len(at):
            above = ctx.lookup_block(store, at.tolist()).scalars(np.int64, -1)
            climbing = (above >= 0) & (above != at)
            at = above[climbing]
            if owner is not None:
                walker = walker[climbing]
                owned = (owner[at] == walker) | (owner[at] < 0)
                ctx.work.cache_hits += len(at) - int(owned.sum())
                at = at[owned]
                walker = walker[owned]
            if climbing.any():
                depth += 1
        self.max_depth = max(self.max_depth, depth)
        return RowBlock(np.column_stack((vertices, self._root_of[vertices])))


def _root_column(parents):
    """Root of every vertex of a pointer forest (``parents``: -1 = root),
    by pointer doubling."""
    ids = np.arange(len(parents), dtype=np.int64)
    roots = np.where((parents < 0) | (parents == ids), ids, parents)
    while True:
        doubled = roots[roots]
        if np.array_equal(doubled, roots):
            return roots
        roots = doubled


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _sorted_incident(graph: WeightedGraph, vertex: int):
    """Incident (neighbor, weight) pairs sorted by the edge total order."""
    return tuple(graph.neighbor_items(vertex))


def _contract_edges(runtime: AMPCRuntime, edge_records: Iterable[EdgeRecord],
                    roots_pcoll) -> List[EdgeRecord]:
    """Rewrite edge endpoints through the root mapping (2 shuffles)."""
    edges = runtime.pipeline.from_items(
        [("edge", record) for record in edge_records]
    )
    tagged_edges = edges.map_elements(
        lambda item: (item[1][3], ("edge", item[1])), name="key-by-u"
    )
    tagged_roots = roots_pcoll.map_elements(
        lambda pair: (pair[0], ("root", pair[1])), name="tag-roots"
    )
    joined = tagged_edges.flatten_with(tagged_roots).group_by_key(
        name="contract-join-u"
    )

    def _rewrite_u(record):
        vertex, tags = record
        root = vertex
        pending = []
        for kind, payload in tags:
            if kind == "root":
                root = payload
            else:
                pending.append(payload)
        return [
            (cv, ("edge", (w, ou, ov, root, cv)))
            for (w, ou, ov, cu, cv) in pending
        ]

    half = joined.flat_map(_rewrite_u, name="rewrite-u")
    joined2 = half.flatten_with(tagged_roots).group_by_key(
        name="contract-join-v"
    )

    def _rewrite_v(record):
        vertex, tags = record
        root = vertex
        pending = []
        for kind, payload in tags:
            if kind == "root":
                root = payload
            else:
                pending.append(payload)
        return [
            (w, ou, ov, cu, root)
            for (w, ou, ov, cu, cv) in pending
            if cu != root
        ]

    contracted = joined2.flat_map(_rewrite_v, name="rewrite-v")
    return contracted.collect()


class _DictUnionFind:
    """Union-find over arbitrary hashable ids (contracted vertex names)."""

    def __init__(self):
        self._parent: Dict = {}

    def find(self, x):
        parent = self._parent
        get = parent.get
        root = x
        step = get(root, root)
        while step != root:
            root = step
            step = get(root, root)
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self._parent[ry] = rx
        return True


def _kruskal_records(records: Iterable[EdgeRecord]) -> List[EdgeId]:
    """Kruskal over contracted edges, ordered by (weight, original edge)."""
    uf = _DictUnionFind()
    forest: List[EdgeId] = []
    for w, ou, ov, cu, cv in sorted(records, key=lambda r: (r[0], r[1], r[2])):
        if cu != cv and uf.union(cu, cv):
            forest.append(edge_key(ou, ov))
    return forest


def _combine_pointers(runtime: AMPCRuntime, visited, visitors, ranks):
    """The Combine stage chain (shuffles 2 and 3) over flat arrays.

    ``visited`` / ``visitors`` are the parallel columns of the searches'
    ``("visit", visited, visitor)`` outputs.  Charges, in stage order,
    what the dataflow ``group_by_key`` → ``select-best-visitor`` map →
    ``repartition`` → store-write sequence charges.  The best (min
    ``(rank, id)``) visitor per visited vertex is unique, so two
    scatter-min passes (lowest rank, then lowest id among the ties)
    select it; element order inside the intermediate stages is not
    metrics-visible (the charges are counts and byte totals, and the
    pointer store is a key-value map).  Returns the store and the pointer
    map as a column (vertex -> best visitor, -1 where nobody visited).
    """
    cluster = runtime.cluster
    num_machines = cluster.config.num_machines
    num_vertices = len(ranks)
    #: every element in this chain is an (int, int) pair
    pair_bytes = _sequence_bytes((0, 0))
    cluster.charge_shuffle(pair_bytes * len(visited))  # combine-visitors
    visitor_rank = ranks[visitors]
    lowest_rank = np.full(num_vertices, np.inf)
    np.minimum.at(lowest_rank, visited, visitor_rank)
    tied = visitor_rank == lowest_rank[visited]
    best_visitor = np.full(num_vertices, num_vertices, dtype=np.int64)
    np.minimum.at(best_visitor, visited[tied], visitors[tied])
    best_visitor[best_visitor == num_vertices] = -1
    keys = np.flatnonzero(best_visitor >= 0)
    best = best_visitor[keys]
    key_machines = placement_ids(keys, num_machines)
    counts = np.bincount(key_machines, minlength=num_machines).tolist()
    charge_map_stage(cluster, counts)                 # select-best-visitor
    cluster.charge_shuffle(pair_bytes * len(keys))    # place-pointers
    pointer_store = runtime.new_store("msf-pointers")
    write_columnar_store(cluster, pointer_store,
                         ColumnarRecords.scalars(keys, best), key_machines)
    return pointer_store, best_visitor


def _contract_edges_columnar(runtime: AMPCRuntime, graph, root_of):
    """Columnar twin of :func:`_contract_edges` (shuffles 4 and 5).

    ``root_of`` is the pointer-jumping result as a column (vertex id ->
    root).  Returns the contracted records as parallel arrays ``(w, ou,
    ov, cu, cv)`` instead of boxed tuples.  Charge replay, stage for
    stage:

    * key-by-u / tag-roots: two map stages over round-robin partitions;
    * each contract join moves every tagged edge (52 bytes: int key +
      ``"edge"`` tag + five scalars) and every tagged root (20 bytes) —
      the rewrite between the joins swaps one int for another, so both
      joins shuffle identical byte totals;
    * each rewrite stage reads one group per vertex (the root records
      cover *every* vertex, so per-machine group counts are the vertex
      placement histogram) and emits its surviving edges keyed by the
      join vertex.

    Element order never matters here: downstream consumes the records
    through an order-insensitive total sort (Kruskal) and counts.
    """
    cluster = runtime.cluster
    num_machines = cluster.config.num_machines
    csr = graph.csr()
    n = csr.num_vertices
    dst = csr.indices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    forward = src < dst
    ou = src[forward]
    ov = dst[forward]
    weight = csr.weights[forward]
    num_edges = len(ou)

    charge_map_stage(cluster, roundrobin_counts(num_edges, num_machines))
    charge_map_stage(cluster, roundrobin_counts(n, num_machines))
    tagged_edge_bytes = _sequence_bytes((0, ("edge", (0.0, 0, 0, 0, 0))))
    tagged_root_bytes = _sequence_bytes((0, ("root", 0)))
    join_bytes = tagged_edge_bytes * num_edges + tagged_root_bytes * n
    vertex_machines = placement_ids(np.arange(n, dtype=np.int64),
                                    num_machines)
    group_counts = np.bincount(vertex_machines,
                               minlength=num_machines).tolist()

    cluster.charge_shuffle(join_bytes)                # contract-join-u
    cu = root_of[ou]
    charge_map_stage(                                 # rewrite-u
        cluster, group_counts,
        np.bincount(vertex_machines[ou], minlength=num_machines).tolist())
    cluster.charge_shuffle(join_bytes)                # contract-join-v
    cv = root_of[ov]
    keep = cu != cv
    charge_map_stage(                                 # rewrite-v
        cluster, group_counts,
        np.bincount(vertex_machines[ov[keep]],
                    minlength=num_machines).tolist())
    return weight[keep], ou[keep], ov[keep], cu[keep], cv[keep]


def _kruskal_arrays(weight, ou, ov, cu, cv):
    """:func:`_kruskal_records` over parallel arrays.

    Identical forest, identical order, returned as ``(lo, hi)`` columns:
    the sort key ``(w, ou, ov)`` is a total order (each original edge
    appears once), and the union-find runs over the contracted class ids
    relabeled to a dense range.
    """
    order = np.lexsort((ov, ou, weight))
    classes, dense = np.unique(np.concatenate((cu, cv)), return_inverse=True)
    dense_u = dense[:len(cu)].tolist()
    dense_v = dense[len(cu):].tolist()
    parent = list(range(len(classes)))
    chosen: List[int] = []
    append = chosen.append
    for index in order.tolist():
        x = dense_u[index]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        y = dense_v[index]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[y] = x
            append(index)
    chosen = np.asarray(chosen, dtype=np.int64)
    return (np.minimum(ou[chosen], ov[chosen]),
            np.maximum(ou[chosen], ov[chosen]))


def _sorted_distinct(values):
    """Ascending distinct values of an int column (sort + adjacent test;
    ``np.unique`` hashes, which is several times slower here)."""
    values = np.sort(values)
    if not len(values):
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _default_budget(num_vertices: int, epsilon: float) -> int:
    """The n^(epsilon/2) exploration budget of Algorithm 1."""
    if num_vertices <= 1:
        return 2
    return max(2, math.ceil(num_vertices ** (epsilon / 2.0)))


# ---------------------------------------------------------------------------
# The practical pipeline (Section 5.5)
# ---------------------------------------------------------------------------


@dataclass
class PreparedMSF:
    """The DHT-resident weight-sorted adjacency (Section 5.5 step 1).

    Seed-independent: the adjacency is ordered by edge weight, so one
    prepared artifact serves MSF runs under any seed.
    """

    #: ``(vertex, weight-sorted incident edges)`` records
    records: List[Tuple[int, Tuple[Tuple[int, float], ...]]]
    store: DHTStore
    #: ``(num_machines, per-record machine ids)`` as :func:`prepare_msf`
    #: placed them (None after :func:`update_msf`) — lets runs on the same
    #: cluster shape re-place records without re-hashing every key
    machines: Optional[Tuple[int, object]] = None


def prepare_msf(graph: WeightedGraph, *,
                runtime: Optional[AMPCRuntime] = None,
                config: Optional[ClusterConfig] = None,
                seed: int = 0) -> PreparedMSF:
    """The MSF preprocessing: sort adjacency by weight, write to the DHT.

    ``seed`` is accepted for interface uniformity but unused — the sorted
    adjacency does not depend on it.  One lexsort orders every incident
    list by the edge total order ``(weight, canonical endpoints)``;
    weights ride as a float64 column (``WeightedGraph.add_edge`` declares
    float weights).  There is no map stage — the pipeline goes straight
    from a free ``from_items`` to the ``place-sorted-graph`` shuffle — so
    only the shuffle and the KV-write are charged.  Record-order
    reasoning as in :func:`repro.core.mis.prepare_mis`.
    """
    del seed
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    cluster = runtime.cluster
    num_machines = cluster.config.num_machines
    csr = graph.csr()
    n = csr.num_vertices

    # Shuffle 1: weight-sorted adjacency onto its home machines.
    with metrics.phase("SortGraph"):
        indptr = csr.indptr
        dst = csr.indices
        weights = csr.weights
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keys = np.arange(n, dtype=np.int64)
        machines = placement_ids(keys, num_machines)
        record_order = np.lexsort((keys, keys % num_machines, machines))
        vertex_pos = np.empty(n, dtype=np.int64)
        vertex_pos[record_order] = np.arange(n, dtype=np.int64)
        edge_order = np.lexsort((hi, lo, weights, vertex_pos[src]))
        counts = np.diff(indptr)
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts[record_order], out=out_indptr[1:])
        records = ColumnarRecords.ragged(
            keys[record_order], out_indptr,
            dst[edge_order], weights[edge_order])
        record_machines = machines[record_order]
        cluster.charge_shuffle(records.total_element_bytes())

    with metrics.phase("KV-Write"):
        store = runtime.new_store("msf-adjacency")
        write_columnar_store(cluster, store, records, record_machines)
    runtime.next_round()
    return PreparedMSF(records=records.items(), store=store,
                       machines=(num_machines, record_machines))


def update_msf(prepared: PreparedMSF, graph: WeightedGraph, *,
               runtime: Optional[AMPCRuntime] = None,
               config: Optional[ClusterConfig] = None,
               seed: int = 0,
               insertions=(), deletions=()) -> PreparedMSF:
    """Patch the DHT-resident weight-sorted adjacency after an edge batch.

    Only the batch endpoints' weight-sorted incident lists change; they
    are recomputed from the mutated graph and written into a derived
    copy-on-write child of the sealed store — O(batch), seed-independent
    like :func:`prepare_msf` itself.
    """
    del seed
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    touched = touched_vertices(insertions, deletions)
    with metrics.phase("PatchSortedGraph"):
        patch = runtime.pipeline.from_items(
            [(v, _sorted_incident(graph, v)) for v in touched]
        ).repartition(lambda record: record[0], name="place-sorted-patch")
    with metrics.phase("KV-Patch"):
        store = runtime.derive_store(prepared.store)
        runtime.write_store(patch, store,
                            key_fn=lambda record: record[0],
                            value_fn=lambda record: record[1])
    runtime.next_round()
    return PreparedMSF(records=patch_records(prepared.records,
                                             patch.collect()),
                       store=store)


def ampc_msf(graph: WeightedGraph, *,
             runtime: Optional[AMPCRuntime] = None,
             config: Optional[ClusterConfig] = None,
             seed: int = 0,
             epsilon: float = 0.5,
             search_budget: Optional[int] = None,
             prepared: Optional[PreparedMSF] = None) -> MSFResult:
    """Section 5.5's practical AMPC MSF: one Prim round, then contract.

    Exactly 5 shuffles (Table 3): SortGraph, Combine-on-visited,
    pointer-map placement, and two contraction joins.  With a ``prepared``
    artifact (from :func:`prepare_msf`) the SortGraph shuffle and KV-write
    are skipped, leaving 4.
    """
    require_positive("search_budget", search_budget)
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    n = graph.num_vertices
    ranks = vertex_ranks_u64(n, seed)
    budget = (search_budget if search_budget is not None
              else _default_budget(n, epsilon))

    if prepared is None:
        prepared = prepare_msf(graph, runtime=runtime)
    store = prepared.store
    rounds_before = metrics.rounds
    placed = place_prepared(runtime.pipeline, prepared)

    with metrics.phase("PrimSearch"):
        search_output = placed.par_do(
            _PrimSearch(store, ranks, budget, seed), name="prim-search"
        )
    blocks = [_SearchColumns.of(outputs)
              for outputs in search_output.partitions()]
    found = np.concatenate([block.msf for block in blocks])
    # one int per canonical edge: sorts like the (lo, hi) pair
    prim_codes = _sorted_distinct(found[:, 0] * n + found[:, 1])
    visits = np.concatenate([block.visit for block in blocks])

    # Shuffles 2 + 3: combine on visited vertices -> best (min-rank)
    # visitor, place the pointer map and write it to the DHT.
    with metrics.phase("PointerJump"):
        pointer_store, parents = _combine_pointers(
            runtime, visits[:, 0], visits[:, 1], ranks)
        runtime.next_round()
        jumper = _PointerJump(pointer_store, parents)
        vertices = runtime.pipeline.from_items(list(graph.vertices()))
        roots = vertices.par_do(jumper, name="pointer-jump")
    runtime.next_round()

    # Shuffles 4 + 5: contract, then solve in memory.  All edges take part,
    # including the already-discovered MSF edges: classes of the pointer
    # forest may be internally connected only *through* other classes, so
    # discovered edges that cross classes must stay visible to the
    # contracted solve (dropping them can force a heavier replacement).
    with metrics.phase("Contract"):
        root_pairs = np.concatenate(
            [RowBlock.of(outputs, 2).rows for outputs in roots.partitions()])
        root_of = np.empty(n, dtype=np.int64)
        root_of[root_pairs[:, 0]] = root_pairs[:, 1]
        contracted_vertices = int(
            np.count_nonzero(root_of == np.arange(n, dtype=np.int64)))
        columns = _contract_edges_columnar(runtime, graph, root_of)
        count = len(columns[0])
        runtime.pipeline.run_on_driver(count * max(1, count.bit_length()))
        # charged above either way; on a sealed plain store the solve
        # itself — a function of the adjacency, the ranks and the
        # budget — is done once
        lo, hi = StageReplay(
            store, ("contracted-forest", seed, budget)
        ).driver_result(lambda: _kruskal_arrays(*columns))
        codes = _sorted_distinct(np.concatenate((prim_codes, lo * n + hi)))
        forest = list(zip((codes // n).tolist(), (codes % n).tolist()))
    runtime.next_round()

    return MSFResult(
        forest=forest,
        metrics=metrics,
        # round 1 is the preparation (possibly cache-served)
        rounds=metrics.rounds - rounds_before + 1,
        contracted_vertices=contracted_vertices,
        prim_edges=len(prim_codes),
        max_pointer_depth=jumper.max_depth,
    )


# ---------------------------------------------------------------------------
# The theory pipeline (Algorithms 1 + 2)
# ---------------------------------------------------------------------------


def truncated_prim_round(graph: WeightedGraph, *,
                         runtime: AMPCRuntime,
                         seed: int,
                         budget: int,
                         prepared_records=None,
                         prepared_store: Optional[DHTStore] = None
                         ) -> Tuple[Set[EdgeId], List[EdgeRecord], int]:
    """One application of Algorithm 1 on a (ternarized) graph.

    Returns ``(discovered MSF edges, contracted edge records, contracted
    vertex count)``.  The contraction follows the theory algorithm: F is
    the set of terminal ``(v, u)`` edges (rank strictly decreases along
    them), contracted to roots by pointer jumping.  When a prepared
    sorted adjacency (``prepared_records`` + ``prepared_store``) is
    passed, the SortGraph shuffle and KV-write round are skipped.
    """
    metrics = runtime.metrics
    n = graph.num_vertices
    ranks = vertex_ranks_u64(n, seed)

    if prepared_store is not None:
        # Re-placing cached records is free: the data already lives in D0.
        placed = runtime.pipeline.from_items(
            prepared_records, key_fn=lambda record: record[0]
        )
        store = prepared_store
    else:
        with metrics.phase("SortGraph"):
            nodes = runtime.pipeline.from_items(
                [(v, _sorted_incident(graph, v)) for v in graph.vertices()]
            )
            placed = nodes.repartition(lambda record: record[0],
                                       name="place-sorted-graph")
        with metrics.phase("KV-Write"):
            store = runtime.new_store("tprim-adjacency")
            runtime.write_store(placed, store,
                                key_fn=lambda record: record[0],
                                value_fn=lambda record: record[1])
        runtime.next_round()

    with metrics.phase("PrimSearch"):
        search_output = placed.par_do(
            _PrimSearch(store, ranks, budget, seed), name="truncated-prim"
        )
    prim_edges: Set[EdgeId] = set()
    f_pointers: List[Tuple[int, int]] = []
    for tag, a, b in search_output.collect():
        if tag == "msf":
            prim_edges.add((a, b))
        elif tag == "ptr":
            f_pointers.append((a, b))

    # Proposition 3.2: contract the directed trees of F to their roots.
    with metrics.phase("PointerJump"):
        pointer_pcoll = runtime.pipeline.from_items(f_pointers)
        pointer_pcoll = pointer_pcoll.repartition(lambda pair: pair[0],
                                                  name="place-f-pointers")
        pointer_store = runtime.new_store("tprim-pointers")
        runtime.write_store(pointer_pcoll, pointer_store,
                            key_fn=lambda pair: pair[0],
                            value_fn=lambda pair: pair[1])
        runtime.next_round()
        vertices = runtime.pipeline.from_items(list(graph.vertices()))
        roots = vertices.par_do(_PointerJump(pointer_store),
                                name="f-pointer-jump")
    runtime.next_round()

    with metrics.phase("Contract"):
        edge_records = [
            (w, u, v, u, v) for u, v, w in graph.edges()
        ]
        contracted = _contract_edges(runtime, edge_records, roots)
    runtime.next_round()
    # Surviving vertices of the contracted graph: roots that still carry an
    # edge (isolated contracted vertices are removed, Algorithm 1 line 14).
    surviving = {root for _, root in roots.collect()}
    live = {cu for _, _, _, cu, cv in contracted} | {
        cv for _, _, _, cu, cv in contracted
    }
    return prim_edges, contracted, len(surviving & live)


def _dense_msf(edge_records: List[EdgeRecord], *,
               runtime: AMPCRuntime,
               seed: int,
               epsilon: float,
               in_memory_threshold: int,
               max_rounds: int = 32) -> List[EdgeId]:
    """Substitute for the DenseMSF of Proposition 3.1 ([19]).

    Repeats contraction rounds (each a truncated Prim round on the current
    contracted multigraph) until the instance fits in one machine's memory,
    then finishes with Kruskal — the same geometric shrink schedule as the
    original O(log log) routine.  The substitution is recorded in DESIGN.md.
    """
    forest: List[EdgeId] = []
    records = edge_records
    round_index = 0
    while len(records) > in_memory_threshold:
        round_index += 1
        if round_index > max_rounds:
            break
        graph, id_map = _records_to_graph(records)
        budget = _default_budget(graph.num_vertices, epsilon)
        prim_edges, contracted, _ = truncated_prim_round(
            graph, runtime=runtime, seed=seed + round_index, budget=budget
        )
        forest.extend(id_map[edge] for edge in prim_edges)
        # Contracted records still reference the graph's local vertex ids for
        # (cu, cv), but their (w, ou, ov) are the local original pairs; map
        # them back to the true original edges.
        records = [
            (w,) + id_map[edge_key(ou, ov)] + (("c", round_index, cu),
                                               ("c", round_index, cv))
            for (w, ou, ov, cu, cv) in contracted
        ]
        if not records:
            break
    runtime.pipeline.run_on_driver(
        len(records) * max(1, len(records).bit_length())
    )
    forest.extend(_kruskal_records(records))
    return forest


def _records_to_graph(records: List[EdgeRecord]):
    """Build a dense-id weighted graph from contracted edge records.

    Returns the graph and a map from each local canonical edge to the true
    original canonical edge it represents.  Parallel super-edges keep the
    minimum-order representative (the only MSF candidate).

    Local edge weights are replaced by their *rank index* in the global
    order (weight, original endpoints): relabeling changes the endpoint
    tie-break, so tied weights could otherwise make the relabeled instance
    resolve ties differently from the original graph.  Rank-index weights
    are distinct, keeping the MSF order-identical.
    """
    ids = sorted({cu for _, _, _, cu, cv in records}
                 | {cv for _, _, _, cu, cv in records})
    index = {vid: i for i, vid in enumerate(ids)}
    best: Dict[EdgeId, Tuple[float, int, int]] = {}
    for w, ou, ov, cu, cv in records:
        if cu == cv:
            continue
        local = edge_key(index[cu], index[cv])
        candidate = (w, ou, ov)
        if local not in best or candidate < best[local]:
            best[local] = candidate
    graph = WeightedGraph(len(ids))
    id_map: Dict[EdgeId, EdgeId] = {}
    ordered = sorted(best.items(), key=lambda item: item[1])
    for order_index, ((a, b), (w, ou, ov)) in enumerate(ordered):
        graph.add_edge(a, b, float(order_index))
        id_map[(a, b)] = edge_key(ou, ov)
    return graph, id_map


def _order_normalized(graph: WeightedGraph) -> WeightedGraph:
    """Replace weights by their rank index in the (weight, endpoints) order.

    A monotone transformation of the edge order, so the MSF is unchanged —
    but the resulting weights are distinct, which makes the MSF invariant
    under the vertex relabeling done by ternarization and contraction.
    """
    ordered = sorted(graph.edges(), key=lambda e: (e[2], e[0], e[1]))
    normalized = WeightedGraph(graph.num_vertices)
    for order_index, (u, v, _) in enumerate(ordered):
        normalized.add_edge(u, v, float(order_index))
    return normalized


@dataclass
class PreparedMSFTheory:
    """Algorithm 2 preprocessing: normalization, ternarization, staging.

    ``normalized`` is the rank-index-weighted copy both branches start
    from.  For inputs that are sparse at preparation time
    (``m < n^(1 + eps/2)``) the ternarized graph and its DHT-resident
    sorted adjacency are staged too — the Ternarize and SortGraph
    shuffles plus the KV-write round every query would otherwise repeat.
    Everything here is seed-independent, so one artifact serves all seeds.
    """

    normalized: WeightedGraph
    tern: Optional[object] = None
    #: placed ``(vertex, weight-sorted incident edges)`` records
    records: Optional[List] = None
    store: Optional[DHTStore] = None


def prepare_msf_theory(graph: WeightedGraph, *,
                       runtime: Optional[AMPCRuntime] = None,
                       config: Optional[ClusterConfig] = None,
                       seed: int = 0,
                       epsilon: float = 0.5) -> PreparedMSFTheory:
    """Normalize, ternarize (sparse inputs) and stage the sorted adjacency.

    ``seed`` is accepted for interface uniformity but unused — ranks only
    drive the searches, not the staged graph.  The sparse/dense branch is
    decided here with ``epsilon`` (the registry calls it with the
    default); a run whose epsilon flips the branch re-prepares inline.
    """
    del seed
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    normalized = _order_normalized(graph)
    n, m = graph.num_vertices, graph.num_edges
    if m == 0 or m >= n ** (1.0 + epsilon / 2.0):
        return PreparedMSFTheory(normalized=normalized)

    with metrics.phase("Ternarize"):
        # Normalize to distinct rank-index weights first: ternarization
        # renames vertices, which would otherwise perturb tie-breaking.
        tern = ternarize(normalized)
        # Ternarization itself is a sorting step: one shuffle.
        runtime.cluster.charge_shuffle(8 * tern.graph.num_vertices)
    with metrics.phase("SortGraph"):
        nodes = runtime.pipeline.from_items(
            [(v, _sorted_incident(tern.graph, v))
             for v in tern.graph.vertices()]
        )
        placed = nodes.repartition(lambda record: record[0],
                                   name="place-sorted-graph")
    with metrics.phase("KV-Write"):
        store = runtime.new_store("tprim-adjacency")
        runtime.write_store(placed, store,
                            key_fn=lambda record: record[0],
                            value_fn=lambda record: record[1])
    runtime.next_round()
    return PreparedMSFTheory(normalized=normalized, tern=tern,
                             records=placed.collect(), store=store)


def ampc_msf_theory(graph: WeightedGraph, *,
                    runtime: Optional[AMPCRuntime] = None,
                    config: Optional[ClusterConfig] = None,
                    seed: int = 0,
                    epsilon: float = 0.5,
                    in_memory_threshold: int = 256,
                    prepared: Optional[PreparedMSFTheory] = None) -> MSFResult:
    """Algorithm 2: the O(1)-round theory MSF.

    Sparse graphs (m < n^(1 + eps/2)) are ternarized and fed to Algorithm 1;
    the contracted remainder goes to the dense routine.  Dense graphs go to
    the dense routine directly.  A ``prepared`` artifact (from
    :func:`prepare_msf_theory`) skips the Ternarize/SortGraph shuffles and
    the KV-write round; an artifact staged for the other branch (epsilon
    mismatch) is discarded and preparation reruns inline.
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics
    n, m = graph.num_vertices, graph.num_edges
    if m == 0:
        return MSFResult(forest=[], metrics=metrics, rounds=0)
    sparse = m < n ** (1.0 + epsilon / 2.0)
    if prepared is None or (prepared.tern is not None) != sparse:
        # No artifact, or one staged for the other branch (a cached
        # default-epsilon preparation handed to a run whose epsilon flips
        # the sparse/dense decision): prepare inline so that the branch —
        # and therefore the metrics — always match a direct call.
        prepared = prepare_msf_theory(graph, runtime=runtime,
                                      epsilon=epsilon)
    rounds_before = metrics.rounds
    # Logical rounds count the staging round (executed or cache-served);
    # the dense branch stages nothing, so it contributes none.
    prep_rounds = 1 if prepared.tern is not None else 0

    if prepared.tern is not None:
        tern = prepared.tern
        t_graph = tern.graph
        budget = _default_budget(t_graph.num_vertices, epsilon)
        prim_edges, contracted, contracted_n = truncated_prim_round(
            t_graph, runtime=runtime, seed=seed, budget=budget,
            prepared_records=prepared.records,
            prepared_store=prepared.store,
        )
        dense_edges = _dense_msf(
            contracted, runtime=runtime, seed=seed + 1, epsilon=epsilon,
            in_memory_threshold=in_memory_threshold,
        )
        ternarized_forest = set(prim_edges) | set(dense_edges)
        forest = sorted(set(tern.project_edges(ternarized_forest)))
        return MSFResult(forest=forest, metrics=metrics,
                         rounds=metrics.rounds - rounds_before + prep_rounds,
                         contracted_vertices=contracted_n,
                         prim_edges=len(prim_edges))

    records = [
        (w, u, v, u, v) for u, v, w in prepared.normalized.edges()
    ]
    forest = sorted(set(_dense_msf(
        records, runtime=runtime, seed=seed, epsilon=epsilon,
        in_memory_threshold=in_memory_threshold,
    )))
    return MSFResult(forest=forest, metrics=metrics,
                     rounds=metrics.rounds - rounds_before + prep_rounds)


# ---------------------------------------------------------------------------
# Registry spec (the Session/CLI entry point)
# ---------------------------------------------------------------------------


def _forest_weight(result: MSFResult, graph: WeightedGraph) -> float:
    if result.weight is None:
        result.weight = sum(graph.weight(u, v) for u, v in result.forest)
    return result.weight


def _summarize(result: MSFResult, graph: WeightedGraph) -> Dict[str, float]:
    return {
        "output_size": len(result.forest),
        "weight": _forest_weight(result, graph),
        "prim_edges": result.prim_edges,
        "contracted_vertices": result.contracted_vertices,
        "max_pointer_depth": result.max_pointer_depth,
        "rounds": result.rounds,
    }


def _describe(result: MSFResult, graph: WeightedGraph, params) -> str:
    return (f"minimum spanning forest: {len(result.forest)} edges, "
            f"weight {_forest_weight(result, graph):g}")


register_algorithm(AlgorithmSpec(
    name="msf",
    summary="minimum spanning forest",
    input_kind="weighted",
    run=ampc_msf,
    prepare=prepare_msf,
    update=update_msf,
    summarize=_summarize,
    describe=_describe,
    params=(
        ParamSpec("epsilon", float, 0.5,
                  "exploration-budget exponent (budget = n^(epsilon/2))"),
        ParamSpec("search_budget", int, None,
                  "explicit per-search exploration budget (overrides "
                  "epsilon)"),
    ),
    prep_seed_sensitive=False,  # weight-sorted adjacency ignores the seed
))


def _describe_theory(result: MSFResult, graph: WeightedGraph, params) -> str:
    return (f"minimum spanning forest (Algorithm 2): "
            f"{len(result.forest)} edges, "
            f"weight {_forest_weight(result, graph):g}")


register_algorithm(AlgorithmSpec(
    name="msf-theory",
    summary="minimum spanning forest, Algorithm 2 theory pipeline",
    input_kind="weighted",
    run=ampc_msf_theory,
    prepare=prepare_msf_theory,
    summarize=_summarize,
    describe=_describe_theory,
    params=(
        ParamSpec("epsilon", float, 0.5,
                  "exploration-budget exponent (budget = n^(epsilon/2))"),
        ParamSpec("in_memory_threshold", int, 256,
                  "edge count below which the dense routine finishes on "
                  "one machine"),
    ),
    prep_seed_sensitive=False,  # normalization/ternarization ignore the seed
))
