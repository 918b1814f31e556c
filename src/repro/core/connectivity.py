"""AMPC connectivity (Theorem 1) and forest connectivity (Proposition 3.2).

The paper obtains O(1)-round connectivity from the MSF algorithm: compute
any spanning forest (MSF under arbitrary weights), then resolve component
labels with the *forest connectivity* routine, which repeatedly shrinks the
forest by truncated local searches:

1. every vertex explores its tree (cheapest-first, up to a budget) until it
   meets a higher-priority vertex, producing a pointer;
2. pointer trees are contracted to their roots via pointer jumping;
3. the contracted forest repeats until no edges remain — O(1/epsilon)
   iterations, since each one shrinks the vertex count by ~n^epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ampc.cluster import ClusterConfig
from repro.ampc.metrics import Metrics
from repro.ampc.runtime import AMPCRuntime
from repro.api.incremental import touched_edges
from repro.api.registry import AlgorithmSpec, ParamSpec, register_algorithm
from repro.core.msf import (PreparedMSF, _PointerJump, ampc_msf, prepare_msf,
                            update_msf)
from repro.core.ranks import hash_rank
from repro.dataflow.dofn import DoFn
from repro.graph.graph import Graph, WeightedGraph, edge_key

EdgeId = Tuple[int, int]


@dataclass
class ConnectivityResult:
    """Component labels (one representative vertex id per component)."""

    labels: List[int]
    metrics: Metrics
    rounds: int = 0
    #: iterations the forest-connectivity loop needed
    iterations: int = 0
    #: spanning forest used (empty when called on a forest directly)
    forest: List[EdgeId] = field(default_factory=list)


class _ForestSearch(DoFn):
    """Truncated cheapest-id-first search within the forest.

    Stops on the exploration budget, on exhausting the tree, or on reaching
    a higher-priority (lower-rank) vertex — in which case it emits a
    pointer to it (the F edge of Proposition 3.2's shrink step).
    """

    def __init__(self, store, ranks: Dict[int, float], budget: int):
        self._store = store
        self._ranks = ranks
        self._budget = budget

    def process(self, element, ctx):
        vertex, neighbors = element
        ranks = self._ranks
        my_rank = (ranks[vertex], vertex)
        visited = {vertex}
        frontier = sorted(neighbors)
        while frontier:
            if len(visited) >= self._budget:
                break
            nxt = frontier.pop(0)
            if nxt in visited:
                continue
            visited.add(nxt)
            if (ranks[nxt], nxt) < my_rank:
                yield (vertex, nxt)
                return
            fetched = ctx.lookup(self._store, nxt) or ()
            for u in fetched:
                if u not in visited:
                    frontier.append(u)
            frontier.sort()


def ampc_forest_connectivity(num_vertices: int,
                             forest_edges: Iterable[EdgeId], *,
                             runtime: Optional[AMPCRuntime] = None,
                             config: Optional[ClusterConfig] = None,
                             seed: int = 0,
                             epsilon: float = 0.5,
                             max_iterations: int = 64) -> ConnectivityResult:
    """Proposition 3.2: component labels of a forest in O(1/epsilon) rounds."""
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    metrics = runtime.metrics

    #: global label composition: original vertex -> current representative
    label: List[int] = list(range(num_vertices))
    current_edges: List[EdgeId] = [edge_key(u, v) for u, v in forest_edges]
    iterations = 0
    while current_edges:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("forest connectivity did not converge")
        vertices = sorted({x for edge in current_edges for x in edge})
        ranks = {v: hash_rank(seed, iterations, v) for v in vertices}
        budget = max(2, math.ceil(len(vertices) ** (epsilon / 2.0)))

        # Adjacency of the current forest into the DHT (1 shuffle + write).
        adjacency: Dict[int, List[int]] = {v: [] for v in vertices}
        for u, v in current_edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        with metrics.phase("ForestAdjacency"):
            nodes = runtime.pipeline.from_items(
                [(v, tuple(sorted(nbrs))) for v, nbrs in adjacency.items()]
            ).repartition(lambda record: record[0], name="place-forest")
            store = runtime.new_store(f"forest-adj-i{iterations}")
            runtime.write_store(nodes, store,
                                key_fn=lambda record: record[0],
                                value_fn=lambda record: record[1])
        runtime.next_round()

        # Truncated searches produce pointers; jump them to roots.
        with metrics.phase("ForestSearch"):
            pointers = nodes.par_do(_ForestSearch(store, ranks, budget),
                                    name="forest-search")
        with metrics.phase("ForestPointerJump"):
            pointer_store = runtime.new_store(f"forest-ptr-i{iterations}")
            runtime.write_store(
                pointers.repartition(lambda p: p[0], name="place-ptrs"),
                pointer_store,
                key_fn=lambda p: p[0], value_fn=lambda p: p[1],
            )
            runtime.next_round()
            roots = runtime.pipeline.from_items(vertices).par_do(
                _PointerJump(pointer_store), name="forest-jump"
            )
        runtime.next_round()

        root_of = dict(roots.collect())
        # Compose into the global labels and contract the forest.
        for v in range(num_vertices):
            label[v] = root_of.get(label[v], label[v])
        contracted: Set[EdgeId] = set()
        for u, v in current_edges:
            ru, rv = root_of.get(u, u), root_of.get(v, v)
            if ru != rv:
                contracted.add(edge_key(ru, rv))
        current_edges = sorted(contracted)

    return ConnectivityResult(labels=label, metrics=metrics,
                              rounds=metrics.rounds, iterations=iterations)


@dataclass
class PreparedComponents:
    """Connectivity preprocessing: the rank-weighted graph's MSF input.

    Connectivity derives a weighted graph from hashed pseudo-random edge
    weights and runs the MSF pipeline on it; caching that derived graph
    plus its DHT-resident sorted adjacency skips the SortGraph shuffle on
    repeat runs.
    """

    seed: int
    weighted: WeightedGraph
    msf: "PreparedMSF"


def prepare_components(graph: Graph, *,
                       runtime: Optional[AMPCRuntime] = None,
                       config: Optional[ClusterConfig] = None,
                       seed: int = 0) -> PreparedComponents:
    """Derive the rank-weighted graph and stage its MSF preprocessing."""
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    weighted = WeightedGraph.from_graph(
        graph, lambda u, v: hash_rank(seed, *edge_key(u, v))
    )
    return PreparedComponents(
        seed=seed, weighted=weighted,
        msf=prepare_msf(weighted, runtime=runtime, seed=seed),
    )


def update_components(prepared: PreparedComponents, graph: Graph, *,
                      runtime: Optional[AMPCRuntime] = None,
                      config: Optional[ClusterConfig] = None,
                      seed: int = 0,
                      insertions=(), deletions=()) -> PreparedComponents:
    """Patch the connectivity preprocessing after an edge batch.

    The derived rank-weighted graph mirrors the input edge set with
    hashed per-edge weights, so a batch touches exactly the same edges
    there; the weighted twin is copied (a flat adjacency copy — no
    hashing, sorting or shuffling) and the MSF artifact is patched
    through :func:`~repro.core.msf.update_msf` in O(batch).
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    if prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this update uses seed {seed}"
        )
    weighted = prepared.weighted.copy()
    weighted_insertions = []
    weighted_deletions = []
    for a, b in touched_edges(insertions, deletions):
        present = graph.has_edge(a, b)
        if present and not weighted.has_edge(a, b):
            weight = hash_rank(seed, a, b)
            weighted.add_edge(a, b, weight)
            weighted_insertions.append((a, b, weight))
        elif not present and weighted.has_edge(a, b):
            weighted.remove_edge(a, b)
            weighted_deletions.append((a, b))
    return PreparedComponents(
        seed=seed, weighted=weighted,
        msf=update_msf(prepared.msf, weighted, runtime=runtime, seed=seed,
                       insertions=weighted_insertions,
                       deletions=weighted_deletions),
    )


def ampc_connected_components(graph: Graph, *,
                              runtime: Optional[AMPCRuntime] = None,
                              config: Optional[ClusterConfig] = None,
                              seed: int = 0,
                              epsilon: float = 0.5,
                              prepared: Optional[PreparedComponents] = None
                              ) -> ConnectivityResult:
    """Theorem 1 connectivity: spanning forest + forest connectivity.

    Uses the practical MSF pipeline on hashed pseudo-random edge weights
    (any spanning forest works; random weights keep the Prim searches
    balanced), then labels components with forest connectivity.  Section
    5.7 notes this route's cost is dominated by the MSF contraction — the
    same effect is visible in the returned metrics.
    """
    if runtime is None:
        runtime = AMPCRuntime(config=config)
    if prepared is None:
        prepared = prepare_components(graph, runtime=runtime, seed=seed)
    elif prepared.seed != seed:
        raise ValueError(
            f"prepared input was built for seed {prepared.seed}, "
            f"this run uses seed {seed}"
        )
    rounds_before = runtime.metrics.rounds
    msf_result = ampc_msf(prepared.weighted, runtime=runtime, seed=seed,
                          epsilon=epsilon, prepared=prepared.msf)
    forest_result = ampc_forest_connectivity(
        graph.num_vertices, msf_result.forest, runtime=runtime,
        seed=seed + 1, epsilon=epsilon,
    )
    return ConnectivityResult(
        labels=forest_result.labels,
        metrics=runtime.metrics,
        # round 1 is the MSF preparation (possibly cache-served)
        rounds=runtime.metrics.rounds - rounds_before + 1,
        iterations=forest_result.iterations,
        forest=msf_result.forest,
    )


# ---------------------------------------------------------------------------
# Registry spec (the Session/CLI entry point)
# ---------------------------------------------------------------------------


def _summarize(result: ConnectivityResult, graph: Graph) -> Dict[str, int]:
    return {
        "output_size": len(set(result.labels)),
        "iterations": result.iterations,
        "forest_size": len(result.forest),
        "rounds": result.rounds,
    }


def _describe(result: ConnectivityResult, graph: Graph, params) -> str:
    return (f"connected components: {len(set(result.labels))} "
            f"({result.iterations} forest-connectivity iterations)")


register_algorithm(AlgorithmSpec(
    name="components",
    summary="connected components",
    input_kind="graph",
    run=ampc_connected_components,
    prepare=prepare_components,
    update=update_components,
    summarize=_summarize,
    describe=_describe,
    params=(
        ParamSpec("epsilon", float, 0.5,
                  "exploration-budget exponent of the underlying MSF and "
                  "forest-connectivity searches"),
    ),
    prep_seed_sensitive=True,  # the derived edge weights depend on the seed
))
