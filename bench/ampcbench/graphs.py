"""Benchmark inputs: graphs built through the public graph API only.

The graphs themselves are fixed (SYN-64K and the OK-S analogue at a few
scales), so that a metric's run-to-run spread reflects the machine and
not the input; what ``--seed`` draws is the traffic — op order, which
graph each op hits, and which edges every update batch deletes and
inserts.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from repro.analysis.datasets import build_dataset, dataset_spec
from repro.graph.generators import degree_weighted
from repro.graph.graph import Graph, WeightedGraph

#: edges deleted, and edges inserted, by every update batch
BATCH_EDGES = 8


def syn_graph(num_vertices: int) -> Graph:
    """The ``session.run/mis/SYN-1M`` recipe at ``num_vertices``.

    A ring plus an arithmetic chord on every fifth vertex; built with
    ``add_edge`` (the public API), not by filling adjacency sets.
    """
    graph = Graph(num_vertices)
    for u in range(num_vertices):
        graph.add_edge(u, (u + 1) % num_vertices)
    for u in range(0, num_vertices, 5):
        v = (u * 48271 + 11) % num_vertices
        if v != u:
            graph.add_edge(u, v)  # add_edge ignores an existing edge
    return graph


def ok_s(scale: float) -> Graph:
    """A private OK-S instance (``load_dataset`` shares one per scale,
    and the update workloads mutate theirs)."""
    return build_dataset(dataset_spec("OK-S"), scale)


class BenchGraph:
    """A named graph plus the bookkeeping update batches need.

    ``version`` counts the batches applied so far; together with the
    name it identifies the content an op ran against, which is what the
    pinned expectations are keyed by.  ``edges`` mirrors the graph's
    edge set so a batch is drawn in O(batch), not O(m).
    """

    def __init__(self, name: str, graph: Any, primary: bool = True):
        self.name = name
        self.graph = graph
        #: whether cold runs on this graph count towards ``cold_*_ms``: a
        #: workload serving several scales of OK-S reports the full-scale
        #: one, so that the median is over runs of one size
        self.primary = primary
        self.weighted = isinstance(graph, WeightedGraph)
        self.version = 0
        self.edges: List[Tuple[int, int]] = [
            (edge[0], edge[1]) for edge in graph.edges()]

    def weighted_twin(self, name: str) -> "BenchGraph":
        """The paper's deg(u)+deg(v) weighting of this graph, as its own
        graph (msf's input)."""
        return BenchGraph(name, degree_weighted(self.graph))

    def draw_batch(self, rng: random.Random
                   ) -> Tuple[List[Tuple], List[Tuple[int, int]]]:
        """-> (insertions, deletions) valid against the current content.

        Deletes ``BATCH_EDGES`` existing edges and inserts as many absent
        ones (with integer weights on a weighted graph).  The mirror is
        advanced here, so the caller must apply the batch to the graph.
        """
        edges = self.edges
        graph = self.graph
        deletions = []
        for _ in range(BATCH_EDGES):
            index = rng.randrange(len(edges))
            edges[index], edges[-1] = edges[-1], edges[index]
            deletions.append(edges.pop())
        insertions: List[Tuple] = []
        chosen = set(deletions)  # a batch never re-inserts what it deletes
        n = graph.num_vertices
        while len(insertions) < BATCH_EDGES:
            u, v = rng.randrange(n), rng.randrange(n)
            key = (min(u, v), max(u, v))
            if u == v or key in chosen or graph.has_edge(u, v):
                continue
            chosen.add(key)
            insertions.append(
                key + (float(rng.randint(1, 64)),) if self.weighted else key)
        edges.extend((row[0], row[1]) for row in insertions)
        self.version += 1
        return insertions, deletions

    def apply_locally(self, insertions, deletions) -> None:
        """Mutate this copy (the mirror of a graph living in a server)."""
        for u, v in deletions:
            self.graph.remove_edge(u, v)
        for row in insertions:
            self.graph.add_edge(*row)
