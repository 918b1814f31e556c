"""Core graph data structures.

Vertices are dense integers ``0..n-1``.  Both classes store an adjacency map
per vertex; :class:`WeightedGraph` maps each neighbor to the edge weight.
Insertion order is deterministic, and all algorithms in the repository that
depend on ordering sort explicitly, so results are reproducible across runs.

Both classes keep an **edge-delta journal**: every edge mutation appends an
``(op, u, v[, w])`` record keyed by the ``content_version`` it produced, so
a consumer holding an older version (a Session cache entry, a serving
worker) can recover the exact mutation batch between two versions with
:meth:`Graph.delta_since` — in O(batch), without an O(m) edge-set diff.
The journal is bounded (:attr:`Graph.journal_limit`); once trimmed past the
requested version, ``delta_since`` returns None and consumers fall back to
a full diff-by-fingerprint (i.e. a from-scratch re-prepare).  Mutations the
journal does not model (``add_vertex``) invalidate it entirely.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

EdgeTuple = Tuple[int, int]
WeightedEdgeTuple = Tuple[int, int, float]

#: default cap on retained journal records (see :attr:`Graph.journal_limit`)
DEFAULT_JOURNAL_LIMIT = 4096


def edge_key(u: int, v: int) -> EdgeTuple:
    """Canonical undirected edge identifier ``(min(u, v), max(u, v))``."""
    if u <= v:
        return (u, v)
    return (v, u)


class _JournalMixin:
    """The bounded edge-delta journal shared by both graph classes.

    ``_journal`` holds ``(content_version, op_record)`` pairs in version
    order; ``_journal_floor`` is the oldest version the journal can still
    replay *from*.  The invariant: every content_version bump greater than
    the floor has exactly one journal record.
    """

    def _init_journal(self) -> None:
        self._journal: List[Tuple[int, Tuple]] = []
        self._journal_floor = 0
        self._journal_limit = DEFAULT_JOURNAL_LIMIT

    @property
    def journal_limit(self) -> int:
        """Max retained journal records; 0 disables journaling entirely."""
        return self._journal_limit

    @journal_limit.setter
    def journal_limit(self, limit: int) -> None:
        self._journal_limit = max(0, int(limit))
        if self._journal_limit == 0:
            self._invalidate_journal()
        elif len(self._journal) > self._journal_limit:
            self._trim_journal(len(self._journal) - self._journal_limit)

    @property
    def journal_floor(self) -> int:
        """The oldest ``content_version`` :meth:`delta_since` can serve."""
        return self._journal_floor

    def _record(self, op: Tuple) -> None:
        """Journal one mutation; call *after* bumping content_version."""
        limit = self._journal_limit
        if limit <= 0:
            self._journal_floor = self.content_version
            return
        self._journal.append((self.content_version, op))
        # Trim in blocks so graph construction stays amortized O(1) per
        # edge (a per-append del of one element would be O(limit) each).
        if len(self._journal) >= 2 * limit:
            self._trim_journal(len(self._journal) - limit)

    def _trim_journal(self, drop: int) -> None:
        self._journal_floor = self._journal[drop - 1][0]
        del self._journal[:drop]

    def _invalidate_journal(self) -> None:
        """Forget all history (a mutation the journal does not model)."""
        self._journal.clear()
        self._journal_floor = self.content_version

    def delta_since(self, version: Optional[int]) -> Optional[List[Tuple]]:
        """Edge mutations after ``version``, oldest first; None if lost.

        Records are ``("add", u, v)`` / ``("remove", u, v)`` (plus the
        weight on weighted adds and ``("weight", u, v, w)`` for in-place
        weight changes), endpoints in canonical ``u < v`` order.  Returns
        ``[]`` when ``version`` is current, and None when the journal was
        truncated past ``version`` (or ``version`` is unknown) — the
        caller must fall back to a full rebuild.
        """
        if version is None or not isinstance(version, int):
            return None
        if version == self.content_version:
            return []
        if version < self._journal_floor or version > self.content_version:
            return None
        # the journal is version-sorted: O(log journal + batch)
        start = bisect_right(self._journal, version,
                             key=lambda entry: entry[0])
        return [op for _v, op in self._journal[start:]]


class Graph(_JournalMixin):
    """An undirected, unweighted graph over vertices ``0..n-1``.

    The representation is an adjacency set per vertex.  Self loops are
    rejected; parallel edges collapse.  ``num_vertices`` counts the vertex-id
    space, including isolated vertices.
    """

    def __init__(self, num_vertices: int = 0):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._adj: List[set] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        #: bumped by every mutator; a cheap staleness signal that lets
        #: consumers (e.g. the Session fingerprint memo) skip re-walking
        #: an unchanged graph
        self.content_version = 0
        self._init_journal()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[EdgeTuple]) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs."""
        graph = cls(num_vertices)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_vertex(self) -> int:
        """Append a fresh vertex and return its id."""
        self.content_version += 1
        self._adj.append(set())
        # Vertex-space growth is outside the edge-delta model: artifacts
        # keyed per vertex (ranks, records) change shape, so consumers
        # must rebuild from scratch.
        self._invalidate_journal()
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``{u, v}``; returns False if it already existed."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self loop on vertex {u} is not allowed")
        if v in self._adj[u]:
            return False
        self.content_version += 1
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._record(("add",) + edge_key(u, v))
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove undirected edge ``{u, v}``; raises KeyError if absent."""
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1
        self.content_version += 1
        self._record(("remove",) + edge_key(u, v))

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < len(self._adj)):
            return False
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbors of ``v`` in sorted order (deterministic)."""
        return tuple(sorted(self._adj[v]))

    def vertices(self) -> range:
        return range(len(self._adj))

    def edges(self) -> Iterator[EdgeTuple]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u, neighbors in enumerate(self._adj):
            for v in sorted(neighbors):
                if u < v:
                    yield (u, v)

    def subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``vertices``; returns (graph, old->new id map)."""
        ordered = sorted(set(vertices))
        if ordered:
            # ordered is sorted, so the extremes bound every id (and catch
            # negative ids before Python's reverse indexing would).
            self._check_vertex(ordered[0])
            self._check_vertex(ordered[-1])
        relabel = {old: new for new, old in enumerate(ordered)}
        sub = Graph(len(ordered))
        sub._journal_limit = self._journal_limit
        for old in ordered:
            for neighbor in self._adj[old]:
                if neighbor in relabel and old < neighbor:
                    sub.add_edge(relabel[old], relabel[neighbor])
        return sub, relabel

    def copy(self) -> "Graph":
        clone = Graph(self.num_vertices)
        clone._adj = [set(neighbors) for neighbors in self._adj]
        clone._num_edges = self._num_edges
        clone._journal_limit = self._journal_limit
        return clone

    def csr(self):
        """Flat CSR snapshot of the adjacency, cached per content_version.

        The columnar fast paths (vectorized prepare stages, buffer-based
        fingerprints) all start from this snapshot; repeat calls on an
        unmutated graph are free.
        """
        from repro.graph.csr import CSRAdjacency
        cache = getattr(self, "_csr_cache", None)
        if cache is not None and cache[0] == self.content_version:
            return cache[1]
        snapshot = CSRAdjacency.from_adjacency(self._adj)
        self._csr_cache = (self.content_version, snapshot)
        return snapshot

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._adj)):
            raise IndexError(f"vertex {v} out of range [0, {len(self._adj)})")


class WeightedGraph(_JournalMixin):
    """An undirected graph with one float weight per edge.

    Edge weights need not be distinct: every ordering-sensitive consumer uses
    :meth:`weight_order_key`, a strict total order that breaks ties by the
    canonical endpoint pair.  Under this order the minimum spanning forest is
    unique, which Section 3 of the paper assumes throughout.
    """

    def __init__(self, num_vertices: int = 0):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._adj: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0
        #: see :attr:`Graph.content_version`
        self.content_version = 0
        self._init_journal()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[WeightedEdgeTuple]
    ) -> "WeightedGraph":
        graph = cls(num_vertices)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    @classmethod
    def from_graph(cls, graph: Graph, weight_fn=None) -> "WeightedGraph":
        """Lift an unweighted graph; ``weight_fn(u, v) -> float`` (default 1)."""
        weighted = cls(graph.num_vertices)
        weighted._journal_limit = graph.journal_limit
        for u, v in graph.edges():
            weight = 1.0 if weight_fn is None else weight_fn(u, v)
            weighted.add_edge(u, v, weight)
        return weighted

    def add_vertex(self) -> int:
        self.content_version += 1
        self._adj.append(dict())
        self._invalidate_journal()  # see Graph.add_vertex
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int, weight: float) -> bool:
        """Add edge ``{u, v}``; on a duplicate, keeps the smaller weight."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self loop on vertex {u} is not allowed")
        existing = self._adj[u].get(v)
        if existing is not None:
            if weight < existing:
                self.content_version += 1
                self._adj[u][v] = weight
                self._adj[v][u] = weight
                self._record(("weight",) + edge_key(u, v) + (weight,))
            return False
        self.content_version += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._num_edges += 1
        self._record(("add",) + edge_key(u, v) + (weight,))
        return True

    def remove_edge(self, u: int, v: int) -> float:
        """Remove edge ``{u, v}``; returns its weight, KeyError if absent."""
        weight = self._adj[u].pop(v)
        del self._adj[v][u]
        self._num_edges -= 1
        self.content_version += 1
        self._record(("remove",) + edge_key(u, v))
        return weight

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < len(self._adj)):
            return False
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def neighbor_items(self, v: int) -> List[Tuple[int, float]]:
        """``(neighbor, weight)`` pairs sorted by the edge total order."""
        items = [(w, u) for u, w in self._adj[v].items()]
        items.sort(key=lambda pair: (pair[0],) + edge_key(v, pair[1]))
        return [(u, w) for w, u in items]

    def vertices(self) -> range:
        return range(len(self._adj))

    def edges(self) -> Iterator[WeightedEdgeTuple]:
        for u, neighbors in enumerate(self._adj):
            for v in sorted(neighbors):
                if u < v:
                    yield (u, v, neighbors[v])

    def weight_order_key(self, u: int, v: int) -> Tuple[float, int, int]:
        """Strict total order on edges: weight, then canonical endpoints."""
        return (self._adj[u][v],) + edge_key(u, v)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    def unweighted(self) -> Graph:
        """Forget the weights."""
        graph = Graph(self.num_vertices)
        graph._journal_limit = self._journal_limit
        for u, v, _ in self.edges():
            graph.add_edge(u, v)
        return graph

    def subgraph_edges(
        self, edges: Iterable[EdgeTuple]
    ) -> "WeightedGraph":
        """Same vertex set, keeping only the given edges (weights copied)."""
        sub = WeightedGraph(self.num_vertices)
        sub._journal_limit = self._journal_limit
        for u, v in edges:
            sub.add_edge(u, v, self._adj[u][v])
        return sub

    def copy(self) -> "WeightedGraph":
        clone = WeightedGraph(self.num_vertices)
        clone._adj = [dict(neighbors) for neighbors in self._adj]
        clone._num_edges = self._num_edges
        clone._journal_limit = self._journal_limit
        return clone

    def csr(self):
        """Weighted CSR snapshot (weights aligned), cached per version."""
        from repro.graph.csr import CSRAdjacency
        cache = getattr(self, "_csr_cache", None)
        if cache is not None and cache[0] == self.content_version:
            return cache[1]
        snapshot = CSRAdjacency.from_weighted_adjacency(self._adj)
        self._csr_cache = (self.content_version, snapshot)
        return snapshot

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._adj)):
            raise IndexError(f"vertex {v} out of range [0, {len(self._adj)})")
