"""CSR (compressed sparse row) adjacency: the flat columnar graph core.

A :class:`CSRAdjacency` is an immutable snapshot of a graph's adjacency as
three flat columns — ``indptr`` (n+1 row offsets), ``indices`` (neighbor
ids, sorted ascending within each row, both directions of every undirected
edge), and optionally ``weights`` aligned with ``indices``.  Flat columns
are what the vectorized prepare stages and the batch DHT record layout
consume: one lexsort over a column replaces tens of thousands of
per-vertex Python sorts.

The columns are numpy ``int64``/``float64`` arrays; ``tobytes()`` of each
is the content-stable fingerprint payload.

:class:`CSRGraph` is a read-only graph over a CSR snapshot, quacking like
:class:`~repro.graph.graph.Graph` for every read path the algorithms use.
It exists for the millions-of-vertices serving scenario: built directly
from edge columns (no per-vertex ``set`` objects, ~30 bytes/edge instead
of ~250), fingerprinted from the raw buffers, never journaled.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRAdjacency", "CSRGraph"]


def _edge_column(name: str, values, dtype, length: int):
    """An outside edge column as a flat ``dtype`` array of ``length``."""
    column = np.asarray(values, dtype=dtype)
    if len(column) != length:
        raise ValueError(f"{name} has {len(column)} entries, us has "
                         f"{length}: edge columns must be parallel")
    return column


def _check_endpoints(name: str, column, num_vertices: int) -> None:
    bad = np.flatnonzero((column < 0) | (column >= num_vertices))
    if len(bad):
        raise ValueError(
            f"{name}[{int(bad[0])}] = {int(column[bad[0]])} is not a vertex "
            f"id in [0, {num_vertices})")


def _sorted_rows(adj: Sequence):
    """Each row's neighbor ids sorted, as lists and as CSR columns."""
    rows = [sorted(row) for row in adj]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                          count=int(indptr[-1]))
    return rows, indptr, indices


class CSRAdjacency:
    """Immutable flat-column adjacency snapshot (see module docstring)."""

    __slots__ = ("num_vertices", "indptr", "indices", "weights")

    def __init__(self, indptr, indices, weights=None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = (None if weights is None
                        else np.asarray(weights, dtype=np.float64))
        self.num_vertices = len(self.indptr) - 1
        if self.weights is not None and \
                len(self.weights) != len(self.indices):
            raise ValueError("weights must align with indices")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_adjacency(cls, adj: Sequence[set]) -> "CSRAdjacency":
        """Snapshot a ``Graph._adj`` (one neighbor set per vertex).

        Rows come out sorted by neighbor id, matching ``neighbors()``.
        """
        _, indptr, indices = _sorted_rows(adj)
        return cls(indptr, indices)

    @classmethod
    def from_weighted_adjacency(cls, adj: Sequence[dict]) -> "CSRAdjacency":
        """Snapshot a ``WeightedGraph._adj`` (one ``{neighbor: weight}``
        dict per vertex); ``weights`` is a float64 column even when there
        is no row to read a weight from."""
        rows, indptr, indices = _sorted_rows(adj)
        weights = np.fromiter(
            chain.from_iterable(map(row.__getitem__, neighbors)
                                for row, neighbors in zip(adj, rows)),
            dtype=np.float64, count=len(indices))
        return cls(indptr, indices, weights)

    @classmethod
    def from_edge_arrays(cls, num_vertices: int, us, vs,
                         ws=None) -> "CSRAdjacency":
        """Build from columns of canonical undirected edges.

        ``us``/``vs`` (and optionally ``ws``) are parallel columns, one
        entry per undirected edge, endpoints already deduplicated and
        self-loop free.  This is the bulk constructor the million-vertex
        generator uses: O(m) array work, no per-vertex containers.
        Columns of unequal length and endpoints outside ``[0,
        num_vertices)`` raise :class:`ValueError`.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = _edge_column("vs", vs, np.int64, len(us))
        _check_endpoints("us", us, num_vertices)
        _check_endpoints("vs", vs, num_vertices)
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        order = np.lexsort((dst, src))
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        weights = None
        if ws is not None:
            ws = _edge_column("ws", ws, np.float64, len(us))
            weights = np.concatenate([ws, ws])[order]
        return cls(indptr, dst[order], weights)

    # -- reads -------------------------------------------------------------

    @property
    def num_directed_edges(self) -> int:
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(np.diff(self.indptr).max())

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbor tuple of ``v`` (plain Python ints)."""
        start, stop = self.indptr[v], self.indptr[v + 1]
        return tuple(self.indices[start:stop].tolist())

    def neighbor_weights(self, v: int) -> List[Tuple[int, float]]:
        """``(neighbor, weight)`` pairs of ``v`` sorted by neighbor id."""
        if self.weights is None:
            raise ValueError("unweighted CSR has no weights")
        start, stop = self.indptr[v], self.indptr[v + 1]
        return list(zip(self.indices[start:stop].tolist(),
                        self.weights[start:stop].tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        start, stop = self.indptr[u], self.indptr[u + 1]
        row = self.indices
        # binary search within the sorted row
        lo, hi = int(start), int(stop)
        while lo < hi:
            mid = (lo + hi) // 2
            value = row[mid]
            if value < v:
                lo = mid + 1
            elif value > v:
                hi = mid
            else:
                return True
        return False

    def signature_bytes(self) -> bytes:
        """Raw column bytes, the content-stable fingerprint payload."""
        parts = [self.indptr.tobytes(), self.indices.tobytes()]
        if self.weights is not None:
            parts.append(self.weights.tobytes())
        return b"".join(parts)


class CSRGraph:
    """A read-only unweighted graph over a CSR snapshot.

    Implements the read API the algorithms and the Session use
    (``num_vertices``/``num_edges``/``vertices``/``neighbors``/``degree``/
    ``max_degree``/``has_edge``/``edges``/``csr``).  Mutation is out of
    scope: ``content_version`` is fixed and ``delta_since`` always reports
    "history lost", so incremental consumers fall back to a full rebuild.
    """

    def __init__(self, csr: CSRAdjacency):
        if csr.weights is not None:
            raise ValueError("CSRGraph is unweighted; got a weighted CSR")
        self._csr = csr
        self.content_version = 0

    @classmethod
    def from_edge_arrays(cls, num_vertices: int, us, vs) -> "CSRGraph":
        return cls(CSRAdjacency.from_edge_arrays(num_vertices, us, vs))

    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        return cls(graph.csr())

    def csr(self) -> CSRAdjacency:
        return self._csr

    @property
    def num_vertices(self) -> int:
        return self._csr.num_vertices

    @property
    def num_edges(self) -> int:
        return self._csr.num_edges

    def vertices(self) -> range:
        return range(self._csr.num_vertices)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._check_vertex(v)
        return self._csr.neighbors(v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._csr.degree(v)

    def max_degree(self) -> int:
        return self._csr.max_degree()

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._csr.num_vertices):
            return False
        return self._csr.has_edge(u, v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        indptr, indices = self._csr.indptr, self._csr.indices
        for u in range(self._csr.num_vertices):
            for position in range(indptr[u], indptr[u + 1]):
                v = int(indices[position])
                if u < v:
                    yield (u, v)

    # -- journal protocol: immutable, so history is always "lost" ----------

    @property
    def journal_limit(self) -> int:
        return 0

    @property
    def journal_floor(self) -> int:
        return 0

    def delta_since(self, version: Optional[int]):
        return None

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._csr.num_vertices):
            raise IndexError(
                f"vertex {v} out of range [0, {self._csr.num_vertices})")
