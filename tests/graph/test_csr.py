"""CSR snapshots: the bulk edge-column constructor and the empty cases."""

import numpy as np
import pytest

from repro.ampc.cluster import ClusterConfig
from repro.api import Session
from repro.graph.csr import CSRAdjacency
from repro.graph.generators import degree_weighted, erdos_renyi_gnm
from repro.graph.graph import Graph, WeightedGraph


def test_edge_columns_build_what_the_graph_snapshots():
    graph = degree_weighted(erdos_renyi_gnm(30, 70, seed=4))
    us, vs, ws = zip(*graph.edges())
    built = CSRAdjacency.from_edge_arrays(30, us, vs, ws)
    assert built.signature_bytes() == graph.csr().signature_bytes()
    assert built.neighbor_weights(7) == sorted(graph.neighbor_items(7))


@pytest.mark.parametrize("us, vs, ws, message", [
    ([0, 1, 2], [1, 2], None, r"vs has 2 entries, us has 3"),
    ([0, 1], [1, 2], [0.5], r"ws has 1 entries, us has 2"),
    ([0, 3], [1, 2], None, r"us\[1\] = 3 is not a vertex id in \[0, 3\)"),
    ([0, 1], [1, -2], None, r"vs\[1\] = -2 is not a vertex id in \[0, 3\)"),
], ids=["short-vs", "short-ws", "endpoint-too-large", "negative-endpoint"])
def test_malformed_edge_columns_are_rejected(us, vs, ws, message):
    with pytest.raises(ValueError, match=message):
        CSRAdjacency.from_edge_arrays(3, us, vs, ws)


def test_a_vertexless_weighted_graph_snapshots_as_weighted():
    snapshot = WeightedGraph(0).csr()
    assert snapshot.num_vertices == 0
    assert snapshot.weights is not None
    assert snapshot.weights.dtype == np.float64 and len(snapshot.weights) == 0
    assert Graph(0).csr().weights is None
    result = Session(ClusterConfig(num_machines=3)).run("msf",
                                                        WeightedGraph(0))
    assert result.summary["output_size"] == 0
