"""Dynamic-graph serving: the ``update`` op and worker respawn.

Updates flow through every serving layer — thread service, JSON-lines
protocol, process pool — and the process pool ships **deltas by
fingerprint pair** (never re-pickling the graph) and respawns crashed
workers in place.
"""

import io
import json
import time

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.api import Session
from repro.graph.generators import erdos_renyi_gnm
from repro.serve import GraphService, ProcessGraphService, serve_stream

CONFIG = ClusterConfig(num_machines=4)
PROCESSES = 2


def _graph():
    return erdos_renyi_gnm(30, 80, seed=6)


def _batch(graph, count=3):
    edges = list(graph.edges())
    return [(u, v) for u, v in edges[:count]]


class TestGraphServiceUpdate:
    def test_update_then_query_matches_scratch(self):
        with GraphService(CONFIG, workers=2) as service:
            graph = _graph()
            service.load("g", graph)
            service.query("mis", "g", seed=1)
            deletions = _batch(graph)
            handle = service.update("g", deletions=deletions)
            assert handle.num_edges == 77
            result = service.query("mis", "g", seed=1)
            stats = service.stats()
            assert stats["incremental_updates"] == 1
            assert stats["full_prepares"] == 1
            scratch = Session(CONFIG).run("mis", graph, seed=1)
            assert (result.output.independent_set
                    == scratch.output.independent_set)

    def test_update_unknown_graph_raises(self):
        with GraphService(CONFIG, workers=1) as service:
            with pytest.raises(KeyError):
                service.update("nope", deletions=[(0, 1)])

    def test_update_invalidates_degree_weighted_derivation(self):
        with GraphService(CONFIG, workers=2) as service:
            graph = _graph()
            service.load("g", graph)
            service.query("msf", "g", seed=1)  # builds g#degree-weighted
            deletions = _batch(graph)
            service.update("g", deletions=deletions)
            result = service.query("msf", "g", seed=1)
            from repro.graph.generators import degree_weighted
            scratch = Session(CONFIG).run("msf", degree_weighted(graph),
                                          seed=1)
            assert result.output.forest == scratch.output.forest


class TestProtocolUpdate:
    def test_stream_update_round_trip(self):
        graph = _graph()
        edges = [[u, v] for u, v in graph.edges()]
        requests = [
            {"op": "load", "name": "g", "edges": edges, "id": 1},
            {"op": "run", "algorithm": "mis", "graph": "g", "seed": 1,
             "id": 2},
            {"op": "update", "graph": "g", "deletions": edges[:3],
             "insertions": [], "id": 3},
            {"op": "run", "algorithm": "mis", "graph": "g", "seed": 1,
             "id": 4},
            {"op": "stats", "id": 5},
            {"op": "shutdown", "id": 6},
        ]
        output = io.StringIO()
        with GraphService(CONFIG, workers=2) as service:
            serve_stream(
                service,
                io.StringIO("\n".join(json.dumps(r) for r in requests)
                            + "\n"),
                output)
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True] * 6
        update = responses[2]
        assert update["edges"] == len(edges) - 3
        assert update["deletions"] == 3
        assert update["fingerprint"] != responses[0]["fingerprint"]
        assert responses[4]["stats"]["incremental_updates"] == 1
        # the post-update run really ran on the mutated graph
        for u, v in edges[:3]:
            graph.remove_edge(u, v)
        scratch = Session(CONFIG).run("mis", graph, seed=1)
        assert (responses[3]["result"]["summary"]["output_size"]
                == len(scratch.output.independent_set))

    def test_update_requires_arrays(self):
        with GraphService(CONFIG, workers=1) as service:
            service.load("g", _graph())
            from repro.serve.protocol import handle_request
            response = handle_request(
                service, {"op": "update", "graph": "g", "deletions": "x"})
            assert not response["ok"]


class TestProcpoolUpdate:
    def test_delta_ships_by_fingerprint_pair(self):
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            graph = _graph()
            service.load("g", graph)
            service.query("mis", "g", seed=1, timeout=300)
            shipped = service.stats(timeout=60)["graphs_shipped"]
            deletions = _batch(graph)
            handle = service.update("g", deletions=deletions)
            assert handle.fingerprint != handle.ancestors[-1][1]
            result = service.query("mis", "g", seed=1, timeout=300)
            stats = service.stats(timeout=60)
            # the mutated graph was NOT re-pickled to the worker
            assert stats["graphs_shipped"] == shipped
            assert stats["updates"] == 1
            assert stats["incremental_updates"] == 1
            scratch = Session(CONFIG).run("mis", graph, seed=1)
            assert (result.output.independent_set
                    == scratch.output.independent_set)

    def test_update_before_any_query_ships_lazily(self):
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            graph = _graph()
            service.load("g", graph)
            service.update("g", deletions=_batch(graph))
            result = service.query("mis", "g", seed=1, timeout=300)
            scratch = Session(CONFIG).run("mis", graph, seed=1)
            assert (result.output.independent_set
                    == scratch.output.independent_set)

    def test_update_unknown_graph_raises(self):
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            with pytest.raises(KeyError):
                service.update("nope", deletions=[(0, 1)])


class TestWorkerRespawn:
    def test_dead_worker_is_replaced_and_reshipped(self):
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            graph = _graph()
            service.load("g", graph)
            warm = service.query("mis", "g", seed=0, timeout=300)
            victim = next(c for c in service._clients if c.shipped)
            index = victim.index
            victim.process.terminate()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                replacement = service._clients[index]
                if replacement is not victim and replacement.alive:
                    break
                time.sleep(0.05)
            replacement = service._clients[index]
            assert replacement is not victim, "worker was not respawned"
            # the pool is back at full strength and the graph re-ships
            # lazily on the next query routed to the replacement
            result = service.query("mis", "g", seed=0, timeout=300)
            assert (result.output.independent_set
                    == warm.output.independent_set)
            stats = service.stats(timeout=60)
            assert stats["workers_respawned"] == 1
            assert stats["processes"] == PROCESSES
            alive = [c for c in service._clients if c.alive]
            assert len(alive) == PROCESSES

    def test_respawned_worker_serves_updates(self):
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            graph = _graph()
            service.load("g", graph)
            service.query("mis", "g", seed=0, timeout=300)
            victim = next(c for c in service._clients if c.shipped)
            index = victim.index
            victim.process.terminate()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if (service._clients[index] is not victim
                        and service._clients[index].alive):
                    break
                time.sleep(0.05)
            # updates skip the dead resident set; the next query ships
            # the already-mutated graph
            service.update("g", deletions=_batch(graph))
            result = service.query("mis", "g", seed=0, timeout=300)
            scratch = Session(CONFIG).run("mis", graph, seed=0)
            assert (result.output.independent_set
                    == scratch.output.independent_set)
