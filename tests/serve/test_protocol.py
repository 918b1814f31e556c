"""JSON-lines protocol tests: stdio stream, TCP server, error reporting."""

import io
import json
import socket
import threading

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.graph.generators import erdos_renyi_gnm
from repro.serve import GraphService, handle_request, serve_socket, serve_stream

CONFIG = ClusterConfig(num_machines=3)
GRAPH = erdos_renyi_gnm(24, 50, seed=1)
EDGES = [[u, v] for u, v in GRAPH.edges()]


@pytest.fixture()
def service():
    with GraphService(CONFIG, workers=2) as svc:
        yield svc


def _drive(service, requests):
    output = io.StringIO()
    serve_stream(
        service,
        io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
        output,
    )
    return [json.loads(line) for line in output.getvalue().splitlines()]


class TestStream:
    def test_load_run_stats_shutdown(self, service):
        responses = _drive(service, [
            {"op": "load", "name": "g", "edges": EDGES, "id": 1},
            {"op": "run", "algorithm": "mis", "graph": "g", "seed": 2,
             "id": 2},
            {"op": "run", "algorithm": "mis", "graph": "g", "seed": 2,
             "id": 3},
            {"op": "stats", "id": 4},
            {"op": "shutdown", "id": 5},
        ])
        assert [r["ok"] for r in responses] == [True] * 5
        assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
        assert responses[0]["vertices"] == GRAPH.num_vertices
        assert responses[0]["edges"] == GRAPH.num_edges
        cold, warm = responses[1]["result"], responses[2]["result"]
        assert cold["summary"] == warm["summary"]
        assert not cold["preprocessing_reused"]
        assert warm["preprocessing_reused"]
        assert warm["graph_name"] == "g"
        assert responses[3]["stats"]["runs"] == 2
        assert responses[4]["bye"]

    def test_weighted_inline_edges(self, service):
        responses = _drive(service, [
            {"op": "load", "name": "w",
             "edges": [[0, 1, 2.0], [1, 2, 1.0], [0, 2, 3.0]]},
            {"op": "run", "algorithm": "msf", "graph": "w"},
        ])
        assert responses[1]["ok"]
        assert responses[1]["result"]["summary"]["output_size"] == 2
        assert responses[1]["result"]["summary"]["weight"] == 3.0

    def test_load_from_file(self, service, tmp_path):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(GRAPH, path)
        responses = _drive(service, [
            {"op": "load", "name": "g", "path": str(path)},
            {"op": "run", "algorithm": "components", "graph": "g"},
        ])
        assert all(r["ok"] for r in responses)

    def test_errors_are_reported_not_fatal(self, service):
        responses = _drive(service, [
            {"op": "load", "name": "g", "edges": EDGES},
            {"op": "run", "algorithm": "frobnicate", "graph": "g", "id": 1},
            {"op": "run", "algorithm": "mis", "graph": "missing", "id": 2},
            {"op": "run", "algorithm": "mis", "graph": "g",
             "params": {"bogus": 1}, "id": 3},
            {"op": "load", "name": "x", "id": 4},
            {"op": "nonsense", "id": 5},
            {"op": "run", "algorithm": "mis", "graph": "g", "id": 6},
        ])
        assert [r["ok"] for r in responses] == [
            True, False, False, False, False, False, True,
        ]
        assert "unknown algorithm" in responses[1]["error"]
        assert "no graph loaded" in responses[2]["error"]
        assert "unexpected parameter" in responses[3]["error"]
        assert "'edges' or 'path'" in responses[4]["error"]
        assert "unknown op" in responses[5]["error"]

    def test_invalid_json_line(self, service):
        output = io.StringIO()
        serve_stream(service, io.StringIO("this is not json\n"), output)
        response = json.loads(output.getvalue())
        assert not response["ok"]
        assert "invalid JSON" in response["error"]

    def test_handle_request_rejects_non_objects(self, service):
        response = handle_request(service, ["not", "an", "object"])
        assert not response["ok"]


class TestLoadShaping:
    """The wire half of admission control and deadlines: structured
    errors on the line, never a connection teardown."""

    def test_malformed_deadline_ms_is_a_structured_error(self, service):
        responses = _drive(service, [
            {"op": "load", "name": "g", "edges": EDGES},
            {"op": "run", "algorithm": "mis", "graph": "g",
             "deadline_ms": "soon", "id": 1},
            {"op": "run", "algorithm": "mis", "graph": "g",
             "deadline_ms": -5, "id": 2},
            {"op": "run", "algorithm": "mis", "graph": "g",
             "deadline_ms": True, "id": 3},
            # the stream survives every malformed line
            {"op": "run", "algorithm": "mis", "graph": "g", "id": 4},
        ])
        assert [r["ok"] for r in responses] == [True, False, False,
                                                False, True]
        for response in responses[1:4]:
            assert "'deadline_ms'" in response["error"]
            assert "deadline_exceeded" not in response

    def test_unknown_fields_are_rejected_by_name(self, service):
        responses = _drive(service, [
            {"op": "load", "name": "g", "edges": EDGES},
            {"op": "run", "algorithm": "mis", "graph": "g",
             "deadlin_ms": 50, "id": 1},
            {"op": "ping", "shards": 3, "id": 2},
            {"op": "run", "algorithm": "mis", "graph": "g", "id": 3},
        ])
        assert [r["ok"] for r in responses] == [True, False, False, True]
        assert "deadlin_ms" in responses[1]["error"]  # the misspelling
        assert "deadline_ms" in responses[1]["error"]  # what is allowed
        assert "shards" in responses[2]["error"]

    def test_expired_deadline_answers_deadline_exceeded(self, service):
        responses = _drive(service, [
            {"op": "load", "name": "g", "edges": EDGES},
            {"op": "run", "algorithm": "mis", "graph": "g",
             "deadline_ms": 0, "id": 1},
            {"op": "run", "algorithm": "mis", "graph": "g", "id": 2},
        ])
        assert not responses[1]["ok"]
        assert responses[1]["deadline_exceeded"] is True
        assert responses[2]["ok"]  # the service is unharmed

    def test_shed_query_answers_overloaded_with_retry_hint(self):
        import threading

        from repro.serve import estimate_query_cost
        from repro.api import registry

        price = estimate_query_cost(
            registry.get("mis"), GRAPH.num_vertices, GRAPH.num_edges,
            cached=False, config=CONFIG)
        with GraphService(CONFIG, workers=1,
                          max_inflight_cost=price * 1.2,
                          admission_queue_factor=1.0) as svc:
            svc.load("g", GRAPH)
            gate = threading.Event()
            svc._pool.submit(gate.wait)  # hold the admitted cost in flight
            first = svc.submit("mis", "g", seed=0)
            response = handle_request(
                svc, {"op": "run", "algorithm": "mis", "graph": "g",
                      "seed": 1, "id": 7})
            gate.set()
            first.result(60)
            assert response == {
                "ok": False, "error": response["error"],
                "overloaded": True,
                "retry_after_s": response["retry_after_s"], "id": 7,
            }
            assert response["retry_after_s"] > 0
            assert "overloaded" in response["error"]


class TestSocket:
    def test_tcp_round_trip(self, service):
        server = serve_socket(service)  # ephemeral port
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2],
                                          timeout=30) as conn:
                stream = conn.makefile("rw", encoding="utf-8")
                for request in (
                    {"op": "load", "name": "g", "edges": EDGES},
                    {"op": "run", "algorithm": "matching", "graph": "g"},
                    {"op": "shutdown"},
                ):
                    stream.write(json.dumps(request) + "\n")
                    stream.flush()
                responses = [json.loads(stream.readline())
                             for _ in range(3)]
            assert all(r["ok"] for r in responses)
            assert responses[1]["result"]["summary"]["output_size"] > 0
            assert responses[2]["bye"]
            thread.join(30)
            assert not thread.is_alive()
        finally:
            server.close()

    def test_close_unblocks_idle_connection(self, service):
        """Regression: close() with a client holding an idle connection
        open must force the handler out of its blocked read and return,
        instead of leaving the connection (and anything joining on the
        server) wedged."""
        server = serve_socket(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as conn:
            stream = conn.makefile("rw", encoding="utf-8")
            stream.write(json.dumps({"op": "ping"}) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["pong"]
            # the handler is now blocked reading the next line; close
            # from another thread must not hang on it
            assert server.active_connections == 1
            closer = threading.Thread(target=lambda: server.close(drain=0.2))
            closer.start()
            closer.join(10)
            assert not closer.is_alive()
            assert stream.readline() == ""  # server force-closed the socket
        thread.join(10)
        assert not thread.is_alive()
        assert server.active_connections == 0

    def test_close_drains_request_in_flight(self, service):
        """close() while a request is mid-flight delivers the response
        within the drain window, then shuts the connection down."""
        server = serve_socket(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as conn:
            stream = conn.makefile("rw", encoding="utf-8")
            stream.write(json.dumps({"op": "load", "name": "g",
                                     "edges": EDGES}) + "\n")
            stream.write(json.dumps({"op": "run", "algorithm": "mis",
                                     "graph": "g"}) + "\n")
            stream.flush()
            # "mid-flight" means the handler has picked the work up: a
            # close() racing the accept (or the gap between the two
            # requests) sees an idle connection and rightly drops it
            responses = [json.loads(stream.readline())]
            closer = threading.Thread(target=lambda: server.close(drain=30))
            closer.start()
            responses.append(json.loads(stream.readline()))
            assert all(r["ok"] for r in responses)
            assert responses[1]["result"]["summary"]["output_size"] > 0
            # once the in-flight work has drained, the server closes the
            # now-idle connection itself — no client cooperation needed
            assert stream.readline() == ""
        closer.join(30)
        assert not closer.is_alive()
        thread.join(10)
        assert not thread.is_alive()

    def test_close_is_idempotent_and_safe_before_serving(self, service):
        server = serve_socket(service)
        server.close()  # never served: must not hang on shutdown()
        server.close()  # and calling it again is a no-op
