"""JSON-lines protocol for driving a GraphService over stdio or TCP.

One request per line, one response per line.  Requests are objects with an
``op`` field; an optional ``id`` is echoed back so pipelined clients can
correlate responses.

Operations::

    {"op": "load", "name": "g", "edges": [[0, 1], [1, 2]]}
    {"op": "load", "name": "w", "path": "graph.txt", "weighted": true}
    {"op": "run", "algorithm": "mis", "graph": "g", "seed": 1,
     "params": {"search_budget": 100}, "deadline_ms": 2000}
    {"op": "update", "graph": "g", "insertions": [[0, 2]],
     "deletions": [[0, 1]]}
    {"op": "algorithms"}
    {"op": "graphs"}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}

Every response carries ``"ok": true`` or ``"ok": false`` with an
``error`` message; ``run`` responses embed the full
:meth:`~repro.api.result.RunResult.to_dict` envelope under ``result``.
Failed queries are reported, never fatal — a serving daemon does not die
on a malformed request: an unknown or malformed field (a string
``deadline_ms``, a misspelled key) earns a structured error response on
that line, never a connection teardown.

The load-shedding contract: a ``run`` shed by admission control answers
``{"ok": false, "overloaded": true, "retry_after_s": ...}`` — the
client should back off for the hinted seconds and retry.  A ``run``
whose ``deadline_ms`` passed while it sat in queue answers
``{"ok": false, "deadline_exceeded": true}`` without executing.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Dict, IO, Optional

from repro.graph.graph import Graph, WeightedGraph
from repro.graph.io import read_edge_list, read_weighted_edge_list
from repro.serve.admission import OverloadedError
from repro.serve.pool import DeadlineExceededError
from repro.serve.service import ServiceBase

#: how long ServiceServer.close() waits for the handlers of the connections
#: it shut down to finish (nothing joins daemon handler threads)
_HANDLER_EXIT_S = 5.0


class ProtocolError(ValueError):
    """A structurally invalid request."""


#: the complete request surface per op — anything else is a structured
#: error on that line (catching misspellings instead of ignoring them)
_ALLOWED_FIELDS: Dict[str, frozenset] = {
    "load": frozenset({"op", "id", "name", "edges", "path", "vertices",
                       "weighted"}),
    "run": frozenset({"op", "id", "algorithm", "graph", "seed", "params",
                      "timeout", "deadline_ms"}),
    "update": frozenset({"op", "id", "graph", "name", "insertions",
                         "deletions"}),
    "algorithms": frozenset({"op", "id"}),
    "graphs": frozenset({"op", "id"}),
    "stats": frozenset({"op", "id"}),
    "ping": frozenset({"op", "id"}),
    "shutdown": frozenset({"op", "id"}),
}


def _require(request: Dict[str, Any], field: str) -> Any:
    try:
        return request[field]
    except KeyError:
        raise ProtocolError(f"request is missing the {field!r} field") from None


def _graph_from_edges(edges, num_vertices: Optional[int]):
    """Build a graph from inline edge rows: pairs, or triples for weights."""
    rows = [tuple(row) for row in edges]
    if num_vertices is None:
        num_vertices = 1 + max(
            (max(row[0], row[1]) for row in rows), default=-1
        )
    if rows and len(rows[0]) == 3:
        return WeightedGraph.from_edges(
            num_vertices, [(int(u), int(v), float(w)) for u, v, w in rows]
        )
    return Graph.from_edges(
        num_vertices, [(int(u), int(v)) for u, v in rows]
    )


def _op_load(service: ServiceBase, request: Dict[str, Any]) -> Dict[str, Any]:
    name = str(_require(request, "name"))
    if "edges" in request:
        graph = _graph_from_edges(request["edges"],
                                  request.get("vertices"))
    elif "path" in request:
        if request.get("weighted"):
            graph = read_weighted_edge_list(request["path"])
        else:
            graph = read_edge_list(request["path"])
    else:
        raise ProtocolError("load needs either 'edges' or 'path'")
    handle = service.load(name, graph)
    return {"ok": True, "graph": name,
            "vertices": handle.num_vertices, "edges": handle.num_edges,
            "fingerprint": handle.fingerprint}


def _op_run(service: ServiceBase, request: Dict[str, Any]) -> Dict[str, Any]:
    algorithm = str(_require(request, "algorithm"))
    graph = str(_require(request, "graph"))
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    deadline = _deadline_seconds(request.get("deadline_ms"))
    pending = service.submit(algorithm, graph,
                             seed=int(request.get("seed", 0)),
                             deadline=deadline,
                             **params)
    result = pending.result(request.get("timeout"))
    return {"ok": True, "result": result.to_dict()}


def _deadline_seconds(deadline_ms: Any) -> Optional[float]:
    """Validate the wire field; relative seconds, or None when absent."""
    if deadline_ms is None:
        return None
    if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)) or deadline_ms < 0:
        raise ProtocolError(
            "'deadline_ms' must be a non-negative number, got "
            f"{deadline_ms!r}")
    return float(deadline_ms) / 1000.0


def _op_update(service: ServiceBase,
               request: Dict[str, Any]) -> Dict[str, Any]:
    """Apply an edge batch to a loaded graph (the batch-dynamic path).

    Deletions are ``[u, v]`` rows; insertions are ``[u, v]`` rows (or
    ``[u, v, w]`` for weighted graphs).  Responds with the graph's new
    fingerprint and counts — later ``run`` ops are answered by patched
    DHT-resident artifacts, not a from-scratch re-preparation.
    """
    name = str(request.get("graph") or _require(request, "name"))
    insertions = request.get("insertions") or []
    deletions = request.get("deletions") or []
    if not isinstance(insertions, list) or not isinstance(deletions, list):
        raise ProtocolError("'insertions'/'deletions' must be arrays")
    ins_rows = [(int(row[0]), int(row[1]), float(row[2]))
                if len(row) == 3 else (int(row[0]), int(row[1]))
                for row in insertions]
    del_rows = [(int(row[0]), int(row[1])) for row in deletions]
    handle = service.update(name, insertions=ins_rows, deletions=del_rows)
    return {"ok": True, "graph": name,
            "vertices": handle.num_vertices, "edges": handle.num_edges,
            "fingerprint": handle.fingerprint,
            "insertions": len(ins_rows), "deletions": len(del_rows)}


def handle_request(service: ServiceBase,
                   request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one decoded request; always returns a response object."""
    request_id = request.get("id") if isinstance(request, dict) else None
    try:
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        op = str(_require(request, "op"))
        allowed = _ALLOWED_FIELDS.get(op)
        if allowed is None:
            raise ProtocolError(f"unknown op {op!r}")
        unknown = set(request) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown field(s) for op {op!r}: "
                f"{', '.join(sorted(map(str, unknown)))}; allowed: "
                f"{', '.join(sorted(allowed))}")
        if op == "load":
            response = _op_load(service, request)
        elif op == "run":
            response = _op_run(service, request)
        elif op == "update":
            response = _op_update(service, request)
        elif op == "algorithms":
            response = {"ok": True, "algorithms": service.algorithms()}
        elif op == "graphs":
            response = {"ok": True, "graphs": service.graphs()}
        elif op == "stats":
            response = {"ok": True, "stats": service.stats()}
        elif op == "ping":
            response = {"ok": True, "pong": True}
        else:  # op == "shutdown"
            response = {"ok": True, "bye": True}
    except OverloadedError as error:
        # the shed/retry contract: structured, with a backoff hint —
        # the connection stays healthy and the client knows what to do
        response = {"ok": False,
                    "error": f"{type(error).__name__}: {error}",
                    "overloaded": True,
                    "retry_after_s": error.retry_after_s}
    except DeadlineExceededError as error:
        response = {"ok": False,
                    "error": f"{type(error).__name__}: {error}",
                    "deadline_exceeded": True}
    except Exception as error:  # noqa: BLE001 - a daemon reports, not dies
        response = {"ok": False,
                    "error": f"{type(error).__name__}: {error}"}
    if request_id is not None:
        response["id"] = request_id
    return response


def _decode_line(line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid JSON: {error}") from None


def _encode_response(response: Dict[str, Any]) -> str:
    """Serialize a response; a value JSON can't carry (a NaN-free encoder
    meeting an exotic result payload) degrades to a structured error on
    the line instead of killing the stream/connection."""
    try:
        return json.dumps(response)
    except (TypeError, ValueError) as error:
        fallback: Dict[str, Any] = {
            "ok": False,
            "error": ("response not serializable: "
                      f"{type(error).__name__}: {error}"),
        }
        request_id = (response.get("id")
                      if isinstance(response, dict) else None)
        if isinstance(request_id, (str, int, float)):
            fallback["id"] = request_id
        return json.dumps(fallback)


def serve_stream(service: ServiceBase, input_stream: IO[str],
                 output_stream: IO[str]) -> int:
    """Serve JSON lines until EOF or a shutdown op; returns requests served."""
    served = 0
    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = _decode_line(line)
        except ProtocolError as error:
            response = {"ok": False, "error": str(error)}
        else:
            response = handle_request(service, request)
        served += 1
        output_stream.write(_encode_response(response) + "\n")
        output_stream.flush()
        if response.get("bye"):
            break
    return served


class _LineHandler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        super().setup()
        self.server._track_connection(self.connection, active=True)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server._track_connection(self.connection, active=False)

    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            # busy from decode to flushed response: close() drains busy
            # connections (a response in flight is delivered) but never
            # waits on idle ones (a quiet client cannot wedge shutdown)
            self.server._mark_busy(self.connection, busy=True)
            try:
                try:
                    request = _decode_line(line)
                except ProtocolError as error:
                    response = {"ok": False, "error": str(error)}
                else:
                    response = handle_request(self.server.service, request)
                try:
                    self.wfile.write(
                        (_encode_response(response) + "\n").encode("utf-8"))
                    self.wfile.flush()
                except (OSError, ValueError):
                    # the connection was force-closed under us (close()
                    # gave up on the drain): nothing left to report to
                    return
            finally:
                self.server._mark_busy(self.connection, busy=False)
            if response.get("bye"):
                # close() must not run on the serve_forever thread;
                # handlers run on their own threads, but a helper thread
                # is safe in every server configuration.
                threading.Thread(target=self.server.close,
                                 daemon=True).start()
                return


class ServiceServer(socketserver.ThreadingTCPServer):
    """A threading TCP server bound to one GraphService.

    :meth:`close` is the clean shutdown: it stops the accept loop, gives
    in-flight requests a drain window, then force-closes whatever
    connections linger (a client holding an idle connection open can no
    longer wedge shutdown — the regression the ``drain`` machinery
    exists for).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: ServiceBase, address):
        super().__init__(address, _LineHandler)
        self.service = service
        self._conn_lock = threading.Lock()
        #: notified whenever a connection's handler finishes
        self._conn_closed = threading.Condition(self._conn_lock)
        self._active_connections: set = set()
        self._busy_connections: set = set()
        self._serving = False
        self._close_lock = threading.Lock()
        self._closed = False

    # -- connection tracking ------------------------------------------------

    def _track_connection(self, connection, *, active: bool) -> None:
        with self._conn_lock:
            if active:
                self._active_connections.add(connection)
            else:
                self._active_connections.discard(connection)
                self._busy_connections.discard(connection)
                self._conn_closed.notify_all()

    def _mark_busy(self, connection, *, busy: bool) -> None:
        with self._conn_lock:
            if busy:
                self._busy_connections.add(connection)
            else:
                self._busy_connections.discard(connection)

    @property
    def active_connections(self) -> int:
        with self._conn_lock:
            return len(self._active_connections)

    @property
    def busy_connections(self) -> int:
        """Connections with a request mid-execution or a response unsent."""
        with self._conn_lock:
            return len(self._busy_connections)

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        super().serve_forever(poll_interval)

    def close(self, drain: float = 300.0) -> None:
        """Stop accepting, drain in-flight requests, unblock stragglers.

        ``shutdown()`` alone only stops the accept loop: a handler thread
        blocked reading from (or serving a request for) an open client
        connection keeps running, and anything joining on it hangs.
        ``close`` waits up to ``drain`` seconds for **busy** connections —
        ones mid-request — to deliver their responses, then shuts every
        remaining socket down: blocked ``rfile`` reads see EOF, the
        handlers exit (``close`` waits a few seconds at most for them),
        and the caller gets the listening port back.  Idle
        connections are never waited on, so the wait ends as soon as the
        in-flight work does and a quiet client cannot wedge shutdown (the
        generous default only bounds genuinely running queries).  Safe to
        call from any thread (including a handler's helper thread) and
        idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._serving:
            self.shutdown()  # blocks until the accept loop has exited
        deadline = time.monotonic() + max(drain, 0.0)
        while self.busy_connections and time.monotonic() < deadline:
            time.sleep(0.02)
        with self._conn_lock:
            lingering = list(self._active_connections)
        for connection in lingering:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        # the shut-down handlers now see EOF; wait for their finish() so a
        # caller sees active_connections == 0 once close() returns
        with self._conn_closed:
            self._conn_closed.wait_for(lambda: not self._active_connections,
                                       _HANDLER_EXIT_S)
        self.server_close()


def serve_socket(service: ServiceBase, host: str = "127.0.0.1",
                 port: int = 0) -> ServiceServer:
    """Bind a :class:`ServiceServer`; caller runs ``serve_forever()``.

    ``port=0`` binds an ephemeral port; read it from
    ``server.server_address``.
    """
    return ServiceServer(service, (host, port))
