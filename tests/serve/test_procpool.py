"""ProcessGraphService: correctness, affinity, stats merge, lifecycle.

The process-pool acceptance bar mirrors the thread-pool stress suite: a
ProcessGraphService serving the same 24 mixed concurrent queries must
return outputs identical to sequential Session runs, with per-run metrics
isolated and the merged stats equal to the field-wise sum of the
per-worker SessionStats.  On top of that, routing is observable: the same
graph lands on the same worker (affinity -> cache hits), and a hot queue
spills over to the least-loaded worker.
"""

import dataclasses
import os
import random
import signal
import socket
import threading

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.api import Session
from repro.api.session import SessionStats
from repro.graph.generators import degree_weighted, erdos_renyi_gnm
from repro.serve import (
    GraphService,
    ProcessGraphService,
    ServiceClosedError,
    WorkerDiedError,
    serve_socket,
)

PROCESSES = 2
CONFIG = ClusterConfig(num_machines=4)

GRAPHS = {
    "a": erdos_renyi_gnm(40, 100, seed=1),
    "b": erdos_renyi_gnm(40, 90, seed=2),
}

#: every (algorithm, graph, seed) twice, shuffled: 2 * 2 * 3 * 2 = 24
#: queries, so each shared graph sees guaranteed cache hits
QUERIES = [
    (algorithm, name, seed)
    for algorithm in ("mis", "matching", "components")
    for name in ("a", "b")
    for seed in (0, 1)
] * 2

#: the SessionStats portion of a stats row (merged or per-worker)
STAT_FIELDS = [field.name for field in dataclasses.fields(SessionStats)]


def _output_key(result):
    output = result.output
    for attribute in ("independent_set", "matching", "labels"):
        value = getattr(output, attribute, None)
        if value is not None:
            return value
    raise AssertionError(f"unrecognized output {type(output).__name__}")


def test_concurrent_results_match_sequential_and_stats_merge():
    queries = list(QUERIES)
    random.Random(7).shuffle(queries)
    assert len(queries) >= 20

    # Sequential ground truth: one cold Session per distinct query.
    expected = {}
    for algorithm, name, seed in set(queries):
        run = Session(CONFIG).run(algorithm, GRAPHS[name], seed=seed)
        expected[(algorithm, name, seed)] = run

    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        for name, graph in GRAPHS.items():
            service.load(name, graph)
        pending = [
            (query, service.submit(query[0], query[1], seed=query[2]))
            for query in queries
        ]
        results = [(query, p.result(300)) for query, p in pending]
        per_worker = service.worker_stats()
        stats = service.stats()

    # 1. Outputs identical to sequential runs — the process boundary and
    # the routing policy change nothing about what a query returns.
    for query, result in results:
        reference = expected[query]
        assert _output_key(result) == _output_key(reference), query
        assert result.summary == reference.summary, query
        assert result.description == reference.description
        assert result.graph_name == query[1]

    # 2. Per-run metrics isolated: each run is exactly the sequential
    # cold profile, or prep_shuffles cheaper when its worker's cache hit.
    for query, result in results:
        reference = expected[query]
        cold = reference.metrics["shuffles"]
        observed = result.metrics["shuffles"]
        if result.preprocessing_reused:
            assert observed == cold - result.shuffles_saved, query
        else:
            assert observed == cold, query

    # 3. Merged stats == field-wise sum of the per-worker SessionStats.
    assert len(per_worker) == PROCESSES
    for field in STAT_FIELDS:
        total = sum(row[field] for row in per_worker)
        assert stats[field] == pytest.approx(total), field

    # 4. ...and equal to the sum of the per-run envelopes.
    assert stats["runs"] == len(queries)
    assert (stats["preprocessing_hits"] + stats["preprocessing_misses"]
            == len(queries))
    assert stats["shuffles_executed"] == sum(
        result.metrics["shuffles"] for _, result in results)
    assert stats["kv_reads_executed"] == sum(
        result.metrics["kv_reads"] for _, result in results)
    assert stats["kv_writes_executed"] == sum(
        result.metrics["kv_writes"] for _, result in results)
    assert stats["shuffles_saved"] == sum(
        result.shuffles_saved for _, result in results)

    # 5. Dispatcher accounting.
    assert stats["completed"] == len(queries)
    assert stats["failed"] == 0
    assert stats["preprocessing_hits"] >= len(GRAPHS)


def test_affinity_same_graph_same_worker_cache_hits():
    """Sequential queries on one graph all land on its affinity worker,
    so every repeat takes that worker's preprocessing cache hit."""
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        service.load("g", GRAPHS["a"])
        results = [service.query("mis", "g", seed=0, timeout=300)
                   for _ in range(6)]
        per_worker = service.worker_stats()
        stats = service.stats()

    busy = [row for row in per_worker if row["runs"] > 0]
    assert len(busy) == 1, "affinity must keep one graph on one worker"
    assert busy[0]["runs"] == 6
    assert busy[0]["preprocessing_misses"] == 1
    assert busy[0]["preprocessing_hits"] == 5
    assert stats["preprocessing_hits"] > 0
    assert stats["rebalances"] == 0
    assert stats["affinity_routed"] == 5  # first sight assigns, 5 follow
    assert stats["graphs_shipped"] == 1  # pickled once, then by reference
    outputs = {frozenset(r.output.independent_set) for r in results}
    assert len(outputs) == 1


@pytest.mark.skipif(PROCESSES < 2, reason="spillover needs >= 2 workers")
def test_hot_queue_spills_to_least_loaded_worker():
    """A burst on one graph with a tight spill threshold rebalances to
    the least-loaded worker, which re-prepares and serves correctly."""
    with ProcessGraphService(CONFIG, processes=PROCESSES,
                             spill_threshold=1) as service:
        service.load("g", GRAPHS["a"])
        pending = [service.submit("mis", "g", seed=0) for _ in range(12)]
        results = [p.result(300) for p in pending]
        per_worker = service.worker_stats()
        stats = service.stats()

    assert stats["rebalances"] >= 1
    assert sum(row["runs"] for row in per_worker) == 12
    # the spill-over re-prepare: more than one worker paid a miss, yet
    # outputs stay identical to the single-worker answer
    assert stats["preprocessing_misses"] >= 2
    reference = Session(CONFIG).run("mis", GRAPHS["a"], seed=0)
    for result in results:
        assert (result.output.independent_set
                == reference.output.independent_set)


def test_matches_thread_service_results_and_weighted_adaptation():
    """Thread service and process service agree query-for-query,
    including the automatic degree-weighted derivation."""
    with GraphService(CONFIG, workers=2) as threads, \
            ProcessGraphService(CONFIG, processes=PROCESSES) as procs:
        threads.load("g", GRAPHS["b"])
        procs.load("g", GRAPHS["b"])
        for algorithm in ("mis", "matching", "components", "msf"):
            mine = procs.query(algorithm, "g", seed=1, timeout=300)
            theirs = threads.query(algorithm, "g", seed=1, timeout=300)
            assert mine.summary == theirs.summary, algorithm
            assert mine.graph_name == theirs.graph_name, algorithm
    direct = Session(CONFIG).run("msf", degree_weighted(GRAPHS["b"]), seed=1)
    assert mine.summary == direct.summary


def test_raw_graph_objects_and_fingerprint_sharing():
    """Unnamed graphs route by content fingerprint: equal objects share
    one worker's cache."""
    first = erdos_renyi_gnm(30, 60, seed=5)
    second = erdos_renyi_gnm(30, 60, seed=5)  # equal content, new object
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        cold = service.query("mis", first, seed=0, timeout=300)
        warm = service.query("mis", second, seed=0, timeout=300)
        stats = service.stats()
    assert not cold.preprocessing_reused
    assert warm.preprocessing_reused
    assert cold.graph_name is None
    assert stats["graphs_shipped"] == 1


def test_errors_surface_at_submit_and_in_results():
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        service.load("g", GRAPHS["a"])
        with pytest.raises(KeyError, match="unknown algorithm"):
            service.submit("frobnicate", "g")
        with pytest.raises(KeyError, match="no graph loaded"):
            service.submit("mis", "nope")
        with pytest.raises(TypeError, match="unexpected parameter"):
            service.submit("mis", "g", bogus=1)
        stats = service.stats()
        assert stats["submitted"] == 0
        # a worker-side failure resolves the future, not the service:
        # two-cycle rejects a non-cycle graph with ValueError
        error = service.submit("two-cycle", "g").exception(300)
        assert error is not None
        assert service.stats()["failed"] == 1
        # and the service keeps serving
        assert service.query("mis", "g", timeout=300).summary


def test_unpicklable_graph_fails_at_submit_and_close_does_not_hang():
    """A graph that cannot cross the process boundary surfaces its
    pickling error to the submitter, leaks no in-flight entry (close
    would otherwise hang draining it), and leaves the service serving."""
    poisoned = erdos_renyi_gnm(10, 15, seed=3)
    poisoned.not_picklable = lambda: None
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        with pytest.raises(Exception) as excinfo:
            service.submit("mis", poisoned)
        assert not isinstance(excinfo.value, ServiceClosedError)
        assert all(c.inflight_runs == 0 for c in service._clients)
        service.load("ok", GRAPHS["a"])
        assert service.query("mis", "ok", timeout=300).algorithm == "mis"
    # context-manager exit ran close(wait=True): reaching here means the
    # drain did not wedge on the discarded request

    # on shm the pickle fails while publishing the blob, before any pipe:
    # the admission charge is still released and the query never counted
    with ProcessGraphService(CONFIG, processes=1, backend="shm",
                             max_inflight_cost=1e9) as service:
        with pytest.raises(Exception) as excinfo:
            service.submit("mis", poisoned)
        assert not isinstance(excinfo.value, ServiceClosedError)
        stats = service.stats()
        assert stats["admission"]["inflight_cost"] == 0.0
        assert stats["submitted"] == stats["completed"] + stats["failed"]


def test_unload_forgets_the_name():
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        service.load("g", GRAPHS["a"])
        service.query("mis", "g", timeout=300)
        service.unload("g")
        assert service.graphs() == []
        with pytest.raises(KeyError, match="no graph loaded"):
            service.submit("mis", "g")


def test_closed_service_rejects_submissions():
    service = ProcessGraphService(CONFIG, processes=PROCESSES)
    service.load("g", GRAPHS["a"])
    assert service.query("mis", "g", timeout=300).algorithm == "mis"
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit("mis", "g")
    # close is idempotent and stats survive the processes
    service.close()
    assert service.stats()["runs"] == 1


@pytest.mark.skipif(PROCESSES < 2, reason="failover needs >= 2 workers")
def test_worker_death_fails_pending_then_fails_over():
    """Killing a worker fails its in-flight futures with WorkerDiedError;
    later queries re-route (and re-ship) to the survivors."""
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        service.load("g", GRAPHS["a"])
        warm = service.query("mis", "g", seed=0, timeout=300)
        victim = next(c for c in service._clients if c.shipped)
        victim.process.terminate()
        victim.process.join(30)
        victim.reader.join(30)
        assert not victim.alive
        result = service.query("mis", "g", seed=0, timeout=300)
        assert (result.output.independent_set
                == warm.output.independent_set)
        stats = service.stats()
        assert stats["graphs_shipped"] >= 1  # re-shipped to a survivor

    # direct check of the in-flight path: pending fail on a dead pipe
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        service.load("g", GRAPHS["a"])
        client = service._clients[0]
        client.process.terminate()
        client.process.join(30)
        client.reader.join(30)
        with pytest.raises((WorkerDiedError, ServiceClosedError)):
            client.submit_run("mis", "fp", GRAPHS["a"], 0, True, {},
                              None, lambda ok: None)


@pytest.mark.skipif(PROCESSES < 2, reason="failover needs >= 2 workers")
def test_worker_death_retries_inflight_queries():
    """Queries in flight on a killed worker are transparently re-run on
    a survivor: the caller sees results, never WorkerDiedError."""
    with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
        service.load("g", GRAPHS["a"])
        warm = service.query("mis", "g", seed=0, timeout=300)
        victim = next(c for c in service._clients if c.shipped)
        # wedge the worker so the burst is provably in flight at the kill
        os.kill(victim.process.pid, signal.SIGSTOP)
        pending = [service.submit("mis", "g", seed=0) for _ in range(3)]
        os.kill(victim.process.pid, signal.SIGKILL)
        for p in pending:
            result = p.result(300)
            assert (result.output.independent_set
                    == warm.output.independent_set)
        stats = service.stats()
        assert stats["queries_retried"] == 3
        assert stats["failed"] == 0
        assert stats["completed"] == 4
        assert stats["submitted"] == 4  # a retry is the same query


def test_single_worker_death_retries_on_respawn():
    """With one worker there is no survivor: the retry lands on the
    replacement that the on-death respawn brings up (the respawn runs
    before in-flight queries are failed, so the retry has a target)."""
    with ProcessGraphService(CONFIG, processes=1) as service:
        service.load("g", GRAPHS["a"])
        warm = service.query("mis", "g", seed=0, timeout=300)
        victim = service._clients[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        pending = service.submit("mis", "g", seed=0)
        os.kill(victim.process.pid, signal.SIGKILL)
        result = pending.result(300)
        assert (result.output.independent_set
                == warm.output.independent_set)
        stats = service.stats()
        assert stats["queries_retried"] == 1
        assert stats["workers_respawned"] >= 1


def test_retry_opt_out_surfaces_worker_death():
    """retry_worker_death=False restores fail-fast WorkerDiedError."""
    with ProcessGraphService(CONFIG, processes=1,
                             retry_worker_death=False) as service:
        service.load("g", GRAPHS["a"])
        service.query("mis", "g", seed=0, timeout=300)
        victim = service._clients[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        pending = service.submit("mis", "g", seed=0)
        os.kill(victim.process.pid, signal.SIGKILL)
        assert isinstance(pending.exception(300), WorkerDiedError)
        assert service.stats()["queries_retried"] == 0


class TestProtocol:
    """The JSON-lines protocol drives the process pool unchanged."""

    def test_stream_round_trip(self):
        import io
        import json

        from repro.serve import serve_stream

        edges = [[u, v] for u, v in GRAPHS["a"].edges()]
        requests = [
            {"op": "load", "name": "g", "edges": edges, "id": 1},
            {"op": "run", "algorithm": "mis", "graph": "g", "seed": 2,
             "id": 2},
            {"op": "run", "algorithm": "mis", "graph": "g", "seed": 2,
             "id": 3},
            {"op": "stats", "id": 4},
            {"op": "shutdown", "id": 5},
        ]
        output = io.StringIO()
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            serve_stream(
                service,
                io.StringIO("\n".join(json.dumps(r) for r in requests)
                            + "\n"),
                output,
            )
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True] * 5
        cold, warm = responses[1]["result"], responses[2]["result"]
        assert cold["summary"] == warm["summary"]
        assert not cold["preprocessing_reused"]
        assert warm["preprocessing_reused"]
        assert warm["graph_name"] == "g"
        stats = responses[3]["stats"]
        assert stats["runs"] == 2
        assert stats["processes"] == PROCESSES
        assert len(stats["per_worker"]) == PROCESSES
        json.dumps(stats)  # the merged view stays JSON-serializable

    def test_tcp_round_trip(self):
        edges = [[u, v] for u, v in GRAPHS["b"].edges()]
        with ProcessGraphService(CONFIG, processes=PROCESSES) as service:
            server = serve_socket(service)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                import json

                with socket.create_connection(server.server_address[:2],
                                              timeout=300) as conn:
                    stream = conn.makefile("rw", encoding="utf-8")
                    for request in (
                        {"op": "load", "name": "g", "edges": edges},
                        {"op": "run", "algorithm": "matching",
                         "graph": "g"},
                        {"op": "shutdown"},
                    ):
                        stream.write(json.dumps(request) + "\n")
                        stream.flush()
                    responses = [json.loads(stream.readline())
                                 for _ in range(3)]
                assert all(r["ok"] for r in responses)
                assert responses[1]["result"]["summary"]["output_size"] > 0
                thread.join(30)
                assert not thread.is_alive()
            finally:
                server.close()


@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
def test_workers_start_with_the_registry_loaded(mp_context):
    """The ~0.3 s first-use import of every spec module is paid before
    the first fork — never inside a worker's first query.  A fresh
    interpreter constructs a service; under ``fork`` the worker entry
    point asserts it inherited a loaded registry (a spawned worker loads
    it itself, first thing, and is only checked to serve)."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(f"""
        import sys
        from repro.api import registry
        from repro.graph.generators import erdos_renyi_gnm
        from repro.serve import ProcessGraphService, procpool

        assert not registry._LOADED
        worker_main = procpool._worker_main

        def checked_worker_main(*args, **kwargs):
            assert registry._LOADED, "forked before the registry loaded"
            worker_main(*args, **kwargs)

        if {mp_context!r} == "fork":
            procpool._worker_main = checked_worker_main
        with ProcessGraphService(processes=1,
                                 mp_context={mp_context!r}) as service:
            assert registry._LOADED
            assert "repro.baselines.local_contraction_cc" in sys.modules
            service.load("g", erdos_renyi_gnm(12, 20, seed=1))
            result = service.query("mis", "g", timeout=120)
            assert result.summary["output_size"] > 0
        print("ok")
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "ok"
