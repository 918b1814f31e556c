"""GraphService behaviour: named graphs, futures, conversion, lifecycle."""

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.api import Session
from repro.graph.generators import erdos_renyi_gnm
from repro.serve import GraphService, ProcessGraphService, ServiceClosedError

CONFIG = ClusterConfig(num_machines=4)
GRAPH = erdos_renyi_gnm(40, 100, seed=1)


@pytest.fixture()
def service():
    with GraphService(CONFIG, workers=2) as svc:
        svc.load("g", GRAPH)
        yield svc


class TestQueries:
    def test_query_matches_direct_session_run(self, service):
        served = service.query("mis", "g", seed=3, timeout=60)
        direct = Session(CONFIG).run("mis", GRAPH, seed=3)
        assert served.output.independent_set == direct.output.independent_set
        assert served.summary == direct.summary
        assert served.graph_name == "g"

    def test_submit_returns_future(self, service):
        pending = service.submit("matching", "g", seed=1)
        result = pending.result(60)
        assert pending.done()
        assert result.algorithm == "matching"
        assert pending.exception() is None

    def test_weighted_algorithms_accept_unweighted_named_graphs(
            self, service):
        """msf on an unweighted graph gets the paper's degree weights,
        exactly like the CLI default."""
        served = service.query("msf", "g", seed=1, timeout=60)
        from repro.graph.generators import degree_weighted
        direct = Session(CONFIG).run("msf", degree_weighted(GRAPH), seed=1)
        assert served.output.forest == direct.output.forest

    def test_derived_weighted_graph_is_cached_by_content(self, service):
        first = service.query("msf", "g", seed=1, timeout=60)
        second = service.query("msf", "g", seed=2, timeout=60)
        assert not first.preprocessing_reused
        assert second.preprocessing_reused

    def test_unknown_graph_rejected_at_submit(self, service):
        with pytest.raises(KeyError, match="no graph loaded"):
            service.submit("mis", "nope", seed=0)
        assert service.stats()["submitted"] == 0

    def test_unknown_algorithm_rejected_at_submit(self, service):
        with pytest.raises(KeyError, match="unknown algorithm"):
            service.submit("frobnicate", "g")
        assert service.stats()["submitted"] == 0

    def test_unknown_param_rejected_at_submit(self, service):
        with pytest.raises(TypeError, match="unexpected parameter"):
            service.submit("mis", "g", walk_length=5)

    def test_algorithm_errors_are_contained(self, service):
        """A failing query resolves its future; the service keeps serving."""
        service.load("cycle-shaped", GRAPH)
        bad = service.submit("two-cycle", "cycle-shaped")
        assert isinstance(bad.exception(60), ValueError)
        good = service.query("mis", "g", timeout=60)
        assert good.output_size > 0


class TestLifecycle:
    def test_stats_counters(self, service):
        for seed in range(3):
            service.query("mis", "g", seed=seed, timeout=60)
        stats = service.stats()
        assert stats["submitted"] == 3
        assert stats["completed"] == 3
        assert stats["failed"] == 0
        assert stats["runs"] == 3
        assert stats["workers"] == 2
        assert stats["graphs_loaded"] == 1

    def test_pinned_graphs_survive_caller_drop(self):
        import gc

        with GraphService(CONFIG, workers=1) as svc:
            svc.load("tmp", erdos_renyi_gnm(20, 30, seed=9))
            gc.collect()
            result = svc.query("mis", "tmp", timeout=60)
            assert result.output_size > 0
            svc.unload("tmp")
            assert svc.graphs() == []

    def test_submit_after_close_raises(self):
        svc = GraphService(CONFIG, workers=1)
        svc.load("g", GRAPH)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit("mis", "g")

    def test_close_drains_in_flight_queries(self):
        svc = GraphService(CONFIG, workers=2)
        svc.load("g", GRAPH)
        pending = [svc.submit("mis", "g", seed=s) for s in range(6)]
        svc.close(wait=True)
        assert all(p.done() for p in pending)
        assert {p.result().seed for p in pending} == set(range(6))


@pytest.mark.parametrize("service_cls", [GraphService, ProcessGraphService],
                         ids=["threads", "processes"])
def test_both_services_make_the_same_decisions(service_cls):
    """One dispatcher core: an unknown name is rejected at submit, graphs()
    and graphs_loaded count what the caller loaded (not the derivation an
    msf query builds), and update on a closed service raises instead of
    mutating the graph."""
    graph = erdos_renyi_gnm(40, 100, seed=1)
    kwargs = ({"workers": 1} if service_cls is GraphService
              else {"processes": 1})
    service = service_cls(CONFIG, **kwargs)
    with service:
        service.load("g", graph)
        with pytest.raises(KeyError, match="no graph loaded"):
            service.submit("mis", "nope")
        service.query("msf", "g", seed=1, timeout=120)
        assert service.graphs() == ["g"]
        stats = service.stats()
        assert stats["graphs_loaded"] == 1
        assert (stats["submitted"], stats["completed"],
                stats["failed"]) == (1, 1, 0)
    edges = graph.num_edges
    with pytest.raises(ServiceClosedError):
        service.update("g", deletions=[next(iter(graph.edges()))])
    assert graph.num_edges == edges


def test_thread_stats_keys_are_a_subset_of_the_process_schema():
    with GraphService(CONFIG, workers=1, max_inflight_cost=1e9) as threads, \
            ProcessGraphService(CONFIG, processes=1,
                                max_inflight_cost=1e9) as processes:
        for service in (threads, processes):
            service.load("g", GRAPH)
            service.query("mis", "g", seed=0, timeout=120)
        mine, theirs = threads.stats(), processes.stats()
    assert set(mine) <= set(theirs)
    for key in mine:
        assert type(mine[key]) is type(theirs[key]), key
    assert set(mine["admission"]) == set(theirs["admission"])
