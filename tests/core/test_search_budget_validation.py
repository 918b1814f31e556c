"""``search_budget`` must be a positive count everywhere it is accepted.

``0`` used to fall through ``search_budget or default`` in ``ampc_msf``
(silently the default budget) and negative budgets made every search
return nothing; all three entry points now reject both, and the serving
protocol reports it as a structured error on the request's own line.
``max_rounds`` is held to the same check, before any stage is charged.
"""

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.ampc.runtime import AMPCRuntime
from repro.core.matching import ampc_maximal_matching
from repro.core.mis import ampc_mis
from repro.core.msf import ampc_msf
from repro.graph.generators import degree_weighted, erdos_renyi_gnm
from repro.serve import GraphService, handle_request

GRAPH = erdos_renyi_gnm(20, 40, seed=3)
CONFIG = ClusterConfig(num_machines=2)


@pytest.mark.parametrize("budget", [0, -1, -100])
@pytest.mark.parametrize("run,graph", [
    (ampc_mis, GRAPH),
    (ampc_maximal_matching, GRAPH),
    (ampc_msf, degree_weighted(GRAPH)),
], ids=["mis", "matching", "msf"])
def test_non_positive_budgets_are_rejected(run, graph, budget):
    with pytest.raises(ValueError, match="search_budget must be at least 1"):
        run(graph, config=CONFIG, search_budget=budget)


@pytest.mark.parametrize("max_rounds", [0, -1])
@pytest.mark.parametrize("run", [ampc_mis, ampc_maximal_matching],
                         ids=["mis", "matching"])
def test_non_positive_max_rounds_are_rejected_before_any_stage(run,
                                                               max_rounds):
    """Not a ``RuntimeError: did not converge`` after the preparation (a
    shuffle and the KV write) has run and been charged."""
    runtime = AMPCRuntime(config=CONFIG)
    with pytest.raises(ValueError, match="max_rounds must be at least 1"):
        run(GRAPH, runtime=runtime, max_rounds=max_rounds)
    assert runtime.metrics.summary() == \
        AMPCRuntime(config=CONFIG).metrics.summary()


def test_a_budget_of_one_is_a_budget_not_the_default():
    weighted = degree_weighted(GRAPH)
    # one vertex per search: nothing is explored, every edge is left to
    # the contracted solve (the default budget explores)
    assert ampc_msf(weighted, config=CONFIG, search_budget=1).prim_edges == 0
    assert ampc_msf(weighted, config=CONFIG).prim_edges > 0


@pytest.mark.parametrize("algorithm", ["mis", "matching", "msf"])
def test_the_protocol_reports_it_on_the_line(algorithm):
    with GraphService(CONFIG, workers=1) as service:
        service.load("g", GRAPH)
        response = handle_request(service, {
            "op": "run", "algorithm": algorithm, "graph": "g",
            "params": {"search_budget": 0}, "id": 9})
        assert response["ok"] is False and response["id"] == 9
        assert "ValueError" in response["error"]
        assert "search_budget must be at least 1" in response["error"]
        # the service is unharmed
        assert handle_request(service, {
            "op": "run", "algorithm": algorithm, "graph": "g"})["ok"]
