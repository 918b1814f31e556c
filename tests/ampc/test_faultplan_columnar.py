"""FaultPlan through the columnar prepare path.

The columnar stages keep the dataflow pipeline's *stage-counter
discipline*: each map/partition stage advances the same stage index and
charges the same (stage, machine) cells, so a seeded
:class:`~repro.ampc.faults.FaultPlan` — whose RNG is stateful and
call-order-dependent — preempts exactly the same machines in exactly the
same stages as the per-element pipeline they replaced.  These tests pin
that: the expected values below were recorded from the boxed
per-element prepare + combine + contract path at the commit that deleted
it (where it agreed with the columnar one on *all* metrics — preemption
count, simulated time — not just on the output).
"""

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.ampc.faults import FaultPlan
from repro.api import Session
from repro.graph.generators import degree_weighted, erdos_renyi_gnm

CONFIG = ClusterConfig(num_machines=4)
GRAPH = erdos_renyi_gnm(40, 100, seed=1)
WEIGHTED = degree_weighted(GRAPH)

#: (algorithm, input graph, boxed-path metrics, boxed-path summary)
CASES = [
    ("mis", GRAPH,
     {"cache_hit_rate": 0.47619047619047616, "cache_hits": 40,
      "cache_misses": 44, "kv_bytes": 1968, "kv_read_bytes": 848,
      "kv_reads": 44, "kv_write_bytes": 1120, "kv_writes": 40,
      "max_machine_queries_per_stage": 15, "preemptions": 22, "rounds": 2,
      "shuffle_bytes": 1120, "shuffles": 1,
      "simulated_time_s": 0.22157401333333335},
     {"output_size": 14, "rounds": 2}),
    ("matching", GRAPH,
     {"cache_hit_rate": 0.38848920863309355, "cache_hits": 108,
      "cache_misses": 170, "kv_bytes": 19696, "kv_read_bytes": 16176,
      "kv_reads": 170, "kv_write_bytes": 3520, "kv_writes": 40,
      "max_machine_queries_per_stage": 58, "preemptions": 18, "rounds": 2,
      "shuffle_bytes": 3520, "shuffles": 1,
      "simulated_time_s": 0.2616895288888889},
     {"output_size": 17, "rounds": 2}),
    ("msf", WEIGHTED,
     {"cache_hit_rate": 0.00980392156862745, "cache_hits": 1,
      "cache_misses": 101, "kv_bytes": 7376, "kv_read_bytes": 3552,
      "kv_reads": 101, "kv_write_bytes": 3824, "kv_writes": 59,
      "max_machine_queries_per_stage": 19, "preemptions": 40, "rounds": 4,
      "shuffle_bytes": 16480, "shuffles": 5,
      "simulated_time_s": 1.2338899994444446},
     {"contracted_vertices": 21, "max_pointer_depth": 2, "output_size": 39,
      "prim_edges": 35, "rounds": 4, "weight": 356.0}),
]
IDS = [case[0] for case in CASES]


def _plan():
    # FaultPlan RNG state advances per executions_for call: each Session
    # needs a fresh plan for the comparison to be apples-to-apples.
    return FaultPlan(preempt_probability=0.4, seed=7)


@pytest.mark.parametrize("algorithm,graph,metrics,summary", CASES, ids=IDS)
def test_faulty_columnar_metrics_match_boxed(algorithm, graph, metrics,
                                             summary):
    columnar = Session(CONFIG, fault_plan=_plan()).run(
        algorithm, graph, seed=5)
    assert columnar.metrics == metrics
    assert columnar.summary == summary
    assert columnar.metrics["preemptions"] > 0


@pytest.mark.parametrize("algorithm,graph", [case[:2] for case in CASES],
                         ids=IDS)
def test_faults_cost_time_but_not_output(algorithm, graph):
    clean = Session(CONFIG).run(algorithm, graph, seed=5)
    faulty = Session(CONFIG, fault_plan=_plan()).run(
        algorithm, graph, seed=5)
    # re-execution is deterministic: output unchanged, time grows
    assert faulty.summary == clean.summary
    assert faulty.metrics["preemptions"] > 0
    assert (faulty.metrics["simulated_time_s"]
            >= clean.metrics["simulated_time_s"])
