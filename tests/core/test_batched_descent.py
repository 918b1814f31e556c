"""The batched query phases against their scalar oracles.

``_IsInMIS``, ``_PrimSearch`` and ``_PointerJump`` serve a machine's
whole partition through ``DoFn.process_batch`` as frontier sweeps; their
per-element ``process`` methods are the reference.  Switching the batch
hook off (``process_batch = None`` sends ``par_do`` down the per-element
loop) turns any run into its oracle, and the two must agree on
everything the simulator reports: outputs, every stage's per-machine
``MachineWork`` (all six fields), the store's ``shard_reads``, every
metric and the summary — on a plain store, through an 8-deep ``derive()``
chain and on a backed store, under a fault plan and under a per-machine
query budget.
"""

import contextlib
import copy
import dataclasses
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.ampc.cluster import ClusterConfig
from repro.ampc.faults import FaultPlan
from repro.ampc.runtime import AMPCRuntime, BudgetExceededError
from repro.ampc.vector import HAVE_NUMPY
from repro.api import registry
from repro.core import mis as mis_module
from repro.core import msf as msf_module
from repro.dataflow.dofn import MachineContext
from repro.distdht.backing import InMemoryBackingStore
from repro.graph.graph import Graph, WeightedGraph
from repro.sequential.mst import kruskal_msf
from repro.sequential.validate import is_maximal_independent_set

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the sweeps need numpy (the scalar path is all "
                           "there is without it)")

BATCHED = (mis_module._IsInMIS, msf_module._PrimSearch,
           msf_module._PointerJump)
DERIVE_DEPTH = 8


@contextlib.contextmanager
def scalar_oracle():
    """Run the query phases one element at a time, without replay."""
    saved = [cls.__dict__["process_batch"] for cls in BATCHED]
    for cls in BATCHED:
        cls.process_batch = None
    try:
        yield
    finally:
        for cls, hook in zip(BATCHED, saved):
            cls.process_batch = hook


@dataclasses.dataclass
class Trace:
    output: object
    summary: object
    error: object
    stages: list
    shard_reads: list
    metrics: dict


def _rederive(prepared, runtime, generation):
    """One more copy-on-write generation holding the same logical content:
    every eighth record is rewritten (to its own value) into the overlay,
    the rest fall through to the ancestors."""
    child = runtime.derive_store(prepared.store)
    for key, value in prepared.records[generation::DERIVE_DEPTH]:
        child.write(key, value)
    child.seal()
    return dataclasses.replace(prepared, store=child)


def trace(algorithm, graph, *, config, seed=0, layout="plain",
          faulty=False, prepared=None, **params):
    """Prepare and run ``algorithm``; record everything observable."""
    backing = InMemoryBackingStore() if layout == "mem" else None
    spec = registry.get(algorithm)
    if prepared is None:
        # prepared as a Session would: by an earlier, unbudgeted runtime
        # (the per-machine query budget would trip on the KV write)
        staging = AMPCRuntime(
            config=config.with_overrides(query_budget_per_machine=None),
            backing=backing)
        prepared = spec.prepare(graph, runtime=staging, seed=seed)
        if layout == "derived":
            for generation in range(DERIVE_DEPTH):
                prepared = _rederive(prepared, staging, generation)
    plan = FaultPlan(preempt_probability=0.4, seed=11) if faulty else None
    runtime = AMPCRuntime(config=config, fault_plan=plan,
                          backing=getattr(prepared.store, "backing", None))
    stages = []
    finish_stage = runtime.cluster.finish_stage

    def recording(works):
        stages.append([copy.copy(work) for work in works])
        return finish_stage(works)

    runtime.cluster.finish_stage = recording
    output = summary = error = None
    try:
        result = spec.run(graph, runtime=runtime, seed=seed,
                          prepared=prepared, **params)
    except BudgetExceededError as caught:
        error = str(caught)
    else:
        summary = spec.summarize(result, graph)
        output = (sorted(result.independent_set) if algorithm == "mis"
                  else result.forest)
    return Trace(output, summary, error, stages,
                 list(prepared.store.shard_reads),
                 runtime.metrics.summary()), prepared


def assert_batched_equals_scalar(algorithm, graph, **options):
    batched, _ = trace(algorithm, graph, **options)
    with scalar_oracle():
        scalar, _ = trace(algorithm, graph, **options)
    assert batched.error == scalar.error
    assert batched.output == scalar.output
    assert batched.summary == scalar.summary
    assert batched.stages == scalar.stages
    assert batched.shard_reads == scalar.shard_reads
    assert batched.metrics == scalar.metrics
    return batched


# -- inputs ------------------------------------------------------------------


@st.composite
def edge_lists(draw, max_vertices=40):
    n = draw(st.integers(0, max_vertices))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    return n, [(u, v) for u, v in edges if u != v]


def plain_graph(n, edges):
    graph = Graph(n)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def weighted_graph(n, edges, weights=(1.0, 2.0, 3.0)):
    """Few distinct weights: ties everywhere, so the (weight, endpoints)
    tie-break of the heap order is what decides."""
    graph = WeightedGraph(n)
    for index, (u, v) in enumerate(edges):
        graph.add_edge(u, v, weights[(u * 7 + v * 3 + index) % len(weights)])
    return graph


configs = st.builds(
    ClusterConfig,
    num_machines=st.integers(1, 4),
    caching=st.booleans(),
    query_budget_per_machine=st.sampled_from([None, None, 3, 12, 40]),
)
layouts = st.sampled_from(["plain", "derived", "mem"])

DEGENERATE = {
    "empty": (0, []),
    "one-vertex": (1, []),
    "isolated": (6, []),
    "one-edge": (2, [(0, 1)]),
    "star": (9, [(0, leaf) for leaf in range(1, 9)]),
    "path": (7, [(v, v + 1) for v in range(6)]),
    "two-triangles": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
}


# -- the equivalence properties ---------------------------------------------


@settings(max_examples=120, deadline=None)
@given(edge_lists(), configs, layouts, st.integers(0, 3), st.booleans())
def test_mis_sweep_matches_the_scalar_descent(shape, config, layout, seed,
                                              faulty):
    assert_batched_equals_scalar("mis", plain_graph(*shape), config=config,
                                 layout=layout, seed=seed, faulty=faulty)


@settings(max_examples=120, deadline=None)
@given(edge_lists(), configs, layouts, st.integers(0, 3), st.booleans(),
       st.sampled_from([None, None, 1, 2, 3, 6]))
def test_msf_sweeps_match_the_scalar_searches(shape, config, layout, seed,
                                              faulty, search_budget):
    assert_batched_equals_scalar(
        "msf", weighted_graph(*shape), config=config, layout=layout,
        seed=seed, faulty=faulty, search_budget=search_budget)


@pytest.mark.parametrize("layout", ["plain", "derived", "mem"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_graphs(name, layout):
    n, edges = DEGENERATE[name]
    config = ClusterConfig(num_machines=3)
    graph = plain_graph(n, edges)
    result = assert_batched_equals_scalar("mis", graph, config=config,
                                          layout=layout, seed=2)
    assert is_maximal_independent_set(graph, result.output)
    # one weight everywhere: the endpoints alone order the heap
    tied = weighted_graph(n, edges, weights=(5.0,))
    result = assert_batched_equals_scalar("msf", tied, config=config,
                                          layout=layout, seed=2)
    assert result.output == sorted(kruskal_msf(tied))


def test_a_fault_plan_preempts_the_same_cells():
    graph = weighted_graph(24, [(v, (v * 5 + 1) % 24) for v in range(24)]
                           + [(v, (v + 1) % 24) for v in range(24)])
    config = ClusterConfig(num_machines=4)
    for algorithm, subject in (("mis", plain_graph(24, list(
            (u, v) for u, v, _ in graph.edges()))), ("msf", graph)):
        result = assert_batched_equals_scalar(algorithm, subject,
                                              config=config, faulty=True)
        assert result.metrics["preemptions"] > 0


def test_the_query_budget_trips_on_the_same_machine():
    n = 40
    edges = [(v, (v + 1) % n) for v in range(n)] + [
        (v, (v * 7 + 3) % n) for v in range(0, n, 2)]
    config = ClusterConfig(num_machines=3, query_budget_per_machine=4)
    for algorithm, graph in (("mis", plain_graph(n, edges)),
                             ("msf", weighted_graph(n, edges))):
        result = assert_batched_equals_scalar(algorithm, graph,
                                              config=config)
        assert "KV queries in stage" in result.error


# -- replay ------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["mis", "msf"])
def test_replay_charges_what_the_first_run_charged(algorithm):
    """A second run against the same sealed plain store replays the
    recorded stage instead of walking it: nothing observable differs."""
    n = 60
    edges = [(v, (v + 1) % n) for v in range(n)] + [
        (v, (v * 11 + 5) % n) for v in range(0, n, 3)]
    graph = (plain_graph(n, edges) if algorithm == "mis"
             else weighted_graph(n, edges))
    config = ClusterConfig(num_machines=4)
    first, prepared = trace(algorithm, graph, config=config, seed=1)
    reads_once = list(first.shard_reads)
    calls = []
    lookup_many = MachineContext.lookup_many

    def counting(self, store, keys):
        if store is prepared.store:
            calls.append(len(keys))
        return lookup_many(self, store, keys)

    MachineContext.lookup_many = counting
    try:
        second, _ = trace(algorithm, graph, config=config, seed=1,
                          prepared=prepared)
    finally:
        MachineContext.lookup_many = lookup_many
    assert calls == []  # replayed, not re-read
    assert second.output == first.output
    assert second.summary == first.summary
    assert second.stages == first.stages
    assert second.shard_reads == [2 * reads for reads in reads_once]
    # another cluster shape is another record, not a stale replay
    other = ClusterConfig(num_machines=3)
    third, _ = trace(algorithm, graph, config=other, seed=1,
                     prepared=prepared)
    with scalar_oracle():
        _, fresh = trace(algorithm, graph, config=config, seed=1)
        reference, _ = trace(algorithm, graph, config=other, seed=1,
                             prepared=fresh)
    assert third.output == reference.output
    assert third.stages == reference.stages


# -- what reaches a real backing store --------------------------------------


class CountingBacking(InMemoryBackingStore):
    """Counts single-key and batched reads, and which keys they fetched."""

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self):
        self.gets = 0
        self.get_manys = 0
        self.fetched = Counter()

    @staticmethod
    def _logical(key: bytes):
        # namespace "s<pid>.<n>|<store name>|" + pickled key
        _, name, pickled = key.split(b"|", 2)
        return name, pickle.loads(pickled)

    def get(self, key):
        self.gets += 1
        self.fetched[self._logical(key)] += 1
        return super().get(key)

    def get_many(self, keys):
        self.get_manys += 1
        self.fetched.update(self._logical(key) for key in keys)
        # not via self.get: a batched read is one call
        return [InMemoryBackingStore.get(self, key) for key in keys]


def _query_traffic(algorithm, graph, config):
    backing = CountingBacking()
    runtime = AMPCRuntime(config=config, backing=backing)
    spec = registry.get(algorithm)
    prepared = spec.prepare(graph, runtime=runtime, seed=3)
    backing.reset()
    sweeps = []
    lookup_many = MachineContext.lookup_many

    def counting(self, store, keys):
        sweeps.append(len(keys))
        return lookup_many(self, store, keys)

    MachineContext.lookup_many = counting
    try:
        spec.run(graph, runtime=runtime, seed=3, prepared=prepared)
    finally:
        MachineContext.lookup_many = lookup_many
    return backing, sweeps


@pytest.mark.parametrize("algorithm", ["mis", "msf"])
def test_a_backed_query_reads_in_batches_only(algorithm):
    n = 48
    edges = [(v, (v + 1) % n) for v in range(n)] + [
        (v, (v * 5 + 2) % n) for v in range(0, n, 2)]
    graph = (plain_graph(n, edges) if algorithm == "mis"
             else weighted_graph(n, edges))
    config = ClusterConfig(num_machines=3)
    batched, sweeps = _query_traffic(algorithm, graph, config)
    with scalar_oracle():
        scalar, _ = _query_traffic(algorithm, graph, config)
    assert batched.gets == 0
    # at most one backing round trip per sweep per machine
    assert 0 < batched.get_manys <= len(sweeps)
    assert scalar.get_manys == 0 and scalar.gets > 0
    assert batched.fetched == scalar.fetched
