"""The batched query phases against their scalar oracles.

``_IsInMIS``, ``_PrimSearch`` and ``_PointerJump`` serve a machine's
whole partition through ``DoFn.process_batch`` as frontier sweeps, and
``_IsInMM`` as one walk over slot columns followed by its reads in
batches; their per-element ``process`` methods are the reference.  Switching the
batch hook off (``process_batch = None`` sends ``par_do`` down the
per-element loop) turns any run into its oracle, and the two must agree
on everything the simulator reports: outputs, every stage's per-machine
``MachineWork`` (all six fields), the store's ``shard_reads``, every
metric and the summary — on a plain store, through an 8-deep ``derive()``
chain and on a backed store, under a fault plan and under a per-machine
query budget.
"""

import contextlib
import copy
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.ampc.cluster import ClusterConfig
from repro.ampc.faults import FaultPlan
from repro.ampc.runtime import AMPCRuntime, BudgetExceededError
from repro.api import registry
from repro.core import matching as matching_module
from repro.core import mis as mis_module
from repro.core import msf as msf_module
from repro.dataflow.dofn import MachineContext
from repro.distdht.backing import InMemoryBackingStore, decode_key
from repro.graph.graph import Graph, WeightedGraph
from repro.sequential.mst import kruskal_msf
from repro.sequential.validate import (is_maximal_independent_set,
                                       is_maximal_matching)

BATCHED = (mis_module._IsInMIS, matching_module._IsInMM,
           msf_module._PrimSearch, msf_module._PointerJump)
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
                  else sorted(result.matching) if algorithm == "matching"
                  else result.forest)
    return Trace(output, summary, error, stages,
                 list(prepared.store.shard_reads),
                 runtime.metrics.summary()), prepared


def assert_batched_equals_scalar(algorithm, graph, rerun=False, **options):
    batched, prepared = trace(algorithm, graph, **options)
    with scalar_oracle():
        scalar, _ = trace(algorithm, graph, **options)
    assert batched.error == scalar.error
    assert batched.output == scalar.output
    assert batched.summary == scalar.summary
    assert batched.stages == scalar.stages
    assert batched.shard_reads == scalar.shard_reads
    assert batched.metrics == scalar.metrics
    if rerun:
        # the same artifact again (a replay, where the store records one)
        again, _ = trace(algorithm, graph, prepared=prepared, **options)
        assert again.shard_reads == [2 * reads
                                     for reads in batched.shard_reads]
        assert dataclasses.replace(
            again, shard_reads=batched.shard_reads) == batched
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


@st.composite
def hubs_and_chains(draw, max_vertices=48):
    """High-degree and long-chain graphs — where the prefixes matching's
    sweep takes in bulk are long: a few hubs wired to many vertices, or a
    path through a drawn vertex order; random chords on top."""
    n = draw(st.integers(2, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges += zip(order, order[1:])
    else:
        for hub in draw(st.lists(vertex, min_size=1, max_size=3)):
            edges += [(hub, spoke)
                      for spoke in draw(st.sets(vertex, min_size=n // 2))]
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


@settings(max_examples=120, deadline=None)
@given(st.one_of(edge_lists(), hubs_and_chains()), configs, layouts,
       st.integers(0, 3), st.booleans(), st.sampled_from([None, None, 1, 6]))
def test_matching_batch_hook_matches_the_per_element_loop(
        shape, config, layout, seed, faulty, search_budget):
    """``_IsInMM``'s sweep (its scalar loop, under a ``search_budget`` or
    with the cache off) beneath the stage replay against the bare loop:
    the recording run and the run after it (a replay on a plain store)."""
    assert_batched_equals_scalar(
        "matching", plain_graph(*shape), rerun=True, config=config,
        layout=layout, seed=seed, faulty=faulty, search_budget=search_budget)


@pytest.mark.parametrize("layout", ["plain", "derived", "mem"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_graphs(name, layout):
    n, edges = DEGENERATE[name]
    config = ClusterConfig(num_machines=3)
    graph = plain_graph(n, edges)
    result = assert_batched_equals_scalar("mis", graph, config=config,
                                          layout=layout, seed=2)
    assert is_maximal_independent_set(graph, result.output)
    result = assert_batched_equals_scalar("matching", graph, config=config,
                                          layout=layout, seed=2)
    assert is_maximal_matching(graph, result.output)
    # one weight everywhere: the endpoints alone order the heap
    tied = weighted_graph(n, edges, weights=(5.0,))
    result = assert_batched_equals_scalar("msf", tied, config=config,
                                          layout=layout, seed=2)
    assert result.output == sorted(kruskal_msf(tied))


def test_a_fault_plan_preempts_the_same_cells():
    graph = weighted_graph(24, [(v, (v * 5 + 1) % 24) for v in range(24)]
                           + [(v, (v + 1) % 24) for v in range(24)])
    # eight cells a stage: the plan's first draws spare matching's single
    # query stage on fewer
    config = ClusterConfig(num_machines=8)
    plain = plain_graph(24, [(u, v) for u, v, _ in graph.edges()])
    for algorithm, subject in (("mis", plain), ("matching", plain),
                               ("msf", graph)):
        result = assert_batched_equals_scalar(algorithm, subject,
                                              config=config, faulty=True)
        assert result.metrics["preemptions"] > 0


def test_the_query_budget_trips_on_the_same_machine():
    n = 40
    edges = [(v, (v + 1) % n) for v in range(n)] + [
        (v, (v * 7 + 3) % n) for v in range(0, n, 2)]
    config = ClusterConfig(num_machines=3, query_budget_per_machine=4)
    for algorithm, graph in (("mis", plain_graph(n, edges)),
                             ("matching", plain_graph(n, edges)),
                             ("msf", weighted_graph(n, edges))):
        result = assert_batched_equals_scalar(algorithm, graph, rerun=True,
                                              config=config)
        assert "KV queries in stage" in result.error


# -- replay ------------------------------------------------------------------


REPLAY_EDGES = [(v, (v + 1) % 60) for v in range(60)] + [
    (v, (v * 11 + 5) % 60) for v in range(0, 60, 3)]


def replay_graph(algorithm):
    return (weighted_graph(60, REPLAY_EDGES) if algorithm == "msf"
            else plain_graph(60, REPLAY_EDGES))


@contextlib.contextmanager
def counted_walks(store):
    """What a run really walks: the keys of every batched read of
    ``store``, and the root of every per-element MIS or matching search
    that actually runs (a sweep runs none)."""
    reads, searches = [], []
    walkers = [(mis_module._IsInMIS, "_resolve"),
               (matching_module._IsInMM, "_vertex_search")]
    saved = [getattr(cls, name) for cls, name in walkers]

    def counting_reads(read):
        def counted(self, target, keys):
            if target is store:
                reads.append(list(keys))
            return read(self, target, keys)
        return counted

    def counting(search):
        def counted(self, root, *args):
            searches.append(root)
            return search(self, root, *args)
        return counted

    with counted_batches(counting_reads):
        for (cls, name), search in zip(walkers, saved):
            setattr(cls, name, counting(search))
        try:
            yield reads, searches
        finally:
            for (cls, name), search in zip(walkers, saved):
                setattr(cls, name, search)


@contextlib.contextmanager
def counted_batches(wrap):
    """Both batched reads of ``MachineContext`` — ``lookup_many`` and
    ``lookup_block`` — wrapped by ``wrap(original)`` for the duration."""
    originals = {name: getattr(MachineContext, name)
                 for name in ("lookup_many", "lookup_block")}
    for name, read in originals.items():
        setattr(MachineContext, name, wrap(read))
    try:
        yield
    finally:
        for name, read in originals.items():
            setattr(MachineContext, name, read)


@pytest.mark.parametrize("algorithm", ["mis", "matching", "msf"])
def test_replay_charges_what_the_first_run_charged(algorithm):
    """A second run against the same sealed plain store replays the
    recorded stage instead of walking it: nothing observable differs."""
    graph = replay_graph(algorithm)
    config = ClusterConfig(num_machines=4)
    prepared = registry.get(algorithm).prepare(
        graph, runtime=AMPCRuntime(config=config), seed=1)
    with counted_walks(prepared.store) as (reads, _):
        first, _ = trace(algorithm, graph, config=config, seed=1,
                         prepared=prepared)
    assert reads != []  # the recording run really reads the store
    reads_once = list(first.shard_reads)
    with counted_walks(prepared.store) as (reads, searches):
        second, _ = trace(algorithm, graph, config=config, seed=1,
                          prepared=prepared)
    assert reads == [] and searches == []  # replayed, not re-walked
    assert second.output == first.output
    assert second.summary == first.summary
    assert second.stages == first.stages
    assert second.shard_reads == [2 * reads for reads in reads_once]
    # another cluster shape or cache switch is another record, not a
    # stale replay
    with scalar_oracle():
        _, fresh = trace(algorithm, graph, config=config, seed=1)
    for other in (ClusterConfig(num_machines=3),
                  ClusterConfig(num_machines=4, caching=False)):
        third, _ = trace(algorithm, graph, config=other, seed=1,
                         prepared=prepared)
        with scalar_oracle():
            reference, _ = trace(algorithm, graph, config=other, seed=1,
                                 prepared=fresh)
        assert third.output == reference.output
        assert third.stages == reference.stages


@pytest.mark.parametrize("algorithm", ["mis", "matching"])
def test_a_truncated_schedule_replays_its_first_round_only(algorithm):
    """With ``search_budget`` the first round still runs the store's own
    records and replays; the retry rounds depend on the states committed
    so far and are walked every time."""
    graph = replay_graph(algorithm)
    options = dict(config=ClusterConfig(num_machines=4), seed=1,
                   search_budget=1)
    first, prepared = trace(algorithm, graph, **options)
    with counted_walks(prepared.store) as (_, replayed):
        second, _ = trace(algorithm, graph, prepared=prepared, **options)
    with scalar_oracle(), counted_walks(prepared.store) as (_, walked):
        reference, _ = trace(algorithm, graph, prepared=prepared, **options)
    assert dataclasses.replace(first, shard_reads=None) == \
        dataclasses.replace(second, shard_reads=None) == \
        dataclasses.replace(reference, shard_reads=None)
    assert second.shard_reads == [2 * reads for reads in first.shard_reads]
    assert reference.shard_reads == [3 * reads for reads in first.shard_reads]
    # round one walks every vertex; the replaying run skipped exactly that
    assert sorted(walked[:graph.num_vertices]) == list(graph.vertices())
    assert replayed == walked[graph.num_vertices:] != []


def test_matching_sweeps_only_the_unbudgeted_cached_first_round():
    """``caching=False``, a ``search_budget`` and the truncated rounds
    after the first still go through ``_vertex_search``, root by root."""
    graph = replay_graph("matching")
    vertices = list(graph.vertices())

    def searched(caching=True, **params):
        with counted_walks(None) as (_, searches):
            trace("matching", graph, seed=1, config=ClusterConfig(
                num_machines=4, caching=caching), **params)
        return searches

    assert searched() == []
    assert sorted(searched(caching=False)) == vertices
    budgeted = searched(search_budget=1)
    assert sorted(budgeted[:len(vertices)]) == vertices
    assert budgeted[len(vertices):] != []  # the parked ones, retried


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
        # namespace "s<pid>.<n>|<store name>|" + encoded key
        _, name, encoded = key.split(b"|", 2)
        return name, decode_key(encoded)

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

    def counting(read):
        def counted(self, store, keys):
            sweeps.append(len(keys))
            return read(self, store, keys)
        return counted

    with counted_batches(counting):
        spec.run(graph, runtime=runtime, seed=3, prepared=prepared)
    return backing, sweeps


def traffic_graph(algorithm, n=48):
    edges = [(v, (v + 1) % n) for v in range(n)] + [
        (v, (v * 5 + 2) % n) for v in range(0, n, 2)]
    return (weighted_graph(n, edges) if algorithm == "msf"
            else plain_graph(n, edges))


@pytest.mark.parametrize("algorithm", ["mis", "matching", "msf"])
def test_a_backed_query_reads_in_batches_only(algorithm):
    graph = traffic_graph(algorithm)
    config = ClusterConfig(num_machines=3)
    batched, sweeps = _query_traffic(algorithm, graph, config)
    with scalar_oracle():
        scalar, _ = _query_traffic(algorithm, graph, config)
    assert batched.gets == 0
    # at most one backing round trip per sweep per machine
    assert 0 < batched.get_manys <= len(sweeps)
    if algorithm == "matching":
        # the scalar edge process reads both endpoints of an edge at once
        assert scalar.gets == 0
        assert scalar.get_manys == sum(scalar.fetched.values()) // 2
    else:
        assert scalar.get_manys == 0 and scalar.gets > 0
    assert batched.fetched == scalar.fetched


def test_matching_issues_its_reads_in_bounded_batches(monkeypatch):
    """A backed store holds a whole batch raw and decoded at once, so a
    machine's reads go out ``_READ_BATCH`` keys at a time."""
    monkeypatch.setattr(matching_module, "_READ_BATCH", 8)
    graph = traffic_graph("matching")
    config = ClusterConfig(num_machines=3)
    batched, sweeps = _query_traffic("matching", graph, config)
    with scalar_oracle():
        scalar, _ = _query_traffic("matching", graph, config)
    assert max(sweeps) == 8 and len(sweeps) > config.num_machines
    assert batched.fetched == scalar.fetched


@pytest.mark.parametrize("algorithm", ["mis", "matching", "msf"])
def test_derived_and_backed_stores_are_really_read_every_run(algorithm):
    """Only a sealed plain sim store replays: a second query against a
    backed or ``derive()``d store issues the reads of the first."""
    graph = replay_graph(algorithm)
    config = ClusterConfig(num_machines=3)
    spec = registry.get(algorithm)
    backing = CountingBacking()
    prepared = spec.prepare(
        graph, runtime=AMPCRuntime(config=config, backing=backing), seed=3)
    fetched = []
    for _ in range(2):
        backing.reset()
        spec.run(graph, runtime=AMPCRuntime(config=config, backing=backing),
                 seed=3, prepared=prepared)
        fetched.append(backing.fetched)
    assert fetched[0] == fetched[1] != Counter()
    _, prepared = trace(algorithm, graph, config=config, seed=3,
                        layout="derived")
    walked = []
    for _ in range(2):
        with counted_walks(prepared.store) as (reads, _):
            trace(algorithm, graph, config=config, seed=3, prepared=prepared)
        walked.append(reads)
    assert walked[0] == walked[1] != []

