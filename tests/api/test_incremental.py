"""Incremental (batch-dynamic) preprocessing: patch, don't re-prepare.

The acceptance contract of the incremental path: for every spec with an
``update`` hook, a run served by patching a cached ancestor artifact must
produce **exactly** the result a from-scratch prepare+run on the mutated
graph produces — while ``SessionStats`` proves the patch path actually ran
(``incremental_updates``) and every fallback is a counted full prepare.
"""

import random
from dataclasses import fields, is_dataclass

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.ampc.dht import DerivedDHTStore
from repro.api import Session, SessionStats, registry
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.graph import Graph, WeightedGraph

CONFIG = ClusterConfig(num_machines=4)

#: every registered spec with an incremental update hook — auto-covers
#: hooks added later
UPDATE_SPECS = [spec.name for spec in registry.specs()
                if spec.update is not None]


def _build_graph(input_kind: str, seed: int = 11):
    rng = random.Random(seed)
    if input_kind == "weighted":
        graph = WeightedGraph(24)
        while graph.num_edges < 60:
            u, v = rng.sample(range(24), 2)
            graph.add_edge(u, v, round(rng.random() * 10, 3))
        return graph
    return erdos_renyi_gnm(24, 60, seed=seed)


def _batch(graph, rng):
    """A mixed mutation batch: 3 deletions, 2 insertions."""
    edges = list(graph.edges())
    rng.shuffle(edges)
    deletions = [(e[0], e[1]) for e in edges[:3]]
    insertions = []
    while len(insertions) < 2:
        u, v = rng.sample(range(graph.num_vertices), 2)
        if not graph.has_edge(u, v) and (u, v) not in deletions:
            if isinstance(graph, WeightedGraph):
                insertions.append((*sorted((u, v)), round(rng.random(), 3)))
            else:
                insertions.append(tuple(sorted((u, v))))
    return insertions, deletions


def _absent_edge(graph):
    for a in graph.vertices():
        for b in graph.vertices():
            if a < b and not graph.has_edge(a, b):
                return a, b
    raise AssertionError("graph is complete")


def _signature(result):
    """The deterministic identity of a run's output."""
    signature = {"summary": result.summary}
    for field in ("independent_set", "matching", "forest", "labels",
                  "scores", "endpoints"):
        value = getattr(result.output, field, None)
        if value is not None:
            signature[field] = value
    return signature


class TestIncrementalEqualsScratch:
    @pytest.mark.parametrize("name", UPDATE_SPECS)
    def test_apply_batch_then_run_matches_from_scratch(self, name):
        spec = registry.get(name)
        session = Session(CONFIG)
        graph = _build_graph(spec.input_kind)
        handle = session.load("g", graph)
        session.run(name, "g", seed=1)
        rng = random.Random(99)
        insertions, deletions = _batch(graph, rng)
        handle.apply_batch(insertions=insertions, deletions=deletions)
        patched = session.run(name, "g", seed=1)
        scratch = Session(CONFIG).run(name, graph, seed=1)
        assert _signature(patched) == _signature(scratch)
        stats = session.stats
        assert stats.incremental_updates == 1
        assert stats.full_prepares == 1  # the cold first run
        assert stats.preprocessing_misses == 2

    @pytest.mark.parametrize("name", UPDATE_SPECS)
    def test_raw_graph_mutation_takes_the_incremental_path(self, name):
        """No handle, no apply_batch: in-place mutation of a raw graph is
        picked up through the fingerprint memo's lineage."""
        spec = registry.get(name)
        session = Session(CONFIG)
        graph = _build_graph(spec.input_kind)
        session.run(name, graph, seed=1)
        insertions, deletions = _batch(graph, random.Random(5))
        for edge in deletions:
            graph.remove_edge(edge[0], edge[1])
        for edge in insertions:
            graph.add_edge(*edge)
        patched = session.run(name, graph, seed=1)
        scratch = Session(CONFIG).run(name, graph, seed=1)
        assert _signature(patched) == _signature(scratch)
        assert session.stats.incremental_updates == 1

    def test_repeated_batches_chain_across_generations(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        session.run("mis", "g", seed=1)
        rng = random.Random(17)
        for _ in range(3):
            insertions, deletions = _batch(graph, rng)
            handle.apply_batch(insertions=insertions, deletions=deletions)
            session.run("mis", "g", seed=1)
        assert session.stats.incremental_updates == 3
        assert session.stats.full_prepares == 1
        scratch = Session(CONFIG).run("mis", graph, seed=1)
        assert (session.run("mis", "g", seed=1).output.independent_set
                == scratch.output.independent_set)

    def test_one_batch_patches_several_algorithms(self):
        """The lineage is per-graph, not per-spec: one mutation batch lets
        every hooked spec with a cached ancestor patch independently."""
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        session.run("mis", "g", seed=1)
        session.run("matching", "g", seed=1)
        session.run("components", "g", seed=1)
        insertions, deletions = _batch(graph, random.Random(7))
        handle.apply_batch(insertions=insertions, deletions=deletions)
        for name in ("mis", "matching", "components"):
            patched = session.run(name, "g", seed=1)
            scratch = Session(CONFIG).run(name, graph, seed=1)
            assert _signature(patched) == _signature(scratch), name
        assert session.stats.incremental_updates == 3


def _walk(obj):
    """Every object a deep walk of an artifact reaches: dataclass
    fields, dict values, list and tuple items."""
    yield obj
    if is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, field_.name) for field_ in fields(obj)]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        return
    for child in children:
        yield from _walk(child)


class TestRecordsMirrorTheStore:
    """The MIS sweep's truth and matching's search plan derive structure
    from ``prepared.records`` and only *charge* the store, so the two
    must hold the same content in every generation of an artifact."""

    @pytest.mark.parametrize("name", UPDATE_SPECS)
    def test_through_update_batches_and_a_fold(self, name):
        session = Session(CONFIG, max_chain_generations=2)
        graph = _build_graph(registry.get(name).input_kind)
        handle = session.load("g", graph)
        rng = random.Random(5)
        generations = []
        for _ in range(5):
            session.run(name, "g", seed=1)
            entry = next(reversed(session._cache.values()))  # just served
            generations.append(entry.generations)
            reached = list(_walk(entry.prepared))
            for part in reached:
                store = getattr(part, "store", None)
                if store is None or not hasattr(part, "records"):
                    continue
                records = part.records
                values, _ = store.lookup_many([key for key, _ in records])
                assert values == [value for _, value in records]
                assert store.total_entries == len(records)
            if entry.generations == 0:  # a prepare or a fold: no chain
                assert not any(isinstance(part, DerivedDHTStore)
                               for part in reached)
            insertions, deletions = _batch(graph, rng)
            handle.apply_batch(insertions=insertions, deletions=deletions)
        # a prepare, two derived generations, the fold, a derived one
        assert generations == [0, 1, 2, 0, 1]


class TestFallbacks:
    def test_journal_truncation_falls_back_to_full_prepare(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        graph.journal_limit = 2
        handle = session.load("g", graph)
        session.run("mis", "g", seed=1)
        edges = list(graph.edges())
        handle.apply_batch(deletions=[(e[0], e[1]) for e in edges[:6]])
        result = session.run("mis", "g", seed=1)
        stats = session.stats
        assert stats.incremental_updates == 0
        assert stats.full_prepares == 2
        scratch = Session(CONFIG).run("mis", graph, seed=1)
        assert result.output.independent_set == scratch.output.independent_set

    def test_spec_without_hook_falls_back(self):
        assert registry.get("matching-phases").update is None
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        session.run("matching-phases", "g", seed=1)
        insertions, deletions = _batch(graph, random.Random(3))
        handle.apply_batch(insertions=insertions, deletions=deletions)
        result = session.run("matching-phases", "g", seed=1)
        assert session.stats.incremental_updates == 0
        assert session.stats.full_prepares == 2
        scratch = Session(CONFIG).run("matching-phases", graph, seed=1)
        assert result.output.matching == scratch.output.matching

    def test_vertex_addition_falls_back(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        session.load("g", graph)
        session.run("mis", "g", seed=1)
        new = graph.add_vertex()
        graph.add_edge(new, 0)
        result = session.run("mis", "g", seed=1)
        assert session.stats.incremental_updates == 0
        scratch = Session(CONFIG).run("mis", graph, seed=1)
        assert result.output.independent_set == scratch.output.independent_set

    def test_interleaved_add_remove_of_same_edge(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        session.run("mis", "g", seed=1)
        u, v = next(iter(graph.edges()))
        graph.remove_edge(u, v)
        graph.add_edge(u, v)
        graph.remove_edge(u, v)   # net effect: one deletion
        handle.apply_batch()      # no-op batch, picks up the journal
        result = session.run("mis", "g", seed=1)
        assert session.stats.incremental_updates == 1
        scratch = Session(CONFIG).run("mis", graph, seed=1)
        assert result.output.independent_set == scratch.output.independent_set

    def test_weight_change_delta_patches_msf(self):
        session = Session(CONFIG)
        graph = _build_graph("weighted")
        handle = session.load("w", graph)
        before = session.run("msf", "w", seed=1)
        in_forest = set(before.output.forest)
        u, v = next((u, v) for u, v, _w in graph.edges()
                    if (u, v) not in in_forest)
        handle.apply_batch(insertions=[(u, v, 1e-9)])  # now globally lightest
        assert graph.weight(u, v) == 1e-9
        result = session.run("msf", "w", seed=1)
        assert session.stats.incremental_updates == 1
        scratch = Session(CONFIG).run("msf", graph, seed=1)
        assert result.output.forest == scratch.output.forest
        assert result.summary == scratch.summary
        # the weight change actually reached the patched adjacency: the
        # now-lightest edge must have entered the forest
        assert (u, v) in set(result.output.forest)


class TestIsolation:
    def test_patching_never_perturbs_the_ancestor_entry(self):
        """After an incremental update, the *original* artifact still
        serves a content-equal twin of the original graph, bit-for-bit."""
        session = Session(CONFIG)
        graph = erdos_renyi_gnm(24, 60, seed=11)
        twin = erdos_renyi_gnm(24, 60, seed=11)
        handle = session.load("g", graph)
        session.run("mis", "g", seed=1)
        warm = session.run("mis", "g", seed=1)  # a pre-mutation cache hit
        edges = list(graph.edges())
        handle.apply_batch(deletions=[(e[0], e[1]) for e in edges[:4]])
        session.run("mis", "g", seed=1)
        served = session.run("mis", twin, seed=1)
        assert served.preprocessing_reused  # the old entry, untouched
        assert served.output.independent_set == warm.output.independent_set
        # byte-identical simulated metrics: the artifact did not change
        assert served.metrics == warm.metrics

    def test_lru_eviction_of_parent_keeps_child_serving(self):
        """Evicting the ancestor cache entry must not break the derived
        child (the sealed parent store stays alive through the child)."""
        session = Session(CONFIG)
        graph = erdos_renyi_gnm(24, 60, seed=12)
        handle = session.load("g", graph)
        session.run("mis", "g", seed=1)
        edges = list(graph.edges())
        handle.apply_batch(deletions=[(e[0], e[1]) for e in edges[:2]])
        session.run("mis", "g", seed=1)
        assert session.stats.incremental_updates == 1
        # shrink the budget so the next (tiny) insertion evicts exactly
        # the oldest entry — the patched entry's parent
        session.max_cache_bytes = session.cache_bytes - 1
        tiny = erdos_renyi_gnm(6, 5, seed=1)
        session.run("mis", tiny, seed=1)  # insertion triggers eviction
        assert session.stats.preprocessing_evictions == 1
        # the child's entry still serves, reading through the live parent
        again = session.run("mis", "g", seed=1)
        assert again.preprocessing_reused
        scratch = Session(CONFIG).run("mis", graph, seed=1)
        assert again.output.independent_set == scratch.output.independent_set


class TestBatchValidation:
    def test_malformed_batch_leaves_graph_untouched(self):
        """apply_batch is all-or-nothing: validation happens before any
        mutation, so a bad row can never leave a half-applied batch."""
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        version = graph.content_version
        fingerprint = handle.fingerprint
        edges = list(graph.edges())
        with pytest.raises(ValueError):  # duplicate deletion row
            handle.apply_batch(deletions=[edges[0], edges[1], edges[0]])
        with pytest.raises(KeyError):  # absent edge
            handle.apply_batch(deletions=[_absent_edge(graph)])
        with pytest.raises(ValueError):
            handle.apply_batch(insertions=[(1, 1)])  # self loop
        with pytest.raises(IndexError):
            handle.apply_batch(insertions=[(0, 10_000)])
        assert graph.content_version == version
        assert handle.fingerprint == fingerprint
        assert sorted(graph.edges()) == sorted(edges)

    def test_weighted_insertions_require_triples(self):
        session = Session(CONFIG)
        graph = _build_graph("weighted")
        handle = session.load("w", graph)
        with pytest.raises(ValueError):
            handle.apply_batch(insertions=[(0, 1)])  # missing weight
        assert graph.content_version == handle.content_version

    def test_duplicate_deletion_rejected_up_front(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        u, v = next(iter(graph.edges()))
        before = graph.num_edges
        with pytest.raises(ValueError):
            handle.apply_batch(deletions=[(u, v), (v, u)])
        assert graph.num_edges == before


class TestHandleReload:
    def test_reregistering_a_handle_moves_the_name(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("a", graph)
        same = session.load("b", handle)
        assert same is handle
        assert handle.name == "b"
        assert session.graphs() == ["b"]  # "a" does not linger
        with pytest.raises(KeyError):
            session.handle("a")


class TestPrepareAPI:
    def test_prepare_warms_and_counts(self):
        session = Session(CONFIG)
        graph = _build_graph("graph")
        handle = session.load("g", graph)
        assert session.prepare("mis", "g", seed=1) is False  # cold
        assert session.prepare("mis", "g", seed=1) is True   # warm
        assert session.stats.full_prepares == 1
        assert session.stats.preprocessing_hits == 1
        assert session.stats.runs == 0
        result = session.run("mis", "g", seed=1)
        assert result.preprocessing_reused
        insertions, deletions = _batch(graph, random.Random(1))
        handle.apply_batch(insertions=insertions, deletions=deletions)
        assert session.prepare("mis", "g", seed=1) is False
        assert session.stats.incremental_updates == 1

    def test_stats_counters_round_trip(self):
        stats = SessionStats(incremental_updates=2, full_prepares=3)
        merged = SessionStats.sum([stats, stats])
        assert merged.incremental_updates == 4
        assert merged.full_prepares == 6
        assert merged.to_dict()["incremental_updates"] == 4
