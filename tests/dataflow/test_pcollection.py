"""Tests for the dataflow engine."""

import pytest

from repro.ampc import ClusterConfig, DHTStore
from repro.dataflow import DoFn, Pipeline
from repro.dataflow.pcollection import BudgetExceededError


def make_pipeline(machines=4, **overrides):
    return Pipeline(config=ClusterConfig(num_machines=machines, **overrides))


class TestBasics:
    def test_from_items_and_collect(self):
        pipeline = make_pipeline()
        pcoll = pipeline.from_items([1, 2, 3])
        assert sorted(pcoll.collect()) == [1, 2, 3]
        assert pcoll.count() == 3
        assert not pcoll.is_empty()

    def test_from_items_no_charge(self):
        pipeline = make_pipeline()
        pipeline.from_items(range(100))
        assert pipeline.metrics.shuffles == 0
        assert pipeline.metrics.simulated_time_s == 0.0

    def test_keyed_placement(self):
        pipeline = make_pipeline()
        pcoll = pipeline.from_items(range(50), key_fn=lambda x: x)
        cluster = pipeline.cluster
        for machine_id, part in enumerate(pcoll._partitions):
            assert all(cluster.machine_for(x) == machine_id for x in part)

    def test_empty(self):
        pipeline = make_pipeline()
        assert pipeline.empty().is_empty()


class TestParDo:
    def test_map(self):
        pipeline = make_pipeline()
        out = pipeline.from_items([1, 2, 3]).map_elements(lambda x: x * 2)
        assert sorted(out.collect()) == [2, 4, 6]

    def test_flat_map(self):
        pipeline = make_pipeline()
        out = pipeline.from_items([2, 3]).flat_map(range)
        assert sorted(out.collect()) == [0, 0, 1, 1, 2]

    def test_filter(self):
        pipeline = make_pipeline()
        out = pipeline.from_items(range(10)).filter_elements(lambda x: x % 2 == 0)
        assert sorted(out.collect()) == [0, 2, 4, 6, 8]

    def test_par_do_stays_on_machine(self):
        pipeline = make_pipeline()
        pcoll = pipeline.from_items(range(20), key_fn=lambda x: x)
        before = pcoll.partition_sizes()
        after = pcoll.map_elements(lambda x: x).partition_sizes()
        assert before == after

    def test_par_do_charges_time_not_shuffles(self):
        pipeline = make_pipeline()
        pipeline.from_items(range(10)).map_elements(lambda x: x)
        assert pipeline.metrics.shuffles == 0
        assert pipeline.metrics.simulated_time_s > 0

    def test_start_machine_called_once_per_machine(self):
        calls = []

        class Tracking(DoFn):
            def start_machine(self, ctx):
                calls.append(ctx.machine_id)

            def process(self, element, ctx):
                return ()

        pipeline = make_pipeline(machines=3)
        pipeline.from_items(range(9)).par_do(Tracking())
        assert sorted(calls) == [0, 1, 2]


class TestShuffles:
    def test_group_by_key(self):
        pipeline = make_pipeline()
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        grouped = dict(pipeline.from_items(pairs).group_by_key().collect())
        assert sorted(grouped["a"]) == [1, 3]
        assert grouped["b"] == [2]
        assert pipeline.metrics.shuffles == 1
        assert pipeline.metrics.shuffle_bytes > 0

    def test_group_places_by_key_hash(self):
        pipeline = make_pipeline()
        grouped = pipeline.from_items([(i, i) for i in range(40)]).group_by_key()
        cluster = pipeline.cluster
        for machine_id, part in enumerate(grouped._partitions):
            assert all(cluster.machine_for(k) == machine_id for k, _ in part)

    def test_repartition(self):
        pipeline = make_pipeline()
        pcoll = pipeline.from_items(range(40)).repartition(lambda x: x // 10)
        assert pipeline.metrics.shuffles == 1
        assert sorted(pcoll.collect()) == list(range(40))

    def test_to_single_machine(self):
        pipeline = make_pipeline()
        gathered = pipeline.from_items(range(10)).to_single_machine()
        assert gathered.partition_sizes()[0] == 10
        assert sum(gathered.partition_sizes()[1:]) == 0
        assert pipeline.metrics.shuffles == 1

    def test_flatten_is_free(self):
        pipeline = make_pipeline()
        a = pipeline.from_items([1, 2])
        b = pipeline.from_items([3])
        shuffles_before = pipeline.metrics.shuffles
        merged = a.flatten_with(b)
        assert sorted(merged.collect()) == [1, 2, 3]
        assert pipeline.metrics.shuffles == shuffles_before


class TestKVAccess:
    def test_lookup_and_write_metered(self):
        pipeline = make_pipeline()
        store = DHTStore("s", num_shards=4)
        store.write_many([(i, i * 10) for i in range(10)])
        store.seal()

        class Reader(DoFn):
            def process(self, element, ctx):
                yield ctx.lookup(store, element)

        out = pipeline.from_items(range(10)).par_do(Reader())
        assert sorted(out.collect()) == [i * 10 for i in range(10)]
        assert pipeline.metrics.kv_reads == 10
        assert pipeline.metrics.kv_read_bytes > 0

    def test_budget_enforced(self):
        pipeline = make_pipeline(machines=1, query_budget_per_machine=5)
        store = DHTStore("s", num_shards=1)
        store.write("k", 1)
        store.seal()

        class Chatty(DoFn):
            def process(self, element, ctx):
                for _ in range(10):
                    ctx.lookup(store, "k")
                return ()

        with pytest.raises(BudgetExceededError):
            pipeline.from_items([0]).par_do(Chatty())

    def test_cache_hit_accounting(self):
        pipeline = make_pipeline()

        class Cachey(DoFn):
            def process(self, element, ctx):
                ctx.note_cache_hit()
                return ()

        pipeline.from_items(range(8)).par_do(Cachey())
        assert pipeline.metrics.cache_hits == 8


class TestDriverFallback:
    def test_run_on_driver_charges_time(self):
        pipeline = make_pipeline()
        before = pipeline.metrics.simulated_time_s
        pipeline.run_on_driver(10**8)
        assert pipeline.metrics.simulated_time_s > before
