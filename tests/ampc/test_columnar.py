"""The columnar record layout and its store/dataflow twins.

``ColumnarRecords`` + ``DHTStore.write_columnar`` +
``partition_boxed``/``charge_map_stage`` are batch twins of the boxed
per-element reference paths; every observable — store content, recorded
sizes, per-shard insertion order, simulated charges, placement — must be
identical between the two.
"""

import numpy as np
import pytest

from repro.ampc import Cluster, ClusterConfig
from repro.ampc.columnar import ColumnarRecords
from repro.ampc.dht import DHTStore, StoreSealedError
from repro.ampc.vector import placement_ids
from repro.dataflow.columnar import (charge_map_stage, partition_boxed,
                                     roundrobin_counts)
from repro.dataflow.pipeline import Pipeline


def _pair_records(num_records=12, rows_per=3):
    keys = list(range(num_records))
    indptr = [rows_per * i for i in range(num_records + 1)]
    total = indptr[-1]
    ranks = [i / total for i in range(total)]
    neighbors = [7 * i % 97 for i in range(total)]
    return ColumnarRecords.ragged(keys, indptr, ranks, neighbors)


class TestColumnarRecordsShape:
    def test_items_box_the_reference_objects(self):
        records = ColumnarRecords.ragged([4, 2], [0, 2, 3],
                                         [0.5, 0.25, 0.125], [9, 8, 7])
        assert records.items() == [
            (4, ((0.5, 9), (0.25, 8))),
            (2, ((0.125, 7),)),
        ]
        # boxing is cached: same list object on the second call
        assert records.items() is records.items()

    def test_scalar_records_box_to_plain_scalars(self):
        records = ColumnarRecords.scalars([3, 1], [10, 20])
        assert records.items() == [(3, 10), (1, 20)]
        assert records.value_sizes().tolist() == [8, 8]

    def test_single_column_rows_box_to_scalar_tuples(self):
        records = ColumnarRecords.ragged([0, 1], [0, 1, 3], [5, 6, 7])
        assert records.items() == [(0, (5,)), (1, (6, 7))]

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            ColumnarRecords.ragged([0, 1], [0, 1], [5])
        with pytest.raises(ValueError):
            ColumnarRecords([0], None, ())

    def test_placement_matches_store_hash(self):
        records = _pair_records()
        store = DHTStore("s", num_shards=5)
        assert records.shard_ids(5).tolist() == [
            store.shard_of(key) for key in records.keys.tolist()
        ]


class TestWriteColumnarEquivalence:
    def test_matches_write_many_observables(self):
        records = _pair_records()
        columnar = DHTStore("col", num_shards=4)
        boxed = DHTStore("box", num_shards=4)
        total_col = columnar.write_columnar(records)
        total_box = boxed.write_many(records.items())
        assert total_col == total_box
        assert columnar.total_entries == boxed.total_entries
        assert columnar.total_value_bytes == boxed.total_value_bytes
        # keys() walks the shards in order, each in insertion order
        assert columnar.keys() == boxed.keys()
        assert [columnar.lookup_with_size(key) for key in columnar.keys()] \
            == [boxed.lookup_with_size(key) for key in boxed.keys()]

    def test_overwrites_refund_like_write_many(self):
        store = DHTStore("s", num_shards=3)
        store.write_columnar(ColumnarRecords.scalars([1, 2], [10, 20]))
        before = store.total_value_bytes
        store.write_columnar(
            ColumnarRecords.ragged([1], [0, 2], [5, 6], [7, 8]))
        assert store.total_entries == 2
        assert store.total_value_bytes == before - 8 + 32
        assert store.lookup(1) == ((5, 7), (6, 8))

    def test_sealed_store_rejects_columnar_writes(self):
        store = DHTStore("s", num_shards=2)
        store.seal()
        with pytest.raises(StoreSealedError):
            store.write_columnar(ColumnarRecords.scalars([1], [2]))

    def test_lookup_reports_precomputed_sizes(self):
        records = _pair_records(num_records=6, rows_per=2)
        store = DHTStore("s", num_shards=3)
        store.write_columnar(records)
        store.seal()
        for (key, value), size in zip(records.items(),
                                      records.value_size_list()):
            fetched, fetched_size = store.lookup_with_size(key)
            assert fetched == value
            assert fetched_size == size


class TestDataflowTwins:
    def test_partition_boxed_matches_from_items(self):
        cluster = Cluster(ClusterConfig(num_machines=4))
        pipeline = Pipeline(cluster)
        items = [(key, key * key) for key in range(50)]
        keys = np.arange(50, dtype=np.int64)
        fast = partition_boxed(pipeline, items, placement_ids(keys, 4))
        reference = pipeline.from_items(items, key_fn=lambda item: item[0])
        assert fast._partitions == reference._partitions

    @pytest.mark.parametrize("size", [0, 1, 50])
    def test_partition_boxed_slices_machine_major_items(self, size):
        """What every prepare stage emits: non-decreasing machine ids
        (machine 2 of 5 owns nothing here)."""
        pipeline = Pipeline(Cluster(ClusterConfig(num_machines=5)))
        machines = np.sort(placement_ids(np.arange(size, dtype=np.int64), 4))
        machines[machines >= 2] += 1
        items = [(key, key * key) for key in range(size)]
        dealt = partition_boxed(pipeline, items, machines)._partitions
        assert dealt == [
            [item for item, machine in zip(items, machines) if machine == m]
            for m in range(5)]
        assert all(type(partition) is list for partition in dealt)

    def test_roundrobin_counts_match_cluster_partition(self):
        cluster = Cluster(ClusterConfig(num_machines=4))
        for size in (0, 1, 9, 10, 11, 100):
            parts = cluster.partition(list(range(size)))
            assert roundrobin_counts(size, 4) == [len(p) for p in parts]

    def test_charge_map_stage_matches_boxed_par_do(self):
        config = ClusterConfig(num_machines=3)
        boxed_cluster = Cluster(config)
        boxed = Pipeline(boxed_cluster)
        items = list(range(20))
        boxed.from_items(items).map_elements(lambda x: x + 1, name="inc")
        fast_cluster = Cluster(config)
        charge_map_stage(fast_cluster,
                         roundrobin_counts(len(items), 3))
        assert (fast_cluster.metrics.simulated_time_s
                == boxed_cluster.metrics.simulated_time_s)
        assert (fast_cluster._stage_counter
                == boxed_cluster._stage_counter)
