"""Columnar stage twins: whole-shard charging for batch record flows.

The boxed dataflow operations (``par_do``, ``repartition``,
``write_store``) walk one Python object per element to compute charges
that are, for the bulk record flows of the prepare stages, pure functions
of per-machine *counts and byte totals*.  The helpers here compute those
aggregates from a :class:`~repro.ampc.columnar.ColumnarRecords` batch
with vectorized column math and hand the cluster the **same**
:class:`~repro.ampc.cluster.MachineWork` values the per-element loop
would have produced — both paths end in ``Cluster.finish_stage``, so the
simulated metrics cannot drift (the golden-metrics snapshot pins this).

Stage-counter discipline matters for fault plans: each helper advances
the cluster's stage counter exactly as its boxed twin does (one
``charge_stage`` per ParDo, one ``charge_shuffle`` per movement), so a
:class:`~repro.ampc.faults.FaultPlan` hits the same (stage, machine)
cells either way.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import fields
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.ampc.cluster import Cluster, MachineWork
from repro.ampc.dht import DHTStore
from repro.dataflow.pcollection import BudgetExceededError, PCollection

__all__ = [
    "roundrobin_counts",
    "charge_map_stage",
    "machine_byte_totals",
    "write_columnar_store",
    "partition_boxed",
    "place_prepared",
    "RowBlock",
    "StageReplay",
]


def roundrobin_counts(num_items: int, num_machines: int) -> List[int]:
    """Per-machine element counts of a keyless ``from_items`` placement."""
    base, extra = divmod(num_items, num_machines)
    return [base + 1 if machine < extra else base
            for machine in range(num_machines)]


def charge_map_stage(cluster: Cluster, in_counts: Sequence[int],
                     out_counts: Optional[Sequence[int]] = None) -> None:
    """Charge a pure map/flat_map ParDo from per-machine counts.

    Twin of ``par_do`` with a KV-free DoFn: ``compute_ops`` is inputs
    plus outputs per machine (``out_counts`` defaults to ``in_counts``,
    the 1:1 map case).
    """
    if out_counts is None:
        out_counts = in_counts
    works = [MachineWork(compute_ops=int(inputs) + int(outputs))
             for inputs, outputs in zip(in_counts, out_counts)]
    cluster.finish_stage(works)


def machine_byte_totals(machine_ids, per_record_bytes, num_machines: int):
    """Per-machine sums of ``per_record_bytes``, as plain Python ints.

    float64 bincount accumulation is exact here: record sizes are small
    multiples of 8 and the totals stay far below 2**53.
    """
    sums = np.bincount(machine_ids, weights=per_record_bytes,
                       minlength=num_machines)
    return [int(total) for total in sums]


def write_columnar_store(cluster: Cluster, store, records, machine_ids,
                         *, name: Optional[str] = None,
                         seal: bool = True) -> None:
    """Twin of ``AMPCRuntime.write_store`` for a columnar record batch.

    ``machine_ids`` assigns each record to the machine whose ParDo
    partition would have written it; ``records`` must already be in the
    machine-major scan order the boxed repartition would have produced,
    so the store's per-shard insertion order comes out identical.  Per
    machine the charge is one KV write per record (8 key bytes + the
    record's value bytes), plus the ParDo's ``compute_ops`` of one input
    per element and zero outputs.
    """
    num_machines = cluster.config.num_machines
    counts = np.bincount(machine_ids, minlength=num_machines).tolist()
    byte_totals = machine_byte_totals(
        machine_ids, records.value_sizes(), num_machines)
    budget = cluster.config.query_budget_per_machine
    stage = name if name is not None else f"write:{store.name}"
    works = []
    for machine_id, (count, value_bytes) in enumerate(
            zip(counts, byte_totals)):
        work = MachineWork(compute_ops=count, kv_writes=count,
                          kv_write_bytes=8 * count + value_bytes)
        if budget is not None and work.kv_queries > budget:
            raise BudgetExceededError(
                f"machine {machine_id} made {work.kv_queries} KV "
                f"queries in stage {stage!r}, budget is {budget}"
            )
        works.append(work)
    store.write_columnar(records)
    cluster.finish_stage(works)
    if seal:
        store.seal()


def partition_boxed(pipeline, items: Sequence, machine_ids) -> PCollection:
    """A PCollection from boxed items with precomputed placement (free).

    Twin of ``Pipeline.from_items(items, key_fn)`` when the per-item
    machine ids were already computed by one vectorized pass.  Every
    prepare stage emits its records machine-major; those are dealt as
    one slice per machine.
    """
    num_machines = pipeline.cluster.config.num_machines
    if (machine_ids[1:] >= machine_ids[:-1]).all():
        bounds = np.searchsorted(
            machine_ids, np.arange(num_machines + 1)).tolist()
        return PCollection(pipeline, [
            list(items[start:stop])
            for start, stop in zip(bounds, bounds[1:])])
    partitions: List[List] = [[] for _ in range(num_machines)]
    for item, machine in zip(items, machine_ids.tolist()):
        partitions[machine].append(item)
    return PCollection(pipeline, partitions)


def place_prepared(pipeline, prepared) -> PCollection:
    """A prepared artifact's records on their home machines (free: the
    data already lives in D0).

    ``prepared.machines`` — the prepare stage's own placement — serves
    runs on that cluster shape; another shape, or an artifact patched by
    an ``update_*`` hook (which carries none), re-hashes the keys.
    """
    machines = prepared.machines
    if (machines is not None
            and machines[0] == pipeline.cluster.config.num_machines):
        return partition_boxed(pipeline, prepared.records, machines[1])
    return pipeline.from_items(prepared.records,
                               key_fn=lambda record: record[0])


class RowBlock:
    """One machine's stage outputs as a ``(count, width)`` int64 array.

    What a ``process_batch`` hook returns in place of ``count`` boxed
    tuples: ``len()`` is the output count ``par_do`` charges, iteration
    boxes the rows for consumers that want tuples, and columnar consumers
    read ``rows`` directly.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    @classmethod
    def of(cls, outputs, width: int) -> "RowBlock":
        """``outputs`` itself, or a boxed list of ``width``-tuples as one."""
        if isinstance(outputs, cls):
            return outputs
        return cls(np.array(outputs, dtype=np.int64).reshape(-1, width))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(tuple, self.rows.tolist())


#: sealed plain sim store -> (lock, {stage key: {machine id: outcome}});
#: weak, so dropping the store drops every record made against it
_STAGE_RECORDS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_WORK_FIELDS = tuple(field.name for field in fields(MachineWork))


class StageReplay:
    """Replay of one adaptive query stage against a sealed plain sim store.

    A query stage whose elements are a store's own records is, machine by
    machine, a deterministic function of the store's content, of whatever
    else its ``key`` names (stage, seed, budget) and of the cluster shape
    and cache switch: same outputs, same :class:`MachineWork`, same
    per-shard contention bumps.  The first run records all three per
    machine; later runs replay them through the same ``par_do`` epilogue,
    so compute charges, the query-budget check and fault plans see no
    difference.

    One invalidation rule: a record lives exactly as long as the store
    object it was made against, and is only ever made against a *sealed*
    store of exactly type :class:`DHTStore` — immutable from then on.
    Derived overlays and backed stores never replay: every query against
    them really reads (a backing store's traffic is what its benchmarks
    measure), as does anything run on a store still open for writes.

    The shard bumps are recorded as a before/after difference of
    ``store.shard_reads``, so recording and replaying hold the store's
    lock: a concurrent query on the same store cannot leak its reads
    into the recorded window.
    """

    def __init__(self, store, key):
        self._store = store
        self._records = None
        if type(store) is DHTStore and store.sealed:
            self._lock, stages = _STAGE_RECORDS.setdefault(
                store, (threading.Lock(), {}))
            self._records = stages.setdefault(key, {})

    def run(self, ctx, compute: Callable[[], Any]):
        """``compute()``'s outputs for ``ctx``'s machine — charged to
        ``ctx.work`` and the store by ``compute`` itself the first time,
        replayed from the record afterwards."""
        records = self._records
        if records is None:
            return compute()
        config = ctx.cluster.config
        slot = (config.num_machines, config.caching, ctx.machine_id)
        work = ctx.work
        shard_reads = self._store.shard_reads
        with self._lock:
            entry = records.get(slot)
            if entry is not None:
                outputs, work_deltas, shard_deltas = entry
                for name, delta in zip(_WORK_FIELDS, work_deltas):
                    setattr(work, name, getattr(work, name) + delta)
                for shard, delta in enumerate(shard_deltas):
                    shard_reads[shard] += delta
                return outputs
            work_before = [getattr(work, name) for name in _WORK_FIELDS]
            shards_before = list(shard_reads)
            outputs = compute()
            records[slot] = (
                outputs,
                [getattr(work, name) - start
                 for name, start in zip(_WORK_FIELDS, work_before)],
                [after - start
                 for after, start in zip(shard_reads, shards_before)],
            )
            return outputs

    def driver_result(self, compute: Callable[[], Any]):
        """A driver-side pure function of the same store and key (no
        charges of its own), computed once."""
        records = self._records
        if records is None:
            return compute()
        if "driver" not in records:
            records["driver"] = compute()
        return records["driver"]
