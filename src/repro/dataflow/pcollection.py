"""PCollections: partitioned datasets and the operations on them.

A PCollection is a list of per-machine partitions.  ParDo-style operations
keep elements on their machine; ``group_by_key`` / ``repartition`` /
``to_single_machine`` move data and are charged as shuffles.  ``collect``
materializes on the driver free of charge — it models inspecting the final
output, never an intermediate step of an algorithm.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.ampc.cluster import MachineWork
from repro.ampc.cost_model import _sequence_bytes, estimate_bytes
from repro.dataflow.dofn import DoFn, MachineContext, _CallableDoFn


class BudgetExceededError(RuntimeError):
    """A machine exceeded its per-stage AMPC communication budget O(S)."""


class PCollection:
    """A distributed multi-set of elements (one list per machine)."""

    def __init__(self, pipeline, partitions: List[List[Any]]):
        self.pipeline = pipeline
        if len(partitions) != pipeline.cluster.config.num_machines:
            raise ValueError("partition count must equal machine count")
        self._partitions = partitions

    # -- computation stages (no data movement) ----------------------------

    def par_do(self, dofn: DoFn, name: Optional[str] = None) -> "PCollection":
        """Apply a DoFn to every element in place; charges machine time."""
        cluster = self.pipeline.cluster
        budget = cluster.config.query_budget_per_machine
        output_partitions: List[List[Any]] = []
        works: List[MachineWork] = []
        # map/filter/flat_map run as plain comprehensions — no generator
        # adapter, no per-element mode dispatch.  Output-identical to the
        # _CallableDoFn.process reference implementation.
        fast_mode = dofn._mode if type(dofn) is _CallableDoFn else None
        process_batch = dofn.process_batch
        for machine_id, partition in enumerate(self._partitions):
            ctx = MachineContext(machine_id, cluster)
            dofn.start_machine(ctx)
            if fast_mode is not None:
                fn = dofn._fn
                if fast_mode == "map":
                    outputs = [fn(element) for element in partition]
                elif fast_mode == "filter":
                    outputs = [element for element in partition
                               if fn(element)]
                else:  # flat_map
                    outputs = []
                    extend = outputs.extend
                    for element in partition:
                        extend(fn(element))
            elif process_batch is not None:
                # a batch hook may hand back a sized column block in
                # place of boxed outputs; only its length is charged
                outputs = process_batch(partition, ctx)
                if not hasattr(outputs, "__len__"):
                    outputs = list(outputs)
            else:
                outputs = []
                extend = outputs.extend
                process = dofn.process
                for element in partition:
                    produced = process(element, ctx)
                    if produced is not None:
                        extend(produced)
            ctx.work.compute_ops += len(partition) + len(outputs)
            if budget is not None and ctx.work.kv_queries > budget:
                raise BudgetExceededError(
                    f"machine {machine_id} made {ctx.work.kv_queries} KV "
                    f"queries in stage {name or dofn.__class__.__name__!r}, "
                    f"budget is {budget}"
                )
            works.append(ctx.work)
            output_partitions.append(outputs)
        cluster.finish_stage(works)
        return PCollection(self.pipeline, output_partitions)

    def map_elements(self, fn: Callable[[Any], Any],
                     name: Optional[str] = None) -> "PCollection":
        return self.par_do(_CallableDoFn(fn, "map"), name=name)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]],
                 name: Optional[str] = None) -> "PCollection":
        return self.par_do(_CallableDoFn(fn, "flat_map"), name=name)

    def filter_elements(self, predicate: Callable[[Any], bool],
                        name: Optional[str] = None) -> "PCollection":
        return self.par_do(_CallableDoFn(predicate, "filter"), name=name)

    # -- shuffles (data movement; the costly operations) -------------------

    def group_by_key(self, name: Optional[str] = None) -> "PCollection":
        """Group ``(key, value)`` pairs by key.  One shuffle.

        Output elements are ``(key, [values])``, placed on the machine that
        owns the key's hash.
        """
        cluster = self.pipeline.cluster
        total_bytes = self._total_bytes()
        cluster.charge_shuffle(total_bytes)
        num_machines = cluster.config.num_machines
        grouped: List[dict] = [dict() for _ in range(num_machines)]
        machine_for = cluster.machine_for
        # Grouping implies repeated keys: memoize each key's machine so
        # the placement hash runs once per distinct key, not per element.
        machine_of: dict = {}
        for partition in self._partitions:
            for key, value in partition:
                machine = machine_of.get(key)
                if machine is None:
                    machine = machine_for(key)
                    machine_of[key] = machine
                grouped[machine].setdefault(key, []).append(value)
        output = [list(machine_dict.items()) for machine_dict in grouped]
        return PCollection(self.pipeline, output)

    def repartition(self, key_fn: Callable[[Any], Any],
                    name: Optional[str] = None) -> "PCollection":
        """Move each element to the machine owning ``key_fn(element)``.

        One shuffle (this is how a "sort into a directed graph" stage lands
        every vertex record on its home machine before a KV write).
        """
        cluster = self.pipeline.cluster
        cluster.charge_shuffle(self._total_bytes())
        num_machines = cluster.config.num_machines
        output: List[List[Any]] = [[] for _ in range(num_machines)]
        machine_for = cluster.machine_for
        for partition in self._partitions:
            for element in partition:
                output[machine_for(key_fn(element))].append(element)
        return PCollection(self.pipeline, output)

    def to_single_machine(self, name: Optional[str] = None) -> "PCollection":
        """Gather everything onto machine 0.  One shuffle.

        This is the "send the graph to a single machine" fallback every MPC
        baseline in the paper uses once an instance is small enough.
        """
        cluster = self.pipeline.cluster
        cluster.charge_shuffle(self._total_bytes())
        merged: List[Any] = []
        for partition in self._partitions:
            merged.extend(partition)
        output = [[] for _ in range(cluster.config.num_machines)]
        output[0] = merged
        return PCollection(self.pipeline, output)

    # -- combinators -------------------------------------------------------

    def flatten_with(self, *others: "PCollection") -> "PCollection":
        """Union of PCollections; elements stay on their machines (free)."""
        partitions = [list(p) for p in self._partitions]
        for other in others:
            for machine_id, partition in enumerate(other._partitions):
                partitions[machine_id].extend(partition)
        return PCollection(self.pipeline, partitions)

    # -- driver-side access (free; end-of-pipeline only) -------------------

    def collect(self) -> List[Any]:
        result: List[Any] = []
        for partition in self._partitions:
            result.extend(partition)
        return result

    def partitions(self) -> List[Any]:
        """The per-machine partitions, machine order (column blocks intact)."""
        return list(self._partitions)

    def count(self) -> int:
        return sum(len(partition) for partition in self._partitions)

    def is_empty(self) -> bool:
        return self.count() == 0

    def partition_sizes(self) -> List[int]:
        return [len(partition) for partition in self._partitions]

    def _total_bytes(self) -> int:
        # Elements are overwhelmingly tuples; jump straight to the
        # cost model's flat tuple walk and dispatch only otherwise.
        size_of = estimate_bytes
        tuple_bytes = _sequence_bytes
        total = 0
        for partition in self._partitions:
            for element in partition:
                if type(element) is tuple:
                    total += tuple_bytes(element)
                else:
                    total += size_of(element)
        return total
