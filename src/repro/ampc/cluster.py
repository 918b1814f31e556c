"""The simulated cluster: machines, threads, partitioning and stage timing.

:class:`Cluster` is the single place where simulated time is computed.  A
stage hands it per-machine work descriptions (compute operations, KV reads
and writes with byte counts) and the cluster charges the *critical path*
(the slowest machine) to the metrics, applying:

* thread-level latency hiding when the multithreading optimization is on
  (Section 5.3: threads waiting on synchronous KV lookups are swapped out);
* the per-machine NIC and the aggregate KV-store bandwidth ceilings
  (Section 5.7 observed ~80 Gb/s aggregate);
* preemption re-execution when a :class:`FaultPlan` is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence

from repro.ampc.cost_model import CostModel
from repro.ampc.faults import FaultPlan
from repro.ampc.hashing import _MASK, _SEED, stable_hash
from repro.ampc.metrics import Metrics


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster shape and the optimization toggles of Section 5.3."""

    num_machines: int = 10
    threads_per_machine: int = 72
    #: the paper's multithreading optimization (latency hiding)
    multithreading: bool = True
    #: the paper's caching optimization (per-machine query cache)
    caching: bool = True
    cost_model: CostModel = field(default_factory=CostModel.rdma)
    #: per-machine, per-stage KV query budget; None disables enforcement.
    #: This is the O(S) communication bound of the AMPC model (Section 2).
    query_budget_per_machine: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.num_machines < 1:
            raise ValueError("need at least one machine")
        if self.threads_per_machine < 1:
            raise ValueError("need at least one thread per machine")

    def with_overrides(self, **kwargs) -> "ClusterConfig":
        return replace(self, **kwargs)


@dataclass
class MachineWork:
    """Per-machine resource consumption within one stage."""

    compute_ops: int = 0
    kv_reads: int = 0
    kv_read_bytes: int = 0
    kv_writes: int = 0
    kv_write_bytes: int = 0
    cache_hits: int = 0

    @property
    def kv_queries(self) -> int:
        return self.kv_reads + self.kv_writes


class Cluster:
    """A simulated cluster; owns the metrics of the current execution."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.config = config or ClusterConfig()
        self.fault_plan = fault_plan
        self.metrics = Metrics()
        self._stage_counter = 0
        #: hoisted for the per-element placement loops (config is frozen)
        self._num_machines = self.config.num_machines

    # -- partitioning ----------------------------------------------------

    def machine_for(self, key: Any) -> int:
        """Deterministic hash placement of a key onto a machine.

        Uses the salt-free :func:`repro.ampc.hashing.stable_hash` so that
        string-keyed placements — and every placement-derived metric —
        are identical across interpreter runs.  The vertex-id case inlines
        the same single-``splitmix64`` fast path ``stable_hash`` takes,
        saving the call in this per-element hot loop.
        """
        if type(key) is int and 0 <= key <= _MASK:
            x = ((_SEED ^ key) + 0x9E3779B97F4A7C15) & _MASK
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            return (x ^ (x >> 31)) % self._num_machines
        return stable_hash(key) % self._num_machines

    def partition(self, items: Sequence[Any],
                  key_fn: Optional[Callable[[Any], Any]] = None
                  ) -> List[List[Any]]:
        """Split items into per-machine lists by hash of ``key_fn(item)``.

        With ``key_fn=None`` items are dealt round-robin (balanced), which
        models the random assignment of Algorithm 1 line 2.
        """
        num_machines = self.config.num_machines
        if key_fn is None:
            return [list(items[machine::num_machines])
                    for machine in range(num_machines)]
        partitions: List[List[Any]] = [[] for _ in range(num_machines)]
        machine_for = self.machine_for
        for item in items:
            partitions[machine_for(key_fn(item))].append(item)
        return partitions

    # -- timing ----------------------------------------------------------

    def effective_threads(self) -> int:
        """Concurrent outstanding KV lookups per machine.

        Without the multithreading optimization a machine still runs
        multiple Flume worker processes, so latency hiding does not drop to
        1; the paper measured the optimization to be worth 1.26-2.59x,
        which a 3x concurrency gap reproduces.
        """
        if self.config.multithreading:
            return self.config.threads_per_machine
        return max(1, self.config.threads_per_machine // 3)

    def machine_stage_time(self, work: MachineWork) -> float:
        """Simulated seconds one machine spends on its stage partition."""
        model = self.config.cost_model
        compute = work.compute_ops / model.compute_ops_per_s
        # Latency-bound KV cost: synchronous lookups hidden by threads.
        threads = self.effective_threads()
        latency_cost = (
            work.kv_reads * model.kv_read_latency_s
            + work.kv_writes * model.kv_write_latency_s
        ) / threads
        # Cache hits cost DRAM latency (not hidden: they are instant-ish).
        latency_cost += work.cache_hits * model.dram_latency_s
        # Bandwidth-bound KV cost: NIC and the aggregate ceiling.
        bytes_total = work.kv_read_bytes + work.kv_write_bytes
        per_machine_bw = min(
            model.nic_bandwidth_bytes_per_s,
            model.aggregate_kv_bandwidth_bytes_per_s / self.config.num_machines,
        )
        bandwidth_cost = bytes_total / per_machine_bw
        return compute + max(latency_cost, bandwidth_cost)

    def charge_stage(self, works: Sequence[MachineWork]) -> float:
        """Charge a ParDo-style stage: the slowest machine is the stage time.

        Applies preemption re-execution per machine when a fault plan is
        attached.  Returns the stage time.
        """
        self._stage_counter += 1
        worst = 0.0
        max_queries = 0
        for machine_id, work in enumerate(works):
            time = self.machine_stage_time(work)
            if self.fault_plan is not None:
                executions = self.fault_plan.executions_for(
                    self._stage_counter, machine_id
                )
                self.metrics.preemptions += executions - 1
                time *= executions
            worst = max(worst, time)
            max_queries = max(max_queries, work.kv_queries)
        self.metrics.max_machine_queries_per_stage = max(
            self.metrics.max_machine_queries_per_stage, max_queries
        )
        self.metrics.charge_time(worst)
        return worst

    def finish_stage(self, works: Sequence[MachineWork]) -> float:
        """:meth:`charge_stage` plus the per-work KV metrics mirror.

        The one shared epilogue of every ParDo-style stage — boxed
        ``par_do`` and the columnar stage twins both end here, so the
        charged metrics cannot drift between the two paths.
        """
        time = self.charge_stage(works)
        metrics = self.metrics
        for work in works:
            metrics.kv_reads += work.kv_reads
            metrics.kv_writes += work.kv_writes
            metrics.kv_read_bytes += work.kv_read_bytes
            metrics.kv_write_bytes += work.kv_write_bytes
            metrics.cache_hits += work.cache_hits
            metrics.cache_misses += work.kv_reads
        return time

    def charge_shuffle(self, total_bytes: int) -> float:
        """Charge one shuffle: durable write of ``total_bytes``."""
        model = self.config.cost_model
        self._stage_counter += 1
        time = model.shuffle_setup_s + total_bytes / (
            self.config.num_machines * model.disk_bandwidth_bytes_per_s
        )
        if self.fault_plan is not None:
            # A preemption during a shuffle re-runs the lost machine's part;
            # model it as re-writing 1/M of the bytes per preemption.
            extra = 0
            for machine_id in range(self.config.num_machines):
                executions = self.fault_plan.executions_for(
                    self._stage_counter, machine_id
                )
                extra += executions - 1
            self.metrics.preemptions += extra
            time += extra * (
                total_bytes
                / self.config.num_machines
                / model.disk_bandwidth_bytes_per_s
            )
        self.metrics.shuffles += 1
        self.metrics.shuffle_bytes += total_bytes
        self.metrics.charge_time(time)
        return time
