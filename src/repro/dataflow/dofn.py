"""DoFns and the per-machine execution context.

A :class:`DoFn` transforms elements of a PCollection; :meth:`DoFn.process`
is called once per element and yields zero or more outputs.  The
:class:`MachineContext` passed alongside identifies the executing machine
and is the *only* way a DoFn may touch a DHT store — every lookup and write
goes through it so that the cluster can charge latency, bandwidth and the
per-machine AMPC communication budget.

Two batching seams keep the simulator fast without changing any charged
number:

* :meth:`MachineContext.lookup_many` / :meth:`MachineContext.lookup_block`
  / :meth:`MachineContext.write_many` aggregate shard routing and
  :class:`~repro.ampc.cluster.MachineWork` accounting over a batch of
  keys — the per-query batching the paper (and the MPC connectivity line
  of work) uses to amortize KV round trips.
  They charge exactly what the equivalent sequence of single calls would.
* A DoFn that can serve its whole partition at once may override
  :attr:`DoFn.process_batch`; ``par_do`` then makes one call per machine
  instead of one per element.  The adaptive query phases use it to keep
  a machine's independent searches in flight together (Section 5.3's
  multithreading): one ``lookup_block`` per frontier sweep.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.ampc.cluster import Cluster, MachineWork
from repro.ampc.cost_model import estimate_bytes
from repro.ampc.dht import DHTStore


class MachineContext:
    """Execution context of one machine within one ParDo stage."""

    def __init__(self, machine_id: int, cluster: Cluster):
        self.machine_id = machine_id
        self.cluster = cluster
        self.work = MachineWork()

    # -- KV-store access (the AMPC extension) ----------------------------

    def lookup(self, store: DHTStore, key: Any) -> Any:
        """Synchronous KV read; returns None for missing keys."""
        value, value_bytes = store.lookup_with_size(key)
        work = self.work
        work.kv_reads += 1
        work.kv_read_bytes += (
            8 if type(key) is int else estimate_bytes(key)
        ) + value_bytes
        return value

    def lookup_many(self, store: DHTStore, keys: Sequence[Any]) -> List[Any]:
        """Batched KV reads: one routing/accounting pass for many keys.

        Returns the values in key order (None for misses).  Charges are
        identical to the equivalent :meth:`lookup` sequence — same reads,
        same bytes, same per-shard contention counts.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        values, value_bytes = store.lookup_many(keys)
        self._charge_reads(keys, value_bytes)
        return values

    def lookup_block(self, store: DHTStore, keys: Sequence[Any]):
        """:meth:`lookup_many` for a sweep that wants columns.

        Charged exactly like :meth:`lookup_many`; returns a block whose
        ``columns(dtypes)`` equals ``unbox_rows(lookup_many(keys),
        dtypes)`` (see :class:`~repro.ampc.columnar.ValueBlock`).  A
        backed store answers it from its records in one batched fetch,
        decoding columns only when asked.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        block, value_bytes = store.lookup_block(keys)
        self._charge_reads(keys, value_bytes)
        return block

    def _charge_reads(self, keys: Sequence[Any], value_bytes: int) -> None:
        if len(keys) >= 32 and set(map(type, keys)) <= {int}:
            key_bytes = 8 * len(keys)  # vertex ids: no per-key walk
        else:
            key_bytes = 0
            for key in keys:
                key_bytes += 8 if type(key) is int else estimate_bytes(key)
        work = self.work
        work.kv_reads += len(keys)
        work.kv_read_bytes += key_bytes + value_bytes

    def write(self, store: DHTStore, key: Any, value: Any) -> None:
        """KV write into the current round's output store."""
        value_bytes = store.write(key, value)
        work = self.work
        work.kv_writes += 1
        work.kv_write_bytes += (
            8 if type(key) is int else estimate_bytes(key)
        ) + value_bytes

    def write_many(self, store: DHTStore,
                   items: Sequence[Tuple[Any, Any]]) -> None:
        """Batched KV writes; charge-identical to a :meth:`write` loop."""
        if not isinstance(items, (list, tuple)):
            items = list(items)
        value_bytes = store.write_many(items)
        key_bytes = 0
        for key, _ in items:
            key_bytes += 8 if type(key) is int else estimate_bytes(key)
        work = self.work
        work.kv_writes += len(items)
        work.kv_write_bytes += key_bytes + value_bytes

    def note_cache_hit(self) -> None:
        """Record that a per-machine cache answered instead of the DHT."""
        self.work.cache_hits += 1

    def charge_compute(self, operations: int) -> None:
        """Charge extra elementary operations beyond the per-element default."""
        self.work.compute_ops += operations

    @property
    def caching_enabled(self) -> bool:
        return self.cluster.config.caching


class DoFn:
    """Base class for per-element transformations.

    Subclasses override :meth:`process`; :meth:`start_machine` runs once per
    machine per stage and is where per-machine state (such as the caching
    optimization's table) is created.
    """

    #: Optional bulk hook.  A subclass that can serve a machine's whole
    #: partition at once — every KV key known up front (a store-writing
    #: ParDo), or independent adaptive searches advanced together as a
    #: frontier sweep — may set this to a method ``process_batch(elements,
    #: ctx)`` returning the stage's outputs; ``par_do`` then calls it once
    #: per machine instead of once per element.  The outputs may be a
    #: sized column block (``__len__`` = the boxed output count ``par_do``
    #: charges, ``__iter__`` = the boxed outputs) instead of a list.
    process_batch = None

    def start_machine(self, ctx: MachineContext) -> None:
        """Per-machine setup hook (default: nothing)."""

    def process(self, element: Any, ctx: MachineContext) -> Optional[Iterable[Any]]:
        raise NotImplementedError


class _CallableDoFn(DoFn):
    """Adapter for the map/filter/flat_map conveniences.

    ``par_do`` recognizes this type and runs the wrapped callable through
    a list comprehension per machine, skipping the generator adapter; the
    ``process`` implementation below is the semantic reference (and the
    path taken when a _CallableDoFn is used directly).
    """

    def __init__(self, fn, mode: str):
        self._fn = fn
        self._mode = mode

    def process(self, element, ctx):
        if self._mode == "map":
            yield self._fn(element)
        elif self._mode == "flat_map":
            yield from self._fn(element)
        elif self._mode == "filter":
            if self._fn(element):
                yield element
        else:  # pragma: no cover - internal invariant
            raise AssertionError(f"unknown mode {self._mode}")
