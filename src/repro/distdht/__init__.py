"""Real distributed DHT backends behind the AlgorithmSpec seam.

The simulator's :class:`~repro.ampc.dht.DHTStore` keeps every entry as a
boxed Python object in an in-process dict — perfect for cost-model
accounting, useless as an actual serving substrate.  This package supplies
the physical half the AMPC model assumes (machines doing adaptive reads
against a *distributed hash table*):

* :class:`BackingStore` — the byte-level KV contract every backend
  implements (put/get/delete plus batched and prefix operations, and a
  cross-process ``share``/``fetch`` locator pair for one-writer
  many-reader distribution);
* :class:`InMemoryBackingStore` — the reference implementation (a dict);
* :class:`SharedMemoryBackingStore` — single-host backend over
  ``multiprocessing.shared_memory`` segments (manager-free: one writer
  process, any number of attached readers; a prepared artifact physically
  exists once in RAM no matter how many worker processes read it);
* :class:`SocketBackingStore` + :class:`DHTNodeServer` — multi-host
  backend: a length-prefixed binary KV protocol over TCP against
  standalone ``python -m repro dht-server`` nodes, with consistent-hash
  key placement, client-side connection pooling, retry with backoff,
  replication factor R and read-failover to a replica when a node dies;
* :class:`ChaosInjector` — per-node fault injection (latency, error
  rate, blackhole) so node-slow and half-dead shapes are testable
  through the full stack, not just clean kills; :class:`NodeOutage` /
  :func:`restart_node_empty` script the crash-and-rejoin-empty shape;
* :func:`repair_store` / :class:`RepairReport` — anti-entropy for the
  socket backend: per-key digests compared across replicas, divergence
  copied (tombstone-wins) until they agree.  The socket client also
  heals online: a circuit breaker skips down nodes, hinted handoff
  parks writes for them, read-repair back-fills failover reads, and a
  background prober replays hints + repairs when a node rejoins;
* :class:`BackedDHTStore` — a :class:`~repro.ampc.dht.DHTStore` whose
  values physically live in a backing store (its lane,
  :class:`~repro.distdht.store.BackedLane`).  The simulated-cost
  accounting is the core store's own code, not a copy, so placement,
  ``estimate_bytes`` charging and per-shard read counts are the
  simulator's; ``derive()`` yields a plain
  :class:`~repro.ampc.dht.DerivedDHTStore` on a child lane.
  ``AMPCRuntime``, ``Session.prepare``, the incremental path and both
  serving services run unchanged against it.

Select a backend with ``Session(backend="shm")`` /
``serve --backend {sim,shm,socket}``; ``create_backend`` parses the spec.
"""

from repro.distdht.backing import (
    BackingStore,
    InMemoryBackingStore,
    decode_record,
    encode_key,
    encode_record,
    fetch,
)
from repro.distdht.backend import create_backend, parse_node
from repro.distdht.chaos import (
    BlackholeError,
    ChaosInjector,
    NodeOutage,
    restart_node_empty,
)
from repro.distdht.repair import RepairReport, repair_store
from repro.distdht.shm import SharedMemoryBackingStore
from repro.distdht.sockets import DHTNodeServer, SocketBackingStore
from repro.distdht.store import BackedDHTStore

__all__ = [
    "BackingStore",
    "BlackholeError",
    "ChaosInjector",
    "NodeOutage",
    "RepairReport",
    "repair_store",
    "restart_node_empty",
    "InMemoryBackingStore",
    "SharedMemoryBackingStore",
    "SocketBackingStore",
    "DHTNodeServer",
    "BackedDHTStore",
    "create_backend",
    "parse_node",
    "encode_key",
    "encode_record",
    "decode_record",
    "fetch",
]
