"""Multi-host socket backend: binary KV protocol, ring placement, healing.

One :class:`DHTNodeServer` is one storage node — a threaded TCP server
over an in-memory byte map, speaking a length-prefixed binary protocol
(one op byte, a little-endian u32 payload length, then the payload; the
response mirrors it with a status byte).  Payloads decode exactly: a
chunk that overruns its frame, or bytes left over after the last one,
raise :class:`FrameError` — the node answers ``STATUS_ERROR`` and
stores nothing, the client raises it to its caller.  ``python -m repro
dht-server`` runs one node as a standalone process.

:class:`SocketBackingStore` is the client: keys place onto nodes by
**consistent hashing** (each node projected onto the ring at
``VNODES`` points via :func:`~repro.ampc.hashing.stable_hash`, a key
served by the first ``replication`` distinct nodes clockwise of its hash,
tabulated per ring slot at construction), connections are **pooled** per
node and reused across requests, and transient failures **retry with
exponential backoff**.

Every keyed operation is a batch of one of two replica walks, planned
from one health snapshot per batch:

* the **read walk** (``get``, ``get_many``; ``contains`` is ``get``)
  **fails over** from replica to replica, one MGET per node per round,
  so a killed node costs a reconnect, not the query, while one replica
  survives.  A :data:`~repro.distdht.backing.TOMBSTONE` is authoritative
  on every read, the locator fetch included: a replica that missed a
  delete cannot bring the key back.
* the **write walk** (``put``, ``put_many``; ``delete`` writes a
  tombstone) sends one MPUT per node.  Each key must be stored by at
  least one of its replicas, or the write raises; the replicas a written
  key missed get a hint.  The MPUT reply flags, per key, whether the node
  held a live record before, which is how ``delete`` reports a hit.

Replicas also *converge*, not just survive:

* **Node health / circuit breaker** — ``failure_threshold`` consecutive
  request failures mark a node down; replica walks then skip it (one
  bounded fast-fail instead of a retry storm per key) and a background
  prober PINGs it every ``probe_interval_s`` until it answers again.
* **Hinted handoff** — a write whose replica is down (or fails) is
  parked as a *hint* on a reachable peer (HINT/TAKE_HINTS frames) and
  replayed onto the node when the prober sees it return.
* **Read-repair** — a read answered by a later replica writes the
  record back to the earlier replicas that missed it.
* **Anti-entropy** — :meth:`SocketBackingStore.repair` (DIGEST frames,
  see :mod:`repro.distdht.repair`) compares per-key digests across
  replicas and copies records until they agree; it runs automatically
  when a node rejoins and is exposed as the ``dht-repair`` CLI verb.

All of this happens strictly below the
:class:`~repro.distdht.store.BackedDHTStore` accounting boundary, so
repair traffic never shows up in simulated metrics.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import struct
import threading
import time
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ampc.hashing import stable_hash
from repro.distdht.backing import (
    TOMBSTONE,
    BackingStore,
    record_digest,
    register_fetcher,
)
from repro.distdht.chaos import BlackholeError, ChaosInjector

# -- wire format ------------------------------------------------------------

_HEADER = struct.Struct("<BI")   # (op | status, payload length)
_U32 = struct.Struct("<I")

OP_SCAN = 5
OP_DELETE_PREFIX = 6
OP_MPUT = 7
OP_MGET = 8
OP_PING = 9
OP_STATS = 10
OP_HINT = 11
OP_TAKE_HINTS = 12
OP_DIGEST = 13

STATUS_OK = 0
STATUS_ERROR = 2

#: virtual nodes per physical node on the consistent-hash ring
VNODES = 64

#: ceiling on a single retry backoff sleep, whatever the attempt count
DEFAULT_MAX_BACKOFF_S = 2.0

#: consecutive request failures before the health registry marks a node
#: down (0 disables the breaker entirely)
DEFAULT_FAILURE_THRESHOLD = 3

#: how often the background prober PINGs down nodes (0 = manual
#: :meth:`SocketBackingStore.probe_now` only)
DEFAULT_PROBE_INTERVAL_S = 0.5

#: how often a serving node checks whether it was asked to stop; close()
#: waits up to this long
_POLL_INTERVAL_S = 0.05

#: hint-entry kind tags (first byte of a hint's stored key)
_HINT_PUT = b"P"
_HINT_PREFIX_DELETE = b"X"


class FrameError(ValueError):
    """A frame payload that does not decode exactly: a chunk overruns it,
    bytes are left over, or it holds the wrong number of chunks."""


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, tag: int, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(tag, len(payload)) + payload)


def _recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    header = _recv_exact(sock, _HEADER.size)
    tag, length = _HEADER.unpack(header)
    return tag, _recv_exact(sock, length) if length else b""


def _pack_chunks(chunks: Sequence[bytes]) -> bytes:
    parts = [_U32.pack(len(chunks))]
    for chunk in chunks:
        parts.append(_U32.pack(len(chunk)))
        parts.append(chunk)
    return b"".join(parts)


def _unpack_chunks(payload: bytes) -> List[bytes]:
    end = len(payload)
    if end < _U32.size:
        raise FrameError(f"chunk list of {end} bytes has no count")
    count = _U32.unpack_from(payload, 0)[0]
    chunks = []
    offset = _U32.size
    for _ in range(count):
        if offset + _U32.size > end:
            raise FrameError(f"chunk {len(chunks)} of {count} overruns "
                             f"the {end}-byte payload")
        length = _U32.unpack_from(payload, offset)[0]
        offset += _U32.size
        if offset + length > end:
            raise FrameError(f"chunk {len(chunks)} of {length} bytes "
                             f"overruns the {end}-byte payload")
        chunks.append(payload[offset:offset + length])
        offset += length
    if offset != end:
        raise FrameError(f"{end - offset} bytes after the last chunk")
    return chunks


def _reply_chunks(reply: bytes, count: int) -> List[bytes]:
    """An MGET reply's chunks, exactly one per key asked."""
    chunks = _unpack_chunks(reply)
    if len(chunks) != count:
        raise FrameError(f"{len(chunks)} chunks answer {count} keys")
    return chunks


def _pack_pairs(pairs: Sequence[Tuple[bytes, bytes]]) -> bytes:
    return _pack_chunks([chunk for pair in pairs for chunk in pair])


def _unpack_pairs(payload: bytes) -> List[Tuple[bytes, bytes]]:
    chunks = _unpack_chunks(payload)
    if len(chunks) % 2:
        raise FrameError(f"{len(chunks)} chunks do not form pairs")
    return list(zip(chunks[0::2], chunks[1::2]))


# -- server -----------------------------------------------------------------


class _NodeHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # one connection, many requests
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                op, payload = _recv_frame(self.request)
            except (ConnectionError, OSError):
                return
            try:
                chaos = getattr(self.server, "chaos", None)
                if chaos is not None:
                    chaos.before_request()
                status, reply = self._dispatch(op, payload, self.server)
            except BlackholeError:
                # Drop the request unanswered and kill the connection:
                # the client sees a reset mid-frame, like a half-dead
                # node that still accepts connects but never replies.
                try:
                    self.request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return
            except Exception as error:  # noqa: BLE001 - report, stay up
                status, reply = STATUS_ERROR, str(error).encode("utf-8")
            try:
                _send_frame(self.request, status, reply)
            except OSError:
                return

    @staticmethod
    def _dispatch(op: int, payload: bytes,
                  server: "_NodeServer") -> Tuple[int, bytes]:
        data: Dict[bytes, bytes] = server.data
        lock = server.data_lock
        if op == OP_MPUT:
            # one reply byte per pair: 1 where the key held a live record
            # before this write (how a tombstone write reports a delete)
            pairs = _unpack_pairs(payload)
            with lock:
                prior = [data.get(key) for key, _value in pairs]
                data.update(pairs)
            return STATUS_OK, bytes(value is not None and value != TOMBSTONE
                                    for value in prior)
        if op == OP_MGET:
            keys = _unpack_chunks(payload)
            with lock:
                found = [data.get(key) for key in keys]
            return STATUS_OK, _pack_chunks(
                [b"" if value is None else b"\x01" + value
                 for value in found])
        if op == OP_SCAN:
            with lock:
                keys = [key for key, value in data.items()
                        if key.startswith(payload) and value != TOMBSTONE]
            return STATUS_OK, _pack_chunks(keys)
        if op == OP_DELETE_PREFIX:
            with lock:
                doomed = [key for key in data if key.startswith(payload)]
                for key in doomed:
                    del data[key]
            return STATUS_OK, _U32.pack(len(doomed))
        if op == OP_HINT:
            chunks = _unpack_chunks(payload)
            if len(chunks) % 2 != 1:
                raise FrameError("a hint frame is a target, then pairs")
            entries = list(zip(chunks[1::2], chunks[2::2]))
            with lock:
                server.hints.setdefault(chunks[0], {}).update(entries)
            return STATUS_OK, _U32.pack(len(entries))
        if op == OP_TAKE_HINTS:
            with lock:
                bucket = server.hints.pop(payload, {})
            return STATUS_OK, _pack_pairs(list(bucket.items()))
        if op == OP_DIGEST:
            with lock:
                pairs = [(key, record_digest(value))
                         for key, value in data.items()
                         if key.startswith(payload)]
            return STATUS_OK, _pack_pairs(pairs)
        if op == OP_PING:
            return STATUS_OK, b"pong"
        if op == OP_STATS:
            with lock:
                stats = {
                    "entries": len(data),
                    "payload_bytes": sum(len(v) for v in data.values()),
                    "tombstones": sum(1 for v in data.values()
                                      if v == TOMBSTONE),
                    "hints_held": sum(len(bucket)
                                      for bucket in server.hints.values()),
                }
            return STATUS_OK, json.dumps(stats).encode("utf-8")
        return STATUS_ERROR, f"unknown op {op}".encode("utf-8")


class _NodeServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._open_requests = set()
        self._open_lock = threading.Lock()
        #: optional ChaosInjector consulted per request (None = inert)
        self.chaos: Optional[ChaosInjector] = None

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open_requests.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open_requests.discard(request)
        super().shutdown_request(request)

    def sever_connections(self) -> None:
        """Hard-close every live connection (what a real kill does).

        Without this an in-process close() would leave established
        handler threads happily serving pooled client connections, and
        'kill a node' tests would not actually kill anything.
        """
        with self._open_lock:
            requests = list(self._open_requests)
        for request in requests:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class DHTNodeServer:
    """One standalone DHT storage node (``python -m repro dht-server``)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = _NodeServer((host, port), _NodeHandler)
        self._server.data = {}
        self._server.data_lock = threading.Lock()
        #: hints parked here for other nodes: target address bytes
        #: (``b"host:port"``) -> {kind-prefixed key -> payload}
        self._server.hints = {}
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    @property
    def chaos(self) -> Optional[ChaosInjector]:
        """The active fault injector, or None when the node is clean."""
        return self._server.chaos

    def inject_chaos(self, *, latency_s: Optional[float] = None,
                     error_rate: Optional[float] = None,
                     blackhole: Optional[bool] = None,
                     seed: int = 0) -> ChaosInjector:
        """Arm (or reconfigure) fault injection on this live node.

        See :class:`~repro.distdht.chaos.ChaosInjector` for the knobs.
        Safe while serving; returns the injector for introspection.
        """
        injector = self._server.chaos
        if injector is None:
            injector = ChaosInjector(seed=seed)
            self._server.chaos = injector
        injector.configure(latency_s=latency_s, error_rate=error_rate,
                           blackhole=blackhole)
        return injector

    def heal(self) -> None:
        """Clear all injected faults; the node serves cleanly again."""
        injector = self._server.chaos
        if injector is not None:
            injector.heal()

    def sever_connections(self) -> None:
        """Hard-close every live connection without stopping the node.

        Chaos-harness sibling of :meth:`inject_chaos`: every pooled
        client connection dies at once (as on a node restart), but the
        listener keeps accepting, so clients reconnect and recover.
        """
        self._server.sever_connections()

    def start(self) -> "DHTNodeServer":
        """Serve on a background thread (tests / embedded use)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL_S,),
            name=f"repro-dht-node-{self.address[1]}", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._server.serve_forever(_POLL_INTERVAL_S)

    def close(self) -> None:
        self._server.shutdown()
        self._server.sever_connections()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)

    def __enter__(self) -> "DHTNodeServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- client -----------------------------------------------------------------


class _NodeClient:
    """Pooled connections to one node, with retry and backoff.

    Backoff is exponential with **full jitter** and a ceiling: attempt
    ``i`` sleeps ``uniform(0, min(max_backoff_s, backoff_s * 2**i))``.
    Without the jitter every pooled client of a restarted node retries in
    lockstep and reconnects stampede the node; the cap keeps large retry
    budgets from sleeping for minutes.  ``rng`` is any object with a
    ``uniform(a, b)`` method — tests pass a seeded :class:`random.Random`
    to make the schedule deterministic.
    """

    def __init__(self, host: str, port: int, *, timeout: float,
                 retries: int, backoff_s: float, pool_size: int,
                 max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
                 rng: Optional[random.Random] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.pool_size = pool_size
        self._rng = rng if rng is not None else random.Random()
        self._pool: List[socket.socket] = []
        self._lock = threading.Lock()

    def _backoff_delay(self, attempt: int) -> float:
        """The jittered sleep before retry ``attempt + 1``."""
        ceiling = min(self.max_backoff_s, self.backoff_s * (2 ** attempt))
        return self._rng.uniform(0.0, ceiling)

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self) -> Optional[socket.socket]:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return None

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    def request(self, op: int, payload: bytes) -> bytes:
        """One request/response round trip; retries transient failures.

        A pooled connection that fails is dropped and replaced; after
        ``retries`` fresh-connection failures the ConnectionError
        propagates (the caller's replica failover takes it from there).
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            sock = self._checkout()
            fresh = sock is None
            try:
                if sock is None:
                    sock = self._connect()
                _send_frame(sock, op, payload)
                status, reply = _recv_frame(sock)
            except (OSError, ConnectionError) as error:
                last_error = error
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                # A dirty pooled socket (server restarted between
                # requests) deserves an immediate fresh-connection try;
                # fresh-connection failures back off before retrying.
                if fresh and attempt < self.retries:
                    time.sleep(self._backoff_delay(attempt))
                continue
            self._checkin(sock)
            if status == STATUS_ERROR:
                raise RuntimeError(
                    f"dht node {self.host}:{self.port}: "
                    f"{reply.decode('utf-8', 'replace')}")
            return reply
        raise ConnectionError(
            f"dht node {self.host}:{self.port} unreachable: {last_error}")

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:
                pass


def _fetch_dht(locator) -> bytes:
    """Resolve a ``("dht", ((host, port), ...), key)`` locator.

    Asks each replica in placement order, over a transient connection,
    with a one-key MGET.  A miss asks the next replica; a tombstone is
    authoritative, as on every read, and raises KeyError at once.
    """
    _tag, nodes, key = locator
    request = _pack_chunks([key])
    last_error: Exception = KeyError(key)
    for host, port in nodes:
        client = _NodeClient(host, port, timeout=10.0, retries=1,
                             backoff_s=0.05, pool_size=0)
        try:
            reply = client.request(OP_MGET, request)
        except ConnectionError as error:
            last_error = error
            continue
        finally:
            client.close()
        chunk = _reply_chunks(reply, 1)[0]
        if chunk[1:] == TOMBSTONE:
            raise KeyError(f"record {key!r} deleted on {host}:{port}")
        if chunk:
            return chunk[1:]
        last_error = KeyError(f"record {key!r} missing on {host}:{port}")
    raise last_error


register_fetcher("dht", _fetch_dht)


class _HealthRegistry:
    """Per-node circuit breaker state shared by every client operation.

    ``threshold`` consecutive request failures open the circuit (the
    node is *down*); any success closes it again.  A threshold of 0
    disables the breaker — no node is ever marked down.
    """

    def __init__(self, count: int, threshold: int):
        self._threshold = threshold
        self._lock = threading.Lock()
        self._failures = [0] * count
        self._down = [False] * count
        self._down_since = [0.0] * count

    def note_failure(self, index: int) -> bool:
        """Record one failure; True when this one marks the node down."""
        if self._threshold <= 0:
            return False
        with self._lock:
            self._failures[index] += 1
            if (not self._down[index]
                    and self._failures[index] >= self._threshold):
                self._down[index] = True
                self._down_since[index] = time.monotonic()
                return True
        return False

    def note_success(self, index: int) -> bool:
        """Record one success; True when the node just came back up."""
        with self._lock:
            self._failures[index] = 0
            if self._down[index]:
                self._down[index] = False
                return True
        return False

    def down_indexes(self) -> List[int]:
        with self._lock:
            return [i for i, down in enumerate(self._down) if down]

    def snapshot(self) -> List[Dict[str, Any]]:
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "down": down,
                    "consecutive_failures": failures,
                    "down_for_s": round(now - since, 3) if down else 0.0,
                }
                for down, failures, since
                in zip(self._down, self._failures, self._down_since)
            ]


class SocketBackingStore(BackingStore):
    """Client-side view of a DHT node cluster.

    ``nodes`` is a non-empty list of ``(host, port)`` pairs (or
    ``"host:port"`` strings).  ``replication`` copies each record onto
    that many distinct ring-successive nodes; any reachable replica
    serves reads, which is what lets a query survive a killed node.

    Self-healing knobs (all per-store, defaults on):

    * ``failure_threshold`` — consecutive failures before a node is
      marked down and skipped in replica walks (0 disables).
    * ``probe_interval_s`` — background PING cadence for down nodes;
      0 means probe only via explicit :meth:`probe_now` calls.
    * ``hinted_handoff`` — park writes for down/failed replicas on a
      reachable peer, replayed on rejoin.
    * ``read_repair`` — write a failover read's record back to the
      earlier replicas that missed it.
    * ``repair_on_rejoin`` — run a full anti-entropy :meth:`repair`
      sweep whenever a down node comes back.
    """

    kind = "socket"
    remote = True

    _COUNTER_NAMES = (
        "fast_fails", "hints_parked", "hints_replayed", "read_repairs",
        "probes", "nodes_marked_down", "nodes_recovered", "auto_repairs",
    )

    def __init__(self, nodes: Sequence[Any], *, replication: int = 1,
                 timeout: float = 10.0, retries: int = 2,
                 backoff_s: float = 0.05, pool_size: int = 2,
                 max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
                 backoff_rng: Optional[random.Random] = None,
                 failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
                 hinted_handoff: bool = True,
                 read_repair: bool = True,
                 repair_on_rejoin: bool = True):
        if not nodes:
            raise ValueError("need at least one dht node")
        parsed = []
        for node in nodes:
            if isinstance(node, str):
                host, _, port = node.rpartition(":")
                parsed.append((host or "127.0.0.1", int(port)))
            else:
                parsed.append((str(node[0]), int(node[1])))
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.nodes: List[Tuple[str, int]] = parsed
        self.replication = min(replication, len(parsed))
        self._clients = [
            _NodeClient(host, port, timeout=timeout, retries=retries,
                        backoff_s=backoff_s, pool_size=pool_size,
                        max_backoff_s=max_backoff_s, rng=backoff_rng)
            for host, port in parsed
        ]
        # Consistent-hash ring: VNODES points per node, stable across
        # processes (stable_hash), so every client and every locator
        # agrees on placement without coordination.  A key's slot is
        # bisect_right of its hash; _placement holds each slot's replica
        # tuple (the first `replication` distinct owners clockwise), with
        # the slot past the last point wrapping round to the first.
        ring = sorted((stable_hash(f"{host}:{port}#{vnode}"), index)
                      for index, (host, port) in enumerate(parsed)
                      for vnode in range(VNODES))
        self._ring_hashes = [point for point, _owner in ring]
        self._placement: List[Tuple[int, ...]] = []
        for slot in range(len(ring)):
            replicas: List[int] = []
            step = slot
            while len(replicas) < self.replication:
                owner = ring[step % len(ring)][1]
                if owner not in replicas:
                    replicas.append(owner)
                step += 1
            self._placement.append(tuple(replicas))
        self._placement.append(self._placement[0])
        # -- self-healing state -------------------------------------------
        self.failure_threshold = failure_threshold
        self.probe_interval_s = probe_interval_s
        self.hinted_handoff = hinted_handoff
        self.read_repair = read_repair
        self.repair_on_rejoin = repair_on_rejoin
        #: callbacks invoked (with the node index) after a rejoined node
        #: has had its hints replayed and its auto-repair run
        self.on_rejoin: List[Callable[[int], None]] = []
        self._health = _HealthRegistry(len(parsed), failure_threshold)
        self._state_lock = threading.Lock()
        self._counters = {name: 0 for name in self._COUNTER_NAMES}
        self._pending_rejoin: List[int] = []
        self._probe_stop = threading.Event()
        self._probe_lock = threading.RLock()
        self._prober: Optional[threading.Thread] = None

    # -- placement --------------------------------------------------------

    def replicas_for(self, key: bytes) -> Tuple[int, ...]:
        """Node indexes serving ``key``, primary first."""
        return self._placement[bisect_right(self._ring_hashes,
                                            stable_hash(key))]

    # -- node health ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._state_lock:
            self._counters[name] += amount

    def _note_failure(self, index: int) -> None:
        if self._health.note_failure(index):
            self._count("nodes_marked_down")
            self._ensure_prober()

    def _note_success(self, index: int) -> None:
        if self._health.note_success(index):
            self._count("nodes_recovered")
            with self._state_lock:
                self._pending_rejoin.append(index)
            # someone has to run the rejoin work (hint replay, repair):
            # the prober if configured, else the next probe_now() call
            self._ensure_prober()

    def _request(self, index: int, op: int, payload: bytes) -> bytes:
        """One request to one node, its outcome noted in the breaker."""
        try:
            reply = self._clients[index].request(op, payload)
        except ConnectionError:
            self._note_failure(index)
            raise
        self._note_success(index)
        return reply

    def _plan(self, keys: Sequence[bytes]) -> Tuple[List[Tuple[int, ...]],
                                                    List[int]]:
        """Each key's replica attempt order and where its down tail starts.

        One health snapshot serves the whole batch.  Replicas marked down
        move behind the up ones, counting one fast-fail each — unless
        every replica of the key is down: then the walk attempts them all
        (half-open: the only way back up without a prober).
        """
        orders = [self.replicas_for(key) for key in keys]
        boundaries = [len(order) for order in orders]
        down = self._health.down_indexes()
        if down:
            skipped = 0
            for position, order in enumerate(orders):
                tail = tuple(index for index in order if index in down)
                if tail and len(tail) < len(order):
                    orders[position] = tuple(
                        index for index in order if index not in down) + tail
                    boundaries[position] = len(order) - len(tail)
                    skipped += len(tail)
            if skipped:
                self._count("fast_fails", skipped)
        return orders, boundaries

    # -- prober -----------------------------------------------------------

    def _ensure_prober(self) -> None:
        if self.probe_interval_s <= 0 or self._probe_stop.is_set():
            return
        with self._state_lock:
            if self._prober is not None and self._prober.is_alive():
                return
            self._prober = threading.Thread(
                target=self._probe_loop, name="repro-dht-prober",
                daemon=True)
            self._prober.start()

    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.probe_interval_s):
            try:
                self.probe_now()
            except Exception:  # noqa: BLE001 - the prober must survive
                pass

    def probe_now(self) -> List[int]:
        """PING every down node once; run rejoin work for recoveries.

        Returns the indexes of nodes that came back this call.  Tests
        (and stores built with ``probe_interval_s=0``) call this instead
        of waiting for the background prober.
        """
        with self._probe_lock:
            recovered: List[int] = []
            for index in self._health.down_indexes():
                self._count("probes")
                try:
                    self._clients[index].request(OP_PING, b"")
                except (ConnectionError, RuntimeError):
                    continue
                if self._health.note_success(index):
                    self._count("nodes_recovered")
                    recovered.append(index)
            with self._state_lock:
                pending, self._pending_rejoin = self._pending_rejoin, []
            for index in pending:
                if index not in recovered:
                    recovered.append(index)
            for index in recovered:
                self._on_rejoin(index)
            return recovered

    def _on_rejoin(self, index: int) -> None:
        """A down node answered again: replay its hints, then repair.

        Hint replay runs first so parked deletes (tombstones) and
        prefix-drops land before anti-entropy compares digests —
        otherwise the sweep would copy the stale records right back.
        """
        try:
            self._replay_hints_for(index)
        except Exception:  # noqa: BLE001 - rejoin is best-effort
            pass
        if self.repair_on_rejoin:
            try:
                self.repair()
                self._count("auto_repairs")
            except Exception:  # noqa: BLE001
                pass
        for callback in list(self.on_rejoin):
            try:
                callback(index)
            except Exception:  # noqa: BLE001
                pass

    # -- hinted handoff ---------------------------------------------------

    def _hint_target(self, index: int) -> bytes:
        host, port = self.nodes[index]
        return f"{host}:{port}".encode("ascii")

    def _park_hints(self, target_index: int,
                    entries: Sequence[Tuple[bytes, bytes]]) -> bool:
        """Park write intents for an unreachable node on a peer.

        Entries are ``(kind-prefixed key, payload)`` pairs; best-effort
        (a cluster where *no* peer is reachable simply loses the hints,
        exactly as the pre-hint code lost the replica copy).
        """
        if not entries or not self.hinted_handoff or len(self._clients) < 2:
            return False
        frame = _pack_chunks([self._hint_target(target_index)]
                             + [chunk for pair in entries for chunk in pair])
        order = [(target_index + step) % len(self._clients)
                 for step in range(1, len(self._clients))]
        down = self._health.down_indexes()
        candidates = ([i for i in order if i not in down]
                      + [i for i in order if i in down])
        for index in candidates:
            try:
                self._request(index, OP_HINT, frame)
            except ConnectionError:
                continue
            self._count("hints_parked", len(entries))
            return True
        return False

    def _replay_hints_for(self, index: int) -> int:
        """Collect and apply every peer's parked hints for one node."""
        target = self._hint_target(index)
        replayed = 0
        down = self._health.down_indexes()
        for holder in range(len(self._clients)):
            if holder == index or holder in down:
                continue
            try:
                reply = self._request(holder, OP_TAKE_HINTS, target)
            except ConnectionError:
                continue
            pairs = _unpack_pairs(reply)
            if not pairs:
                continue
            puts = [(kind_key[1:], payload) for kind_key, payload in pairs
                    if kind_key[:1] == _HINT_PUT]
            prefixes = [kind_key[1:] for kind_key, _payload in pairs
                        if kind_key[:1] == _HINT_PREFIX_DELETE]
            try:
                if puts:
                    self._request(index, OP_MPUT, _pack_pairs(puts))
                # prefix-drops last: a namespace released while its
                # node was down must win over that namespace's writes
                for prefix in prefixes:
                    self._request(index, OP_DELETE_PREFIX, prefix)
            except ConnectionError:
                self._park_hints(index, pairs)  # it vanished again
                break
            replayed += len(pairs)
        if replayed:
            self._count("hints_replayed", replayed)
        return replayed

    # -- anti-entropy -----------------------------------------------------

    def repair(self, prefix: bytes = b"", *, max_rounds: int = 4):
        """Anti-entropy sweep: converge replicas under ``prefix``.

        See :func:`repro.distdht.repair.repair_store`; returns its
        :class:`~repro.distdht.repair.RepairReport`.
        """
        from repro.distdht.repair import repair_store
        return repair_store(self, prefix=prefix, max_rounds=max_rounds)

    # direct single-node accessors for the repair module (no failover,
    # tombstones returned verbatim) -------------------------------------

    def node_digest(self, index: int, prefix: bytes = b"") \
            -> Dict[bytes, bytes]:
        """``{key: record digest}`` for one node's keys under prefix."""
        return dict(_unpack_pairs(self._request(index, OP_DIGEST, prefix)))

    def node_get_record(self, index: int, key: bytes) -> Optional[bytes]:
        chunk = _reply_chunks(
            self._request(index, OP_MGET, _pack_chunks([key])), 1)[0]
        return chunk[1:] if chunk else None

    def node_put_record(self, index: int, key: bytes,
                        record: bytes) -> None:
        self._request(index, OP_MPUT, _pack_pairs([(key, record)]))

    # -- the two replica walks --------------------------------------------

    def _read_walk(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Every keyed read is a batch of this walk.

        Each round sends every unresolved key to its *next* replica, one
        MGET per node, so keys whose node failed or missed advance
        together.  A miss stays open while an up replica is left; after
        that it is final if any replica answered, and raises if none
        did.  A tombstone is final at once.  Records a later replica
        served are written back to those that missed (one MPUT each).
        """
        count = len(keys)
        results: List[Optional[bytes]] = [None] * count
        orders, boundaries = self._plan(keys)
        ranks = [0] * count
        answered = [False] * count
        stale: Dict[int, List[int]] = {}  # position -> nodes that missed
        repairs: Dict[int, List[Tuple[bytes, bytes]]] = {}
        last_error: Optional[Exception] = None
        active: Sequence[int] = range(count)
        while active:
            batches: Dict[int, List[int]] = {}
            for position in active:
                rank = ranks[position]
                order = orders[position]
                if rank >= len(order) or (answered[position]
                                          and rank >= boundaries[position]):
                    if not answered[position]:
                        raise ConnectionError(
                            f"every replica unreachable for read: "
                            f"{last_error}")
                    continue  # authoritative miss: stays None
                batches.setdefault(order[rank], []).append(position)
            active = []
            for index, positions in batches.items():
                try:
                    reply = self._request(
                        index, OP_MGET,
                        _pack_chunks([keys[p] for p in positions]))
                except ConnectionError as error:
                    last_error = error
                    for position in positions:
                        ranks[position] += 1
                    active.extend(positions)
                    continue
                for position, chunk in zip(
                        positions, _reply_chunks(reply, len(positions))):
                    answered[position] = True
                    if not chunk:
                        stale.setdefault(position, []).append(index)
                        ranks[position] += 1
                        active.append(position)
                        continue
                    value = chunk[1:]
                    if value == TOMBSTONE:
                        continue  # deleted: resolved as None
                    if position in stale and self.read_repair:
                        for target in stale[position]:
                            repairs.setdefault(target, []).append(
                                (keys[position], value))
                    results[position] = value
        for index, items in repairs.items():
            try:
                self._request(index, OP_MPUT, _pack_pairs(items))
            except ConnectionError:
                continue
            self._count("read_repairs", len(items))
        return results

    def _write_walk(self, items: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
        """Every keyed write is a batch of this walk.

        The items go to their up replicas as one MPUT per node.  A key is
        written once one replica stored it; the replicas a written key
        missed (down, or failed now) get a hint.  If some key reached no
        replica the batch raises ConnectionError, after parking the other
        keys' hints; the unwritten key gets none, so a write that raised
        never lands later.  Returns, per item, whether a replica held a
        live record under its key before this write.
        """
        orders, boundaries = self._plan([key for key, _record in items])
        per_node: Dict[int, List[int]] = {}
        missed: Dict[int, List[int]] = {}
        for position, (order, boundary) in enumerate(zip(orders,
                                                         boundaries)):
            for rank, index in enumerate(order):
                target = per_node if rank < boundary else missed
                target.setdefault(index, []).append(position)
        written = [False] * len(items)
        live = [False] * len(items)
        last_error: Optional[Exception] = None
        for index, positions in per_node.items():
            try:
                reply = self._request(index, OP_MPUT, _pack_pairs(
                    [items[p] for p in positions]))
            except ConnectionError as error:
                last_error = error
                missed.setdefault(index, []).extend(positions)
                continue
            if len(reply) != len(positions):
                raise FrameError(f"{len(reply)} flags answer "
                                 f"{len(positions)} writes")
            for position, flag in zip(positions, reply):
                written[position] = True
                if flag:
                    live[position] = True
        for index, positions in missed.items():
            self._park_hints(index, [(_HINT_PUT + items[p][0], items[p][1])
                                     for p in positions if written[p]])
        if not all(written):
            raise ConnectionError(
                f"no replica reachable for write: {last_error}")
        return live

    # -- BackingStore -----------------------------------------------------

    def put(self, key: bytes, record: bytes) -> None:
        self._write_walk([(key, record)])

    def put_many(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        self._write_walk(items)

    def get(self, key: bytes) -> Optional[bytes]:
        return self._read_walk([key])[0]

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        return self._read_walk(keys)

    def delete(self, key: bytes) -> bool:
        """Write a tombstone; True when a replica held the key live."""
        return self._write_walk([(key, TOMBSTONE)])[0]

    def scan(self, prefix: bytes) -> List[bytes]:
        """Every node's live keys; down nodes only when no up node answers."""
        seen = set()
        reached = 0
        last_error: Optional[Exception] = None
        down = self._health.down_indexes()
        if down:
            self._count("fast_fails", len(down))
        for index in [i for i in range(len(self._clients))
                      if i not in down] + down:
            if reached and index in down:
                break
            try:
                reply = self._request(index, OP_SCAN, prefix)
            except ConnectionError as error:
                last_error = error
                continue
            reached += 1
            seen.update(_unpack_chunks(reply))
        if not reached:
            raise ConnectionError(
                f"every node unreachable for scan: {last_error}")
        return list(seen)

    def delete_prefix(self, prefix: bytes) -> int:
        dropped = 0
        unreached = self._health.down_indexes()
        if unreached:
            self._count("fast_fails", len(unreached))
        for index in [i for i in range(len(self._clients))
                      if i not in unreached]:
            try:
                reply = self._request(index, OP_DELETE_PREFIX, prefix)
            except ConnectionError:
                unreached.append(index)
                continue
            if len(reply) != _U32.size:
                raise FrameError(f"a {len(reply)}-byte drop count")
            dropped = max(dropped, _U32.unpack(reply)[0])
        # a namespace released while a node is down would otherwise leak
        # (and anti-entropy would copy it back on rejoin): park the drop
        for index in unreached:
            self._park_hints(index, [(_HINT_PREFIX_DELETE + prefix, b"")])
        return dropped

    def share(self, key: bytes) -> Tuple[str, Tuple, bytes]:
        """-> ``("dht", replica (host, port) pairs, key)``.

        Self-contained: the fetching process connects straight to the
        replicas, so a locator survives the sharing store being closed —
        and a dead primary, thanks to the replica walk in the fetcher.
        """
        replicas = tuple(self.nodes[index]
                         for index in self.replicas_for(key))
        return ("dht", replicas, key)

    def ping(self) -> List[bool]:
        """Liveness of each node, index-aligned with ``nodes``."""
        alive = []
        for index in range(len(self._clients)):
            try:
                self._request(index, OP_PING, b"")
            except ConnectionError:
                alive.append(False)
                continue
            alive.append(True)
        return alive

    def close(self) -> None:
        self._probe_stop.set()
        with self._state_lock:
            prober = self._prober
        if (prober is not None and prober.is_alive()
                and prober is not threading.current_thread()):
            prober.join(2.0)
        for client in self._clients:
            client.close()

    def health(self) -> Dict[str, Any]:
        """Breaker state per node plus the self-healing counters."""
        nodes = []
        for (host, port), state in zip(self.nodes, self._health.snapshot()):
            state["node"] = f"{host}:{port}"
            nodes.append(state)
        with self._state_lock:
            counters = dict(self._counters)
        return {"nodes": nodes, "counters": counters}

    def stats(self) -> Dict[str, Any]:
        per_node = []
        for client in self._clients:
            try:
                reply = client.request(OP_STATS, b"")
                per_node.append(json.loads(reply.decode("utf-8")))
            except ConnectionError:
                per_node.append(None)
        return {
            "kind": self.kind,
            "remote": self.remote,
            "nodes": [f"{host}:{port}" for host, port in self.nodes],
            "replication": self.replication,
            "per_node": per_node,
            "health": self.health(),
        }
