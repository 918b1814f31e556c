"""The five workloads: five deployments of the stack, five traffic mixes.

Each workload drives one deployment through its own public entry point
and issues all three op kinds (cold, warm, update) there, in the mix
that makes it stress its own layers; see ``bench/README.md`` for why
each exists.  Every workload is a closed loop with an op list fixed by
``--seed`` and ``--seconds`` alone — a slower build receives the same
load.

Sizes are for ``nproc`` = 2.  The load generator is this one process;
the two serving workloads drive their deployment from ``CLIENTS`` = 2
client threads (two connections, two submitters), the three in-process
ones are a single caller of ``Session``.  Server, DHT-node and worker
processes are the system under test and are scheduled wherever the
kernel puts them.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.ampc.cluster import ClusterConfig
from repro.api.session import Session
from repro.graph.generators import degree_weighted
from repro.serve.procpool import ProcessGraphService

from ampcbench.graphs import BenchGraph, ok_s, syn_graph
from ampcbench.harness import OP_TIMEOUT_S, Answer, Op, OpLog
from ampcbench.procs import ReproProcess
from ampcbench.spans import Tracer

#: the seconds the op counts below are sized for; ``--seconds`` scales them
NOMINAL_SECONDS = 10.0
#: rank seeds above this are never pre-warmed: a run on one prepares cold
FRESH_SEED_BASE = 1000
#: client threads (connections, submitters) of a serving workload
CLIENTS = 2


class Context:
    """What one pass of one workload runs with."""

    def __init__(self, *, seed: int, seconds: float, smoke: bool,
                 fraction: float, log: OpLog, tracer: Tracer):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        #: 1.0 for a measuring pass, 1/3 for the traced pass and its twin
        self.fraction = fraction
        self.log = log
        self.tracer = tracer

    def count(self, full: int, smoke: int, minimum: int = 1) -> int:
        """An op count: ``full`` at NOMINAL_SECONDS, scaled by the pass."""
        if self.smoke:
            return max(minimum, round(smoke * self.fraction))
        scaled = full * self.seconds / NOMINAL_SECONDS * self.fraction
        return max(minimum, round(scaled))


def answer_of(result: Any) -> Answer:
    """A ``RunResult`` (or its ``to_dict`` form off the wire) as an Answer."""
    if isinstance(result, dict):
        return Answer(result["summary"], result["metrics"],
                      result["preprocessing_reused"])
    return Answer(result.summary, result.metrics,
                  result.preprocessing_reused, result.output)


@dataclass
class Run:
    """One run op of an op list: what to ask, and what to expect back."""

    kind: str  # "cold" | "warm"
    algorithm: str
    graph: BenchGraph
    seed: int


@dataclass
class Issued:
    """A run op that has been timed and not yet checked."""

    op: Op
    run: Run
    result: Any


def exact_mix(total: int, combos: List[Tuple[BenchGraph, int]],
              rng: random.Random, fresh_share: float = 0.0) -> List[Run]:
    """``total`` run ops, exactly mis 6 : matching 2 : msf 2, shuffled.

    Each algorithm cycles through ``combos`` ((graph, seed) pairs), so
    every run of the benchmark draws the same multiset of ops and only
    their order depends on the seed: the latency population does not
    move with the draw.  The three algorithms are three latency classes;
    with mis at six tenths the median sits inside the mis class (the
    issue's 5 : 3 : 2 puts it exactly on the boundary between two
    classes, where it reads the fastest op of the next class up).
    ``fresh_share`` of the mis and matching ops get a never-seen rank
    seed instead and prepare cold (msf's artifact does not depend on the
    seed); the others are cache-served.
    """
    shares = {"mis": total * 6 // 10, "matching": total * 2 // 10}
    shares["msf"] = total - sum(shares.values())
    runs: List[Run] = []
    for algorithm, count in shares.items():
        cold = round(fresh_share * count) if algorithm != "msf" else 0
        for index in range(count):
            graph, seed = combos[index % len(combos)]
            if index < cold:
                runs.append(Run("cold", algorithm, graph,
                                FRESH_SEED_BASE + index))
            else:
                runs.append(Run("warm", algorithm, graph, seed))
    rng.shuffle(runs)
    return runs


class Workload:
    """One deployment plus its traffic; subclasses fill in the phases."""

    name = ""
    why = ""
    #: whether the ops run in this process (a Session) rather than in a
    #: server or worker process
    in_process = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.log = ctx.log
        self.tracer = ctx.tracer
        # Two streams, so that a shorter pass (the traced one, a smaller
        # --seconds) draws a prefix of the same update batches: op order
        # consumes a count-dependent amount of randomness, batches must not
        self.order_rng = random.Random(f"{self.name}:{ctx.seed}:order")
        self.batch_rng = random.Random(f"{self.name}:{ctx.seed}:batches")
        #: seconds of the current phase spent checking outputs
        self._excluded = 0.0
        self._cleanups: List[Callable[[], None]] = []
        self._op_ids = itertools.count()

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        """Build inputs and bring the deployment to its first measured op."""
        raise NotImplementedError

    def traffic(self) -> None:
        """Issue the measured ops."""
        raise NotImplementedError

    def defer(self, cleanup: Callable[[], None]) -> None:
        """Register what :meth:`teardown` must undo, as soon as it exists
        (a set-up that fails half-way is torn down just the same)."""
        self._cleanups.append(cleanup)

    def teardown(self) -> None:
        """Stop everything :meth:`setup` started, newest first."""
        while self._cleanups:
            self._cleanups.pop()()

    def timed_phase(self, phase: Callable[[], None]) -> float:
        """Run ``setup`` or ``traffic``; -> its wall-clock seconds, minus
        the time the harness spent checking outputs inside it."""
        self._excluded = 0.0
        start = time.perf_counter()
        phase()
        return time.perf_counter() - start - self._excluded

    def counters(self) -> Dict[str, float]:
        """The deployment's own counters (``stats()``), for per-layer
        metrics; called before teardown."""
        return {}

    def probe_graphs(self) -> Tuple[Any, Any, Any]:
        """-> (data graph, its weighted twin, query graph) for the probes."""
        raise NotImplementedError

    # -- op helpers --------------------------------------------------------

    @contextmanager
    def untimed(self) -> Iterator[None]:
        """Checking outputs pauses the phase clock (main thread only)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start

    def _timed(self, op: Op, action: Callable[[], Any]) -> Any:
        """Time ``action`` as ``op``; its root span covers the request and
        nothing of the harness."""
        op_id = f"{next(self._op_ids)}:{op.key}"

        def request() -> Any:
            with self.tracer.span("op", op=op_id):
                return action()

        return self.log.timed(op, request)

    def issue(self, run: Run, action: Callable[[], Any], *,
              phase: str = "main") -> Issued:
        """Time one run op; the answer is checked later, by :meth:`check`."""
        key = (f"{run.kind}/{run.algorithm}/{run.graph.name}"
               f"@{run.graph.version}/s{run.seed}")
        # a never-seen-seed run prepares cold beside another client's
        # traffic; cold_* is over the runs that had the deployment alone
        op = Op(key, phase, run.kind, run.algorithm,
                primary=run.graph.primary and run.seed < FRESH_SEED_BASE)
        return Issued(op, run, self._timed(op, action))

    def check(self, issued: Issued) -> None:
        """Apply the failure rules to an issued run op.  The graph must
        still have the content the op ran against."""
        op, run, result = issued.op, issued.run, issued.result
        if op.error is not None:
            return
        in_process = not isinstance(result, dict)
        self.log.check_answer(
            op, op.key, run.algorithm, answer_of(result),
            expect_reused=(run.kind == "warm"),
            graph=run.graph.graph if in_process else None,
            graph_id=(run.graph.name, run.graph.version))

    def run_op(self, kind: str, algorithm: str, graph: BenchGraph,
               seed: int, action: Callable[[], Any], *,
               phase: str = "main") -> None:
        """Time one run op, then check its answer (clock paused)."""
        if self.in_process:
            # Every run starts from a collected heap: a generation-2
            # collection (tens of ms with the graphs resident) otherwise
            # lands in whichever op happens to cross the threshold, and
            # doubles a 30 ms replay at random.  What the op itself
            # allocates, and the collections that triggers, stay timed.
            with self.untimed():
                gc.collect()
        issued = self.issue(Run(kind, algorithm, graph, seed), action,
                            phase=phase)
        with self.untimed():
            self.check(issued)

    def two_clients(self, runs: List[Run],
                    query: Callable[[int, Run], Callable[[], Any]]
                    ) -> None:
        """Issue ``runs`` from ``CLIENTS`` threads, each a closed loop over
        its fixed share of the list (every ``CLIENTS``-th op);
        ``query(client, run)`` is the request client ``client`` sends.

        Answers are checked after both loops have ended, so that the
        harness's own work never competes with a client for this
        process's interpreter lock; the graphs must not change meanwhile.
        """
        def client(index: int) -> List[Issued]:
            return [self.issue(run, query(index, run))
                    for run in runs[index::CLIENTS]]

        with ThreadPoolExecutor(max_workers=CLIENTS,
                                thread_name_prefix="bench-client") as pool:
            loops = [pool.submit(client, index) for index in range(CLIENTS)]
            issued = [loop.result() for loop in loops]
        with self.untimed():
            for item in itertools.chain.from_iterable(issued):
                self.check(item)

    def prewarm(self, graphs: List[BenchGraph], seeds: Tuple[int, ...],
                query: Callable[[str, BenchGraph, int], Callable[[], Any]]
                ) -> None:
        """Run every (graph, algorithm, seed) once, as set-up ops."""
        for graph in graphs:
            for algorithm in ("mis", "matching", "msf"):
                for seed in seeds:
                    # msf's artifact ignores the seed: its second
                    # pre-warm is already a hit
                    kind = ("warm" if algorithm == "msf" and seed != seeds[0]
                            else "cold")
                    self.run_op(kind, algorithm, graph, seed,
                                query(algorithm, graph, seed), phase="setup")

    def update_op(self, graph: BenchGraph,
                  action: Callable[[List, List], Any],
                  readied: Tuple[str, ...] = ()) -> None:
        """Time one update: draw a batch, apply it, re-ready the graph.

        ``action(insertions, deletions)`` returns either the list of
        ``session.prepare`` flags (in-process: each must be False — a
        patched artifact is not a cache hit) or the answers of the runs
        that re-readied the algorithms in ``readied``.
        """
        with self.untimed():
            insertions, deletions = graph.draw_batch(self.batch_rng)
        op = Op(f"update/{graph.name}@{graph.version}", "main", "update",
                None)
        outcome = self._timed(op, lambda: action(insertions, deletions))
        if op.error is not None:
            return
        with self.untimed():
            if not readied:
                if any(outcome):
                    self.log.fail(op, "an updated graph was served from "
                                      "the cache")
                return
            for algorithm, result in zip(readied, outcome):
                in_process = not isinstance(result, dict)
                self.log.check_answer(
                    op, f"ready/{algorithm}/{graph.name}@{graph.version}/s0",
                    algorithm, answer_of(result), expect_reused=False,
                    graph=graph.graph if in_process else None,
                    graph_id=(graph.name, graph.version))


def _session_update(session: Session, handle: Any,
                    algorithms: Tuple[str, ...], seed: int = 0
                    ) -> Callable[[List, List], List[bool]]:
    """``apply_batch`` plus ``session.prepare`` for each hosted algorithm."""

    def action(insertions: List, deletions: List) -> List[bool]:
        handle.apply_batch(insertions, deletions)
        return [session.prepare(algorithm, handle, seed=seed)
                for algorithm in algorithms]

    return action


# ---------------------------------------------------------------------------
# 1. cold-descent


class ColdDescent(Workload):
    in_process = True
    name = "cold-descent"
    why = ("one-shot cold Session.run on SYN-64K, sim backend: core.*, "
           "ampc.dht, ampc.vector and graph.csr do the work, serve.* and "
           "distdht.* none")

    #: update batches applied after each cold run (a few ms each)
    UPDATES_PER_OP = 3

    def setup(self) -> None:
        vertices = 1 << (12 if self.ctx.smoke else 16)
        self.graph = BenchGraph("syn", syn_graph(vertices))
        self.weighted = self.graph.weighted_twin("syn-w")
        self.cache_bytes = 0

    def traffic(self) -> None:
        rounds = self.ctx.count(full=3, smoke=1)
        updates = 2 if self.ctx.smoke else self.UPDATES_PER_OP
        seed = 0  # one rank seed: every round repeats the same three ops
        for _ in range(rounds):
            order = ["mis", "matching", "msf"]
            self.order_rng.shuffle(order)
            for algorithm in order:
                graph = self.weighted if algorithm == "msf" else self.graph
                # the paper's one-shot setting: nothing survives the op
                with Session(ClusterConfig()) as session:
                    handle = session.load(graph.name, graph.graph)

                    def run(session=session, handle=handle,
                            algorithm=algorithm, seed=seed):
                        return session.run(algorithm, handle, seed=seed)

                    self.run_op("cold", algorithm, graph, seed, run)
                    self.run_op("warm", algorithm, graph, seed, run)
                    for _ in range(updates):
                        self.update_op(graph, _session_update(
                            session, handle, (algorithm,), seed))
                    self.cache_bytes = session.cache_bytes

    def counters(self) -> Dict[str, float]:
        return {"api.session.cache_bytes": self.cache_bytes}

    def probe_graphs(self):
        # whole-query probes on real backends take too long on this
        # graph; they run on OK-S like everywhere else
        return self.graph.graph, self.weighted.graph, ok_s(
            0.1 if self.ctx.smoke else 1.0)


# ---------------------------------------------------------------------------
# 2. warm-serve-tcp


class JsonLinesClient:
    """One JSON-lines connection to ``python -m repro serve``."""

    def __init__(self, address: Tuple[str, int], tracer: Tracer):
        self._socket = socket.create_connection(address, OP_TIMEOUT_S)
        self._file = self._socket.makefile("rwb")
        self._tracer = tracer

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        span = self._tracer.span
        with span("serve.protocol.encode"):
            payload = (json.dumps(request) + "\n").encode("utf-8")
        with span("serve.protocol.roundtrip"):
            self._file.write(payload)
            self._file.flush()
            line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        with span("serve.protocol.decode"):  # a result is kilobytes of JSON
            response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "ok: false"))
        return response

    def run(self, algorithm: str, graph: str, seed: int) -> Dict[str, Any]:
        return self.call({"op": "run", "algorithm": algorithm,
                          "graph": graph, "seed": seed})["result"]

    def close(self) -> None:
        self._file.close()
        self._socket.close()


class WarmServeTcp(Workload):
    name = "warm-serve-tcp"
    why = ("cache-served queries over two JSON-lines connections to a "
           "serve subprocess: serve.protocol/admission/pool/service and "
           "the api.session hit path are on every op's path, core.* only "
           "replays")

    SCALES = (1.0, 0.7, 0.5)
    SEEDS = (0, 1)

    def setup(self) -> None:
        scales = ((0.1, 0.08, 0.06) if self.ctx.smoke else self.SCALES)
        self.graphs = [BenchGraph(f"g{index}", ok_s(scale),
                                  primary=(index == 0))
                       for index, scale in enumerate(scales)]
        # admission pricing and deadline stamping on every query's path,
        # sized never to shed
        self.server = ReproProcess("serve", [
            "serve", "--port", "0", "--workers", "2",
            "--max-inflight-cost", "1e9", "--deadline-ms", "30000"])
        self.defer(self.server.stop)
        address = self.server.wait_ready()
        self.clients = [JsonLinesClient(address, self.tracer)
                        for _ in range(CLIENTS)]
        self.defer(self._shutdown)
        for graph in self.graphs:
            self.clients[0].call({
                "op": "load", "name": graph.name,
                "vertices": graph.graph.num_vertices,
                "edges": [list(edge) for edge in graph.edges]})
        self.prewarm(self.graphs, self.SEEDS, self._query)

    def _query(self, algorithm: str, graph: BenchGraph, seed: int,
               client: int = 0) -> Callable[[], Any]:
        connection = self.clients[client]
        return lambda: connection.run(algorithm, graph.name, seed)

    def traffic(self) -> None:
        combos = [(graph, seed) for graph in self.graphs
                  for seed in self.SEEDS]
        self.two_clients(
            exact_mix(self.ctx.count(full=1000, smoke=40), combos,
                      self.order_rng),
            lambda client, run: self._query(run.algorithm, run.graph,
                                            run.seed, client))
        # updates come after the warm phase, from one connection, so that
        # patch work never sits between two warm queries
        target = self.graphs[-1]
        connection = self.clients[0]

        def update(insertions: List, deletions: List) -> List[Dict]:
            connection.call({
                "op": "update", "graph": target.name,
                "insertions": [list(row) for row in insertions],
                "deletions": [list(row) for row in deletions]})
            answers = [connection.run(algorithm, target.name, 0)
                       for algorithm in ("mis", "matching")]
            # keep the local mirror in step: the next batch is drawn
            # from it (sixteen set operations, microseconds)
            target.apply_locally(insertions, deletions)
            return answers

        for _ in range(self.ctx.count(full=12, smoke=2)):
            self.update_op(target, update, readied=("mis", "matching"))

    def counters(self) -> Dict[str, float]:
        stats = self.clients[0].call({"op": "stats"})["stats"]
        return {"serve.service.queries_shed": stats["queries_shed"],
                "serve.service.deadline_exceeded": stats["deadline_exceeded"],
                "api.session.cache_bytes": stats["cache_bytes"]}

    def _shutdown(self) -> None:
        self.server.stop(
            graceful=lambda: self.clients[0].call({"op": "shutdown"}))
        for connection in self.clients:
            connection.close()

    def probe_graphs(self):
        graph = self.graphs[0].graph
        return graph, degree_weighted(graph), graph


# ---------------------------------------------------------------------------
# 3. procpool-shm


class ProcpoolShm(Workload):
    name = "procpool-shm"
    why = ("the scale-out tier: two submitters, two worker processes on the "
           "shm backend; serve.procpool pipe and pickle, affinity routing, "
           "distdht.shm and the record codec do the work")

    SCALES = (1.0, 0.85, 0.7, 0.55)
    #: share of mis/matching ops that carry a never-seen rank seed
    FRESH_SHARE = 0.15

    def setup(self) -> None:
        scales = ((0.1, 0.085, 0.07, 0.055) if self.ctx.smoke
                  else self.SCALES)
        self.graphs = [BenchGraph(f"g{index}", ok_s(scale),
                                  primary=(index == 0))
                       for index, scale in enumerate(scales)]
        self.service = ProcessGraphService(
            ClusterConfig(), processes=2, backend="shm",
            max_inflight_cost=1e9, default_deadline_s=30)
        self.defer(self.service.close)
        for graph in self.graphs:
            self.service.load(graph.name, graph.graph)
        self.prewarm(self.graphs, (0,), self._query)

    def _query(self, algorithm: str, graph: BenchGraph, seed: int
               ) -> Callable[[], Any]:
        def query() -> Any:
            with self.tracer.span("serve.procpool.dispatch"):
                pending = self.service.submit(algorithm, graph.name,
                                              seed=seed)
            with self.tracer.span("serve.procpool.wait"):
                return pending.result(OP_TIMEOUT_S)
        return query

    def traffic(self) -> None:
        combos = [(graph, 0) for graph in self.graphs]
        self.two_clients(
            exact_mix(self.ctx.count(full=60, smoke=10), combos,
                      self.order_rng, fresh_share=self.FRESH_SHARE),
            lambda _client, run: self._query(run.algorithm, run.graph,
                                             run.seed))
        target = self.graphs[-1]

        def update(insertions: List, deletions: List) -> List[Any]:
            self.service.update(target.name, insertions, deletions)
            return [self._query(algorithm, target, 0)()
                    for algorithm in ("mis", "matching")]

        for _ in range(self.ctx.count(full=12, smoke=2)):
            self.update_op(target, update, readied=("mis", "matching"))

    def counters(self) -> Dict[str, float]:
        stats = self.service.stats()
        return {
            "serve.procpool.graphs_shipped": stats["graphs_shipped"],
            "serve.procpool.rebalances": stats["rebalances"],
            "serve.procpool.queries_retried": stats["queries_retried"],
            "serve.procpool.workers_respawned": stats["workers_respawned"],
            "serve.service.queries_shed": stats["queries_shed"],
            "serve.service.deadline_exceeded": stats["deadline_exceeded"],
            "api.session.cache_bytes": stats["cache_bytes"],
        }

    def probe_graphs(self):
        graph = self.graphs[0].graph
        return graph, degree_weighted(graph), graph


# ---------------------------------------------------------------------------
# 4. socket-dht


class SocketDht(Workload):
    in_process = True
    name = "socket-dht"
    why = ("Session on the socket backend, two dht-server subprocesses, "
           "replication 2: distdht.sockets, distdht.store and the record "
           "codec dominate, and warm costs as much as cold")

    def setup(self) -> None:
        self.graph = BenchGraph("ok", ok_s(0.1 if self.ctx.smoke else 1.0))
        self.weighted = self.graph.weighted_twin("ok-w")
        self.nodes = []
        for index in range(2):
            node = ReproProcess(f"dht-server-{index}",
                                ["dht-server", "--port", "0"])
            self.defer(node.stop)
            self.nodes.append(node)
        self.addresses = [node.wait_ready() for node in self.nodes]
        self.cache_bytes = 0

    def traffic(self) -> None:
        rounds = self.ctx.count(full=2, smoke=1)
        cycles = 1 if self.ctx.smoke else 6
        # Two updates of OK-S (mis and matching re-readied) for each one
        # of its weighted twin (msf alone, half the cost): at one to one
        # the median update would sit on the boundary between the two
        # cost classes and read whichever sample happens to be nearest.
        updated = ((self.graph, ("mis", "matching")),
                   (self.graph, ("mis", "matching")),
                   (self.weighted, ("msf",)))
        for _ in range(rounds):
            # a fresh Session per round; closing it releases its namespaces
            with Session(ClusterConfig(), backend="socket",
                         dht_nodes=self.addresses, replication=2) as session:
                handles = {graph.name: session.load(graph.name, graph.graph)
                           for graph in (self.graph, self.weighted)}
                order = ["mis", "matching", "msf"]
                self.order_rng.shuffle(order)
                for algorithm in order:
                    graph = (self.weighted if algorithm == "msf"
                             else self.graph)

                    def run(algorithm=algorithm, graph=graph):
                        return session.run(algorithm, handles[graph.name],
                                           seed=0)

                    self.run_op("cold", algorithm, graph, 0, run)
                    self.run_op("warm", algorithm, graph, 0, run)
                for _ in range(cycles):
                    for graph, algorithms in updated:
                        self.update_op(graph, _session_update(
                            session, handles[graph.name], algorithms))
                self.cache_bytes = session.cache_bytes

    def counters(self) -> Dict[str, float]:
        return {"api.session.cache_bytes": self.cache_bytes}

    def probe_graphs(self):
        return self.graph.graph, self.weighted.graph, self.graph.graph


# ---------------------------------------------------------------------------
# 5. update-stream


class UpdateStream(Workload):
    in_process = True
    name = "update-stream"
    why = ("interleaved insert/delete batches beside reads on one sim "
           "Session: derived copy-on-write stores, chained generations, "
           "the fold every ninth batch and the update hooks")

    #: the Session folds a chain once it is deeper than this
    MAX_CHAIN_GENERATIONS = 8

    def setup(self) -> None:
        self.graph = BenchGraph("ok", ok_s(0.1 if self.ctx.smoke else 1.0))
        self.weighted = self.graph.weighted_twin("ok-w")
        self.session = Session(
            ClusterConfig(),
            max_chain_generations=self.MAX_CHAIN_GENERATIONS)
        self.defer(self.session.close)
        self.handles = {
            graph.name: self.session.load(graph.name, graph.graph)
            for graph in (self.graph, self.weighted)}
        for algorithm, graph in self._hosted():
            # two cold runs that leave the cache alone, then the one that
            # fills it: three cold samples per set-up
            for reuse in (False, False, True):
                self.run_op(
                    "cold", algorithm, graph, 0,
                    lambda a=algorithm, g=graph, r=reuse: self.session.run(
                        a, self.handles[g.name], seed=0,
                        reuse_preprocessing=r),
                    phase="setup")

    def _hosted(self) -> List[Tuple[str, BenchGraph]]:
        return [("mis", self.graph), ("matching", self.graph),
                ("msf", self.weighted)]

    def traffic(self) -> None:
        if self.ctx.fraction == 1:
            # whole fold periods: every ninth batch folds the chain, so
            # the share of fold updates does not depend on the op count
            cycles = 9 * self.ctx.count(full=3, smoke=1)
        else:
            cycles = self.ctx.count(full=27, smoke=9, minimum=3)
        for _ in range(cycles):
            for graph, algorithms in ((self.graph, ("mis", "matching")),
                                      (self.weighted, ("msf",))):
                handle = self.handles[graph.name]
                self.update_op(graph, _session_update(
                    self.session, handle, algorithms))
                for algorithm in algorithms:
                    self.run_op(
                        "warm", algorithm, graph, 0,
                        lambda a=algorithm, h=handle: self.session.run(
                            a, h, seed=0))

    def counters(self) -> Dict[str, float]:
        return {"api.session.cache_bytes": self.session.cache_bytes}

    def probe_graphs(self):
        return self.graph.graph, self.weighted.graph, self.graph.graph


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (ColdDescent, WarmServeTcp, ProcpoolShm, SocketDht,
                     UpdateStream)}
