"""Command-line interface, generated from the algorithm registry.

Usage::

    python -m repro mis graph.txt --machines 10 --seed 1
    python -m repro matching graph.txt
    python -m repro msf weighted.txt --weighted
    python -m repro components graph.txt
    python -m repro two-cycle cycles.txt
    python -m repro pagerank graph.txt --walks 32 --top 10
    python -m repro mis graph.txt --query-budget 5000 --json
    python -m repro serve --machines 10 --workers 4          # JSON over stdio
    python -m repro serve --port 7077                        # JSON over TCP
    python -m repro serve --processes 4 --port 7077          # process pool
    python -m repro dht-server --port 7171                   # one DHT node
    python -m repro serve --backend shm --processes 4        # shared memory
    python -m repro serve --backend socket \\
        --dht-node 127.0.0.1:7171 --dht-node 127.0.0.1:7172 \\
        --replication 2                                      # real cluster
    python -m repro serve --processes 2 --max-inflight-cost 50 \\
        --deadline-ms 2000 --autoscale 4      # load-adaptive serving
    python -m repro dht-server --chaos-latency-ms 150        # slow node
    python -m repro dht-repair --dht-node 127.0.0.1:7171 \\
        --dht-node 127.0.0.1:7172 --replication 2        # anti-entropy

Every subcommand comes from :mod:`repro.api.registry`: registering an
:class:`~repro.api.registry.AlgorithmSpec` in a core module is all it takes
to appear here, with the spec's parameters projected onto CLI flags.  Runs
go through :class:`~repro.api.session.Session`, print the spec's result
headline plus the execution metrics the paper reports, and ``--json``
dumps the full :class:`~repro.api.result.RunResult` envelope instead.

Input files are plain edge lists (``u v`` or ``u v w`` per line, ``#``
comments allowed — the format of :mod:`repro.graph.io`).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from repro.ampc.cluster import ClusterConfig
from repro.ampc.cost_model import CostModel
from repro.api import Session, registry
from repro.dataflow.pcollection import BudgetExceededError
from repro.graph.generators import degree_weighted
from repro.graph.io import read_edge_list, read_weighted_edge_list


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machines", type=int, default=10)
    parser.add_argument("--threads", type=int, default=72)
    parser.add_argument("--transport", choices=("rdma", "tcp"),
                        default="rdma")
    parser.add_argument("--no-caching", action="store_true",
                        help="disable the per-machine query cache")
    parser.add_argument("--no-multithreading", action="store_true",
                        help="disable lookup latency hiding")
    parser.add_argument("--query-budget", type=int, default=None,
                        metavar="N",
                        help="per-machine per-stage KV query budget — the "
                             "O(S) communication bound of the AMPC model")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list file (u v [w] per line)")
    _add_cluster_arguments(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the full RunResult envelope as JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMPC graph algorithms in constant adaptive rounds "
                    "(Behnezhad et al., VLDB 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in registry.specs():
        command = sub.add_parser(spec.name, help=spec.summary)
        _add_common_arguments(command)
        if spec.input_kind == "weighted":
            command.add_argument(
                "--weighted", action="store_true",
                help="read weights from the file (default: deg(u)+deg(v) "
                     "weights, as in the paper)")
        for param in spec.params:
            command.add_argument(param.flag, dest=param.name,
                                 type=param.type, default=param.default,
                                 help=param.help)
    serve = sub.add_parser(
        "serve",
        help="serve queries over JSON lines (stdio, or TCP with --port)")
    _add_cluster_arguments(serve)
    serve.add_argument("--workers", type=int, default=4,
                       help="concurrent query worker threads (one shared "
                            "Session under the GIL)")
    serve.add_argument("--processes", type=int, default=None, metavar="N",
                       help="serve from N worker processes instead of "
                            "threads (one private Session each, queries "
                            "routed by graph fingerprint affinity) — "
                            "lifts the GIL limit for CPU-bound traffic")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port to listen on (default: stdio; "
                            "0 picks an ephemeral port)")
    serve.add_argument("--max-cache-bytes", type=int, default=None,
                       metavar="N",
                       help="LRU byte budget for the preprocessing cache")
    serve.add_argument("--backend", choices=("sim", "mem", "shm", "socket"),
                       default="sim",
                       help="where DHT records physically live: 'sim' "
                            "(in-runtime dicts, the default), 'shm' "
                            "(shared-memory segments, one host), or "
                            "'socket' (remote dht-server nodes)")
    serve.add_argument("--dht-node", action="append", dest="dht_nodes",
                       default=None, metavar="HOST:PORT",
                       help="a dht-server node address (repeatable; "
                            "required with --backend socket)")
    serve.add_argument("--replication", type=int, default=1, metavar="R",
                       help="replicas per key on the socket backend "
                            "(reads fail over node by node)")
    serve.add_argument("--max-inflight-cost", type=float, default=None,
                       metavar="COST",
                       help="admission control: per-worker budget of "
                            "estimated query cost (simulated seconds) "
                            "held in flight; excess queries queue, then "
                            "shed with a structured retry-after error")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="default queue-wait deadline per query; a "
                            "query still queued past it fails with "
                            "deadline_exceeded instead of running "
                            "(requests may override via deadline_ms)")
    serve.add_argument("--autoscale", type=int, default=None, metavar="MAX",
                       help="with --processes: grow the worker-process "
                            "pool up to MAX under sustained queue depth, "
                            "shrink back when load drains")
    serve.add_argument("--no-worker-retry", action="store_true",
                       help="with --processes: fail queries caught on a "
                            "crashed worker with worker_died instead of "
                            "re-running them once on a survivor")
    dht_server = sub.add_parser(
        "dht-server",
        help="run one standalone DHT node (binary KV protocol over TCP)")
    dht_server.add_argument("--host", default="127.0.0.1")
    dht_server.add_argument("--port", type=int, default=0,
                            help="TCP port to listen on (0 picks an "
                                 "ephemeral port, printed on stderr)")
    dht_server.add_argument("--chaos-latency-ms", type=float, default=0.0,
                            metavar="MS",
                            help="chaos harness: sleep MS before serving "
                                 "each request (a deliberately slow node)")
    dht_server.add_argument("--chaos-error-rate", type=float, default=0.0,
                            metavar="P",
                            help="chaos harness: reply STATUS_ERROR to "
                                 "that fraction of requests")
    dht_server.add_argument("--chaos-blackhole", action="store_true",
                            help="chaos harness: drop every request "
                                 "unanswered and reset the connection")
    dht_server.add_argument("--chaos-seed", type=int, default=0,
                            help="seed for the chaos error-rate schedule")
    dht_repair = sub.add_parser(
        "dht-repair",
        help="anti-entropy sweep: converge replicas across dht-server "
             "nodes (digest, copy divergence, verify)")
    dht_repair.add_argument("--dht-node", action="append", dest="dht_nodes",
                            required=True, metavar="HOST:PORT",
                            help="a dht-server node address (repeatable; "
                                 "list every node of the cluster)")
    dht_repair.add_argument("--replication", type=int, default=1,
                            metavar="R",
                            help="the cluster's replicas-per-key (must "
                                 "match what writers used)")
    dht_repair.add_argument("--prefix", default="",
                            help="only repair keys under this prefix "
                                 "(default: everything)")
    dht_repair.add_argument("--max-rounds", type=int, default=4,
                            metavar="N",
                            help="copy+verify round budget; normal "
                                 "convergence takes two")
    dht_repair.add_argument("--json", action="store_true",
                            help="print the full RepairReport as JSON")
    return parser


def _config(args) -> ClusterConfig:
    cost_model = (CostModel.tcp() if args.transport == "tcp"
                  else CostModel.rdma())
    return ClusterConfig(
        num_machines=args.machines,
        threads_per_machine=args.threads,
        caching=not args.no_caching,
        multithreading=not args.no_multithreading,
        cost_model=cost_model,
        query_budget_per_machine=args.query_budget,
    )


def _load_graph(spec, args):
    if spec.input_kind == "weighted":
        if args.weighted:
            return read_weighted_edge_list(args.graph)
        return degree_weighted(read_edge_list(args.graph))
    return read_edge_list(args.graph)


def _print_metrics(metrics: dict) -> None:
    print(f"shuffles: {metrics['shuffles']}  "
          f"shuffle bytes: {metrics['shuffle_bytes']:,}")
    print(f"KV reads: {metrics['kv_reads']:,}  "
          f"KV bytes: {metrics['kv_bytes']:,}  "
          f"cache hit rate: {metrics['cache_hit_rate']:.1%}")
    print(f"simulated time: {metrics['simulated_time_s']:.3f}s")


def _exit_on_sigterm() -> None:
    """Make SIGTERM an orderly shutdown, like the ``shutdown`` op.

    The default action kills the interpreter on the spot: no ``finally``
    runs, ``--processes`` workers are left re-parented to init and the
    shared-memory segments they created are never unlinked.  Raising
    ``SystemExit`` in the main thread instead unwinds the serve loop
    through its ``finally`` blocks — drain the connections, close the
    service (workers, their stores) — and exits with status 0.
    """
    def terminate(signum, frame):
        # one orderly shutdown is enough; a second signal must not
        # interrupt the cleanup half-way
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise SystemExit(0)

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, terminate)


def _cmd_serve(args) -> int:
    from repro.serve import (
        GraphService,
        ProcessGraphService,
        serve_socket,
        serve_stream,
    )

    if args.backend == "socket" and not args.dht_nodes:
        print("error: --backend socket needs at least one --dht-node",
              file=sys.stderr)
        return 2
    if args.autoscale is not None and args.processes is None:
        print("error: --autoscale needs --processes", file=sys.stderr)
        return 2
    deadline_s = (args.deadline_ms / 1000.0
                  if args.deadline_ms is not None else None)
    backend_options = dict(backend=args.backend, dht_nodes=args.dht_nodes,
                           replication=args.replication)
    load_options = dict(max_inflight_cost=args.max_inflight_cost,
                        default_deadline_s=deadline_s)
    if args.processes is not None:
        service = ProcessGraphService(_config(args),
                                      processes=args.processes,
                                      max_cache_bytes=args.max_cache_bytes,
                                      autoscale_max=args.autoscale,
                                      retry_worker_death=(
                                          not args.no_worker_retry),
                                      **load_options, **backend_options)
    else:
        service = GraphService(_config(args), workers=args.workers,
                               max_cache_bytes=args.max_cache_bytes,
                               **load_options, **backend_options)
    _exit_on_sigterm()
    try:
        if args.port is None:
            serve_stream(service, sys.stdin, sys.stdout)
        else:
            server = serve_socket(service, args.host, args.port)
            host, port = server.server_address[:2]
            print(f"serving on {host}:{port}", file=sys.stderr, flush=True)
            try:
                server.serve_forever()
            finally:
                server.close()
    finally:
        service.close()
    return 0


def _cmd_dht_server(args) -> int:
    from repro.distdht import DHTNodeServer

    node = DHTNodeServer(args.host, args.port)
    if (args.chaos_latency_ms > 0 or args.chaos_error_rate > 0
            or args.chaos_blackhole):
        node.inject_chaos(latency_s=args.chaos_latency_ms / 1000.0,
                          error_rate=args.chaos_error_rate,
                          blackhole=args.chaos_blackhole,
                          seed=args.chaos_seed)
    host, port = node.address
    print(f"dht-server listening on {host}:{port}", file=sys.stderr,
          flush=True)
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        node.close()
    return 0


def _cmd_dht_repair(args) -> int:
    import json

    from repro.distdht import SocketBackingStore, parse_node, repair_store

    nodes = [parse_node(spec) for spec in args.dht_nodes]
    store = SocketBackingStore(nodes, replication=args.replication,
                               probe_interval_s=0.0,
                               repair_on_rejoin=False)
    try:
        report = repair_store(store, prefix=args.prefix.encode("utf-8"),
                              max_rounds=args.max_rounds)
    finally:
        store.close()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        state = "converged" if report.converged else "NOT converged"
        print(f"{state} in {report.rounds} round(s): "
              f"{report.keys_checked} keys checked, "
              f"{report.keys_copied} copied "
              f"({report.tombstones_copied} tombstones), "
              f"{report.copy_failures} copy failures, "
              f"{report.nodes_unreachable} nodes unreachable")
        for name, counts in sorted(report.namespaces.items()):
            print(f"  {name}: checked {counts['checked']} "
                  f"copied {counts['copied']}")
    return 0 if report.converged else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "dht-server":
        return _cmd_dht_server(args)
    if args.command == "dht-repair":
        return _cmd_dht_repair(args)
    spec = registry.get(args.command)
    session = Session(_config(args))
    graph = _load_graph(spec, args)
    params = {p.name: getattr(args, p.name) for p in spec.params}
    try:
        result = session.run(spec.name, graph, seed=args.seed, **params)
    except (BudgetExceededError, ValueError) as error:
        # Budget overruns and input-shape rejections (e.g. a non-cycle
        # graph handed to two-cycle) are user errors, not crashes.
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(result.description)
    _print_metrics(result.metrics)
    for phase, seconds in result.phases.items():
        print(f"  {phase}: {seconds:.3f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
