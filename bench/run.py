#!/usr/bin/env python3
"""The benchmark of the AMPC serving stack: one command, five workloads.

    python bench/run.py                      # all five, seed 7
    python bench/run.py --seed 1007 --out results/held-out
    python bench/run.py --workload socket-dht --trace --out results/t
    python bench/run.py --compare results/a/results.json results/b/results.json
    python bench/run.py --record-expected    # re-pin bench/expected.json

Without ``--workload`` every workload runs in a fresh interpreter, one
after the other.  With it (the form the benchmark driver uses, adding
``--seconds N --trace 0|1``) one workload runs in this process and the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.  ``bench/README.md`` has the rest.
"""

from __future__ import annotations

import time

#: as early as this file can look at the clock: ``setup_s`` counts the
#: imports below and the registry's first use as start-up
_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from ampcbench import REPO, require_source  # noqa: E402

EXPECTED_PATH = BENCH_DIR / "expected.json"
BENCHMARK_PATH = REPO / "BENCHMARK.json"
#: the seeds with pinned expectations: the default and the held-out one
PINNED_SEEDS = (7, 1007)
#: per-layer metrics read from the deployment's own ``stats()``
DEPLOYMENT_COUNTERS = {
    "serve.procpool.graphs_shipped": "count",
    "serve.procpool.rebalances": "count",
    "serve.procpool.queries_retried": "count",
    "serve.procpool.workers_respawned": "count",
    "serve.service.queries_shed": "count",
    "serve.service.deadline_exceeded": "count",
    "api.session.cache_bytes": "B",
}
#: how often a measuring run sets its deployment up (``setup_s`` is the
#: median); the traced run and ``--smoke`` set up once per pass
SETUPS = 3


def environment(seed: int) -> Dict[str, Any]:
    """The block every result carries."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, "seed": seed}


def size_name(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def load_pins(workload: str, smoke: bool, seed: int
              ) -> Optional[Dict[str, str]]:
    if not EXPECTED_PATH.is_file():
        return None
    pins = json.loads(EXPECTED_PATH.read_text())["pins"]
    return pins.get(f"{workload}/{size_name(smoke)}/{seed}")


# ---------------------------------------------------------------------------
# one workload, in this process


def run_pass(workload_class, *, seed: int, seconds: float, smoke: bool,
             fraction: float, setups: int, pins, tracer):
    """Set up (``setups`` times), run the measured phase, tear down.

    -> (workload, op log, the seconds of each set-up, the measured
    phase's wall-clock seconds, the deployment's counters)
    """
    from ampcbench.harness import OpLog
    from ampcbench.workloads import Context

    log = OpLog(pins)
    workload = workload_class(Context(
        seed=seed, seconds=seconds, smoke=smoke, fraction=fraction,
        log=log, tracer=tracer))
    setup_seconds = []
    try:
        for index in range(setups):
            if index:
                workload.teardown()
            setup_seconds.append(workload.timed_phase(workload.setup))
        measured_s = workload.timed_phase(workload.traffic)
        counters = workload.counters()
    finally:
        workload.teardown()
    return workload, log, setup_seconds, measured_s, counters


def print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, metric in metrics.items():
        samples = (f"  (n={metric['samples']})" if "samples" in metric
                   else "")
        print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']}"
              f"{samples}")


def report_failures(logs) -> None:
    shown = 0
    for log in logs:
        for op in log.ops:
            if op.error is not None and shown < 10:
                print(f"  FAILED {op.key}: {op.error}")
                shown += 1


def run_workload(args) -> int:
    require_source()
    from ampcbench import procs

    procs.own_every_descendant()
    try:
        return measure_workload(args)
    finally:
        # whatever path led here, no process of this run outlives it
        procs.stop_descendants()


def measure_workload(args) -> int:
    from ampcbench import procs
    from ampcbench.harness import (P90_SAMPLE_FLOOR, end_to_end_metrics,
                                   tail_metrics)
    from ampcbench.spans import Tracer
    from ampcbench.workloads import WORKLOADS
    from repro.api import registry

    shm_before = procs.shm_segments()
    workload_class = WORKLOADS[args.workload]
    registry.names()  # first use imports every algorithm module
    startup_s = time.perf_counter() - _STARTED
    pins = None if args.record_expected else load_pins(
        args.workload, args.smoke, args.seed)
    common = dict(seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                  pins=pins)
    result: Dict[str, Any] = {
        "workload": args.workload, "size": size_name(args.smoke),
        "seconds": args.seconds, "env": environment(args.seed)}
    print(f"== {args.workload} (seed {args.seed}, {size_name(args.smoke)}, "
          f"{'traced' if args.trace else 'measuring'} run) ==")
    print(f"   {workload_class.why}")

    if not args.trace:
        _workload, log, setup_seconds, measured_s, _counters = run_pass(
            workload_class, fraction=1.0,
            setups=1 if args.smoke else SETUPS, tracer=Tracer(), **common)
        logs = [log]
        metrics = end_to_end_metrics(
            log, startup_s=startup_s, setup_seconds=setup_seconds,
            measured_s=measured_s, peak_rss_mib=procs.peak_rss_mib())
        result["end_to_end"] = metrics
        print_metrics("end-to-end metrics (tracing off):", metrics)
        tails = {name: metric for name, metric in tail_metrics(log).items()
                 if metric["samples"] >= P90_SAMPLE_FLOOR}
        if tails:
            result["tails"] = tails
            print_metrics(f"tails (n >= {P90_SAMPLE_FLOOR}; not gated):",
                          tails)
    else:
        metrics, logs, trace = traced_run(workload_class, common, args)
        if args.out:
            write_json(Path(args.out) / f"{args.workload}.trace.json", trace)

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    if args.trace:
        metrics["failed_share"] = {"value": failed / attempted,
                                   "unit": "ratio"}
        metrics = result["per_layer"] = dict(sorted(metrics.items()))
        print_metrics("per-layer metrics (traced run):", metrics)
    seen = {key: digest for log in logs for key, digest in log.seen.items()}
    result.update(attempted=attempted, failed=failed,
                  failed_share=failed / attempted, digests=seen)
    report_failures(logs)
    pinned_keys = sum(1 for key in seen if pins and key in pins)
    print(f"ops: {attempted} attempted, {failed} failed "
          f"(failed_share {failed / attempted:.4f}); digests: "
          + (f"{pinned_keys} pinned, {len(seen) - pinned_keys} unpinned"
             if pins is not None else "unpinned"))
    leaked = procs.leaks(shm_before)
    for line in leaked:
        print(f"  LEAK {line}")
    result["leaks"] = leaked
    if args.out:
        suffix = ".traced.json" if args.trace else ".json"
        write_json(Path(args.out) / (args.workload + suffix), result)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()}}))
    return 1 if leaked else 0


def traced_run(workload_class, common: Dict[str, Any], args):
    """The per-layer numbers: one third of the ops twice — tracing off,
    then on — followed by the probes.

    -> (per-layer metrics, the two op logs, the trace file's content)
    """
    from ampcbench.probes import Probes
    from ampcbench.spans import Tracer

    from ampcbench.harness import tail_metrics

    fraction = 1.0 / 3.0
    _w, plain_log, _s, plain_s, _c = run_pass(
        workload_class, fraction=fraction, setups=1, tracer=Tracer(),
        **common)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        workload, traced_log, _s, traced_s, counters = run_pass(
            workload_class, fraction=fraction, setups=1, tracer=tracer,
            **common)
        probes = Probes(*workload.probe_graphs(), smoke=args.smoke,
                        tracer=tracer)
        probes.run_staged()
    finally:
        tracer.active = False
        tracer.uninstall()
    probed = probes.run_micro()
    summary = tracer.summary()
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in probed.items()}
    for name, unit in DEPLOYMENT_COUNTERS.items():
        # a deployment without that tier shed, shipped and retried nothing
        metrics[name] = {"value": float(counters.get(name, 0)), "unit": unit}
    # under-sampled on most workloads, hence here and not end to end
    metrics.update(tail_metrics(plain_log))
    metrics["trace_overhead_share"] = {
        "value": traced_s / plain_s - 1.0, "unit": "ratio"}
    metrics["trace.op_coverage_min"] = {
        "value": summary["op_coverage_min"], "unit": "ratio"}
    print("self time by span name (traced pass and staged pipeline):")
    rows = sorted(summary["by_name"].items(),
                  key=lambda item: -item[1]["self_ms"])
    for name, row in rows:
        print(f"  {name:34s} calls {row['calls']:6d}  "
              f"self {row['self_ms']:10.2f} ms  "
              f"total {row['total_ms']:10.2f} ms")
    trace = {"workload": args.workload, "seed": args.seed,
             "size": size_name(args.smoke), "summary": summary,
             "spans": tracer.dump()}
    return metrics, [plain_log, traced_log], trace


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# every workload, each in a fresh interpreter


def workload_names() -> List[str]:
    return [entry["name"] for entry in
            json.loads(BENCHMARK_PATH.read_text())["workloads"]]


def child_command(args, workload: str, seed: int, trace: bool,
                  out: Optional[str]) -> List[str]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(int(trace))]
    if args.smoke:
        command.append("--smoke")
    if args.record_expected:
        command.append("--record-expected")
    if out:
        command += ["--out", out]
    return command


def run_all(args) -> int:
    require_source()
    status = 0
    merged: Dict[str, Any] = {"env": environment(args.seed),
                              "size": size_name(args.smoke), "workloads": {}}
    for workload in workload_names():
        entry: Dict[str, Any] = {}
        for trace in ([False, True] if args.trace else [False]):
            done = subprocess.run(
                child_command(args, workload, args.seed, trace, args.out),
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            status = status or done.returncode
            if done.returncode == 0:
                last = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
                status = status or (0 if last["correct"] else 1)
            if args.out and done.returncode == 0:
                suffix = ".traced.json" if trace else ".json"
                entry.update(json.loads(
                    (Path(args.out) / (workload + suffix)).read_text()))
        merged["workloads"][workload] = entry
    if args.out:
        write_json(Path(args.out) / "results.json", merged)
        print(f"wrote {Path(args.out) / 'results.json'}")
    return status


def record_expected(args) -> int:
    """Re-pin ``bench/expected.json``: every workload, both pinned seeds,
    both sizes, measuring and traced pass (the traced pass runs a prefix
    of the same ops, so its keys are a subset)."""
    require_source()
    pins: Dict[str, Dict[str, str]] = {}
    scratch = BENCH_DIR / ".record-expected"
    for smoke in (False, True):
        args.smoke = smoke
        for seed in PINNED_SEEDS:
            for workload in workload_names():
                done = subprocess.run(
                    child_command(args, workload, seed, False, str(scratch)),
                    stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    sys.stdout.write(done.stdout)
                    return done.returncode
                result = json.loads((scratch / f"{workload}.json").read_text())
                if result["failed"]:
                    sys.stdout.write(done.stdout)
                    return 1
                key = f"{workload}/{size_name(smoke)}/{seed}"
                pins[key] = result["digests"]
                print(f"pinned {len(pins[key]):4d} digests for {key}")
    for leftover in scratch.glob("*.json"):
        leftover.unlink()
    scratch.rmdir()
    write_json(EXPECTED_PATH, {"schema": 1, "pins": pins})
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="run this one workload in this process "
                             "(default: all five, a fresh interpreter each)")
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0],
                        help="traffic seed (default 7; held-out 1007)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal length of a measured phase; the op "
                             "counts scale with it (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics, spans)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and tens of ops (the tier-1 "
                             "smoke test)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write results (and trace files) here")
    parser.add_argument("--record-expected", action="store_true",
                        help="re-pin bench/expected.json from this code")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results.json files")
    args = parser.parse_args(argv)
    if args.compare:
        from ampcbench.compare import compare
        return compare(Path(args.compare[0]), Path(args.compare[1]),
                       BENCHMARK_PATH)
    if args.workload is not None:
        require_source()
        from ampcbench.workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
        return run_workload(args)
    if args.record_expected:
        return record_expected(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
