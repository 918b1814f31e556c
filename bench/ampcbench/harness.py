"""Op accounting: timing, failure rules, pinned digests, validators.

An *op* is one client-visible request.  Every op has a kind:

* ``cold``   — a run that prepares from scratch;
* ``warm``   — a run answered from a cached or patched artifact;
* ``update`` — an edge batch plus whatever re-readies the graph.

An op **fails** if it raises, is shed, expires or times out; if it
answers ``ok: false``; if its cache flag contradicts its kind (so that
losing the cache cannot improve ``warm_*``); if its output fails its
validator; or if the digest of its simulated metrics differs from the
pinned expectation — or from another op with the same key in this run,
which holds on unpinned seeds too.  All checks run outside the timed
region.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.graph.generators import degree_weighted
from repro.graph.graph import WeightedGraph
from repro.sequential import validate
from repro.sequential.mst import kruskal_msf, msf_weight

#: an op still unanswered after this many seconds has failed
OP_TIMEOUT_S = 120.0

ALGORITHMS = ("mis", "matching", "msf")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: an observed sample, never a blend.

    The latency populations here are mixtures (three algorithms, fold
    and non-fold updates); interpolating between two ranks that sit in
    different classes would report a latency no op had.
    """
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def digest_of(metrics: Dict[str, Any], summary: Dict[str, Any]) -> str:
    """Digest of an op's simulated ``metrics`` plus ``summary``."""
    text = json.dumps({"metrics": metrics, "summary": summary},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Answer:
    """What a run op came back with, in the shape every transport shares."""

    summary: Dict[str, Any]
    metrics: Dict[str, Any]
    reused: bool
    #: the native result object, when the op ran in this process
    output: Any = None


@dataclass
class Op:
    """One timed op and, after :meth:`OpLog.check_answer`, its verdict."""

    key: str
    phase: str  # "setup" | "main"
    kind: str   # "cold" | "warm" | "update"
    algorithm: Optional[str]
    #: whether a cold run counts towards ``cold_*_ms``: it ran on its
    #: workload's primary (full-scale) graph, one client at a time
    primary: bool = True
    #: wall-clock of the op, in seconds
    seconds: float = 0.0
    error: Optional[str] = None


class OpLog:
    """Every op of one benchmark run, with the failure accounting."""

    def __init__(self, pinned: Optional[Dict[str, str]]):
        #: key -> digest for this (workload, size, seed); None = unpinned.
        #: A key without a pin (a longer --seconds reaches ops the pinned
        #: run never issued) is unpinned too, not a failure.
        self.pinned = pinned
        self.ops: List[Op] = []
        #: key -> digest as first seen in this run
        self.seen: Dict[str, str] = {}
        #: (algorithm, graph name) -> (graph id, outputs already validated
        #: against that content)
        self._validated: Dict[Tuple, Tuple] = {}
        #: graph name -> (graph id, weighted graph, sequential MSF weight)
        self._oracle: Dict[str, Tuple] = {}

    # -- timing ------------------------------------------------------------

    def timed(self, op: Op, action: Callable[[], Any]) -> Any:
        """Run ``action`` as ``op``; an exception fails the op.  Called
        from both client threads of a two-client phase (``list.append``
        is atomic)."""
        start = time.perf_counter()
        try:
            value = action()
        except Exception as error:  # noqa: BLE001 - any failure is the op's
            op.seconds = time.perf_counter() - start
            op.error = f"{type(error).__name__}: {error}"
            value = None
        else:
            op.seconds = time.perf_counter() - start
            if op.seconds > OP_TIMEOUT_S:
                op.error = f"took {op.seconds:.1f}s (limit {OP_TIMEOUT_S:.0f}s)"
        self.ops.append(op)
        return value

    # -- checking (outside the timed region) -------------------------------

    def fail(self, op: Op, reason: str) -> None:
        if op.error is None:
            op.error = reason

    def check_answer(self, op: Op, key: str, algorithm: str,
                     answer: Answer, *, expect_reused: bool,
                     graph: Any = None,
                     graph_id: Optional[Tuple] = None) -> None:
        """Apply every failure rule to one run answer of ``op``.

        ``key`` names the answer for pinning (an update op carries the
        answers of the runs that re-readied its graph, each under its
        own key).  ``graph``/``graph_id`` are given when the output can
        be validated here, i.e. the op ran in this process.
        """
        if answer.reused != expect_reused:
            self.fail(op, f"{key}: preprocessing_reused == {answer.reused}, "
                          f"expected {expect_reused}")
        digest = digest_of(answer.metrics, answer.summary)
        first = self.seen.setdefault(key, digest)
        if first != digest:
            self.fail(op, f"{key}: digest {digest} differs from {first} "
                          "earlier in this run")
        expected = (self.pinned or {}).get(key)
        if expected is not None and expected != digest:
            self.fail(op, f"{key}: digest {digest} != pinned {expected}")
        size = answer.summary.get("output_size")
        if not isinstance(size, int) or size < 0:
            self.fail(op, f"{key}: bad output_size {size!r}")
        if answer.output is not None and graph is not None:
            problem = self._validate(algorithm, answer, graph, graph_id)
            if problem:
                self.fail(op, f"{key}: {problem}")

    def _validate(self, algorithm: str, answer: Answer, graph: Any,
                  graph_id: Tuple) -> Optional[str]:
        """First-principles check of an in-process output, or None if fine.

        An output equal to one already validated against the same graph
        content is not re-walked (cold and warm runs of one seed agree).
        """
        output = answer.output
        payload = (output.independent_set if algorithm == "mis"
                   else output.matching if algorithm == "matching"
                   else output.forest)
        graph_id = tuple(graph_id)
        content, known = self._validated.get((algorithm, graph_id[0]),
                                             (None, []))
        if content != graph_id:  # the graph moved on: forget old outputs
            known = []
            self._validated[(algorithm, graph_id[0])] = (graph_id, known)
        if any(payload == earlier for earlier in known):
            return None
        if algorithm == "mis":
            if not validate.is_maximal_independent_set(graph, payload):
                return "not a maximal independent set"
        elif algorithm == "matching":
            if not validate.is_maximal_matching(graph, payload):
                return "not a maximal matching"
        else:
            if not validate.is_spanning_forest(
                    graph.unweighted() if isinstance(graph, WeightedGraph)
                    else graph, payload):
                return "not a spanning forest"
            weighted, oracle = self._msf_oracle(graph, graph_id)
            weight = msf_weight(weighted, payload)
            if not math.isclose(weight, oracle, rel_tol=1e-9):
                return f"forest weight {weight} != Kruskal's {oracle}"
            if not math.isclose(answer.summary.get("weight", -1.0), weight,
                                rel_tol=1e-9):
                return "summary weight disagrees with the forest"
        known.append(payload)
        return None

    def _msf_oracle(self, graph: Any, graph_id: Tuple
                    ) -> Tuple[WeightedGraph, float]:
        """-> (the weighted graph msf ran on, Kruskal's forest weight).

        A service derives the paper's deg(u)+deg(v) weights for msf on an
        unweighted graph, and so does the oracle.  Only the newest
        content of each graph is kept.
        """
        name = graph_id[0]
        cached = self._oracle.get(name)
        if cached is None or cached[0] != graph_id:
            weighted = (graph if isinstance(graph, WeightedGraph)
                        else degree_weighted(graph))
            cached = (graph_id, weighted,
                      msf_weight(weighted, kruskal_msf(weighted)))
            self._oracle[name] = cached
        return cached[1], cached[2]

    # -- totals ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)

    def ops_of(self, kind: str, *, phase: Optional[str] = None,
               algorithm: Optional[str] = None) -> List[Op]:
        """The ops of a class; failed ops are left out (they count in
        ``failed``, and a fast failure must not improve a latency)."""
        return [op for op in self.ops
                if op.kind == kind and op.error is None
                and (phase is None or op.phase == phase)
                and (algorithm is None or op.algorithm == algorithm)]


#: a 90th percentile is reported as a result only over at least this many
#: samples, which leaves ten beyond it
P90_SAMPLE_FLOOR = 100


def _latency(ops: List[Op], pick: Callable[[List[float]], float]
             ) -> Dict[str, Any]:
    return {"value": pick([op.seconds for op in ops]) * 1e3, "unit": "ms",
            "samples": len(ops)}


def end_to_end_metrics(log: OpLog, *, startup_s: float,
                       setup_seconds: List[float], measured_s: float,
                       peak_rss_mib: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one run, each with unit and sample count;
    all wall-clock, as measured.

    ``setup_s`` is what a fresh process pays up to its first measured op:
    start-up (imports, the registry's first use — paid once) plus the
    median of the run's set-ups (graph build, server/node/worker start,
    ``load`` and pre-warm).  ``cold_*`` pools every from-scratch run of
    the process on the workload's primary graph, set-up included: on the
    serving workloads set-up (pre-warming) is where cold work happens.  ``warm_*``, ``update_*``
    and ``ops_per_s`` come from the measured phase only; ``ops_per_s``
    is its fixed op count over its wall-clock (``measured_s``).
    """
    main = [op for op in log.ops if op.phase == "main"]
    metrics = {
        "setup_s": {"value": startup_s + statistics.median(setup_seconds),
                    "unit": "s", "samples": len(setup_seconds)},
        "ops_per_s": {"value": len(main) / measured_s, "unit": "ops/s",
                      "samples": len(main)}}
    for algorithm in ALGORITHMS:
        metrics[f"cold_{algorithm}_ms"] = _latency(
            [op for op in log.ops_of("cold", algorithm=algorithm)
             if op.primary], statistics.median)
    for kind in ("warm", "update"):
        metrics[f"{kind}_p50_ms"] = _latency(
            log.ops_of(kind, phase="main"), statistics.median)
    metrics["peak_rss_mb"] = {"value": peak_rss_mib, "unit": "MiB",
                              "samples": 1}
    return metrics


def tail_metrics(log: OpLog) -> Dict[str, Dict[str, Any]]:
    """``warm_p90_ms`` and ``update_p90_ms`` of the measured phase.

    Not regression-gated: only some workloads issue the
    ``P90_SAMPLE_FLOOR`` ops of a class that a 90th percentile needs.
    A measuring run prints the ones that do; the traced run reports both
    as per-layer metrics, with their sample counts.
    """
    return {f"{kind}_p90_ms": _latency(log.ops_of(kind, phase="main"),
                                       lambda v: percentile(v, 0.9))
            for kind in ("warm", "update")}
