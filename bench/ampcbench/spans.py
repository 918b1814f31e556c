"""In-memory spans recorded from the benchmark's side of each layer.

A span is (name, start, end, parent span, op id).  Spans come from the
workloads themselves (one root span per op), from wrappers installed on
a fixed list of coarse public callables of ``repro`` for the duration of
the traced pass, and from the staged pipeline in :mod:`ampcbench.probes`.
Nothing inside ``src/`` is touched: the wrappers are attribute swaps
that :meth:`Tracer.uninstall` reverts.

Worker processes and the ``serve`` subprocess are seen from the client
or dispatcher side only; a forked worker inherits the wrappers but a
pid check makes them pass-throughs there.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 op: Optional[str]):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start

    def to_dict(self, origin: float) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op,
                "start_us": round((self.start - origin) * 1e6, 1),
                "end_us": round((self.end - origin) * 1e6, 1)}


class Tracer:
    """Collects spans while ``active``; a disabled tracer costs one check."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[str] = None,
             parent: Optional[Span] = None) -> Iterator[Optional[Span]]:
        """Record one span; nests under the thread's current span.

        ``parent`` overrides the nesting for work handed to another
        thread (the pool worker executing a submitted query).
        """
        if not self.active or os.getpid() != self._pid:
            yield None
            return
        stack = self._stack()
        above = parent if parent is not None else (
            stack[-1] if stack else None)
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, above.id if above else None,
                    op if op is not None else (above.op if above else None))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, owner: Any, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def _wrap_pool_submit(self, pool_class: Any) -> None:
        """``WorkerPool.submit`` hands work to another thread: carry the
        submitting span across, so the executed query nests under it."""
        original = pool_class.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        def traced(pool, fn, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return original(pool, fn, *args, **kwargs)
            # nest under the op's root span: it stays open until the
            # client has the result, the submitting span does not
            op_root = stack[0]

            def executed(*call_args, **call_kwargs):
                with tracer.span("serve.pool.execute", parent=op_root):
                    return fn(*call_args, **call_kwargs)

            with tracer.span("serve.pool.submit"):
                return original(pool, executed, *args, **kwargs)

        self._installed.append((pool_class, "submit", original))
        pool_class.submit = traced

    def install(self) -> None:
        """Wrap the fixed list of coarse public callables."""
        from repro.ampc.dht import DHTStore
        from repro.api.session import GraphHandle, Session
        from repro.distdht.backing import BackingStore
        from repro.distdht.shm import SharedMemoryBackingStore
        from repro.distdht.sockets import SocketBackingStore
        from repro.graph.graph import Graph, WeightedGraph
        from repro.serve import protocol
        from repro.serve.admission import AdmissionController
        from repro.serve.pool import WorkerPool
        from repro.serve.procpool import ProcessGraphService
        from repro.serve.service import GraphService

        for owner, attribute, name in (
                (Session, "run", "api.session.run"),
                (Session, "prepare", "api.session.prepare"),
                (Session, "load", "api.session.load"),
                (GraphHandle, "apply_batch", "api.session.apply_batch"),
                (Graph, "csr", "graph.csr"),
                (WeightedGraph, "csr", "graph.csr"),
                (DHTStore, "write_columnar", "ampc.dht.write_columnar"),
                (GraphService, "submit", "serve.service.submit"),
                (ProcessGraphService, "submit", "serve.procpool.submit"),
                (AdmissionController, "try_acquire",
                 "serve.admission.try_acquire"),
                (protocol, "handle_request", "serve.protocol.handle_request"),
        ):
            self._wrap(owner, attribute, name)
        self._wrap_pool_submit(WorkerPool)
        for store_class, layer in (
                (BackingStore, "distdht.backing"),
                (SharedMemoryBackingStore, "distdht.shm"),
                (SocketBackingStore, "distdht.sockets")):
            for attribute in ("put_many", "get_many"):
                if attribute in store_class.__dict__:
                    self._wrap(store_class, attribute,
                               f"{layer}.{attribute}")

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """span id -> duration minus the part its children cover.

        Children may overlap (two pool threads under one submitter), so
        their intervals are merged before subtracting.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.id, ())):
                start = max(start, cursor)
                end = min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.id] = (span.end - span.start) - covered
        return result

    def summary(self) -> Dict[str, Any]:
        """Per-name self time and calls, and how much of each op's traced
        duration the spans *below* its root account for.

        The root ``op`` span is opened by the harness around the whole
        request, so its own self time is exactly the part no layer's
        span explains; counting it would make coverage 1 by
        construction."""
        self_times = self.self_times()
        by_name: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = by_name.setdefault(
                span.name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += self_times[span.id] * 1e3
            row["total_ms"] += (span.end - span.start) * 1e3
        # the spans of one op share its id; its root is the parentless one
        by_op: Dict[str, List[Span]] = {}
        for span in self.spans:
            if span.op is not None:
                by_op.setdefault(span.op, []).append(span)
        coverage = []
        for group in by_op.values():
            root = next(span for span in group if span.parent is None)
            if root.end > root.start:
                coverage.append(sum(self_times[span.id] for span in group
                                    if span is not root)
                                / (root.end - root.start))
        return {"by_name": by_name,
                "op_coverage_min": min(coverage) if coverage else 0.0,
                "ops_traced": len(coverage)}

    def dump(self) -> List[Dict[str, Any]]:
        origin = min((span.start for span in self.spans), default=0.0)
        return [span.to_dict(origin)
                for span in sorted(self.spans, key=lambda s: s.start)]
