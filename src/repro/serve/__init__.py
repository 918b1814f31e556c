"""The serving layer: concurrent queries over long-lived Sessions.

Five pieces:

* :class:`~repro.serve.service.GraphService` — the in-process case of the
  one dispatcher core, :class:`~repro.serve.service.ServiceBase`: one
  thread-safe :class:`~repro.api.session.Session` and a bounded worker
  pool; queries run concurrently with per-run metrics isolation while
  sharing the DHT-resident preprocessing.  Scales until the GIL does not.
* :class:`~repro.serve.procpool.ProcessGraphService` — the same core
  across N worker **processes**, each owning a private Session, with
  fingerprint-affinity routing (all queries for a graph go to the worker
  whose cache is warm, graphs pickled across the boundary once) — the
  scale-out deployment for CPU-bound traffic, with autoscaling and
  hung-worker replacement.
* :mod:`repro.serve.admission` — load-adaptive admission control: every
  query is priced via the cost model before it runs, held against a
  token budget with a peak-hold load estimator, and shed with a
  structured retry-after hint when the service is overloaded.
* :mod:`repro.serve.protocol` — a JSON-lines protocol (stdio or TCP) the
  ``python -m repro serve`` subcommand speaks; drives either service.
* :mod:`repro.serve.pool` — the bounded worker pool, its
  :class:`~repro.serve.pool.PendingResult` future (cancellable, with
  queue-wait deadlines), and
  :meth:`~repro.serve.pool.WorkerPool.map_unordered`.
"""

from repro.serve.admission import (
    AdmissionController,
    OverloadedError,
    PeakHoldLoadEstimator,
    estimate_query_cost,
)
from repro.serve.pool import (
    CancelledError,
    DeadlineExceededError,
    PendingResult,
    ServiceClosedError,
    WorkerPool,
)
from repro.serve.procpool import ProcessGraphService, WorkerDiedError
from repro.serve.protocol import (
    ServiceServer,
    handle_request,
    serve_socket,
    serve_stream,
)
from repro.serve.service import GraphService, ServiceBase

__all__ = [
    "AdmissionController",
    "CancelledError",
    "DeadlineExceededError",
    "GraphService",
    "OverloadedError",
    "PeakHoldLoadEstimator",
    "PendingResult",
    "ProcessGraphService",
    "ServiceBase",
    "ServiceClosedError",
    "ServiceServer",
    "WorkerDiedError",
    "WorkerPool",
    "estimate_query_cost",
    "handle_request",
    "serve_socket",
    "serve_stream",
]
