"""The algorithm registry: one spec per AMPC algorithm.

Every core algorithm registers an :class:`AlgorithmSpec` describing how to
run it uniformly — its input kind, its tunable parameters (with the CLI
flags they generate), the *preprocessing* stage whose DHT-resident product
a :class:`~repro.api.session.Session` can cache across runs, and adapters
that turn the algorithm's native result object into the flat summary /
human-readable description the CLI and experiment harness print.

The registry is the single dispatch point: :mod:`repro.cli` generates its
subcommands from it, :class:`Session` resolves algorithm names through it,
and :mod:`repro.analysis.experiment` runners are thin calls into it.

Core modules self-register at import time; :func:`specs` lazily imports
them so that listing the registry never requires callers to know which
module implements which algorithm.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: modules that register the built-in algorithm specs on import
_BUILTIN_MODULES = (
    "repro.core.mis",
    "repro.core.matching",
    "repro.core.msf",
    "repro.core.connectivity",
    "repro.core.two_cycle",
    "repro.core.random_walks",
    "repro.core.kkt",
    "repro.baselines.rootset_mis",
    "repro.baselines.rootset_matching",
    "repro.baselines.boruvka_msf",
    "repro.baselines.local_contraction_cc",
)

#: the graph representations an algorithm can declare as its input
INPUT_KINDS = ("graph", "weighted", "cycle")

#: the execution models a spec can declare; "mpc" specs get an
#: :class:`~repro.mpc.runtime.MPCRuntime` (no DHT) from the Session
MODELS = ("ampc", "mpc")


@dataclass(frozen=True)
class ParamSpec:
    """One tunable algorithm parameter, with its CLI projection."""

    name: str
    type: Callable[[str], Any]
    default: Any = None
    help: str = ""
    #: explicit CLI flag; default is ``--<name-with-dashes>``
    cli: Optional[str] = None
    #: False for display-only parameters the algorithm itself never sees
    #: (e.g. pagerank's ``top``, which only shapes the printed report)
    algorithm_arg: bool = True

    @property
    def flag(self) -> str:
        return self.cli or "--" + self.name.replace("_", "-")


def require_positive(name: str, value: Optional[int]) -> None:
    """Reject a parameter that is set but below 1 (``None`` means unset).

    Budgets and counts share this check so that ``0`` — falsy, and easy
    to mistake for "unset" with ``or`` — fails loudly instead of silently
    selecting the default.
    """
    if value is not None and value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the Session/CLI/experiment layers need about an algorithm.

    ``prepare(graph, *, runtime, seed)`` runs the algorithm's shared
    preprocessing — the "write the (transformed) graph to the key-value
    store" stage of Section 5 — and returns a cacheable artifact.
    ``run(graph, *, runtime, seed, prepared, **params)`` executes the
    algorithm against that artifact and returns its native result object.
    """

    name: str
    summary: str
    input_kind: str
    run: Callable[..., Any]
    prepare: Callable[..., Any]
    #: native result -> flat dict (must include ``output_size``)
    summarize: Callable[[Any, Any], Dict[str, Any]]
    #: (result, graph, params) -> the human-readable headline
    describe: Callable[[Any, Any, Dict[str, Any]], str]
    params: Tuple[ParamSpec, ...] = ()
    #: optional incremental hook: ``update(prepared, graph, *, runtime,
    #: seed, insertions, deletions)`` patches a prepared artifact built
    #: for an earlier version of ``graph`` into one matching its current
    #: content, in O(batch) — the touched records are rewritten into a
    #: derived (copy-on-write) child of the artifact's sealed store, so
    #: the old artifact keeps serving its own cache entry.  ``graph`` is
    #: the already-mutated graph; ``insertions``/``deletions`` are the
    #: journaled batch (possibly overlapping — treat as touched sets).
    #: Specs without a hook fall back to a full re-prepare on mutation.
    update: Optional[Callable[..., Any]] = None
    #: whether the prepared artifact depends on the seed (rank-directed
    #: graphs do; weight-sorted or plain adjacency does not)
    prep_seed_sensitive: bool = True
    #: execution model: "ampc" (default) or "mpc" (the shuffle-only
    #: baselines, which run on an MPCRuntime without a DHT)
    model: str = "ampc"

    def __post_init__(self):
        if self.input_kind not in INPUT_KINDS:
            raise ValueError(
                f"input_kind must be one of {INPUT_KINDS}, "
                f"got {self.input_kind!r}"
            )
        if self.model not in MODELS:
            raise ValueError(
                f"model must be one of {MODELS}, got {self.model!r}"
            )

    def algorithm_params(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The subset of ``params`` the algorithm callable accepts."""
        passed = {p.name for p in self.params if p.algorithm_arg}
        return {name: value for name, value in params.items()
                if name in passed}


_REGISTRY: Dict[str, AlgorithmSpec] = {}
_ORDER: List[str] = []
_LOADED = False


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec`` under its canonical name; idempotent per name."""
    key = _canonical(spec.name)
    existing = _REGISTRY.get(key)
    if existing is not None and existing.run is not spec.run:
        raise ValueError(f"algorithm {key!r} is already registered")
    if existing is None:
        _ORDER.append(key)
    _REGISTRY[key] = spec
    return spec


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Only mark loaded on success: a failed import retries (and re-raises)
    # on the next call instead of leaving a silently partial registry.
    _LOADED = True


def get(name: str) -> AlgorithmSpec:
    """Resolve an algorithm name (hyphens and underscores both accepted)."""
    _ensure_loaded()
    key = _canonical(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {known}"
        ) from None


def names() -> List[str]:
    """Registered algorithm names, in registration order."""
    _ensure_loaded()
    return list(_ORDER)


def specs() -> List[AlgorithmSpec]:
    """All registered specs, in registration order."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in _ORDER]
