"""Registry-wide conformance suite.

Every registered :class:`~repro.api.registry.AlgorithmSpec` — current and
future — must honour the Session contract: prepare/run separation with a
real cross-run saving, seed determinism, well-typed summarize/describe
adapters, and parameter declarations that round-trip through
``Session._merge_params``.  The suite parametrizes over ``registry.specs()``
so a newly registered algorithm is covered the moment it registers.
"""

import json

import pytest

from repro.ampc.cluster import ClusterConfig
from repro.ampc.dht import DHTStore
from repro.ampc.runtime import AMPCRuntime
from repro.api import Session, registry
from repro.dataflow.dofn import MachineContext
from repro.graph.generators import degree_weighted, erdos_renyi_gnm, two_cycles
from repro.mpc.runtime import MPCRuntime

CONFIG = ClusterConfig(num_machines=4)
SEED = 5

#: conformance inputs per declared input kind.  The weighted graph is
#: sparse (m < n^1.25), so the msf-theory spec exercises its staged
#: ternarized branch.
GRAPH = erdos_renyi_gnm(36, 60, seed=1)
WEIGHTED = degree_weighted(GRAPH)
CYCLES = two_cycles(24, shuffle_ids=True, seed=1)

#: flags the CLI reserves for cluster/run plumbing; spec params must not
#: shadow them
RESERVED_FLAGS = {
    "--machines", "--threads", "--seed", "--transport", "--no-caching",
    "--no-multithreading", "--query-budget", "--json", "--weighted",
    "--workers", "--host", "--port", "--max-cache-bytes", "--processes",
    "--backend", "--dht-node", "--replication",
}

#: the Session contract must hold wherever the records physically live;
#: "shm" runs every conformance check against a real backing store
BACKENDS = ("sim", "shm")


def _input_for(spec):
    return {"graph": GRAPH, "weighted": WEIGHTED, "cycle": CYCLES}[
        spec.input_kind
    ]


@pytest.mark.parametrize("spec", registry.specs(), ids=lambda s: s.name)
class TestSpecConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prepare_run_separation(self, spec, backend):
        """A second run reuses the preparation and shuffles strictly less."""
        with Session(CONFIG, backend=backend) as session:
            graph = _input_for(spec)
            cold = session.run(spec.name, graph, seed=SEED)
            warm = session.run(spec.name, graph, seed=SEED)
        assert not cold.preprocessing_reused
        assert warm.preprocessing_reused
        assert warm.metrics["shuffles"] < cold.metrics["shuffles"]
        assert warm.shuffles_saved > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_run_output_matches_cold(self, spec, backend):
        with Session(CONFIG, backend=backend) as session:
            graph = _input_for(spec)
            cold = session.run(spec.name, graph, seed=SEED)
            warm = session.run(spec.name, graph, seed=SEED)
        assert warm.summary == cold.summary
        assert warm.description == cold.description

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seed_determinism_across_sessions(self, spec, backend):
        graph = _input_for(spec)
        with Session(CONFIG, backend=backend) as session:
            first = session.run(spec.name, graph, seed=SEED)
        with Session(CONFIG, backend=backend) as session:
            second = session.run(spec.name, graph, seed=SEED)
        assert first.summary == second.summary
        assert first.description == second.description
        assert first.metrics == second.metrics

    def test_summarize_and_describe_contracts(self, spec):
        run = Session(CONFIG).run(spec.name, _input_for(spec), seed=SEED)
        assert isinstance(run.summary, dict)
        assert "output_size" in run.summary
        assert isinstance(run.description, str) and run.description
        # The whole envelope must stay JSON-serializable (the CLI --json
        # path and the serve protocol both depend on it).
        decoded = json.loads(run.to_json())
        assert decoded["algorithm"] == spec.name

    def test_params_round_trip_through_merge(self, spec):
        merged = Session._merge_params(spec, {})
        assert set(merged) == {p.name for p in spec.params}
        for param in spec.params:
            assert merged[param.name] == param.default
        # every declared param is accepted by name
        echoed = Session._merge_params(
            spec, {p.name: p.default for p in spec.params}
        )
        assert echoed == merged
        with pytest.raises(TypeError, match="unexpected parameter"):
            Session._merge_params(spec, {"definitely_not_a_param": 1})

    def test_declared_flags_do_not_shadow_reserved_ones(self, spec):
        for param in spec.params:
            assert param.flag not in RESERVED_FLAGS, (
                f"{spec.name}.{param.name} projects onto the reserved "
                f"CLI flag {param.flag}"
            )

    def test_prepare_routes_kv_writes_through_batched_api(self, spec,
                                                          monkeypatch):
        """Every spec's prepare stage that writes to a DHT must do so via
        a batched KV API — write_many or a whole-batch columnar write —
        not per-element writes."""
        batched = [0]
        original = MachineContext.write_many

        def counting_write_many(self, store, items):
            items = list(items)
            batched[0] += len(items)
            return original(self, store, items)

        monkeypatch.setattr(MachineContext, "write_many",
                            counting_write_many)
        original_columnar = DHTStore.write_columnar

        def counting_write_columnar(self, records):
            batched[0] += len(records.keys)
            return original_columnar(self, records)

        monkeypatch.setattr(DHTStore, "write_columnar",
                            counting_write_columnar)
        runtime = (MPCRuntime(config=CONFIG) if spec.model == "mpc"
                   else AMPCRuntime(config=CONFIG))
        spec.prepare(_input_for(spec), runtime=runtime, seed=SEED)
        assert batched[0] == runtime.metrics.kv_writes, (
            f"{spec.name}: {runtime.metrics.kv_writes} KV writes during "
            f"prepare, but only {batched[0]} went through the batched "
            f"write_many API"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prep_seed_sensitivity_declaration_holds(self, spec, backend):
        """Seed-insensitive preparations must actually serve other seeds."""
        session = Session(CONFIG, backend=backend)
        graph = _input_for(spec)
        session.run(spec.name, graph, seed=SEED)
        other = session.run(spec.name, graph, seed=SEED + 1)
        if spec.prep_seed_sensitive:
            assert not other.preprocessing_reused
        else:
            assert other.preprocessing_reused


@pytest.mark.parametrize("name", ["mis", "matching", "msf"])
def test_core_algorithms_exercise_batched_kv_ops(name, monkeypatch):
    """The flagship algorithms must run on the batched KV API end to end
    (lookup_many / lookup_block and/or a whole-batch write), not just
    compile against it.  The prepare stage's KV write counts whether it
    flows through ``MachineContext.write_many`` or the columnar batch
    write."""
    calls = {"lookup_many": 0, "write_many": 0}
    original_lookup_many = MachineContext.lookup_many
    original_lookup_block = MachineContext.lookup_block
    original_write_many = MachineContext.write_many
    original_write_columnar = DHTStore.write_columnar

    def spy_lookup_many(self, store, keys):
        calls["lookup_many"] += 1
        return original_lookup_many(self, store, keys)

    def spy_lookup_block(self, store, keys):
        calls["lookup_many"] += 1
        return original_lookup_block(self, store, keys)

    def spy_write_many(self, store, items):
        calls["write_many"] += 1
        return original_write_many(self, store, items)

    def spy_write_columnar(self, records):
        calls["write_many"] += 1
        return original_write_columnar(self, records)

    monkeypatch.setattr(MachineContext, "lookup_many", spy_lookup_many)
    monkeypatch.setattr(MachineContext, "lookup_block", spy_lookup_block)
    monkeypatch.setattr(MachineContext, "write_many", spy_write_many)
    monkeypatch.setattr(DHTStore, "write_columnar", spy_write_columnar)
    spec = registry.get(name)
    Session(CONFIG).run(name, _input_for(spec), seed=SEED)
    assert calls["write_many"] > 0, f"{name} never used write_many"
    if name == "matching":
        # The edge process fetches both endpoints' incident lists in one
        # batched read.
        assert calls["lookup_many"] > 0
