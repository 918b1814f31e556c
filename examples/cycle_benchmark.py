"""The 1-vs-2-Cycle showdown: AMPC vs the MPC baseline (Section 5.6).

The canonical problem behind MPC round lower bounds: is the input one big
cycle or two half-size cycles?  The AMPC algorithm answers in O(1) rounds
with a single shuffle by walking between sampled vertices through the DHT;
the MPC local-contraction baseline needs Omega(log n) contraction phases.

Run with::

    python examples/cycle_benchmark.py
"""

from repro.ampc import ClusterConfig
from repro.analysis.datasets import cycle_instance
from repro.baselines import mpc_local_contraction_cc
from repro.core import ampc_one_vs_two_cycle


def main():
    config = ClusterConfig(num_machines=10)
    print(f"{'instance':>12} {'truth':>6} {'AMPC':>14} {'MPC':>18} "
          f"{'speedup':>8}")
    for k in (1_000, 10_000, 15_000):
        for two in (False, True):
            graph = cycle_instance(k, two=two, seed=5)
            truth = 2 if two else 1

            ampc = ampc_one_vs_two_cycle(graph, config=ClusterConfig(
                num_machines=10), seed=5)
            mpc = mpc_local_contraction_cc(
                graph, config=ClusterConfig(num_machines=10), seed=5,
                in_memory_threshold=max(64, graph.num_edges // 20),
            )
            assert ampc.num_cycles == truth
            assert mpc.num_components == truth

            name = f"2x{k}" if two else f"1x{2 * k}"
            ampc_summary = (f"{ampc.metrics.simulated_time_s:6.2f}s "
                            f"({ampc.metrics.shuffles} shf)")
            mpc_summary = (f"{mpc.metrics.simulated_time_s:6.2f}s "
                           f"({mpc.phases} phases)")
            speedup = (mpc.metrics.simulated_time_s
                       / ampc.metrics.simulated_time_s)
            print(f"{name:>12} {truth:>6} {ampc_summary:>14} "
                  f"{mpc_summary:>18} {speedup:7.2f}x")

    print("\nThe AMPC algorithm answers with one shuffle regardless of n;")
    print("the MPC baseline pays ~3 shuffles per halving phase "
          "(the 1-vs-2-Cycle conjecture in action).")


if __name__ == "__main__":
    main()
