"""``--compare A.json B.json``: two result sets, metric by metric.

Prints, per (end-to-end metric, workload), both values, the relative
difference of B against A, and the metric's bound from ``BENCHMARK.json``;
the exit status is non-zero when any pair differs by more than its
bound, or when a workload or metric is in one set and not the other.
This is the repeatability check of the benchmark itself and the tool a
later performance claim quotes.
"""

from __future__ import annotations

import json
from pathlib import Path


def compare(path_a: Path, path_b: Path, benchmark_path: Path) -> int:
    benchmark = json.loads(benchmark_path.read_text())
    specs = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    result_a = json.loads(path_a.read_text())["workloads"]
    result_b = json.loads(path_b.read_text())["workloads"]
    beyond = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B vs A':>9s} {'bound':>7s}")
    for workload in list(result_a) + [w for w in result_b
                                      if w not in result_a]:
        metrics_a = result_a.get(workload, {}).get("end_to_end", {})
        metrics_b = result_b.get(workload, {}).get("end_to_end", {})
        for name, spec in specs.items():
            if name not in metrics_a or name not in metrics_b:
                print(f"{workload:16s} {name:18s} missing from "
                      f"{'A' if name not in metrics_a else 'B'}")
                beyond += 1
                continue
            a, b = metrics_a[name]["value"], metrics_b[name]["value"]
            if a == 0:
                # no relative difference from zero: equal, or beyond
                change = 0.0 if b == 0 else float("inf")
            else:
                change = (b - a) / a
            worse = change > 0 if spec["better"] == "lower" else change < 0
            verdict = ""
            if abs(change) > spec["bound"]:
                beyond += 1
                verdict = "  WORSE" if worse else "  BETTER"
            print(f"{workload:16s} {name:18s} {a:12.4f} {b:12.4f} "
                  f"{change:+9.1%} {spec['bound']:7.0%}{verdict}")
    print(f"{beyond} pair(s) differ by more than their bound"
          if beyond else "every pair is within its bound")
    return 1 if beyond else 0
