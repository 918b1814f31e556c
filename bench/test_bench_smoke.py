"""Tier-1 smoke test of the benchmark: tiny sizes, the driver's contract.

Runs every workload of ``BENCHMARK.json`` through ``bench/run.py`` at
``--smoke`` size the way the benchmark driver invokes it — the measuring
run of all five, and the traced run of one in-process workload and one
that talks to a subprocess (the probes, which are the bulk of a traced
run, are the same code for every workload) — and checks the contract:
the last line is the result object, the metric names are exactly the ones
``BENCHMARK.json`` lists (with their units), no op failed, and no process
or shared-memory segment was left behind.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TRACED = ("update-stream", "warm-serve-tcp")


def _run(workload: str, trace: int, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "10",
         "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (workload, trace, done.stdout, done.stderr)
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def _group_members() -> set:
    """Pids in this test's process group, zombies and orphans included:
    whatever a run forks stays in its group unless it asks otherwise
    (and what asks otherwise, the harness audits itself)."""
    group, members = os.getpgid(0), set()
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == group:
            members.add(int(entry.parent.name))
    return members


def test_every_workload_meets_the_contract(tmp_path):
    workloads = [entry["name"] for entry in BENCHMARK["workloads"]]
    assert len(workloads) == 5 and set(TRACED) <= set(workloads)
    jobs = [(workload, 1) for workload in TRACED]
    jobs += [(workload, 0) for workload in workloads]
    before = _group_members()
    with ThreadPoolExecutor(max_workers=2) as pool:  # nproc = 2
        results = list(pool.map(
            lambda job: _run(job[0], job[1], tmp_path), jobs))
    # a run's processes end with it: no resource tracker, no orphan
    assert _group_members() <= before
    for (workload, trace), result in zip(jobs, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1
        listed = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in listed}, (
            workload, trace)
        for metric in listed:
            name = metric["name"]
            assert NAME.fullmatch(name), name
            reported = result["metrics"][name]
            assert reported["unit"] == metric["unit"], name
            assert isinstance(reported["value"], (int, float)), name
            if not trace:
                assert reported["value"] > 0, (workload, name)
        suffix = ".traced.json" if trace else ".json"
        saved = json.loads((tmp_path / (workload + suffix)).read_text())
        assert saved["leaks"] == [], (workload, trace)
        assert saved["failed_share"] == 0
        assert set(saved["env"]) == {"nproc", "python", "numpy",
                                     "git_commit", "seed"}
        if trace:
            spans = json.loads(
                (tmp_path / f"{workload}.trace.json").read_text())["spans"]
            assert any(span["parent"] is not None and span["op"]
                       for span in spans), workload
            # the spans below an op's root explain most of the op
            coverage = result["metrics"]["trace.op_coverage_min"]["value"]
            assert coverage >= 0.8, (workload, coverage)


def test_compare_flags_a_pair_beyond_its_bound(tmp_path):
    metric = BENCHMARK["end_to_end"][0]
    workload = BENCHMARK["workloads"][0]["name"]

    def result_set(value: float) -> str:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
        metrics[metric["name"]]["value"] = value
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(
            {"workloads": {workload: {"end_to_end": metrics}}}))
        return str(path)

    def compare(a: str, b: str) -> int:
        return subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--compare", a, b],
            cwd=REPO, capture_output=True, text=True, timeout=60).returncode

    same = result_set(1.0)
    assert compare(same, result_set(1.0 + metric["bound"] / 2)) == 0
    assert compare(same, result_set(1.0 + metric["bound"] * 2)) == 1
    # a zero in A has no relative difference: it must not crash, and
    # counts as beyond the bound unless B is zero too
    assert compare(result_set(0.0), same) == 1

    # a workload only B has is reported, not skipped
    extra = json.loads(Path(same).read_text())
    extra["workloads"]["only-in-b"] = extra["workloads"][workload]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(extra))
    assert compare(same, str(path)) == 1
