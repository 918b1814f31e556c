"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph.generators import (
    cycle_graph,
    erdos_renyi_gnm,
    random_weighted,
    two_cycles,
)
from repro.graph.io import write_edge_list, write_weighted_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(erdos_renyi_gnm(40, 100, seed=1), path)
    return str(path)


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_mis_command(graph_file, capsys):
    out = run_cli(capsys, "mis", graph_file, "--machines", "4")
    assert "maximal independent set" in out
    assert "shuffles: 1" in out


def test_matching_command(graph_file, capsys):
    out = run_cli(capsys, "matching", graph_file, "--machines", "4")
    assert "maximal matching" in out


def test_msf_degree_weighted(graph_file, capsys):
    out = run_cli(capsys, "msf", graph_file, "--machines", "4")
    assert "minimum spanning forest" in out
    assert "shuffles: 5" in out


def test_msf_weighted_file(tmp_path, capsys):
    path = tmp_path / "weighted.txt"
    write_weighted_edge_list(
        random_weighted(erdos_renyi_gnm(30, 70, seed=2), seed=2), path)
    out = run_cli(capsys, "msf", str(path), "--weighted", "--machines", "4")
    assert "minimum spanning forest" in out


def test_components_command(graph_file, capsys):
    out = run_cli(capsys, "components", graph_file, "--machines", "4")
    assert "connected components" in out


def test_two_cycle_command(tmp_path, capsys):
    path = tmp_path / "cycles.txt"
    write_edge_list(two_cycles(60, shuffle_ids=True, seed=3), path)
    out = run_cli(capsys, "two-cycle", str(path), "--machines", "4")
    assert "number of cycles: 2" in out


def test_pagerank_command(tmp_path, capsys):
    path = tmp_path / "pr.txt"
    write_edge_list(cycle_graph(30), path)
    out = run_cli(capsys, "pagerank", str(path), "--machines", "4",
                  "--walks", "4", "--top", "3")
    assert "PageRank" in out


def test_ablation_flags(graph_file, capsys):
    out = run_cli(capsys, "mis", graph_file, "--machines", "4",
                  "--no-caching", "--no-multithreading",
                  "--transport", "tcp")
    assert "cache hit rate: 0.0%" in out


def test_query_budget_flag_allows_compliant_runs(graph_file, capsys):
    out = run_cli(capsys, "mis", graph_file, "--machines", "4",
                  "--query-budget", "100000")
    assert "maximal independent set" in out


def test_query_budget_flag_rejects_overspending(graph_file, capsys):
    assert main(["mis", graph_file, "--machines", "4",
                 "--query-budget", "1"]) == 1
    captured = capsys.readouterr()
    assert "budget" in captured.err


def test_json_output(graph_file, capsys):
    import json

    assert main(["mis", graph_file, "--machines", "4", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["algorithm"] == "mis"
    assert record["metrics"]["shuffles"] == 1
    assert record["summary"]["output_size"] > 0


def test_subcommands_generated_from_registry(capsys):
    from repro.api import registry

    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = capsys.readouterr().out
    for spec in registry.specs():
        assert spec.name in help_text


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "x.txt"])


def test_module_entry_point(graph_file):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "mis", graph_file,
         "--machines", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0
    assert "maximal independent set" in result.stdout


def test_serve_subcommand_over_stdio():
    import json
    import subprocess
    import sys

    requests = "\n".join(json.dumps(r) for r in (
        {"op": "load", "name": "g", "edges": [[0, 1], [1, 2], [2, 0]]},
        {"op": "run", "algorithm": "mis", "graph": "g", "seed": 1},
        {"op": "shutdown"},
    ))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--machines", "2",
         "--workers", "2"],
        input=requests, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    responses = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["ok"] for r in responses] == [True, True, True]
    assert responses[1]["result"]["algorithm"] == "mis"
    assert responses[2]["bye"]


def test_serve_sigterm_is_an_orderly_shutdown():
    """SIGTERM must run the same cleanup as the ``shutdown`` op: exit
    status 0, no worker process left behind (they used to survive,
    re-parented to init), no shared-memory segment leaked."""
    import glob
    import json
    import os
    import signal
    import socket
    import subprocess
    import sys
    import time

    def descendants(pid):
        """Live pids whose process group is the server's."""
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields after the command name: state, ppid, pgrp, ...
            if int(fields[2]) == pid and fields[0] != "Z":
                found.append(int(entry))
        return found

    segments_before = set(glob.glob("/dev/shm/psm_*"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--machines", "2", "--processes", "2", "--backend", "shm"],
        stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)  # its own process group: pgid == pid
    try:
        banner = server.stderr.readline()
        host, port = banner.split()[-1].rsplit(":", 1)
        with socket.create_connection((host, int(port)), 60) as conn:
            stream = conn.makefile("rw", encoding="utf-8")
            for request in (
                    {"op": "load", "name": "g",
                     "edges": [[0, 1], [1, 2], [2, 0], [2, 3]]},
                    {"op": "run", "algorithm": "mis", "graph": "g"}):
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
            assert len(descendants(server.pid)) >= 3  # server + 2 workers
            server.send_signal(signal.SIGTERM)
            assert server.wait(60) == 0
        # the workers' resource tracker exits once its owners have
        deadline = time.monotonic() + 30
        while descendants(server.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert descendants(server.pid) == []
        assert set(glob.glob("/dev/shm/psm_*")) <= segments_before
    finally:
        if server.poll() is None:
            server.kill()
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.stderr.close()
