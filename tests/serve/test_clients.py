"""Thin-client tests: wrl-run/wrl-eval driving a live daemon must
produce the same artifacts, reports, and exit codes as their local
cold-process paths."""

import json
import os

import pytest

from repro.eval import parallel
from repro.eval.parallel import (TaskSpec, default_jobs, run_matrix,
                                 run_matrix_via_server)
from repro.machine import cli as machine_cli
from repro.serve import DaemonThread
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-clients")
    with DaemonThread(socket_path=tmp / "serve.sock", jobs=2,
                      cache_root=tmp / "cache") as dt:
        yield dt


@pytest.fixture(scope="module")
def exe_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("exe") / "fib.wof"
    path.write_bytes(build_workload("fib").to_bytes())
    return path


def test_default_jobs_is_affinity_aware():
    jobs = default_jobs()
    assert isinstance(jobs, int) and jobs >= 1
    if hasattr(os, "sched_getaffinity"):
        # The cgroup/affinity-aware count, not the raw host CPU count.
        assert jobs == len(os.sched_getaffinity(0))


def test_wrl_run_server_byte_identical(daemon, exe_path, capfdbinary):
    local_status = machine_cli.main([str(exe_path), "12", "--stats"])
    local = capfdbinary.readouterr()
    served_status = machine_cli.main(
        ["--server", str(daemon.socket_path), str(exe_path), "12",
         "--stats"])
    served = capfdbinary.readouterr()
    assert served_status == local_status
    assert served.out == local.out
    # stderr carries the deterministic [cycles= insts=] stats line.
    assert served.err == local.err
    assert b"[cycles=" in served.err


def test_wrl_run_server_timeout_exit_code(daemon, exe_path,
                                          capfdbinary):
    local_status = machine_cli.main(
        [str(exe_path), "15", "--max-insts", "1000"])
    local = capfdbinary.readouterr()
    served_status = machine_cli.main(
        ["--server", str(daemon.socket_path), str(exe_path), "15",
         "--max-insts", "1000"])
    served = capfdbinary.readouterr()
    assert local_status == served_status == 124
    assert served.err == local.err      # same "wrl-run: ..." message


def test_wrl_run_server_rejects_local_only_flags(daemon, exe_path):
    with pytest.raises(SystemExit):
        machine_cli.main(["--server", str(daemon.socket_path),
                          "--profile", "/tmp/p.json", str(exe_path)])


def test_run_matrix_via_server_matches_local(daemon):
    specs = [
        TaskSpec(tool="prof", workload="fib", wl_args=("10",)),
        TaskSpec(tool="branch", workload="fib", wl_args=("10",),
                 opt="O2"),
    ]
    local = run_matrix(specs, jobs=0, cache_spec=False)
    served = run_matrix_via_server(specs, daemon.socket_path,
                                   tenant="matrix", jobs=2)
    assert len(local) == len(served)
    for ref, got in zip(local, served):
        assert got.identity() == ref.identity()
        assert got.attempts == ref.attempts
        assert got.quarantined == ref.quarantined


def test_wrl_eval_cli_via_server(daemon, tmp_path, capsys):
    out = tmp_path / "matrix.json"
    status = parallel.main(
        ["--server", str(daemon.socket_path), "--tenant", "cli",
         "--tools", "prof", "--workloads", "fib", "--opts", "O1",
         "--jobs", "2", "--out", str(out)])
    text = capsys.readouterr().out
    assert status == 0
    assert "via server" in text
    report = json.loads(out.read_text())
    parallel.validate_matrix_report(report)
    assert report["config"]["server"] == str(daemon.socket_path)
    assert report["config"]["tenant"] == "cli"
    assert report["summary"]["ok"] == report["summary"]["total"] == 1


def test_server_error_becomes_error_record(tmp_path):
    # No daemon at this socket: records carry structured serve errors
    # instead of raising, mirroring the local never-raise contract.
    specs = [TaskSpec(tool="prof", workload="fib", wl_args=("10",))]
    records = run_matrix_via_server(specs, tmp_path / "nope.sock",
                                    jobs=1)
    assert records[0].status == "error"
    assert records[0].error.startswith("serve:")
    assert records[0].quarantined is True
