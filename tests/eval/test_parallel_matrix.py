"""Conformance/differential suite for the parallel eval pipeline.

The contract under test: fanning the (tool x workload x opt) matrix out
across worker processes changes *nothing* observable — every
deterministic field of every :class:`TaskResult` is bit-identical to
the serial in-process run, rerunning the matrix reproduces the same
records with deterministic cache hits, and a warm artifact cache makes
a repeat run perform zero compiles.

The fast unmarked tests cover every stock tool over one workload; the
``matrix``-marked test (the ``make check-matrix`` lane, deterministic
shards via ``WRL_EVAL_SHARD``/``WRL_EVAL_SHARDS``) widens the workload
set — all 20 with ``WRL_MATRIX_FULL=1``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.atom import OptLevel
from repro.eval import (TaskSpec, apply_tool, plan_matrix, run_matrix,
                        select_shard, shard_of)
from repro.eval import parallel, runner
from repro.tools import TOOL_NAMES, get_tool
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro import workloads

#: Workload for the fast all-tools conformance pass: the smallest one.
FAST_WORKLOAD = "fileio"

QUICK_WORKLOADS = ("fileio", "espresso", "li", "fib", "quick", "crc")


def _clear_in_memory_caches():
    """Force the next run to go through the on-disk store."""
    runner._analysis_cache.clear()
    workloads._exe_cache.clear()
    parallel._base_memo.clear()


@pytest.fixture(scope="module")
def matrix_runs(tmp_path_factory):
    """Serial, parallel, and warm-rerun records over one shared cache.

    The in-memory layers are cleared before the parallel and rerun
    passes, so both demonstrably rehydrate from the on-disk store
    rather than inherited process state.
    """
    mp = pytest.MonkeyPatch()
    cache_dir = str(tmp_path_factory.mktemp("artifact-cache"))
    mp.setenv("WRL_CACHE_DIR", cache_dir)
    mp.delenv("WRL_CACHE", raising=False)
    _clear_in_memory_caches()
    specs = plan_matrix(tools=TOOL_NAMES, workloads=(FAST_WORKLOAD,),
                        opts=("O1",))
    serial = run_matrix(specs, jobs=0)
    _clear_in_memory_caches()
    parallel_recs = run_matrix(specs, jobs=2)
    _clear_in_memory_caches()
    rerun = run_matrix(specs, jobs=0)
    yield {"specs": specs, "serial": serial, "parallel": parallel_recs,
           "rerun": rerun, "cache_dir": cache_dir}
    mp.undo()


def test_all_cells_ok_and_pristine(matrix_runs):
    for rec in matrix_runs["serial"]:
        assert rec.status == "ok", (rec.tool, rec.error)
        assert not rec.quarantined
        assert rec.pristine, f"{rec.tool} perturbed {rec.workload}"
        assert rec.base_cycles > 0 and rec.instr_cycles > rec.base_cycles
        assert rec.points > 0 and rec.calls_added >= rec.points


def test_parallel_bit_identical_to_serial(matrix_runs):
    serial, par = matrix_runs["serial"], matrix_runs["parallel"]
    assert len(serial) == len(par) == len(TOOL_NAMES)
    for s_rec, p_rec in zip(serial, par):
        assert s_rec.identity() == p_rec.identity()


def test_rerun_identical_with_deterministic_cache_hits(matrix_runs):
    serial, rerun = matrix_runs["serial"], matrix_runs["rerun"]
    for s_rec, r_rec in zip(serial, rerun):
        assert s_rec.identity() == r_rec.identity()
    # First pass compiled each tool's artifacts; the rerun hit disk for
    # every one of them — deterministically, not probabilistically.
    assert all(rec.instr_compiled for rec in serial)
    assert not any(rec.instr_compiled for rec in rerun)
    assert not any(rec.analysis_compiled for rec in rerun)


def test_parallel_workers_hit_disk_cache(matrix_runs):
    """Workers were forked after the in-memory layers were cleared, so
    their zero-compile records prove the on-disk path cross-process."""
    assert not any(rec.instr_compiled for rec in matrix_runs["parallel"])
    assert not any(rec.analysis_compiled
                   for rec in matrix_runs["parallel"])


def test_warm_cache_run_performs_zero_compiles(matrix_runs, monkeypatch):
    """The acceptance check: with a warm cache, a full matrix pass calls
    neither ``build_analysis_unit`` nor ``instrument_executable`` — and
    stores nothing, so the store's blob count stays cached and ``put``'s
    O(len(objects/)) re-listing never runs."""
    from repro.eval.cache import get_default_cache

    def forbidden(*args, **kw):
        raise AssertionError("compile invoked despite a warm cache")

    _clear_in_memory_caches()
    monkeypatch.setattr(runner, "build_analysis_unit", forbidden)
    monkeypatch.setattr(runner, "instrument_executable", forbidden)
    monkeypatch.setattr(workloads, "build_executable", forbidden)
    stores_before = get_default_cache().stats.stores
    records = run_matrix(matrix_runs["specs"], jobs=0)
    assert get_default_cache().stats.stores == stores_before
    assert all(rec.status == "ok" for rec in records)
    for s_rec, w_rec in zip(matrix_runs["serial"], records):
        assert s_rec.identity() == w_rec.identity()


# ---- PR 1 regressions must reproduce identically in workers ---------------

def test_instrument_stats_survive_the_artifact_cache(tmp_path):
    """``InstrumentStats`` (including the deduplicated ``points`` count)
    must round-trip bit-identically through the on-disk store."""
    from repro.eval.cache import ArtifactCache
    cache = ArtifactCache(tmp_path / "cache")
    app = build_workload(FAST_WORKLOAD)
    tool = get_tool("gprof")
    cold = apply_tool(app, tool, cache=cache)
    warm = apply_tool(app, tool, cache=cache)
    assert not cold.cached and warm.cached
    assert warm.stats == cold.stats
    assert warm.stats.points == cold.stats.points
    assert warm.module.to_bytes() == cold.module.to_bytes()
    assert warm.plans is None            # not persisted, by design


def test_gprof_o3_proc_after_identical_in_workers(tmp_path, monkeypatch):
    """gprof attaches ProcAfter snippets; at O3 their save plans depend
    on the exit-liveness fix from PR 1.  A worker process must produce
    the same instrumented behaviour and stats as the calling process."""
    spec = TaskSpec(tool="gprof", workload=FAST_WORKLOAD, opt="O3")
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("WRL_CACHE", raising=False)
    inline = run_matrix([spec], jobs=0)[0]
    monkeypatch.setenv("WRL_CACHE", "0")     # the worker runs store-free
    worker = run_matrix([spec], jobs=1)[0]
    assert inline.status == worker.status == "ok"
    assert inline.identity() == worker.identity()
    # And both agree with a direct instrumentation in this process.
    direct = apply_tool(build_workload(FAST_WORKLOAD), get_tool("gprof"),
                        opt=OptLevel.O3, cache=None)
    assert direct.stats.points == inline.points
    assert direct.stats.calls_added == inline.calls_added


def _wrl_eval(tmp_path, *flags, env=()):
    """Run ``wrl-eval --quick`` in a fresh process from an empty cwd,
    with no ``WRL_*`` variable but those in ``env``; returns the cwd."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    src = Path(runner.__file__).resolve().parents[2]
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("WRL_")}
    environ.update(env, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-m", "repro.eval.parallel", "--quick",
                    "--out", str(out / "matrix.json"), *flags],
                   cwd=cwd, env=environ, check=True, capture_output=True,
                   timeout=300)
    return cwd


@pytest.mark.parametrize("jobs", ["0", "2"])
def test_cache_dir_roots_every_artifact(tmp_path, jobs):
    """``--cache-dir DIR`` holds the workload, the analysis unit and the
    instrumented executable alike, inline and in workers; nothing lands
    in the default store under the cwd."""
    store = tmp_path / "store"
    cwd = _wrl_eval(tmp_path, "--jobs", jobs, "--cache-dir", str(store))
    assert list(cwd.iterdir()) == []
    assert len(list(store.glob("objects/*/*"))) == 3


def test_no_cache_leaves_the_default_store_untouched(tmp_path):
    """``wrl-eval --no-cache`` keeps every artifact out of the disk
    store, the compiled workload included."""
    store = tmp_path / "store"
    store.mkdir()
    cwd = _wrl_eval(tmp_path, "--jobs", "0", "--no-cache",
                    env={"WRL_CACHE_DIR": str(store)})
    assert list(cwd.iterdir()) == []
    assert list(store.rglob("*")) == []


def test_base_memo_keeps_the_most_recent_baselines(monkeypatch):
    """The per-process baseline memo is bounded: past its cap the least
    recently used baseline goes, and a re-run of an evicted cell gives
    the same record."""
    monkeypatch.setenv("WRL_CACHE", "0")
    monkeypatch.setattr(parallel, "_BASE_MEMO_CAP", 2)
    monkeypatch.setattr(parallel, "_base_memo", {})
    specs = [TaskSpec(tool="prof", workload="fib", wl_args=(n,))
             for n in ("8", "9", "10")]
    first = run_matrix(specs, jobs=0)
    assert all(rec.status == "ok" for rec in first)
    assert len(parallel._base_memo) <= 2
    again = run_matrix(specs[:1], jobs=0)[0]
    assert again.identity() == first[0].identity()


# ---- sharding -------------------------------------------------------------

def test_shards_partition_the_matrix():
    specs = plan_matrix(tools=TOOL_NAMES, workloads=QUICK_WORKLOADS,
                        opts=("O0", "O1"))
    for num_shards in (1, 2, 3, 7):
        shards = [select_shard(specs, i, num_shards)
                  for i in range(num_shards)]
        assert sum(len(s) for s in shards) == len(specs)
        seen = {spec.task_id for shard in shards for spec in shard}
        assert len(seen) == len(specs)


def test_shard_assignment_is_deterministic_and_positional_free():
    specs = plan_matrix(tools=TOOL_NAMES, workloads=QUICK_WORKLOADS)
    assignment = {s.task_id: shard_of(s, 4) for s in specs}
    reordered = list(reversed(specs))
    for spec in reordered:
        assert shard_of(spec, 4) == assignment[spec.task_id]
    with pytest.raises(ValueError):
        select_shard(specs, 4, 4)


# ---- failure handling -----------------------------------------------------

@pytest.fixture
def tmp_store(tmp_path, monkeypatch):
    """The process default store rooted in a fresh directory."""
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("WRL_CACHE", raising=False)


def test_bad_tool_is_quarantined_not_fatal(tmp_store):
    specs = [TaskSpec(tool="no-such-tool", workload="fib"),
             TaskSpec(tool="prof", workload="fib")]
    records = run_matrix(specs, jobs=0, retries=2)
    bad, good = records
    assert bad.status == "error" and bad.quarantined
    assert "no-such-tool" in bad.error
    assert bad.attempts == 3             # 1 try + 2 retries
    assert good.status == "ok" and not good.quarantined


def test_budget_timeout_is_recorded_not_retried(tmp_store):
    spec = TaskSpec(tool="prof", workload="fib", max_insts=1_000)
    rec = run_matrix([spec], jobs=0, retries=3)[0]
    assert rec.status == "timeout" and rec.quarantined
    assert rec.attempts == 1             # deterministic: retry is futile
    assert "budget" in rec.error


def test_wall_timeout_quarantines_wedged_worker(tmp_store):
    """A worker that overruns the wall-clock backstop is killed and its
    task quarantined; the run still returns a record for it."""
    spec = TaskSpec(tool="cache", workload="merge")
    rec = run_matrix([spec], jobs=1, wall_timeout=0.2)[0]
    assert rec.status == "timeout" and rec.quarantined
    assert "wall timeout" in rec.error


# ---- report schema --------------------------------------------------------

def test_matrix_report_roundtrip(tmp_path, tmp_store):
    import json
    from repro.eval.parallel import (build_report, load_matrix_report,
                                     validate_matrix_report)
    specs = plan_matrix(tools=("prof",), workloads=("fib",))
    records = run_matrix(specs, jobs=0)
    report = build_report(records, config={"tools": ["prof"]})
    validate_matrix_report(report)
    path = tmp_path / "EVAL_matrix.json"
    path.write_text(json.dumps(report))
    loaded = load_matrix_report(path)
    assert loaded["summary"]["ok"] == 1
    with pytest.raises(ValueError):
        validate_matrix_report({"schema": "nope"})
    assert load_matrix_report(tmp_path / "absent.json") is None


# ---- the full sharded lane (`make check-matrix`) --------------------------

# ---- cross-opt differential: O0..O4 are observationally equal -------------

def test_analysis_output_bit_identical_across_opt_levels(tmp_path):
    """Every stock tool on the fast workload must emit byte-identical
    analysis data (stdout + exit status + output files) at every opt
    level — O4's inlining/specialization may only change *cycles*, never
    observable behaviour."""
    from repro.eval import run_instrumented
    from repro.eval.cache import ArtifactCache
    cache = ArtifactCache(tmp_path / "cache")
    app = build_workload(FAST_WORKLOAD)
    for tool_name in TOOL_NAMES:
        tool = get_tool(tool_name)
        reference = None
        cycles = {}
        for opt in ("O0", "O1", "O2", "O3", "O4"):
            res = apply_tool(app, tool, opt=OptLevel[opt], cache=cache)
            run = run_instrumented(res)
            observed = (run.status, run.stdout,
                        tuple(sorted(run.files.items())))
            if reference is None:
                reference = observed
            else:
                assert observed == reference, (tool_name, opt)
            cycles[opt] = run.cycles
        # And the optimizer pays for itself end-to-end on this workload.
        assert cycles["O4"] <= cycles["O1"], tool_name


@pytest.mark.matrix
def test_full_matrix_conformance(tmp_store):
    if os.environ.get("WRL_MATRIX_FULL"):
        wl_set = WORKLOAD_NAMES
    else:
        wl_set = QUICK_WORKLOADS
    shard = int(os.environ.get("WRL_EVAL_SHARD", "0"))
    num_shards = int(os.environ.get("WRL_EVAL_SHARDS", "1"))
    specs = select_shard(
        plan_matrix(tools=TOOL_NAMES, workloads=wl_set,
                    opts=("O1", "O4")),
        shard, num_shards)
    assert specs, "shard selected no cells"
    serial = run_matrix(specs, jobs=0)
    _clear_in_memory_caches()
    par = run_matrix(specs, jobs=2)
    for s_rec, p_rec in zip(serial, par):
        assert s_rec.status == "ok", (s_rec.tool, s_rec.workload,
                                      s_rec.error)
        assert s_rec.pristine
        assert s_rec.identity() == p_rec.identity()
    # Warm pass: zero compiles across the whole shard.
    assert not any(rec.instr_compiled for rec in par)
    assert not any(rec.analysis_compiled for rec in par)
