"""Guest-runtime profiler tests (``repro.obs.runtime``).

The profiler's contract has three legs, each tested here:

* **determinism** — the sample stream is a pure function of
  (text, entry, interval): repeat runs and fuse-on/off runs produce
  byte-identical artifacts;
* **non-perturbation** — sampling never changes what the guest
  computes: status, cycles, instruction counts, stdout, and files are
  bit-identical with sampling on or off;
* **pristine attribution** — at interval=1 every retired instruction is
  sampled and charged, so the ``orig`` bucket must equal the
  uninstrumented run's cycles *exactly*, and the overhead buckets
  (bracket/splice/analysis) must equal the instrumentation excess
  exactly, with nothing unattributed.
"""

import json

import pytest

from repro.atom import OptLevel
from repro.eval.errors import EvalTimeout
from repro.eval.runner import (apply_tool, run_instrumented,
                               run_uninstrumented)
from repro.machine import run_module
from repro.obs import Tracer, read_jsonl, runtime
from repro.objfile.module import (PC_ATTR_GLUE, PC_ATTR_SAVE,
                                  PC_ATTR_SPLICE, Module)
from repro.objfile.sections import TEXT
from repro.tools import get_tool
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def fib():
    return build_workload("fib")


@pytest.fixture(scope="module")
def prof_o4(fib):
    return apply_tool(fib, get_tool("prof"), opt=OptLevel.O4, cache=None)


# ---- sampler basics --------------------------------------------------------

def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        runtime.PcSampler(0)
    with pytest.raises(ValueError):
        runtime.StackSampler(-5)


def test_interval_one_samples_every_instruction(fib):
    """At interval=1 the profile is exact: one sample per retired
    instruction and every cycle charged to some pc."""
    s = runtime.PcSampler(1)
    result = run_uninstrumented(fib, sampler=s)
    assert s.total_samples == result.inst_count
    assert sum(s.cycle_counts.values()) == result.cycles


# ---- determinism -----------------------------------------------------------

def test_profile_byte_identical_across_runs(fib, tmp_path):
    paths = []
    for i in range(2):
        s = runtime.PcSampler(997)
        run_uninstrumented(fib, sampler=s)
        p = tmp_path / f"run{i}.json"
        runtime.write_profile(runtime.profile_doc(s, fib), p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_profile_identical_with_fusion_on_and_off(fib):
    """Superblock fusion is an interpreter detail; the sample stream
    must not see it."""
    docs = []
    for fuse in (True, False):
        s = runtime.PcSampler(997)
        run_module(fib, sampler=s, fuse=fuse)
        docs.append(runtime.profile_doc(s, fib))
    assert docs[0] == docs[1]


def test_stack_profile_deterministic(prof_o4):
    docs = []
    for _ in range(2):
        s = runtime.StackSampler(997)
        run_instrumented(prof_o4, sampler=s)
        docs.append(runtime.profile_doc(s, prof_o4.module))
    assert docs[0] == docs[1]


# ---- non-perturbation ------------------------------------------------------

def test_sampling_does_not_perturb_the_guest(prof_o4):
    plain = run_instrumented(prof_o4)
    sampled = run_instrumented(prof_o4,
                               sampler=runtime.PcSampler(1009))
    stacked = run_instrumented(prof_o4,
                               sampler=runtime.StackSampler(1009))
    for got in (sampled, stacked):
        assert got.status == plain.status
        assert got.cycles == plain.cycles
        assert got.inst_count == plain.inst_count
        assert got.stdout == plain.stdout
        assert got.files == plain.files


# ---- pristine attribution (the paper's headline property) ------------------

@pytest.mark.parametrize("tool_name,opt", [
    ("prof", OptLevel.O0),
    ("prof", OptLevel.O4),
    ("dyninst", OptLevel.O0),
    ("dyninst", OptLevel.O4),
    # taint is the densest instrumentation regime (inst-level snippets
    # between same-cache-line memory pairs): exactness here depends on
    # the cost model's provenance streams.
    ("taint", OptLevel.O0),
    ("taint", OptLevel.O4),
])
def test_attribution_accounts_for_every_cycle(fib, tool_name, opt):
    """Cross-check against the cost model: at interval=1 the orig
    bucket equals the uninstrumented run's cycles EXACTLY, and the
    overhead buckets sum to the instrumentation excess EXACTLY."""
    base = run_uninstrumented(fib)
    res = apply_tool(fib, get_tool(tool_name), opt=opt, cache=None)
    s = runtime.PcSampler(1)
    instr = run_instrumented(res, sampler=s)
    doc = runtime.profile_doc(s, res.module)

    assert doc["samples"] == instr.inst_count
    buckets = doc["buckets"]
    assert buckets.get("unknown", {}).get("samples", 0) == 0
    assert buckets["orig"]["cycles"] == base.cycles
    overhead = sum(buckets.get(b, {}).get("cycles", 0)
                   for b in ("bracket", "splice", "analysis"))
    assert overhead == instr.cycles - base.cycles
    split = runtime.pristine_split(doc)
    assert split["pristine"] + split["overhead"] == instr.cycles
    assert split["unknown"] == 0


@pytest.mark.parametrize("tool_name, routine", [
    ("cache", "Reference"), ("pipe", "PipeBlock"), ("prof", "ProfInit")])
def test_first_analysis_routine_is_named_not_the_landmark(fib, tool_name,
                                                          routine):
    """The analysis unit's first routine shares its address with the
    linker's ``__text_start``; the profiler names the routine."""
    module = apply_tool(fib, get_tool(tool_name), opt=OptLevel.O1,
                        cache=None).module
    addr = module.symtab.get("anal$" + routine).value
    assert module.symtab.get("anal$__text_start").value == addr
    attr = runtime.Attributor(module)
    for pc in (addr, addr + 4):
        hit = attr.resolve(pc)
        assert (hit.bucket, hit.label) == (runtime.BUCKET_ANALYSIS, routine)


def test_o4_profile_has_splice_and_o0_does_not(fib):
    for opt, expect_splice in ((OptLevel.O0, False), (OptLevel.O4, True)):
        res = apply_tool(fib, get_tool("prof"), opt=opt, cache=None)
        s = runtime.PcSampler(101)
        run_instrumented(res, sampler=s)
        doc = runtime.profile_doc(s, res.module)
        has_splice = doc["buckets"].get("splice", {}).get("samples", 0) > 0
        assert has_splice == expect_splice


# ---- shadow call stacks / flamegraphs --------------------------------------

def test_collapsed_stacks_are_well_formed(prof_o4, tmp_path):
    s = runtime.StackSampler(499)
    run_instrumented(prof_o4, sampler=s)
    doc = runtime.profile_doc(s, prof_o4.module)
    collapsed = doc["collapsed"]
    assert collapsed
    # Every line is rooted at the entry symbol and counts sum to the
    # total sample count (collapsed-stack invariant flamegraph.pl
    # relies on).
    attr = runtime.Attributor(prof_o4.module)
    root = attr.frame_name(prof_o4.module.entry)
    assert all(stack.split(";")[0] == root for stack in collapsed)
    assert all(all(frame for frame in stack.split(";"))
               for stack in collapsed)
    assert sum(collapsed.values()) == doc["samples"]

    out = tmp_path / "prof.collapsed"
    runtime.write_collapsed(doc, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(collapsed)
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack in collapsed and int(count) == collapsed[stack]


def test_stack_tables_inclusive_exclusive(prof_o4):
    s = runtime.StackSampler(499)
    run_instrumented(prof_o4, sampler=s)
    doc = runtime.profile_doc(s, prof_o4.module)
    rows = runtime.stack_tables(doc)
    by_name = {r["name"]: r for r in rows}
    root = runtime.Attributor(prof_o4.module).frame_name(
        prof_o4.module.entry)
    # The root frame is on every stack: inclusive == all samples.
    assert by_name[root]["inclusive"] == doc["samples"]
    for r in rows:
        assert 0 <= r["exclusive"] <= r["inclusive"] <= doc["samples"]


# ---- timeouts --------------------------------------------------------------

def test_budget_exhaustion_still_yields_partial_profile(fib):
    s = runtime.PcSampler(100)
    with pytest.raises(EvalTimeout):
        run_uninstrumented(fib, sampler=s, max_insts=5000)
    # ~5000/100 boundary crossings observed before the budget tripped.
    assert 45 <= s.total_samples <= 51
    doc = runtime.profile_doc(s, fib)
    assert doc["samples"] == s.total_samples


# ---- artifact round-trip ---------------------------------------------------

def test_profile_artifact_roundtrip(fib, tmp_path):
    s = runtime.PcSampler(997)
    run_uninstrumented(fib, sampler=s)
    doc = runtime.profile_doc(s, fib)
    path = tmp_path / "p.json"
    runtime.write_profile(doc, path)
    assert runtime.load_profile(path) == doc

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(ValueError):
        runtime.load_profile(bad)


# ---- pc_attr serialization -------------------------------------------------

def test_pc_attr_survives_module_roundtrip(prof_o4):
    mod = prof_o4.module
    assert mod.pc_attr                      # O4 inserts plenty
    codes = set(mod.pc_attr.values())
    assert PC_ATTR_SAVE in codes and PC_ATTR_GLUE in codes \
        and PC_ATTR_SPLICE in codes
    back = Module.from_bytes(mod.to_bytes())
    assert back.pc_attr == mod.pc_attr
    assert back.pc_map == mod.pc_map


def test_old_format_blob_without_pc_attr_still_loads(prof_o4):
    """Pre-profiler WOF blobs end after the extra segments; the pc_attr
    table is optional trailing data (cache compatibility)."""
    mod = prof_o4.module
    blob = mod.to_bytes()
    trailer = 4 + 12 * len(mod.pc_attr)     # count u32 + (u64 pc, u32 code)
    old = Module.from_bytes(blob[:-trailer])
    assert old.pc_attr == {}
    assert old.pc_map == mod.pc_map
    assert old.section(TEXT).data == mod.section(TEXT).data


# ---- heartbeats ------------------------------------------------------------

def test_heartbeat_records_parse_and_merge(fib, tmp_path, monkeypatch):
    hb_path = tmp_path / "hb.jsonl"
    monkeypatch.setenv(runtime.ENV_HEARTBEAT, str(hb_path))
    monkeypatch.setenv(runtime.ENV_HEARTBEAT_INSTS, "20000")
    assert runtime.heartbeat_path() == str(hb_path)
    assert runtime.heartbeat_interval() == 20000

    writer = runtime.HeartbeatWriter(str(hb_path), "prof:fib:O1:linked")
    writer.emit("start")
    result = run_uninstrumented(fib, sampler=writer.sampler("base"))
    writer.emit("done", status="ok", insts=result.inst_count)

    rows = [json.loads(line) for line in hb_path.read_text().splitlines()]
    assert [r["args"]["phase"] for r in rows] == \
        ["start"] + ["base"] * (len(rows) - 2) + ["done"]
    assert all(r["type"] == "span" and r["name"] == "heartbeat"
               for r in rows)
    # In-flight progress is monotone at the configured cadence; the
    # final explicit record carries the full count.
    insts = [r["args"]["insts"] for r in rows if r["args"]["phase"] == "base"]
    assert insts == sorted(insts)
    assert insts == [20000 * (i + 1) for i in range(len(insts))]
    assert insts[-1] <= result.inst_count
    assert rows[-1]["args"]["insts"] == result.inst_count

    # Heartbeat files are trace files: read_jsonl + Tracer.merge works.
    snap = read_jsonl(hb_path)
    t = Tracer()
    t.enable()
    t.merge(snap)
    assert len(t.events) == len(rows)
    assert all(ev["dur_ns"] == 0 for ev in t.events)


def test_heartbeats_leave_task_identity_bit_identical(tmp_path,
                                                      monkeypatch):
    from repro.eval import ArtifactCache, parallel
    spec = parallel.TaskSpec(tool="prof", workload="fib", opt="O1")

    cache = ArtifactCache(tmp_path / "cache")
    monkeypatch.setenv(runtime.ENV_HEARTBEAT, str(tmp_path / "hb.jsonl"))
    monkeypatch.setattr(parallel, "_base_memo", {})
    with_hb = parallel._execute_task(spec, cache)

    monkeypatch.delenv(runtime.ENV_HEARTBEAT)
    monkeypatch.setattr(parallel, "_base_memo", {})
    without_hb = parallel._execute_task(spec, cache)

    assert with_hb.status == "ok"
    assert with_hb.identity() == without_hb.identity()
    assert (tmp_path / "hb.jsonl").exists()


def test_heartbeat_writer_swallows_io_errors(tmp_path):
    writer = runtime.HeartbeatWriter(str(tmp_path / "no" / "dir" / "x"),
                                     "t")
    writer.emit("start")                     # must not raise


# ---- the wrl-run / wrl-trace / smoke CLIs ----------------------------------

def test_wrl_run_profile_flag(fib, tmp_path, capsys):
    from repro.machine.cli import main
    exe = tmp_path / "fib.wof"
    fib.save(exe)
    profile = tmp_path / "profile.json"
    collapsed = tmp_path / "profile.collapsed"
    assert main([str(exe), "--profile", str(profile),
                 "--collapsed", str(collapsed),
                 "--sample-interval", "997"]) == 0
    doc = runtime.load_profile(profile)
    assert doc["schema"] == runtime.PROFILE_SCHEMA
    assert doc["interval"] == 997 and doc["samples"] > 0
    assert doc["collapsed"]
    assert collapsed.read_text().splitlines()

    from repro.obs.cli import main as trace_main
    extracted = tmp_path / "extracted.collapsed"
    assert trace_main(["profile", str(profile),
                       "--collapsed", str(extracted)]) == 0
    out = capsys.readouterr().out
    assert "pristine" in out
    assert extracted.read_text() == collapsed.read_text()


def test_annotated_disassembly(prof_o4, tmp_path):
    from repro.obs.annotate import main, render_annotated
    s = runtime.PcSampler(499)
    run_instrumented(prof_o4, sampler=s)
    doc = runtime.profile_doc(s, prof_o4.module)
    text = render_annotated(prof_o4.module, doc, top=3)
    # Sample counts from the profile land in the margin, and ATOM's
    # inserted code is marked by kind.
    assert "samples" in text
    hot = runtime.top_procs(doc, 1)[0]["name"]
    assert hot in text
    marked = {line[17] for line in text.splitlines()
              if len(line) > 18 and line[:8].strip().isdigit()}
    assert marked & {"b", "i", "a", "g"}      # overhead marks present

    exe = tmp_path / "m.wof"
    prof_o4.module.save(exe)
    profile = tmp_path / "p.json"
    runtime.write_profile(doc, profile)
    out = tmp_path / "ann.txt"
    assert main([str(exe), str(profile), "-o", str(out), "--top", "3"]) == 0
    assert out.read_text()
    assert main([str(exe), str(tmp_path / "missing.json")]) == 1


def test_runtime_smoke_cli(tmp_path, capsys):
    assert runtime.main(["--workload", "fib", "--tool", "prof",
                         "--opt", "4", "--interval", "997",
                         "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "profile.json").exists()
    assert (tmp_path / "profile.collapsed").exists()
    assert (tmp_path / "annotated.txt").exists()
    assert "unattributed" not in out.lower() or "0.0%" in out
