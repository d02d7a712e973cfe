"""``repro.obs.runtime``: guest-runtime profiling & introspection.

Where :mod:`repro.obs` watches the *pipeline* (host-side spans and
counters), this module watches the *guest*: what an executable is doing
while it runs on the WRL-64 interpreter.  Three cooperating pieces:

* **Deterministic PC sampling.**  A sampler handed to ``Cpu.run`` fires
  every ``interval`` *retired instructions* — not wall-clock — so the
  sampled PC stream is a pure function of (text, entry, interval): two
  runs produce byte-identical profiles, with superblock fusion on or
  off.  Each sample charges the cycles accumulated since the previous
  sample to the sampled instruction; at ``interval=1`` this is an exact
  per-PC cycle account.

* **Pristine attribution.**  For ATOM-instrumented executables, sampled
  PCs are pushed through the static new->old PC map, so hot spots are
  reported against the *original* program (paper §3.3), while the
  cycles ATOM added are bucketed by what they are: register
  save/restore brackets and call glue (``bracket``), O4-inlined
  analysis bodies (``splice``), and the analysis routines themselves
  (``analysis``).  The classification is static — ``om.codegen`` labels
  every inserted instruction (``Module.pc_attr``) and the instrumenter
  records the analysis unit's text range — so attribution never
  guesses.

* **Shadow call stacks.**  With ``track_calls``, the interpreter feeds
  call/return transitions to the sampler, which maintains a shadow
  stack and aggregates collapsed (flamegraph) stacks keyed by
  procedure chains.

Heartbeats reuse the sampling hook at a very large interval to emit
JSONL progress records (``wrl-eval`` workers); the records are shaped
exactly like tracer span events so a heartbeat file is a valid
``wrl-trace`` fragment and merges losslessly into snapshots.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from ..objfile.module import (Module, PC_ATTR_GLUE, PC_ATTR_NAMES,
                              PC_ATTR_SAVE, PC_ATTR_SPLICE)
from ..objfile.sections import TEXT
from ..objfile.symtab import SymKind
from . import TRACE

#: Prefixes stamped by the instrumenter; re-declared via import so the
#: taxonomy cannot drift from the emitters.
from ..om.codegen import INLINE_PREFIX
from ..atom.lowering import ANAL_PREFIX

PROFILE_SCHEMA = "wrl-profile/v1"

#: Default sampling period, in retired instructions.
DEFAULT_INTERVAL = 1000

#: Attribution buckets, in report order.  ``orig`` is the pristine
#: program; ``bracket``/``splice``/``analysis`` partition ATOM's added
#: cycles; ``unknown`` should stay empty (it is asserted <1% in tests).
BUCKET_ORIG = "orig"
BUCKET_BRACKET = "bracket"
BUCKET_SPLICE = "splice"
BUCKET_ANALYSIS = "analysis"
BUCKET_UNKNOWN = "unknown"
BUCKETS = (BUCKET_ORIG, BUCKET_BRACKET, BUCKET_SPLICE, BUCKET_ANALYSIS,
           BUCKET_UNKNOWN)
OVERHEAD_BUCKETS = (BUCKET_BRACKET, BUCKET_SPLICE, BUCKET_ANALYSIS)

#: The text landmarks ``objfile.linker`` defines in the analysis unit;
#: they name addresses, not routines.
_TEXT_LANDMARKS = ("__text_start", "__text_end")

ENV_HEARTBEAT = "WRL_HEARTBEAT"
ENV_HEARTBEAT_INSTS = "WRL_HEARTBEAT_INSTS"
DEFAULT_HEARTBEAT_INSTS = 10_000_000


# ---- samplers ---------------------------------------------------------------

class PcSampler:
    """Deterministic PC sampler: one observation every ``interval``
    retired instructions, charging the cycles since the previous sample
    to the instruction that crossed the boundary."""

    track_calls = False

    def __init__(self, interval: int = DEFAULT_INTERVAL):
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1: {interval}")
        self.interval = int(interval)
        #: instruction index -> sample count / charged cycles
        self.counts: dict[int, int] = {}
        self.cycle_counts: dict[int, int] = {}
        self.cpu = None
        self._stats = None
        self._last_cycles = 0

    def bind(self, cpu):
        """Attach to a Cpu at run start (called by ``Cpu.run``)."""
        self.cpu = cpu
        self._stats = cpu.stats
        self._last_cycles = cpu.stats[0]
        return self

    def sample(self, index: int) -> None:
        cycles = self._stats[0]
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        cyc = self.cycle_counts
        cyc[index] = cyc.get(index, 0) + (cycles - self._last_cycles)
        self._last_cycles = cycles

    @property
    def total_samples(self) -> int:
        return sum(self.counts.values())


class StackSampler(PcSampler):
    """PC sampler plus a shadow call stack.

    The interpreter reports every executed call (bsr/jsr) and return;
    calls push ``(return_index, callee_index)``, returns pop back to the
    deepest frame whose saved return site matches the actual return
    target (tolerating longjmp-style non-local exits by leaving the
    stack alone when nothing matches).  Each sample records the chain of
    callee indices plus the sampled leaf.
    """

    track_calls = True

    def __init__(self, interval: int = DEFAULT_INTERVAL):
        super().__init__(interval)
        self._stack: list[tuple[int, int]] = []
        #: (callee indices..., leaf index) -> sample count
        self.stacks: dict[tuple[int, ...], int] = {}

    def bind(self, cpu):
        self._stack = []
        return super().bind(cpu)

    def enter(self, call_index: int, callee_index: int) -> None:
        self._stack.append((call_index + 1, callee_index))

    def leave(self, dest_index: int) -> None:
        stack = self._stack
        for k in range(len(stack) - 1, -1, -1):
            if stack[k][0] == dest_index:
                del stack[k:]
                return

    def sample(self, index: int) -> None:
        super().sample(index)
        key = tuple(entry[1] for entry in self._stack) + (index,)
        stacks = self.stacks
        stacks[key] = stacks.get(key, 0) + 1


# ---- pristine attribution ---------------------------------------------------

@dataclass(frozen=True)
class Attribution:
    """Where one sampled PC lands, in pristine terms."""

    bucket: str
    label: str            # procedure / routine / marker name
    orig_pc: int | None   # original address (``orig`` bucket only)
    kind: str = ""        # fine-grained: save / glue / splice


class Attributor:
    """Static PC -> {pristine proc | overhead bucket} resolver.

    Works on any linked module: for plain executables every text PC is
    ``orig``; for ATOM output the new->old map, the inserted-instruction
    classification (``pc_attr``), and the analysis-unit text range
    recorded at instrumentation time partition the address space
    completely.
    """

    def __init__(self, module: Module):
        self.module = module
        text = module.section(TEXT)
        self.text_base = text.vaddr or 0
        self.text_end = self.text_base + len(text.data)
        self.pc_map = module.pc_map
        self.pc_attr = module.pc_attr
        self.is_atom = "atom:anal_text_base" in module.meta
        self.anal_base = module.meta.get("atom:anal_text_base", 0)
        size = module.meta.get("atom:anal_text_size")
        if size is not None:
            self.anal_end = self.anal_base + size
        else:
            # Older artifact without the size: the data base bounds the
            # analysis text from above (there is only alignment pad
            # between them).
            self.anal_end = module.meta.get("atom:anal_data_base",
                                            self.anal_base)

        funcs = []
        splices = []
        anal = []
        for sym in module.symtab:
            if not sym.defined:
                continue
            if sym.is_abs:
                if sym.name.startswith(ANAL_PREFIX) and \
                        self.anal_base <= sym.value < self.anal_end:
                    anal.append((sym.value, sym.name[len(ANAL_PREFIX):]))
                continue
            if sym.kind is SymKind.FUNC:
                funcs.append((sym.value, sym.value + (sym.size or 0),
                              sym.name))
            elif sym.name.startswith(INLINE_PREFIX):
                name = sym.name[len(INLINE_PREFIX):].rsplit(".", 1)[0]
                splices.append((sym.value, name))
        self._funcs = sorted(funcs)
        self._func_starts = [f[0] for f in self._funcs]
        self._splices = sorted(splices)
        self._splice_starts = [s[0] for s in self._splices]
        # One name per address.  The analysis unit's first routine
        # shares its address with the linker's text landmark; the
        # routine's name wins, as ``isa.disasm.symbol_map`` prefers
        # procedures.  Landmarks sort first, so the routine is kept.
        anal.sort(key=lambda a: (a[0], a[1] not in _TEXT_LANDMARKS, a[1]))
        self._anal = sorted(dict(anal).items())
        self._anal_starts = [a[0] for a in self._anal]

    # -- lookups ------------------------------------------------------------

    def proc_at(self, pc: int) -> str | None:
        """Name of the procedure whose [start, end) contains ``pc``."""
        i = bisect_right(self._func_starts, pc) - 1
        if i >= 0:
            start, end, name = self._funcs[i]
            if pc < end or start == end:
                return name
        return None

    def _splice_at(self, pc: int) -> str | None:
        i = bisect_right(self._splice_starts, pc) - 1
        return self._splices[i][1] if i >= 0 else None

    def _anal_proc_at(self, pc: int) -> str | None:
        i = bisect_right(self._anal_starts, pc) - 1
        return self._anal[i][1] if i >= 0 else None

    def resolve(self, pc: int) -> Attribution:
        if self.is_atom and self.anal_base <= pc < self.anal_end:
            return Attribution(BUCKET_ANALYSIS,
                               self._anal_proc_at(pc) or "<analysis>", None)
        orig = self.pc_map.get(pc)
        if orig is not None:
            return Attribution(BUCKET_ORIG, self.proc_at(pc) or f"{pc:#x}",
                               orig)
        code = self.pc_attr.get(pc)
        if code == PC_ATTR_SPLICE:
            return Attribution(BUCKET_SPLICE,
                               self._splice_at(pc) or "<splice>", None,
                               kind="splice")
        if code in (PC_ATTR_SAVE, PC_ATTR_GLUE):
            return Attribution(BUCKET_BRACKET,
                               self.proc_at(pc) or f"{pc:#x}", None,
                               kind=PC_ATTR_NAMES[code])
        if not self.is_atom and self.text_base <= pc < self.text_end:
            # Plain executable: everything in text is the original
            # program, standing in for its own pristine address.
            return Attribution(BUCKET_ORIG, self.proc_at(pc) or f"{pc:#x}",
                               pc)
        return Attribution(BUCKET_UNKNOWN, self.proc_at(pc) or f"{pc:#x}",
                           None)

    def frame_name(self, pc: int) -> str:
        """Display name for a call-stack frame entered at ``pc``."""
        if self.is_atom and self.anal_base <= pc < self.anal_end:
            return self._anal_proc_at(pc) or "<analysis>"
        return self.proc_at(pc) or f"{pc:#x}"

    def leaf_frames(self, pc: int) -> list[str]:
        """Flamegraph frames a sample at ``pc`` contributes below its
        call stack: the containing procedure, plus a synthetic child
        frame for instrumentation overhead so it is visible as its own
        flame."""
        a = self.resolve(pc)
        if a.bucket == BUCKET_BRACKET:
            return [a.label, "[bracket]"]
        if a.bucket == BUCKET_SPLICE:
            site = self.proc_at(pc) or f"{pc:#x}"
            return [site, f"[splice:{a.label}]"]
        return [a.label]


# ---- profile artifact -------------------------------------------------------

def profile_doc(sampler: PcSampler, module: Module) -> dict:
    """Resolve a finished sampler into a deterministic profile document.

    Every field is a pure function of (module, entry, interval) — no
    timestamps, no wall-clock rates — so two runs of the same executable
    serialize byte-identically.
    """
    cpu = sampler.cpu
    if cpu is None:
        raise ValueError("sampler was never bound to a run")
    text_base = cpu.text_base
    attr = Attributor(module)

    pcs: dict[str, dict] = {}
    buckets = {b: {"samples": 0, "cycles": 0} for b in BUCKETS}
    procs: dict[tuple[str, str], dict] = {}
    total_samples = 0
    total_cycles = 0
    for index in sorted(sampler.counts):
        pc = text_base + 4 * index
        n = sampler.counts[index]
        cyc = sampler.cycle_counts.get(index, 0)
        a = attr.resolve(pc)
        total_samples += n
        total_cycles += cyc
        row = {"n": n, "cycles": cyc, "bucket": a.bucket, "sym": a.label}
        if a.kind:
            row["kind"] = a.kind
        if a.orig_pc is not None:
            row["orig_pc"] = f"{a.orig_pc:#x}"
        pcs[f"{pc:#x}"] = row
        buckets[a.bucket]["samples"] += n
        buckets[a.bucket]["cycles"] += cyc
        prow = procs.setdefault((a.label, a.bucket),
                                {"name": a.label, "bucket": a.bucket,
                                 "samples": 0, "cycles": 0})
        prow["samples"] += n
        prow["cycles"] += cyc

    for row in buckets.values():
        row["cycle_share"] = round(row["cycles"] / total_cycles, 6) \
            if total_cycles else 0.0

    doc = {
        "schema": PROFILE_SCHEMA,
        "module": module.name,
        "atom": attr.is_atom,
        "opt_level": module.meta.get("atom:opt_level"),
        "interval": sampler.interval,
        "samples": total_samples,
        "insts": cpu.stats[1],
        "cycles": cpu.stats[0],
        "sampled_cycles": total_cycles,
        "buckets": buckets,
        "procs": sorted(procs.values(),
                        key=lambda r: (-r["cycles"], -r["samples"],
                                       r["name"], r["bucket"])),
        "pcs": pcs,
    }
    if isinstance(sampler, StackSampler):
        doc["collapsed"] = collapsed_stacks(sampler, module, attr)
    return doc


def collapsed_stacks(sampler: StackSampler, module: Module,
                     attr: Attributor | None = None) -> dict[str, int]:
    """Aggregate shadow-stack samples into collapsed flamegraph lines
    (``root;caller;callee[;overhead] count``), resolved to names."""
    attr = attr or Attributor(module)
    text_base = sampler.cpu.text_base
    root = attr.frame_name(module.entry)
    out: dict[str, int] = {}
    for key, n in sampler.stacks.items():
        frames = [root]
        for callee_index in key[:-1]:
            frames.append(attr.frame_name(text_base + 4 * callee_index))
        leaf = attr.leaf_frames(text_base + 4 * key[-1])
        if leaf and frames[-1] == leaf[0]:
            frames.extend(leaf[1:])
        else:
            frames.extend(leaf)
        line = ";".join(frames)
        out[line] = out.get(line, 0) + n
    return dict(sorted(out.items()))


def stack_tables(doc: dict) -> list[dict]:
    """Per-frame inclusive/exclusive sample counts from a profile doc's
    collapsed stacks (inclusive counts each stack once per distinct
    frame, so recursion does not double-count)."""
    collapsed = doc.get("collapsed") or {}
    incl: dict[str, int] = {}
    excl: dict[str, int] = {}
    for line, n in collapsed.items():
        frames = line.split(";")
        for name in set(frames):
            incl[name] = incl.get(name, 0) + n
        leaf = frames[-1]
        excl[leaf] = excl.get(leaf, 0) + n
    rows = [{"name": name, "inclusive": incl[name],
             "exclusive": excl.get(name, 0)} for name in incl]
    rows.sort(key=lambda r: (-r["inclusive"], -r["exclusive"], r["name"]))
    return rows


def write_profile(doc: dict, path: Path | str) -> Path:
    """Serialize a profile document (deterministic byte layout)."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def load_profile(path: Path | str) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(f"{path}: not a {PROFILE_SCHEMA} artifact")
    return doc


def write_collapsed(doc: dict, path: Path | str) -> Path:
    """Write collapsed stacks in the standard flamegraph.pl format."""
    path = Path(path)
    lines = [f"{stack} {n}" for stack, n in
             sorted((doc.get("collapsed") or {}).items())]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


# ---- heartbeats -------------------------------------------------------------

def heartbeat_path() -> str | None:
    """The ``WRL_HEARTBEAT`` file, or None when heartbeats are off."""
    return os.environ.get(ENV_HEARTBEAT) or None


def heartbeat_interval() -> int:
    try:
        return max(1, int(os.environ.get(ENV_HEARTBEAT_INSTS, "")))
    except ValueError:
        return DEFAULT_HEARTBEAT_INSTS


class HeartbeatWriter:
    """Appends span-shaped JSONL progress records for one eval task.

    Each record is a zero-duration tracer event (``name="heartbeat"``),
    so the heartbeat file parses with :func:`repro.obs.read_jsonl` and
    merges losslessly into a :class:`repro.obs.Tracer` snapshot; when
    tracing is enabled the same record is mirrored into ``TRACE`` and
    ships to the parent over ``TaskResult.trace``.
    """

    def __init__(self, path: str, task: str):
        self.path = path
        self.task = task

    def emit(self, phase: str, **fields) -> None:
        args = {"task": self.task, "phase": phase, **fields}
        now = time.monotonic_ns()
        row = {"type": "span", "name": "heartbeat", "cat": "eval",
               "ts_ns": now, "dur_ns": 0, "pid": os.getpid(), "tid": 0,
               "args": args}
        try:
            with open(self.path, "a") as f:
                f.write(json.dumps(row) + "\n")
        except OSError:
            pass          # progress reporting must never fail the task
        TRACE.instant("heartbeat", "eval", **args)

    def sampler(self, phase: str,
                interval: int | None = None) -> "HeartbeatSampler":
        return HeartbeatSampler(self, phase,
                                interval or heartbeat_interval())


class HeartbeatSampler:
    """In-run progress reporter riding the deterministic sampling hook
    at a very large interval (it observes, never perturbs)."""

    track_calls = False

    def __init__(self, writer: HeartbeatWriter, phase: str,
                 interval: int = DEFAULT_HEARTBEAT_INSTS):
        if interval < 1:
            raise ValueError(f"heartbeat interval must be >= 1: {interval}")
        self.interval = int(interval)
        self._writer = writer
        self._phase = phase
        self._stats = None
        self._base_insts = 0
        self._t0 = 0

    def bind(self, cpu):
        self._stats = cpu.stats
        self._base_insts = cpu.stats[1]
        self._t0 = time.monotonic_ns()
        return self

    def sample(self, index: int) -> None:
        stats = self._stats
        insts = stats[1] - self._base_insts
        elapsed = time.monotonic_ns() - self._t0
        ips = int(insts * 1e9 / elapsed) if elapsed > 0 else 0
        self._writer.emit(self._phase, insts=insts, cycles=stats[0],
                          ips=ips)


# ---- report helpers ---------------------------------------------------------

def pristine_split(doc: dict) -> dict:
    """Pristine vs. overhead cycle split of a profile document."""
    buckets = doc.get("buckets", {})
    pristine = buckets.get(BUCKET_ORIG, {}).get("cycles", 0)
    overhead = sum(buckets.get(b, {}).get("cycles", 0)
                   for b in OVERHEAD_BUCKETS)
    unknown = buckets.get(BUCKET_UNKNOWN, {}).get("cycles", 0)
    total = doc.get("sampled_cycles", 0)
    return {"pristine": pristine, "overhead": overhead,
            "unknown": unknown, "total": total}


def top_procs(doc: dict, k: int = 10) -> list[dict]:
    return list(doc.get("procs", ()))[:max(0, k)]


def render_profile(doc: dict, top: int = 10) -> str:
    """Human-readable summary of a profile document."""
    lines = []
    mod = doc.get("module", "?")
    lines.append(f"profile of {mod}: {doc['samples']} samples "
                 f"(interval {doc['interval']}), "
                 f"{doc['insts']} insts, {doc['cycles']} cycles")
    split = pristine_split(doc)
    total = max(1, split["total"])
    lines.append(f"  pristine {split['pristine']} cycles "
                 f"({100.0 * split['pristine'] / total:.1f}%)  "
                 f"overhead {split['overhead']} cycles "
                 f"({100.0 * split['overhead'] / total:.1f}%)")
    lines.append(f"  {'bucket':<10} {'samples':>10} {'cycles':>12} "
                 f"{'share':>7}")
    for name in BUCKETS:
        row = doc["buckets"].get(name)
        if not row or not row["samples"]:
            continue
        lines.append(f"  {name:<10} {row['samples']:>10} "
                     f"{row['cycles']:>12} "
                     f"{100.0 * row.get('cycle_share', 0):>6.1f}%")
    lines.append(f"  top {top} locations (self):")
    lines.append(f"  {'name':<28} {'bucket':<9} {'samples':>10} "
                 f"{'cycles':>12}")
    for row in top_procs(doc, top):
        lines.append(f"  {row['name']:<28} {row['bucket']:<9} "
                     f"{row['samples']:>10} {row['cycles']:>12}")
    tables = stack_tables(doc)
    if tables:
        lines.append(f"  top {top} frames (inclusive/exclusive samples):")
        for row in tables[:top]:
            lines.append(f"  {row['name']:<40} {row['inclusive']:>10} "
                         f"{row['exclusive']:>10}")
    return "\n".join(lines)


# ---- smoke / walkthrough driver --------------------------------------------

def profile_tool_run(workload: str = "fib", tool_name: str = "prof",
                     opt: int = 4, interval: int = 997,
                     stacks: bool = True, out_dir: Path | str | None = None,
                     cache=None):
    """Instrument ``workload`` with ``tool`` and profile the run.

    Returns ``(doc, run_result)``; with ``out_dir`` also writes
    ``module.wof`` (the instrumented executable), ``profile.json``,
    ``profile.collapsed``, and ``annotated.txt``.  This is the
    ``make check-profile`` smoke path and the examples' entry point.
    """
    from ..atom.saves import OptLevel
    from ..tools import get_tool
    from ..workloads import build_workload
    from .annotate import render_annotated
    from ..eval import runner

    app = build_workload(workload)
    tool = get_tool(tool_name)
    kwargs = {} if cache is None else {"cache": cache}
    inst = runner.apply_tool(app, tool, opt=OptLevel(opt), **kwargs)
    sampler = (StackSampler if stacks else PcSampler)(interval)
    run = runner.run_instrumented(inst, sampler=sampler)
    doc = profile_doc(sampler, inst.module)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        inst.module.save(out_dir / "module.wof")
        write_profile(doc, out_dir / "profile.json")
        if "collapsed" in doc:
            write_collapsed(doc, out_dir / "profile.collapsed")
        (out_dir / "annotated.txt").write_text(
            render_annotated(inst.module, doc, top=5) + "\n")
    return doc, run


def main(argv=None) -> int:
    import argparse
    ap = argparse.ArgumentParser(
        prog="repro.obs.runtime",
        description="profile an instrumented tool run (smoke driver)")
    ap.add_argument("--workload", default="fib")
    ap.add_argument("--tool", default="prof")
    ap.add_argument("--opt", type=int, default=4, choices=[0, 1, 2, 3, 4])
    ap.add_argument("--interval", type=int, default=997)
    ap.add_argument("--no-stacks", action="store_true")
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--top", type=int, default=10)
    opts = ap.parse_args(argv)
    doc, _ = profile_tool_run(workload=opts.workload, tool_name=opts.tool,
                              opt=opts.opt, interval=opts.interval,
                              stacks=not opts.no_stacks,
                              out_dir=opts.out_dir)
    print(render_profile(doc, top=opts.top))
    unknown = doc["buckets"][BUCKET_UNKNOWN]["samples"]
    if doc["samples"] and unknown / doc["samples"] > 0.01:
        print(f"error: unattributed bucket above 1% "
              f"({unknown}/{doc['samples']} samples)")
        return 1
    if opts.out_dir:
        print(f"artifacts in {opts.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
