"""Differential conformance over fuzzed programs (the ``wrl-fuzz`` CLI).

ATOM's transparency guarantee is that analysis output is a pure
function of the program — never of how we rewrote or executed it.  This
harness operationalizes that over :mod:`repro.mlc.fuzz` programs: each
program is compiled once, then every cell of

    (tool, opt in O0..O4) x dispatch in {simple, fused, jit} x
    {serial, parallel}

is fingerprinted and the fingerprints are compared **byte-for-byte**
(everything is serialized through canonical JSON before comparison):

* across dispatch tiers, the *complete* run fingerprint must match —
  exit status, stdout, stderr, every output file, simulated cycles,
  retired instruction count, and (on sampled cells) the full
  ``wrl-profile/v1`` document at a fixed interval;
* across opt levels, the *analysis artifacts* must match — status,
  stdout, stderr and output files (cycles legitimately differ: lower
  overhead is the point of O1–O4);
* instrumented runs must preserve the *program's own* observables
  exactly as the uninstrumented base run produced them (the tool's
  report file aside) — the paper's §2 transparency claim;
* the parallel leg re-instruments and re-runs each (tool, opt) cell in
  a fresh worker process and must reproduce the serial fingerprints and
  ``InstrumentStats`` byte-identically — cross-process determinism.

The fused and jit cells run with the tier-up budgets lowered to
:data:`DIFF_FUSE_WORK` and :data:`DIFF_JIT_WORK`, so the short programs
the fuzzer generates execute compiled superblocks and regions rather
than only the per-instruction walk; the superblocks and regions each
dispatch column compiled go into the run's ``fuzz_report.json``.

Any divergence is shrunk by :mod:`repro.mlc.reduce` under a *narrow*
predicate that replays only the two cells that disagreed, and the
reduced program plus a JSON description are written out as a repro
artifact (CI uploads it on failure).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..atom import OptLevel
from ..machine.cpu import MachineError
from ..machine.loader import Machine
from ..mlc import build_executable
from ..mlc.fuzz import PROFILES, generate_program, profile_for
from ..mlc.reduce import checked_predicate, reduce_source
from ..obs.runtime import PcSampler, profile_doc
from ..tools import get_tool
from .runner import apply_tool

#: Dispatch tiers under test, name -> (fuse, jit).
DISPATCH: dict[str, tuple[bool, bool]] = {
    "simple": (False, False),
    "fused": (True, False),
    "jit": (True, True),
}

#: Opt levels whose cells also carry a wrl-profile/v1 document.  Base
#: runs are always sampled.  Sampling every opt level would roughly
#: double matrix cost for no extra signal: the profiler's dispatch
#: invariance is a property of the *machine*, so the cheapest and the
#: most aggressively rewritten instrumented modules bracket it.
SAMPLED_OPTS = ("O0", "O4")

#: Tier-up budgets of the fused and jit cells: a superblock head fuses
#: on its second entry and promotes by its 17th.  The same budgets drive
#: the tier differential tests.
DIFF_FUSE_WORK = 1
DIFF_JIT_WORK = 32

DEFAULT_INTERVAL = 509          # prime, so samples drift across loops
DEFAULT_MAX_INSTS = 80_000_000
DEFAULT_TOOLS = ("prof", "dyninst", "taint")


# ---------------------------------------------------------------- cells

def _run_cell(module, *, fuse: bool, jit: bool, max_insts: int,
              sample_interval: int | None,
              profile_module=None) -> tuple[dict, dict]:
    """One cell's observables as a canonical-JSON-able dict, and the
    superblocks and regions its run compiled.

    Machine faults are *part of the fingerprint*: a program that
    divides by zero must fault identically in every cell, so errors are
    recorded, not raised.
    """
    sampler = None
    if sample_interval is not None:
        sampler = PcSampler(interval=sample_interval)
    cpu = None
    try:
        machine = Machine(module, fuse=fuse, jit=jit)
        cpu = machine.cpu
        cpu.fuse_work = DIFF_FUSE_WORK
        if cpu.jit is not None:
            cpu.jit.work = DIFF_JIT_WORK
        r = machine.run(max_insts=max_insts, sampler=sampler)
        fp = {
            "status": r.status,
            "stdout": r.stdout.hex(),
            "stderr": r.stderr.hex(),
            "files": {k: v.hex() for k, v in sorted(r.files.items())},
            "cycles": r.cycles,
            "inst_count": r.inst_count,
        }
    except MachineError as exc:
        # BudgetExhausted included: its pc must match across tiers too.
        fp = {"error": f"{type(exc).__name__}: {exc}"}
    if sampler is not None:
        doc = profile_doc(sampler, profile_module or module)
        fp["profile"] = json.dumps(doc, sort_keys=True)
    tiers = {"superblocks": cpu.sb_compiled if cpu else 0,
             "regions": cpu.jit.promoted if cpu and cpu.jit else 0}
    return fp, tiers


def _fingerprint(module, **kw) -> dict:
    """One cell's observables (see :func:`_run_cell`)."""
    return _run_cell(module, **kw)[0]


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _analysis_view(fp: dict, drop: tuple[str, ...] = ()) -> dict:
    """The opt-invariant slice of a fingerprint: the analysis artifacts
    (optionally without the files in ``drop``), not the cost."""
    if "error" in fp:
        return {"error": fp["error"]}
    return {
        "status": fp["status"],
        "stdout": fp["stdout"],
        "stderr": fp["stderr"],
        "files": {k: v for k, v in fp["files"].items() if k not in drop},
    }


def _cell_fingerprints(exe, tool_name: str | None, opt_name: str | None,
                       *, interval: int, max_insts: int) -> dict:
    """All three dispatch fingerprints (plus stats, and the tiers each
    cell compiled) for one column.

    ``tool_name is None`` means the uninstrumented base column.  This
    is the unit of work the parallel leg re-executes in a worker; tier
    counts are a pure function of the module and the budgets, so the
    worker must reproduce them too.
    """
    if tool_name is None:
        module, stats, sample = exe, None, interval
    else:
        res = apply_tool(exe, get_tool(tool_name),
                         opt=OptLevel[opt_name], cache=None)
        module = res.module
        stats = {k: v for k, v in sorted(vars(res.stats).items())}
        sample = interval if opt_name in SAMPLED_OPTS else None
    cells, tiers = {}, {}
    for dispatch, (fuse, jit) in DISPATCH.items():
        cells[dispatch], tiers[dispatch] = _run_cell(
            module, fuse=fuse, jit=jit, max_insts=max_insts,
            sample_interval=sample)
    return {"stats": stats, "cells": cells, "tiers": tiers}


def _worker_column(exe_bytes: bytes, tool_name: str | None,
                   opt_name: str | None, interval: int,
                   max_insts: int) -> str:
    """Parallel-leg unit: rebuild everything from bytes in a fresh
    process and return the canonical JSON of the whole column."""
    from ..objfile.module import Module
    exe = Module.from_bytes(exe_bytes)
    return _canon(_cell_fingerprints(exe, tool_name, opt_name,
                                     interval=interval,
                                     max_insts=max_insts))


# ------------------------------------------------------------- checking

@dataclass
class Divergence:
    """One byte-level disagreement, with enough context to replay it."""

    kind: str                   # dispatch | cross-opt | transparency |
    #                             profile | parallel
    tool: str | None
    opt: str | None
    cell_a: str
    cell_b: str
    detail: str

    def describe(self) -> str:
        where = self.tool and f"{self.tool}@{self.opt}" or "base"
        return (f"{self.kind} divergence [{where}] "
                f"{self.cell_a} != {self.cell_b}: {self.detail}")


@dataclass
class ProgramReport:
    seed: int | None
    source: str
    divergences: list[Divergence] = field(default_factory=list)
    seconds: float = 0.0
    #: dispatch -> {"superblocks": n, "regions": n} compiled over the
    #: serial leg's columns.
    tiers: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _diff_keys(fa: dict, fb: dict) -> str:
    keys = sorted(set(fa) | set(fb))
    bad = [k for k in keys if _canon(fa.get(k)) != _canon(fb.get(k))]
    return "differs in " + ", ".join(bad or ["(structure)"])


def _add_tiers(total: dict, tiers: dict) -> None:
    for dispatch, counts in tiers.items():
        into = total.setdefault(dispatch, dict.fromkeys(counts, 0))
        for kind, n in counts.items():
            into[kind] += n


def check_program(source: str, *, seed: int | None = None,
                  tools=DEFAULT_TOOLS,
                  opts: tuple[str, ...] = tuple(o.name for o in OptLevel),
                  interval: int = DEFAULT_INTERVAL,
                  max_insts: int = DEFAULT_MAX_INSTS,
                  pool: ProcessPoolExecutor | None = None,
                  stop_on_first: bool = False) -> ProgramReport:
    """Run the full differential matrix over one program."""
    t0 = time.monotonic()
    report = ProgramReport(seed=seed, source=source)
    exe = build_executable([source])
    columns: dict[tuple[str | None, str | None], dict] = {}
    futures = {}
    if pool is not None:
        exe_bytes = exe.to_bytes()
        for key in [(None, None)] + [(t, o) for t in tools for o in opts]:
            futures[key] = pool.submit(_worker_column, exe_bytes,
                                       key[0], key[1], interval, max_insts)

    def diverge(kind, tool, opt, a, b, detail):
        report.divergences.append(Divergence(kind, tool, opt, a, b, detail))

    # serial leg: base column, then each (tool, opt) column
    for key in [(None, None)] + [(t, o) for t in tools for o in opts]:
        tool_name, opt_name = key
        columns[key] = _cell_fingerprints(exe, tool_name, opt_name,
                                          interval=interval,
                                          max_insts=max_insts)
        _add_tiers(report.tiers, columns[key]["tiers"])
        cells = columns[key]["cells"]
        ref = cells["simple"]
        for dispatch in ("fused", "jit"):
            if _canon(cells[dispatch]) != _canon(ref):
                kind = "profile" if (
                    _canon({k: v for k, v in cells[dispatch].items()
                            if k != "profile"}) ==
                    _canon({k: v for k, v in ref.items()
                            if k != "profile"})) else "dispatch"
                diverge(kind, tool_name, opt_name, "simple", dispatch,
                        _diff_keys(ref, cells[dispatch]))
                if stop_on_first:
                    report.seconds = time.monotonic() - t0
                    return report

    # cross-opt: analysis artifacts identical along each tool's row
    for tool_name in tools:
        ref_opt = opts[0]
        ref = _analysis_view(columns[(tool_name, ref_opt)]["cells"]["simple"])
        for opt_name in opts[1:]:
            got = _analysis_view(
                columns[(tool_name, opt_name)]["cells"]["simple"])
            if _canon(got) != _canon(ref):
                diverge("cross-opt", tool_name, opt_name,
                        ref_opt, opt_name, _diff_keys(ref, got))

    # transparency: the program's own observables survive instrumentation
    base_view = _analysis_view(columns[(None, None)]["cells"]["simple"])
    for tool_name in tools:
        out_file = get_tool(tool_name).output_file
        for opt_name in opts:
            got = _analysis_view(
                columns[(tool_name, opt_name)]["cells"]["simple"],
                drop=(out_file,))
            if _canon(got) != _canon(base_view):
                diverge("transparency", tool_name, opt_name,
                        "base", f"{tool_name}@{opt_name}",
                        _diff_keys(base_view, got))

    # parallel leg: worker columns byte-identical to the serial ones
    for key, fut in futures.items():
        serial = _canon(columns[key])
        parallel = fut.result()
        if parallel != serial:
            diverge("parallel", key[0], key[1], "serial", "parallel",
                    "worker column differs from serial column")

    report.seconds = time.monotonic() - t0
    return report


# ------------------------------------------------------------ reduction

def divergence_predicate(div: Divergence, *, interval: int = DEFAULT_INTERVAL,
                         max_insts: int = DEFAULT_MAX_INSTS):
    """A narrow ``source -> bool`` predicate replaying only the two
    cells that disagreed — cheap enough to drive the reducer.  Sources
    that fail to compile are rejected (reducer contract)."""

    def instrumented(exe):
        if div.tool is None:
            return exe, None
        res = apply_tool(exe, get_tool(div.tool),
                         opt=OptLevel[div.opt], cache=None)
        return res.module, div.opt

    def still_fails(source: str) -> bool:
        exe = build_executable([source])
        if div.kind in ("dispatch", "profile"):
            module, opt_name = instrumented(exe)
            sample = interval if (div.tool is None
                                  or opt_name in SAMPLED_OPTS) else None
            fps = {}
            for dispatch in (div.cell_a, div.cell_b):
                fuse, jit = DISPATCH[dispatch]
                fps[dispatch] = _fingerprint(
                    module, fuse=fuse, jit=jit, max_insts=max_insts,
                    sample_interval=sample)
            return _canon(fps[div.cell_a]) != _canon(fps[div.cell_b])
        if div.kind == "cross-opt":
            views = {}
            for opt_name in (div.cell_a, div.cell_b):
                res = apply_tool(exe, get_tool(div.tool),
                                 opt=OptLevel[opt_name], cache=None)
                views[opt_name] = _analysis_view(_fingerprint(
                    res.module, fuse=False, jit=False,
                    max_insts=max_insts, sample_interval=None))
            return _canon(views[div.cell_a]) != _canon(views[div.cell_b])
        if div.kind == "transparency":
            base = _analysis_view(_fingerprint(
                exe, fuse=False, jit=False, max_insts=max_insts,
                sample_interval=None))
            res = apply_tool(exe, get_tool(div.tool),
                             opt=OptLevel[div.opt], cache=None)
            got = _analysis_view(
                _fingerprint(res.module, fuse=False, jit=False,
                             max_insts=max_insts, sample_interval=None),
                drop=(get_tool(div.tool).output_file,))
            return _canon(got) != _canon(base)
        if div.kind == "parallel":
            serial = _canon(_cell_fingerprints(
                exe, div.tool, div.opt,
                interval=interval, max_insts=max_insts))
            with ProcessPoolExecutor(max_workers=1) as one:
                parallel = one.submit(
                    _worker_column, exe.to_bytes(), div.tool, div.opt,
                    interval, max_insts).result()
            return parallel != serial
        raise ValueError(f"unknown divergence kind {div.kind!r}")

    return checked_predicate(lambda src: build_executable([src]),
                             still_fails)


def reduce_divergence(source: str, div: Divergence, *,
                      interval: int = DEFAULT_INTERVAL,
                      max_insts: int = DEFAULT_MAX_INSTS,
                      progress=None) -> str:
    """Shrink ``source`` while the given divergence still reproduces."""
    predicate = divergence_predicate(div, interval=interval,
                                     max_insts=max_insts)
    return reduce_source(source, predicate, progress=progress)


# ------------------------------------------------------------------ CLI

def _write_repro(out_dir, report: ProgramReport, reduced: str | None):
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = "corpus" if report.seed is None else f"seed_{report.seed:04d}"
    (out / f"repro_{tag}.mlc").write_text(reduced or report.source)
    (out / f"repro_{tag}.full.mlc").write_text(report.source)
    (out / f"repro_{tag}.json").write_text(_canon({
        "seed": report.seed,
        "divergences": [vars(d) for d in report.divergences],
        "reduced_lines": len((reduced or report.source).splitlines()),
    }) + "\n")
    return out / f"repro_{tag}.mlc"


def _write_report(out_dir, checked: int, tiers: dict,
                  per_program: list) -> None:
    """``fuzz_report.json``: how many programs were checked and what
    each dispatch column compiled, in total and per program (CI fails
    the lane when the jit column compiled no region)."""
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fuzz_report.json").write_text(json.dumps(
        {"programs": checked, "tiers": tiers, "per_program": per_program},
        indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="wrl-fuzz",
        description="differential conformance fuzzing over the full "
                    "opt x dispatch x serial/parallel matrix")
    ap.add_argument("--seed", type=int, default=0,
                    help="first generator seed (default 0)")
    ap.add_argument("--count", type=int, default=20,
                    help="number of programs (default 20)")
    ap.add_argument("--time-budget", type=float, default=None,
                    metavar="SECONDS",
                    help="stop starting new programs past this wall time")
    ap.add_argument("--profile", choices=sorted(PROFILES), default=None,
                    help="grammar weight profile (default: rotate by seed)")
    ap.add_argument("--corpus", default=None, metavar="DIR",
                    help="check committed .mlc files from DIR instead of "
                         "generating")
    ap.add_argument("--tools", default=",".join(DEFAULT_TOOLS),
                    help="comma-separated tool list "
                         "(default prof,dyninst,taint)")
    ap.add_argument("--rotate-tools", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="one tool per program, rotating by seed "
                         "(--no-rotate-tools runs every tool on every "
                         "program)")
    ap.add_argument("--opts", default=",".join(o.name for o in OptLevel),
                    help="comma-separated opt levels (default O0..O4)")
    ap.add_argument("--interval", type=int, default=DEFAULT_INTERVAL,
                    help=f"profile sample interval (default "
                         f"{DEFAULT_INTERVAL})")
    ap.add_argument("--max-insts", type=int, default=DEFAULT_MAX_INSTS)
    ap.add_argument("--jobs", type=int, default=2,
                    help="worker processes for the parallel leg "
                         "(0 disables the parallel leg; default 2)")
    ap.add_argument("--out", default="fuzz-artifacts", metavar="DIR",
                    help="where fuzz_report.json and reduced repro "
                         "programs are written")
    ap.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="shrink the first diverging program")
    args = ap.parse_args(argv)

    if args.corpus is None and args.count < 1:
        ap.error("--count must be >= 1 (a zero-program run proves nothing)")
    tools = tuple(t.strip() for t in args.tools.split(",") if t.strip())
    opts = tuple(o.strip() for o in args.opts.split(",") if o.strip())
    for opt_name in opts:
        if opt_name not in OptLevel.__members__:
            ap.error(f"unknown opt level {opt_name!r}; choose from "
                     f"{', '.join(OptLevel.__members__)}")
    for tool_name in tools:
        try:
            get_tool(tool_name)
        except KeyError as exc:
            ap.error(str(exc.args[0]))

    if args.corpus is not None:
        from pathlib import Path
        paths = sorted(Path(args.corpus).glob("*.mlc"))
        programs = [(None, p.read_text(), p.name) for p in paths]
        if not programs:
            print(f"no .mlc files under {args.corpus}", file=sys.stderr)
            return 2
    else:
        programs = []
        for i in range(args.count):
            seed = args.seed + i
            weights = profile_for(seed, args.profile)
            programs.append((seed, generate_program(seed, weights),
                             f"seed {seed}"))

    t0 = time.monotonic()
    checked = 0
    failed: ProgramReport | None = None
    tiers: dict[str, dict[str, int]] = {}
    per_program = []
    pool = None
    if args.jobs > 0:
        pool = ProcessPoolExecutor(max_workers=args.jobs)
    try:
        for seed, source, label in programs:
            elapsed = time.monotonic() - t0
            if (args.time_budget is not None and checked > 0
                    and elapsed > args.time_budget):
                print(f"time budget reached after {checked} programs "
                      f"({elapsed:.1f}s)", flush=True)
                break
            program_tools = tools
            if args.rotate_tools and len(tools) > 1:
                index = seed if seed is not None else checked
                program_tools = (tools[index % len(tools)],)
            report = check_program(source, seed=seed,
                                   tools=program_tools, opts=opts,
                                   interval=args.interval,
                                   max_insts=args.max_insts, pool=pool)
            checked += 1
            _add_tiers(tiers, report.tiers)
            per_program.append({"program": label, "tiers": report.tiers})
            state = "ok" if report.ok else "DIVERGED"
            print(f"[{checked}/{len(programs)}] {label} "
                  f"tools={','.join(program_tools)} "
                  f"{report.seconds:.1f}s {state}", flush=True)
            if not report.ok:
                failed = report
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    _write_report(args.out, checked, tiers, per_program)
    print("compiled: " + "; ".join(
        f"{dispatch} {n['superblocks']} superblocks, {n['regions']} regions"
        for dispatch, n in tiers.items() if dispatch != "simple"))
    if failed is None:
        print(f"all {checked} programs byte-identical across the matrix "
              f"({time.monotonic() - t0:.1f}s)")
        return 0

    for div in failed.divergences:
        print("  " + div.describe())
    reduced = None
    if args.reduce:
        print("reducing...", flush=True)
        reduced = reduce_divergence(
            failed.source, failed.divergences[0],
            interval=args.interval, max_insts=args.max_insts,
            progress=lambda msg: print(f"  {msg}", flush=True))
        print(f"reduced to {len(reduced.splitlines())} lines")
    path = _write_repro(args.out, failed, reduced)
    print(f"repro written to {path}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
