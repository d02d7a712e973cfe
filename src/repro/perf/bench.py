"""The interpreter benchmark harness (``python -m repro.perf.bench``).

Three sections, one JSON report:

* ``interpreter`` — for each workload, an A/B of the superblock-fused
  dispatch and the plain per-instruction loop.  Architectural state
  (cycles, instruction count, exit status, stdout) is asserted
  bit-identical between the two before any number is reported.
* ``tools`` — for each (workload, tool, opt-level) cell, simulated
  cycles and wall-clock throughput of the uninstrumented and
  instrumented executables — the measured version of the paper's
  Figure 6 overhead story.
* ``serve`` — throughput of the warm ``wrl-serve`` daemon against the
  cold-process path (one fresh Python per request), plus the p50
  latency of a deduplicated burst: the case for
  instrumentation-as-a-service in numbers.

Simulated cycles are deterministic; wall-clock insts/sec is timed after
a warmup run so lazy superblock compilation is excluded, the standard
JIT-benchmarking convention (best-of-N in the interpreter section, one
timed run per tools cell).  The report lands in
``BENCH_interp.json`` at the repo root so the trajectory is versioned
alongside the code that produced it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from ..atom import OptLevel
from ..eval.parallel import plan_matrix, run_matrix
from ..machine import run_module
from ..obs import TRACE, trace_path_from_env
from ..tools import TOOL_NAMES
from ..workloads import WORKLOAD_NAMES, build_workload

#: The one report schema ``validate_report`` accepts.  v5 is v4
#: without the region-JIT columns of the interpreter section.
BENCH_SCHEMA = "repro-bench-interp/v5"

#: Compact default matrix: enough signal to regress against without the
#: full 20x11x5 sweep (use --all for that).
DEFAULT_WORKLOADS = ("sieve", "matrix", "quick", "crc")
DEFAULT_TOOLS = ("dyninst", "prof", "taint")
DEFAULT_OPTS = ("O0", "O1", "O2", "O3", "O4")

#: --compare fails when a cell's excess cycles grow by more than this.
DEFAULT_THRESHOLD = 0.10

#: Separate tolerance for the interpreter insts/sec legs of --compare.
#: Those are wall-clock on a shared host: run-to-run swings of 20-30%
#: under background load are normal, so gating them at the
#: deterministic-cycle threshold just flakes.  This catches collapses
#: (a disabled fast path, an accidentally quadratic step), not jitter.
DEFAULT_IPS_THRESHOLD = 0.35

#: Absolute excess-cycle slack for --compare.  A cell whose baseline
#: excess is zero or negative (instrumentation measured as free on that
#: workload) has no meaningful relative limit; without a floor, any
#: nonzero excess there would gate as an infinite-percentage regression.
EXCESS_CYCLE_FLOOR = 100


def default_report_path() -> Path:
    """``BENCH_interp.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "BENCH_interp.json"


def _best_wall(module, *, fuse: bool, reps: int,
               max_insts=2_000_000_000):
    """(RunResult, best wall seconds) over ``reps`` timed runs + 1 warmup."""
    result = run_module(module, fuse=fuse,
                        max_insts=max_insts)             # warmup
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_module(module, fuse=fuse,
                            max_insts=max_insts)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def measure_interpreter(workloads, reps: int = 3) -> dict:
    """Fused/simple dispatch A/B; asserts bit-identical state before
    any number is reported."""
    out = {}
    for name in workloads:
        module = build_workload(name)
        fused, fused_s = _best_wall(module, fuse=True, reps=reps)
        simple, simple_s = _best_wall(module, fuse=False, reps=reps)
        state = ("cycles", "inst_count", "status", "stdout")
        for field in state:
            if getattr(fused, field) != getattr(simple, field):
                raise AssertionError(
                    f"{name}: fused and per-instruction runs "
                    f"diverge on {field}")
        fused_ips = fused.inst_count / fused_s
        simple_ips = simple.inst_count / simple_s
        out[name] = {
            "insts": fused.inst_count,
            "cycles": fused.cycles,
            "fused_ips": round(fused_ips),
            "simple_ips": round(simple_ips),
            "speedup": round(fused_ips / simple_ips, 3),
        }
    return out


def measure_tools(workloads, tools, opts, jobs: int = 0) -> list[dict]:
    """Instrumented-vs-base cycles and throughput per matrix cell.

    Goes through the shard-aware eval pipeline: artifacts come from the
    on-disk cache when warm, and ``jobs>=1`` fans the cells out over
    worker processes (``0`` keeps the timing single-process, the
    least-noisy default for wall-clock numbers).
    """
    specs = plan_matrix(tools=tools, workloads=workloads, opts=opts,
                        warmup=True)
    rows = []
    for rec in run_matrix(specs, jobs=jobs):
        if rec.status != "ok":
            raise RuntimeError(
                f"bench cell {rec.workload}+{rec.tool}@{rec.opt} "
                f"failed: {rec.error}")
        rows.append({
            "workload": rec.workload,
            "tool": rec.tool,
            "opt": rec.opt,
            "base_cycles": rec.base_cycles,
            "instr_cycles": rec.instr_cycles,
            "cycle_overhead": round(rec.instr_cycles / rec.base_cycles, 3),
            "base_insts": rec.base_insts,
            "instr_insts": rec.instr_insts,
            "base_ips": round(rec.base_insts / rec.base_wall_s),
            "instr_ips": round(rec.instr_insts / rec.instr_wall_s),
        })
    return rows


def overhead_table(rows: list[dict]) -> dict:
    """Aggregate the tools matrix into the paper-style overhead table.

    Per (tool, opt): cycles and instructions summed over the measured
    workloads, instrumented vs uninstrumented, plus the derived overhead
    ratios — the simulated analogue of the paper's Figure 6 columns.
    ``excess_cycles`` (instrumented minus base) is what the regression
    gate compares: it isolates the instrumentation cost from the
    workload's own runtime.
    """
    acc: dict[str, dict[str, dict]] = {}
    for row in rows:
        cell = acc.setdefault(row["tool"], {}).setdefault(
            row["opt"], {"base_cycles": 0, "instr_cycles": 0,
                         "base_insts": 0, "instr_insts": 0})
        for key in ("base_cycles", "instr_cycles", "base_insts",
                    "instr_insts"):
            cell[key] += row[key]
    for per_opt in acc.values():
        for cell in per_opt.values():
            cell["excess_cycles"] = cell["instr_cycles"] \
                - cell["base_cycles"]
            cell["cycle_overhead"] = round(
                cell["instr_cycles"] / cell["base_cycles"], 3)
            cell["inst_overhead"] = round(
                cell["instr_insts"] / cell["base_insts"], 3)
    return acc


#: Workload for the serve section: small enough that daemon round-trip
#: overhead is visible in the numbers, big enough to be real work.
SERVE_WORKLOAD = "fib"
SERVE_WL_ARGS = ("15",)


def measure_serve(requests: int = 6, dup: int = 6,
                  jobs: int = 2) -> dict:
    """Warm-daemon vs cold-process throughput, and dedup-hit latency.

    * **cold** — each request is a fresh ``python -m repro.machine.cli``
      subprocess: full interpreter start + package imports per run, the
      pre-daemon cost model.
    * **warm** — the same requests against a live in-process daemon
      (sequential, so none dedup: every request executes).
    * **dedup** — a burst of ``dup`` *concurrent identical* requests;
      they coalesce onto one execution and the p50 per-request latency
      shows what a dedup hit costs.
    """
    import os
    import subprocess
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from ..serve.client import ServeClient
    from ..serve.daemon import DaemonThread
    from ..workloads import build_workload

    module = build_workload(SERVE_WORKLOAD)
    exe = module.to_bytes()
    with tempfile.TemporaryDirectory(prefix="wrl-bench-serve-") as tdir:
        exe_path = Path(tdir) / f"{SERVE_WORKLOAD}.wof"
        exe_path.write_bytes(exe)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2])
        env.pop("WRL_SERVER", None)

        t0 = time.perf_counter()
        for _ in range(requests):
            subprocess.run(
                [sys.executable, "-m", "repro.machine.cli",
                 str(exe_path), *SERVE_WL_ARGS],
                env=env, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        cold_s = time.perf_counter() - t0

        sock = Path(tdir) / "serve.sock"
        with DaemonThread(socket_path=sock, jobs=jobs,
                          cache_root=Path(tdir) / "cache"):
            client = ServeClient(sock, timeout=600.0)
            client.run_exe(exe, args=SERVE_WL_ARGS)       # warmup
            t0 = time.perf_counter()
            for _ in range(requests):
                client.run_exe(exe, args=SERVE_WL_ARGS)
            warm_s = time.perf_counter() - t0

            before = client.stats()["dedup_hits"]
            lat: list[float] = []

            def one(_):
                t = time.perf_counter()
                client.run_exe(exe, args=SERVE_WL_ARGS)
                lat.append((time.perf_counter() - t) * 1000.0)

            with ThreadPoolExecutor(max_workers=dup) as tp:
                list(tp.map(one, range(dup)))
            dedup_hits = client.stats()["dedup_hits"] - before

    from ..obs import percentile
    cold_rps = requests / cold_s
    warm_rps = requests / warm_s
    return {
        "workload": SERVE_WORKLOAD,
        "requests": requests,
        "jobs": jobs,
        "cold_rps": round(cold_rps, 2),
        "warm_rps": round(warm_rps, 2),
        "speedup": round(warm_rps / cold_rps, 2),
        "dedup_burst": dup,
        "dedup_hits": dedup_hits,
        "dedup_latency_ms_p50": round(percentile(sorted(lat), 0.5), 2),
    }


def measure_serve_isolated() -> dict:
    """``measure_serve`` in a fresh subprocess.

    A full bench run accumulates a large heap before the serve section;
    forking daemon workers from it drags every measurement down with
    inherited GC pressure.  A real ``wrl-serve`` is its own lean
    process, so measure from one: spawn a clean interpreter that runs
    ``measure_serve()`` and prints the row as JSON.
    """
    import os
    import subprocess
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2])
    env.pop("WRL_SERVER", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from repro.perf.bench import measure_serve; "
         "print(json.dumps(measure_serve()))"],
        env=env, check=True, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, timeout=600)
    return json.loads(proc.stdout)


def run_bench(workloads=DEFAULT_WORKLOADS, tools=DEFAULT_TOOLS,
              opts=DEFAULT_OPTS, reps: int = 3, jobs: int = 0,
              serve: bool = True) -> dict:
    """Run the sections and assemble the report."""
    tool_rows = measure_tools(workloads, tools, opts, jobs=jobs)
    return {
        **({"serve": measure_serve_isolated()} if serve else {}),
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "config": {
            "workloads": list(workloads),
            "tools": list(tools),
            "opts": list(opts),
            "reps": reps,
        },
        "interpreter": measure_interpreter(workloads, reps=reps),
        "tools": tool_rows,
        "overhead": overhead_table(tool_rows),
    }


def validate_report(report: dict) -> None:
    """Raise ValueError when ``report`` does not match the schema."""
    def need(cond, what):
        if not cond:
            raise ValueError(f"bad bench report: {what}")

    need(isinstance(report, dict), "not an object")
    need(report.get("schema") == BENCH_SCHEMA,
         f"schema is not {BENCH_SCHEMA!r}")
    for key in ("created", "host", "config", "interpreter", "tools"):
        need(key in report, f"missing key {key!r}")
    need(isinstance(report.get("overhead"), dict),
         "report missing overhead table")
    for tool, per_opt in report["overhead"].items():
        for opt, cell in per_opt.items():
            for key in ("base_cycles", "instr_cycles", "excess_cycles",
                        "cycle_overhead", "inst_overhead"):
                need(key in cell,
                     f"overhead[{tool!r}][{opt!r}] missing {key!r}")
    need(isinstance(report["interpreter"], dict) and report["interpreter"],
         "empty interpreter section")
    for name, row in report["interpreter"].items():
        for key in ("insts", "cycles", "fused_ips", "simple_ips",
                    "speedup"):
            need(key in row, f"interpreter[{name!r}] missing {key!r}")
            need(isinstance(row[key], (int, float)) and row[key] > 0,
                 f"interpreter[{name!r}][{key!r}] not positive")
    need(isinstance(report["tools"], list), "tools section not a list")
    for i, row in enumerate(report["tools"]):
        for key in ("workload", "tool", "opt", "base_cycles",
                    "instr_cycles", "cycle_overhead", "base_insts",
                    "instr_insts", "base_ips", "instr_ips"):
            need(key in row, f"tools[{i}] missing {key!r}")
    if "serve" in report:
        # The daemon throughput section is optional (--no-serve smoke
        # runs omit it); the committed baseline must carry it — a
        # tier-1 test pins that.
        serve = report["serve"]
        need(isinstance(serve, dict), "serve section not an object")
        for key in ("workload", "requests", "cold_rps", "warm_rps",
                    "speedup", "dedup_hits", "dedup_latency_ms_p50"):
            need(key in serve, f"serve section missing {key!r}")
        for key in ("cold_rps", "warm_rps", "speedup"):
            need(isinstance(serve[key], (int, float)) and serve[key] > 0,
                 f"serve[{key!r}] not positive")


def _same_host(old: dict, new: dict) -> bool:
    keys = ("implementation", "machine", "system")
    return all(old.get("host", {}).get(k) == new.get("host", {}).get(k)
               for k in keys)


def compare_reports(old: dict, new: dict,
                    threshold: float = DEFAULT_THRESHOLD,
                    ips_threshold: float = DEFAULT_IPS_THRESHOLD
                    ) -> list[str]:
    """Regression check NEW against the baseline OLD.

    Returns a list of human-readable regression descriptions (empty =
    clean).  Two families of checks:

    * **cycle overhead** (deterministic): for every (workload, tool,
      opt) cell present in both reports, the instrumented-minus-base
      excess cycles may not grow by more than ``threshold`` (relative,
      against the baseline clamped to zero, plus an absolute slack of
      ``EXCESS_CYCLE_FLOOR`` cycles so near-zero baselines don't turn
      tiny absolute growth into gate failures); brand-new cells are
      never regressions.
    * **interpreter throughput** (wall clock): fused insts/sec may not
      drop by more than ``ips_threshold`` — but only when both
      reports come from the same host class, since insts/sec on
      different machines is noise, not signal.  The wider default
      tolerance reflects that even same-host wall clock moves with
      background load; this leg exists to catch throughput collapses,
      not jitter.
    """
    regressions: list[str] = []

    old_cells = {(r["workload"], r["tool"], r["opt"]): r
                 for r in old.get("tools", [])}
    for row in new.get("tools", []):
        key = (row["workload"], row["tool"], row["opt"])
        base = old_cells.get(key)
        if base is None:
            continue
        old_excess = base["instr_cycles"] - base["base_cycles"]
        new_excess = row["instr_cycles"] - row["base_cycles"]
        limit = max(old_excess, 0) * (1.0 + threshold) + EXCESS_CYCLE_FLOOR
        if new_excess > limit:
            if old_excess > 0:
                detail = (f"+{100.0 * (new_excess - old_excess) / old_excess:.1f}%, "
                          f"limit +{100.0 * threshold:.0f}%")
            else:
                # No meaningful relative growth against a zero/negative
                # baseline: report the absolute gate instead.
                detail = f"limit {limit:.0f} excess cycles"
            regressions.append(
                f"{key[0]}+{key[1]}@{key[2]}: excess cycles "
                f"{old_excess} -> {new_excess} ({detail})")

    if _same_host(old, new):
        for name, row in new.get("interpreter", {}).items():
            base = old.get("interpreter", {}).get(name)
            if base is None:
                continue
            if row["fused_ips"] < base["fused_ips"] * (1.0 - ips_threshold):
                regressions.append(
                    f"interpreter {name}: fused insts/s "
                    f"{base['fused_ips']:,} -> {row['fused_ips']:,} "
                    f"(limit -{100.0 * ips_threshold:.0f}%)")
        old_serve, new_serve = old.get("serve"), new.get("serve")
        if old_serve and new_serve:
            # Same wall-clock caveat as the interpreter legs: this
            # catches the daemon hot path collapsing (lost warm pool,
            # lost batching), not host-load jitter.
            floor = old_serve["warm_rps"] * (1.0 - ips_threshold)
            if new_serve["warm_rps"] < floor:
                regressions.append(
                    f"serve: warm req/s {old_serve['warm_rps']} -> "
                    f"{new_serve['warm_rps']} "
                    f"(limit -{100.0 * ips_threshold:.0f}%)")
    return regressions


def load_report(path: Path | None = None) -> dict | None:
    """Load and validate a committed report; None when absent."""
    path = path or default_report_path()
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    validate_report(report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the WRL-64 interpreter and tool matrix.")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--tools", default=",".join(DEFAULT_TOOLS),
                        help="comma-separated tool names")
    parser.add_argument("--opts", default=",".join(DEFAULT_OPTS),
                        help="comma-separated opt levels (O0..O4)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two bench reports instead of "
                             "running: exit 1 when NEW regresses "
                             "against OLD")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="relative regression tolerance for "
                             "--compare (default 0.10)")
    parser.add_argument("--ips-threshold", type=float,
                        default=DEFAULT_IPS_THRESHOLD,
                        help="tolerance for the same-host interpreter "
                             "insts/sec legs of --compare (wall clock "
                             "jitters with host load; default 0.35)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per interpreter cell")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the tools matrix "
                             "(0 = in-process, least timing noise)")
    parser.add_argument("--all", action="store_true",
                        help="full matrix: every workload and tool")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one workload, one tool, one "
                             "opt, no serve section")
    parser.add_argument("--serve", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="measure the wrl-serve daemon section "
                             "(default: on, off with --quick)")
    parser.add_argument("--out", default=str(default_report_path()),
                        help="report path (default: repo root)")
    parser.add_argument("--trace", default=trace_path_from_env(),
                        metavar="PATH",
                        help="capture a structured trace of the bench "
                             "run (.json = Chrome trace, .jsonl = line-"
                             "delimited; default: $WRL_TRACE). Note: "
                             "tracing perturbs wall-clock numbers")
    args = parser.parse_args(argv)

    if args.compare:
        if not 0 <= args.threshold < 1:
            parser.error("--threshold must be in [0, 1)")
        if not 0 <= args.ips_threshold < 1:
            parser.error("--ips-threshold must be in [0, 1)")
        old_path, new_path = (Path(p) for p in args.compare)
        for p in (old_path, new_path):
            if not p.exists():
                parser.error(f"--compare: {p} does not exist")
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
        validate_report(old)
        validate_report(new)
        regressions = compare_reports(old, new, threshold=args.threshold,
                                      ips_threshold=args.ips_threshold)
        if regressions:
            print(f"{len(regressions)} regression(s) vs {old_path}:")
            for line in regressions:
                print(f"  REGRESSION {line}")
            return 1
        print(f"no regressions vs {old_path} "
              f"(threshold {args.threshold:.0%})")
        return 0

    workloads = tuple(args.workloads.split(","))
    tools = tuple(args.tools.split(","))
    opts = tuple(args.opts.split(","))
    if args.all:
        workloads, tools = WORKLOAD_NAMES, TOOL_NAMES
    if args.quick:
        workloads, tools, opts = workloads[:1], tools[:1], opts[:1]
    serve = args.serve if args.serve is not None else not args.quick

    if args.reps < 1:
        parser.error("--reps must be at least 1")
    for name, known, flag in (
            (workloads, WORKLOAD_NAMES, "--workloads"),
            (tools, TOOL_NAMES, "--tools"),
            (opts, tuple(level.name for level in OptLevel), "--opts")):
        unknown = [n for n in name if n not in known]
        if unknown:
            parser.error(f"{flag}: unknown {', '.join(unknown)} "
                         f"(choose from {', '.join(known)})")

    out = Path(args.out)
    if not out.parent.is_dir():
        parser.error(f"--out: directory {out.parent} does not exist")

    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.trace:
        TRACE.reset()
        TRACE.enable()
    try:
        with TRACE.span("wrl-bench", "bench"):
            report = run_bench(workloads, tools, opts, reps=args.reps,
                               jobs=args.jobs, serve=serve)
    finally:
        if args.trace:
            TRACE.write(args.trace)
            TRACE.disable()
            print(f"wrote trace to {args.trace}")
    validate_report(report)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.out}")
    for name, row in report["interpreter"].items():
        print(f"  {name}: fused {row['fused_ips']:,} insts/s, "
              f"simple {row['simple_ips']:,} insts/s "
              f"({row['speedup']}x)")
    for row in report["tools"]:
        print(f"  {row['workload']}+{row['tool']}@{row['opt']}: "
              f"{row['cycle_overhead']}x cycles, "
              f"{row['instr_ips']:,} insts/s instrumented")
    print("  overhead (all measured workloads summed):")
    for tool, per_opt in sorted(report["overhead"].items()):
        cells = "  ".join(f"{opt}={cell['cycle_overhead']}x"
                          for opt, cell in sorted(per_opt.items()))
        print(f"    {tool}: {cells}")
    if "serve" in report:
        row = report["serve"]
        print(f"  serve ({row['workload']}): warm {row['warm_rps']} "
              f"req/s vs cold {row['cold_rps']} req/s "
              f"({row['speedup']}x), dedup burst {row['dedup_hits']}/"
              f"{row['dedup_burst'] - 1} hits at "
              f"{row['dedup_latency_ms_p50']}ms p50")
    return 0


if __name__ == "__main__":
    sys.exit(main())
