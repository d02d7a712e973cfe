"""fig6-run: the paper's Figure 6, run-time cost of instrumented programs.

One caller, in process.  Set-up builds 24 instrumented cells (every
tool at O1 and O4) and keeps the plain programs they came from.  Each
op is one run of one executable at one scale argument through
``run_instrumented`` or ``run_uninstrumented``: loader, fused dispatch,
region JIT, memory, syscalls and cost model, with no rewriting.
The first op on each executable is cold (its region compiles happen
then, as in every fresh ``wrl-run`` process); later ones are warm.
"""

from __future__ import annotations


from . import gen, measure, menus, report
from .phase import OpTimer, Outcome, Sequential

NAME = "fig6-run"
#: Rounds of an untraced run: two cover all 24 cells and pass the
#: 100-op floor.
ROUNDS = 2

#: RunResult.jit_stats counters reported per op.
JIT_COUNTERS = ("jit_compiled", "jit_cache_hits", "jit_regions",
                "jit_denied", "jit_evictions")


class Fig6(Sequential):
    def __init__(self, seed: int, oracle):
        self.seed = seed
        self.oracle = oracle
        self.warm: set = set()
        self.base_cycles: dict[tuple[str, str], int] = {}
        self.instr_cycles: dict[tuple[gen.Cell, str], int] = {}
        self.runs: list[dict] = []

    def setup(self, box, spans=None) -> None:
        """Compile into the run's fresh cache, then build the cells."""
        from repro.atom import OptLevel
        from repro.eval import (analysis_unit_for, apply_tool,
                                run_instrumented, run_uninstrumented)
        from repro.objfile.sections import TEXT
        from repro.tools import get_tool
        from repro.workloads import build_workload
        self._run = {True: run_instrumented, False: run_uninstrumented}
        self.apps = {w: build_workload(w) for w in menus.WORKLOADS}
        tools = {t: get_tool(t) for t in menus.TOOLS}
        for tool in tools.values():
            analysis_unit_for(tool)
        self.cells = {c: apply_tool(self.apps[c.workload], tools[c.tool],
                                    opt=OptLevel[c.opt])
                      for c in gen.fig6_cells(self.seed)}
        self.cell_stats = {
            c: {"atom.points": r.stats.points,
                "atom.calls_added": r.stats.calls_added,
                "atom.snippet_insts": r.stats.snippet_insts,
                "atom.inlined_calls": r.stats.inlined_calls,
                "atom.text_bytes": len(r.module.section(TEXT).data)}
            for c, r in self.cells.items()}

    def rounds(self):
        return gen.fig6_rounds(self.seed)

    def execute(self, op: gen.RunOp, spans=None, op_id: int = 0) -> Outcome:
        instrumented = op.cell is not None
        exe = self.cells[op.cell] if instrumented else self.apps[op.workload]
        run = self._run[instrumented]
        exe_key = op.cell or op.workload
        cold = exe_key not in self.warm
        self.warm.add(exe_key)
        timer = OpTimer()
        try:
            if spans is None:
                result = run(exe, args=(op.arg,))
            else:
                result = spans.call("op", op_id, run, exe, args=(op.arg,))
        except Exception as exc:                         # noqa: BLE001
            return timer.stop(f"{op}: {type(exc).__name__}: {exc}", cold)
        out = timer.stop(cold=cold)
        error = out.error = self.oracle.check_run(
            op.workload, op.arg, result.status, result.stdout)
        if error is None:
            if instrumented:
                self.instr_cycles[(op.cell, op.arg)] = result.cycles
            else:
                self.base_cycles[(op.workload, op.arg)] = result.cycles
        if spans is not None:
            row = {"op": op_id, "cold": cold, "cell": op.cell,
                   "machine.insts": result.inst_count,
                   "machine.cycles": result.cycles}
            for name in JIT_COUNTERS:
                row["machine." + name] = (result.jit_stats or {}).get(name, 0)
            self.runs.append(row)
        return out

    def finish(self, box) -> tuple[dict, list[str], int]:
        """Peak RSS and the cycle ratio: the geometric mean of
        instrumented / uninstrumented cycles over the distinct (cell,
        argument) pairs the phase ran.  Rounds repeat pairs exactly, so
        the ratio does not depend on how many rounds a run fitted in: it
        is fixed by the seed."""
        ratios = [cycles / self.base_cycles[(cell.workload, arg)]
                  for (cell, arg), cycles in self.instr_cycles.items()
                  if (cell.workload, arg) in self.base_cycles]
        return ({"peak_rss_mb": measure.own_peak_rss_mb(),
                 "sim_cycles_ratio": measure.geomean(ratios) if ratios
                 else 0.0}, [], 0)

    def layer_counts(self, spans) -> dict[str, float]:
        instrumented = [self.cell_stats[r["cell"]] for r in self.runs
                        if r["cell"] is not None]
        return {**report.mean_counts(instrumented, report.ATOM_COUNTS),
                **report.mean_counts(self.runs, report.MACHINE_COUNTS),
                **report.insts_per_s(self.runs, report.span_ns_by_op(
                    spans, "machine.exec"))}
