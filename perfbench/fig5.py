"""fig5-instrument: the paper's Figure 5, time to instrument.

One caller, in process.  Each op is one whole ATOM rewrite,
``apply_tool(app, tool, opt=..., cache=None)``: the tool's Instrument
routine, atom, om and the objfile codec, with no simulated execution.
A change to atom or om must show here; a change to the machine must
not.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter

from . import gen, measure, menus, report
from .phase import OpTimer, Outcome, Sequential

NAME = "fig5-instrument"
#: Rounds of an untraced run: nine 12-op rounds (five at O1, four at
#: O4) pass the 100-op floor.
ROUNDS = 9


class Fig5(Sequential):
    def __init__(self, seed: int, oracle):
        self.seed = seed
        self.oracle = oracle
        self.digests: dict[gen.Cell, str] = {}
        self.check_cells = gen.fig5_check_cells(seed)
        # Only cells rewritten more than once have anything to compare,
        # and only the check cells are run after the phase: the rest are
        # not serialised, so the phase times the program's rewrites.
        planned = Counter(c for rnd in itertools.islice(
            gen.fig5_rounds(seed), ROUNDS) for c in rnd)
        self.compared = {c for c, n in planned.items() if n > 1} | \
            set(self.check_cells)
        self.kept: dict[gen.Cell, tuple[bytes, object]] = {}
        self.stats: list[dict] = []

    def setup(self, box, spans=None) -> None:
        """Compile the 20 workloads and the 12 analysis units from
        source into the run's fresh artifact cache."""
        from repro.atom import OptLevel
        from repro.eval import analysis_unit_for, apply_tool
        from repro.objfile.sections import TEXT
        from repro.tools import get_tool
        from repro.workloads import build_workload
        self._apply_tool, self._opt, self._text = apply_tool, OptLevel, TEXT
        self.apps = {w: build_workload(w) for w in menus.WORKLOADS}
        self.tools = {t: get_tool(t) for t in menus.TOOLS}
        for tool in self.tools.values():
            analysis_unit_for(tool)

    def rounds(self):
        return gen.fig5_rounds(self.seed)

    def execute(self, cell: gen.Cell, spans=None, op_id: int = 0) -> Outcome:
        app = self.apps[cell.workload]
        tool = self.tools[cell.tool]
        opt = self._opt[cell.opt]
        timer = OpTimer()
        try:
            if spans is None:
                result = self._apply_tool(app, tool, opt=opt, cache=None)
            else:
                result = spans.call("op", op_id, self._apply_tool, app,
                                    spans.wrap_tool(tool), opt=opt,
                                    cache=None)
        except Exception as exc:                         # noqa: BLE001
            return timer.stop(f"{cell}: {type(exc).__name__}: {exc}")
        out = timer.stop()
        out.error = self._check(cell, result, spans is not None)
        return out

    def _check(self, cell: gen.Cell, result, traced: bool) -> str | None:
        """Repeated cells must rewrite to byte-identical executables."""
        if traced:
            s = result.stats
            self.stats.append({
                "atom.points": s.points, "atom.calls_added": s.calls_added,
                "atom.snippet_insts": s.snippet_insts,
                "atom.inlined_calls": s.inlined_calls,
                "atom.text_bytes": len(result.module.section(
                    self._text).data)})
        if cell not in self.compared:
            return None
        image = result.module.to_bytes()
        digest = hashlib.sha256(image).hexdigest()
        first = self.digests.setdefault(cell, digest)
        if cell in self.check_cells:
            # Kept as bytes: 12 live modules would add more to this
            # process's peak RSS than the rewrites themselves.
            self.kept.setdefault(cell, (image, result.stats))
        if digest != first:
            return f"{cell}: rewrite differs from an earlier one"
        return None

    def layer_counts(self, spans) -> dict[str, float]:
        return report.mean_counts(self.stats, report.ATOM_COUNTS)

    def finish(self, box) -> tuple[dict, list[str], int]:
        """Peak RSS, then run one instrumented output per tool (its
        check cell) at the workload's short argument, next to the plain
        program: (values, failures, checks run).

        The region JIT is off here: these are cold short runs, where its
        compiles cost two to three times the run, and it is bit-identical
        by design (fig6-run and serve-mix run with it on).
        """
        values = {"peak_rss_mb": measure.own_peak_rss_mb()}
        from repro.atom import InstrumentResult
        from repro.eval import run_instrumented, run_uninstrumented
        from repro.objfile.module import Module
        errors, ratios = [], []
        base_runs = {}
        # An untraced run rewrites every check cell in its first two
        # rounds; a traced run that stopped sooner checks the ones it
        # rewrote (a rewrite that raised is already a failed op).
        checked = [c for c in self.check_cells if c in self.kept]
        for cell in checked:
            arg = menus.SCALE_ARGS[cell.workload][0]
            image, stats = self.kept[cell]
            try:
                result = InstrumentResult(Module.from_bytes(image), stats,
                                          plans=None)
                instr = run_instrumented(result, args=(arg,), jit=False)
                base = base_runs.get(cell.workload)
                if base is None:
                    base = base_runs[cell.workload] = run_uninstrumented(
                        self.apps[cell.workload], args=(arg,), jit=False)
            except Exception as exc:                     # noqa: BLE001
                errors.append(f"{cell}: {type(exc).__name__}: {exc}")
                continue
            bad = (self.oracle.check_run(cell.workload, arg, instr.status,
                                         instr.stdout)
                   or self.oracle.check_run(cell.workload, arg,
                                            base.status, base.stdout))
            if bad:
                errors.append(f"{cell}: {bad}")
            else:
                ratios.append(instr.cycles / base.cycles)
        values["sim_cycles_ratio"] = measure.geomean(ratios) if ratios \
            else 0.0
        return values, errors, len(checked)
