"""The timed phase: its stopping rule, its ledger, and the loop the
in-process workloads share."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import measure, report

#: A phase that cannot finish its rounds stops here; the run then fails
#: for want of samples instead of running past its time limit.
HARD_STOP_S = 100.0


def cpu_clock() -> float:
    """The clock of the in-process workloads' ops and phases: CPU time
    of this process, in seconds.  Their ops run on the calling thread
    and do no I/O, so on an idle machine it reads what the wall clock
    reads; unlike the wall clock it leaves out time in which the vCPU
    ran other work, inside the virtual machine or, as steal time,
    outside it."""
    return time.process_time()


class OpTimer:
    """Times one in-process op on the CPU clock, and on the wall clock
    for the log."""

    def __init__(self):
        self.cpu0 = cpu_clock()
        self.wall0 = time.perf_counter()

    def stop(self, error: str | None = None, cold: bool = False) -> Outcome:
        return Outcome((cpu_clock() - self.cpu0) * 1e3, error, cold,
                       wall_ms=(time.perf_counter() - self.wall0) * 1e3)


@dataclass
class Outcome:
    """One executed op: its time on the workload's clock (CPU in
    process, wall in serve-mix), and why it failed (None if not)."""

    ms: float
    error: str | None = None
    #: First op on its executable (fig6-run): region compiles happen here.
    cold: bool = False
    traced: bool = False
    op: int = 0
    #: The same op on the wall clock (equal to ``ms`` where that is
    #: already wall time, as in serve-mix).
    wall_ms: float = 0.0


@dataclass
class Ledger:
    """Everything a phase measured."""

    outcomes: list[Outcome] = field(default_factory=list)
    #: What ops_per_s divides by: the phase's CPU time in process, its
    #: wall time in serve-mix.
    phase_s: float = 0.0
    wall_s: float = 0.0
    rounds: int = 0

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is None]

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is not None]

    def end_to_end(self) -> dict[str, float]:
        """ops_per_s and the latency percentiles over completed ops."""
        return self._summary([o.ms for o in self.ok], self.phase_s)

    def wall_clock(self) -> dict[str, float]:
        """The same, as the wall clock read them (logged, not reported)."""
        return self._summary([o.wall_ms for o in self.ok], self.wall_s)

    @staticmethod
    def _summary(ms: list[float], phase_s: float) -> dict[str, float]:
        return {"ops_per_s": len(ms) / phase_s,
                "op_ms.p50": measure.percentile(ms, 0.50),
                "op_ms.p90": measure.percentile(ms, 0.90)}


def done(ledger: Ledger, started: float, seconds: float,
         rounds: int | None) -> bool:
    """Whether the phase ends here.  Untraced (``rounds`` given): after
    exactly ``rounds`` rounds, however long they took, so every run of a
    workload does the same work and a faster program finishes sooner
    instead of doing more.  Traced (``rounds`` None): once ``seconds``
    have passed.  Either way at the hard stop."""
    elapsed = time.perf_counter() - started
    if elapsed >= HARD_STOP_S:
        return True
    if rounds is None:
        return elapsed >= seconds
    return ledger.rounds >= rounds


class Sequential:
    """An in-process workload: one caller, closed loop, each op started
    when the last returned.  Subclasses give ``rounds``, ``execute``,
    ``setup``, ``finish`` and ``layer_counts``."""

    def phase(self, seconds: float, rounds: int | None,
              spans=None) -> Ledger:
        """Untraced, every op runs once and the phase runs ``rounds``
        whole balanced rounds.  Traced, every op runs twice, once with
        the layer wrappers installed and once without, in alternating
        order; the traced copy feeds the per-layer metrics, the pair
        measures the tracing overhead on identical work, and the phase
        may end after any op (it reports no percentiles)."""
        ledger = Ledger()
        started = time.perf_counter()
        started_cpu = cpu_clock()
        op_id = 0
        for rnd in self.rounds():
            for op in rnd:
                if spans is None:
                    ledger.outcomes.append(self.execute(op))
                else:
                    order = (None, spans) if op_id % 2 == 0 \
                        else (spans, None)
                    for tracer in order:
                        out = self.execute(op, tracer, op_id)
                        out.traced = tracer is not None
                        out.op = op_id
                        ledger.outcomes.append(out)
                op_id += 1
                if spans is not None and done(ledger, started, seconds,
                                              rounds):
                    break
            else:
                ledger.rounds += 1
            if done(ledger, started, seconds, rounds):
                break
        ledger.phase_s = cpu_clock() - started_cpu
        ledger.wall_s = time.perf_counter() - started
        return ledger

    def layer_values(self, spans, ledger: Ledger) -> dict[str, float]:
        """Per-layer values of the traced run."""
        ops = {o.op for o in ledger.outcomes if o.traced}
        out = report.span_layers(spans, ops)
        out["trace_overhead"] = trace_overhead(ledger)
        out.update(self.layer_counts(spans))
        return out


def trace_overhead(ledger: Ledger) -> float:
    """Geometric mean of traced / untraced time over op pairs whose
    executions were both warm (a cold first run would charge region
    compiles to one side).  Each pair counts once, so a few long runs
    cannot swamp the estimate."""
    pairs: dict[int, dict[bool, Outcome]] = {}
    for out in ledger.outcomes:
        pairs.setdefault(out.op, {})[out.traced] = out
    ratios = [pair[True].ms / pair[False].ms for pair in pairs.values()
              if len(pair) == 2 and not any(o.cold or o.error
                                            for o in pair.values())]
    return measure.geomean(ratios) if ratios else 0.0
