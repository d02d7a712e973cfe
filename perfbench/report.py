"""Metric names, units and their computation from what a run measured.

Untraced runs report ``END_TO_END``; the traced run reports
``PER_LAYER``.  Both lists are the ones ``BENCHMARK.json`` declares
(a self-test holds them equal).  Every workload reports every name: a
layer a workload does not enter reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from . import layers

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"), ("peak_rss_mb", "MB"), ("sim_cycles_ratio", "x"),
)

#: Timed layer spans, reported inclusive (``<span>_ms``) and self
#: (``<span>.self_ms``), in ms per op; mlc in ms per set-up.  The atom
#: span (``instrument_executable``) is reported by its self time only.
_SPAN_METRICS = [s for s in layers.TIMED if s != "atom.instrument"]

ATOM_COUNTS = ("atom.points", "atom.calls_added", "atom.snippet_insts",
               "atom.inlined_calls", "atom.text_bytes")
MACHINE_COUNTS = ("machine.insts", "machine.cycles", "machine.jit_compiled",
                  "machine.jit_cache_hits", "machine.jit_regions",
                  "machine.jit_denied", "machine.jit_evictions")

PER_LAYER = tuple(
    [(f"{s}_ms", "ms") for s in _SPAN_METRICS]
    + [(f"{s}.self_ms", "ms") for s in _SPAN_METRICS]
    + [("atom.self_ms", "ms"), ("mlc.units", "count")]
    + [(name, "count") for name in ATOM_COUNTS + MACHINE_COUNTS]
    + [("machine.insts_per_s.cold", "1/s"),
       ("machine.insts_per_s.warm", "1/s"),
       ("serve.ready_ms", "ms"), ("serve.admit_ms", "ms"),
       ("serve.queue_ms", "ms"), ("serve.exec_ms", "ms"),
       ("serve.dedup_share", "share"), ("serve.batch_size.mean", "count"),
       ("serve.errors", "count"), ("serve.pool_rebuilds", "count"),
       ("eval.cache_hit_share", "share"), ("worker.task_ms", "ms"),
       ("serve.pool_ms", "ms"), ("unattributed_share", "share"),
       ("trace_overhead", "x")])

UNITS = dict(END_TO_END + PER_LAYER)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def document(values: dict[str, float], correct: bool, attempted: int,
             failed: int) -> dict:
    """The result line: every declared metric with its unit."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                        for name in values}}


def span_layers(spans: layers.Spans, ops: set[int]) -> dict[str, float]:
    """Inclusive and self ms per op for every timed span over ``ops``,
    mlc from the set-up spans (op -1), and the unattributed share."""
    out: dict[str, float] = {}
    totals = spans.totals(ops)
    n = max(len(ops), 1)
    for span in _SPAN_METRICS:
        row = totals.get(span, {"ns": 0, "self_ns": 0})
        out[f"{span}_ms"] = row["ns"] / 1e6 / n
        out[f"{span}.self_ms"] = row["self_ns"] / 1e6 / n
    out["atom.self_ms"] = \
        totals.get("atom.instrument", {"self_ns": 0})["self_ns"] / 1e6 / n
    setup = spans.totals({-1}).get("mlc.compile",
                                   {"count": 0, "ns": 0, "self_ns": 0})
    out["mlc.compile_ms"] = setup["ns"] / 1e6
    out["mlc.compile.self_ms"] = setup["self_ns"] / 1e6
    out["mlc.units"] = setup["count"]
    root = totals.get("op", {"ns": 0, "self_ns": 0})
    out["unattributed_share"] = \
        root["self_ns"] / root["ns"] if root["ns"] else 0.0
    return out


def span_ns_by_op(spans: layers.Spans, name: str) -> dict[int, int]:
    """Total duration of ``name`` spans per op."""
    out: dict[int, int] = defaultdict(int)
    for rec in spans.records:
        if rec is not None and rec[0] == name:
            out[rec[4]] += rec[2] - rec[1]
    return out


def mean_counts(rows: list[dict], names) -> dict[str, float]:
    """Each named count averaged over ``rows`` (a missing count is 0)."""
    return {name: _mean(r.get(name, 0) for r in rows) for name in names}


def insts_per_s(rows: list[dict], exec_ns: dict[int, int]) -> dict:
    """The interpreter's speed on cold (first) and warm runs: retired
    instructions over ``Machine.run`` time, per traced op."""
    out = {}
    for label, cold in (("cold", True), ("warm", False)):
        picked = [r for r in rows if r["cold"] == cold]
        ns = sum(exec_ns.get(r["op"], 0) for r in picked)
        insts = sum(r["machine.insts"] for r in picked)
        out[f"machine.insts_per_s.{label}"] = insts * 1e9 / ns if ns else 0.0
    return out


def zero_fill(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer name, with 0 where the workload has no value."""
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}


def end_to_end(values: dict[str, float]) -> dict[str, float]:
    return {name: float(values[name]) for name, _ in END_TO_END}

