"""The traced run's own spans, and the wrappers that record them.

Spans are kept in memory by this module, never by ``repro.obs.TRACE``,
so a change to the program's tracer cannot change this accounting.
Each span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is
the index of the enclosing span (-1 for an op's root span) and ``op``
the id of the op or request it belongs to.  A span's self time is its
duration minus the durations of its direct children.

Wrappers go around the public calls each layer is entered through, as
its callers name them, and are installed only while a traced op runs
(``Spans.installed``); untraced ops run the program untouched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (module, class or None, attribute, span name).  Each layer is timed
#: where the layer above calls it: om and most of atom as
#: ``repro.atom.instrument`` imported them, the compiler as
#: ``repro.workloads`` and ``repro.eval.runner`` imported it.
TARGETS = (
    ("repro.workloads", None, "build_executable", "mlc.compile"),
    ("repro.eval.runner", None, "build_analysis_unit", "mlc.compile"),
    ("repro.eval.runner", None, "instrument_executable", "atom.instrument"),
    ("repro.atom.instrument", None, "build_ir", "om.build_ir"),
    ("repro.atom.instrument", None, "Liveness", "om.liveness"),
    ("repro.atom.instrument", None, "emit", "om.emit"),
    ("repro.atom.instrument", None, "compute_plans", "atom.saves"),
    ("repro.atom.instrument", None, "relocate_unit", "objfile.relocate"),
    ("repro.atom.lowering", "Lowerer", "snippet", "atom.lowering"),
    ("repro.objfile.module", "Module", "from_bytes", "objfile.codec"),
    ("repro.objfile.module", "Module", "to_bytes", "objfile.codec"),
    ("repro.machine.loader", "Machine", "__post_init__", "machine.load"),
    ("repro.machine.loader", "Machine", "run", "machine.exec"),
)

#: Timed spans reported per layer, in report order (the tool's
#: Instrument routine is wrapped per op, see ``wrap_tool``).
TIMED = ("mlc.compile", "tools.instrument", "om.build_ir", "om.liveness",
         "om.emit", "atom.saves", "atom.lowering", "atom.instrument",
         "objfile.codec", "objfile.relocate", "machine.load",
         "machine.exec")


class Spans:
    """In-memory span store plus the wrapper set that feeds it."""

    def __init__(self):
        self.records: list[tuple | None] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._patches: list[tuple[object, str, object, object]] = []
        for module, cls, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                # A renamed call site loses its layer, not the run.
                print(f"perfbench: cannot trace {module}:{cls or ''}.{attr};"
                      f" its layer reads 0", file=sys.stderr)
                continue
            self._patches.append((owner, attr, original,
                                  self._wrap_attr(original, name)))

    # ---- recording -----------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        records, stack = self.records, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                records[idx] = (name, t0, clock(), parent, self.op)
                stack.pop()
        return traced

    def _wrap_attr(self, original, name: str):
        if isinstance(original, classmethod):
            return classmethod(self.wrap(name, original.__func__))
        return self.wrap(name, original)

    def wrap_tool(self, tool):
        """A copy of ``tool`` whose Instrument routine is traced."""
        return dataclasses.replace(
            tool, instrument=self.wrap("tools.instrument", tool.instrument))

    def add(self, name: str, t0_ns: int, t1_ns: int, parent: int = -1,
            op: int | None = None) -> int:
        """Record a span measured elsewhere; returns its index."""
        self.records.append((name, t0_ns, t1_ns, parent,
                             self.op if op is None else op))
        return len(self.records) - 1

    def call(self, name: str, op: int, fn, *args, **kwargs):
        """Run ``fn`` as op ``op``: wrappers installed, under a root
        span ``name`` whose self time is the op's unattributed time."""
        self.op = op
        with self.installed():
            return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """The program with every wrapper in place."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # ---- summaries -----------------------------------------------------

    def totals(self, ops: set[int]) -> dict[str, dict]:
        """Per span name: count, inclusive and self nanoseconds, over
        the spans of ``ops``."""
        child_ns: dict[int, int] = defaultdict(int)
        for rec in self.records:
            if rec is not None and rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "ns": 0, "self_ns": 0})
        for idx, rec in enumerate(self.records):
            if rec is None or rec[4] not in ops:
                continue
            dur = rec[2] - rec[1]
            row = out[rec[0]]
            row["count"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child_ns[idx]
        return dict(out)

    def write(self, path: Path, **meta) -> None:
        """All spans as one JSON file: names interned, times in ns."""
        names: dict[str, int] = {}
        rows = []
        for rec in self.records:
            if rec is None:
                continue
            idx = names.setdefault(rec[0], len(names))
            rows.append([idx, rec[1], rec[2], rec[3], rec[4]])
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": "perfbench-spans/v1", **meta,
               "fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "names": list(names), "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))
