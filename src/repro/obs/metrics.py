"""``repro.obs.metrics``: a labeled metrics registry with exposition.

The serving stack needs *continuous* operational signals — request
rates, latency percentiles, queue depth, cache usage — not just the
point-in-time ``stats`` snapshot or a post-hoc trace file.  This module
is the registry behind the daemon's ``metrics`` op and the ``wrl-top``
dashboard: Prometheus-style instruments kept cheap enough to sit on the
request path.

Three instrument kinds, each optionally labeled:

* :class:`Counter` — monotone totals (requests, dedup hits, errors).
* :class:`Gauge` — point-in-time values (queue depth, cache bytes).
* :class:`Histogram` — distributions over fixed cumulative buckets
  (latency, batch occupancy) with nearest-rank percentiles.

Every counter and histogram additionally feeds a **rolling-window
ring** of per-second buckets, so rates and windowed percentiles over
the last 1s / 10s / 60s come straight out of the registry — that is
what drives the dashboard's sparklines and the daemon's SLO watchdog,
without a Prometheus server in the loop.

Exposition is dual-format: :meth:`MetricsRegistry.render_text` emits
the Prometheus text format (``# HELP`` / ``# TYPE`` / samples —
parseable by any Prometheus scraper, and by :func:`parse_text` in
tests), and :meth:`MetricsRegistry.render_doc` emits a JSON document
carrying the same samples plus the windowed rates.

The registry is always on: it is the serve daemon's one record of its
events, and the daemon's ``stats`` op is a projection of it (lifetime
counts and sums, percentiles over each histogram's retained
observations).
"""

from __future__ import annotations

import math
import re
import time

METRICS_SCHEMA = "wrl-metrics/v1"

#: Rolling windows (seconds) reported by :meth:`MetricsRegistry.render_doc`.
WINDOWS = (1, 10, 60)

#: Per-second ring slots; must exceed the largest window so a full 60s
#: of history is always resident.
_RING_SLOTS = 64

#: Default cumulative bucket upper bounds for latency-shaped histograms
#: (milliseconds), ending in +Inf.
DEFAULT_BUCKETS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                   500.0, 1000.0, 2500.0, 5000.0, 10000.0)

#: Raw observations kept per histogram child for windowed percentiles.
_HIST_KEEP = 8192

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ValueError):
    """Registry misuse: bad names, kind or label mismatches."""


# ---- rolling per-second ring ------------------------------------------------

class _Ring:
    """Per-second accumulation buckets for rolling-window rates.

    A slot is lazily reset when its second index comes around again, so
    ``add`` is O(1) and idle seconds cost nothing.
    """

    __slots__ = ("_clock", "_slots", "_stamps")

    def __init__(self, clock):
        self._clock = clock
        self._slots = [0.0] * _RING_SLOTS
        self._stamps = [-1] * _RING_SLOTS

    def add(self, value: float) -> None:
        sec = int(self._clock())
        i = sec % _RING_SLOTS
        if self._stamps[i] != sec:
            self._stamps[i] = sec
            self._slots[i] = 0.0
        self._slots[i] += value

    def total(self, window: int) -> float:
        """Sum over the last ``window`` *complete-ish* seconds
        (including the current partial second, so fresh activity shows
        up immediately)."""
        now = int(self._clock())
        total = 0.0
        for back in range(window):
            sec = now - back
            i = sec % _RING_SLOTS
            if self._stamps[i] == sec:
                total += self._slots[i]
        return total

    def rate(self, window: int) -> float:
        """Events (or value mass) per second over ``window`` seconds."""
        return self.total(window) / window


# ---- instruments ------------------------------------------------------------

class _Metric:
    """Common labeled-instrument machinery; children are cached per
    label-value tuple so hot paths bind once and call methods only."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames=(), *, clock):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._clock = clock
        self._children: dict[tuple, object] = {}

    def labels(self, *values):
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {len(values)}")
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child()
        return child

    def _make_child(self):                       # pragma: no cover
        raise NotImplementedError

    # Unlabeled shortcut: metric acts as its own sole child.
    def _solo(self):
        return self.labels()


class _CounterChild:
    __slots__ = ("_value", "_ring")

    def __init__(self, clock):
        self._value = 0.0
        self._ring = _Ring(clock)

    def inc(self, n: float = 1.0) -> None:
        self._value += n
        self._ring.add(n)

    def rate(self, window: int) -> float:
        return self._ring.rate(window)


class Counter(_Metric):
    kind = "counter"

    def _make_child(self):
        return _CounterChild(self._clock)

    def inc(self, n: float = 1.0) -> None:
        self._solo().inc(n)

    def rate(self, window: int) -> float:
        """Aggregate events/sec across every label child."""
        return sum(c.rate(window) for c in self._children.values())

    def total(self) -> float:
        return sum(c._value for c in self._children.values())

    def by_label(self) -> dict[tuple, float]:
        """Each label child's total, keyed by its label values."""
        return {values: c._value for values, c in self._children.items()}


class _GaugeChild:
    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        self._value -= n


class Gauge(_Metric):
    kind = "gauge"

    def _make_child(self):
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, n: float = 1.0) -> None:
        self._solo().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._solo().dec(n)


class _HistogramChild:
    __slots__ = ("_bounds", "_buckets", "_sum", "_count", "_ring",
                 "_recent", "_clock")

    def __init__(self, bounds, clock):
        self._bounds = bounds
        self._buckets = [0] * (len(bounds) + 1)    # +Inf last
        self._sum = 0.0
        self._count = 0
        self._ring = _Ring(clock)
        self._recent: list[tuple[int, float]] = []
        self._clock = clock

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        self._ring.add(1.0)
        i = 0
        bounds = self._bounds
        while i < len(bounds) and value > bounds[i]:
            i += 1
        self._buckets[i] += 1
        recent = self._recent
        recent.append((int(self._clock()), value))
        if len(recent) > _HIST_KEEP:
            del recent[:len(recent) - _HIST_KEEP]

    def window_values(self, window: int) -> list[float]:
        floor = int(self._clock()) - window
        return [v for sec, v in self._recent if sec > floor]


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name, help, labelnames=(), *, clock,
                 buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames, clock=clock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError(f"{name}: histogram needs >= 1 bucket")
        self.buckets = bounds

    def _make_child(self):
        return _HistogramChild(self.buckets, self._clock)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def rate(self, window: int) -> float:
        return sum(c._ring.rate(window) for c in self._children.values())

    def window_values(self, window: int) -> list[float]:
        """Raw observations from the last ``window`` seconds across all
        label children (the SLO watchdog's percentile feed)."""
        out: list[float] = []
        for child in self._children.values():
            out.extend(child.window_values(window))
        return out

    def summary(self, *values) -> tuple[int, float, list[float]]:
        """(count, sum, retained observations sorted) of the label child
        ``values``, or of every child together when none are given.
        Count and sum cover the whole lifetime; each child retains its
        last ``_HIST_KEEP`` observations."""
        if values:
            child = self._children.get(tuple(str(v) for v in values))
            children = [child] if child is not None else []
        else:
            children = list(self._children.values())
        return (sum(c._count for c in children),
                sum(c._sum for c in children),
                sorted(v for c in children for _, v in c._recent))


# ---- the registry -----------------------------------------------------------

class MetricsRegistry:
    """Instrument factory + exposition surface for one process.

    ``clock`` is injectable for deterministic tests (defaults to
    ``time.monotonic``).
    """

    def __init__(self, *, clock=None):
        self._clock = clock or time.monotonic
        self._metrics: dict[str, _Metric] = {}

    # ---- instrument factories ----------------------------------------------

    def _get(self, cls, name, help, labelnames, **kw):
        if not _NAME_RE.match(name):
            raise MetricsError(f"bad metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricsError(f"{name}: bad label name {label!r}")
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls) \
                    or metric.labelnames != tuple(labelnames):
                raise MetricsError(
                    f"{name} re-registered as {cls.kind} "
                    f"{tuple(labelnames)} (was {metric.kind} "
                    f"{metric.labelnames})")
            return metric
        metric = cls(name, help, labelnames, clock=self._clock, **kw)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str, labelnames=()) -> Counter:
        return self._get(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames=()) -> Gauge:
        return self._get(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str, labelnames=(),
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labelnames,
                         buckets=buckets)

    # ---- exposition ---------------------------------------------------------

    def render_text(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for values in sorted(metric._children):
                child = metric._children[values]
                if metric.kind == "histogram":
                    lines.extend(_render_hist(metric, values, child))
                else:
                    lines.append(
                        f"{name}{_labels_text(metric.labelnames, values)}"
                        f" {_fmt(child._value)}")
        return "\n".join(lines) + "\n"

    def render_doc(self) -> dict:
        """JSON exposition: samples plus rolling-window rates."""
        # "enabled" is always true; the key stays for wrl-metrics/v1
        # readers.
        doc = {"schema": METRICS_SCHEMA, "enabled": True,
               "windows_s": list(WINDOWS), "metrics": {}}
        from . import hist_summary
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {"kind": metric.kind, "help": metric.help,
                     "labels": list(metric.labelnames), "samples": []}
            for values in sorted(metric._children):
                child = metric._children[values]
                sample = {"labels": dict(zip(metric.labelnames, values))}
                if metric.kind == "histogram":
                    sample["count"] = child._count
                    sample["sum"] = round(child._sum, 6)
                    sample["summary"] = hist_summary(
                        child.window_values(WINDOWS[-1]))
                else:
                    sample["value"] = child._value
                entry["samples"].append(sample)
            if metric.kind in ("counter", "histogram"):
                entry["rates"] = {f"{w}s": round(metric.rate(w), 4)
                                  for w in WINDOWS}
            doc["metrics"][name] = entry
        return doc


# ---- text-format helpers ----------------------------------------------------

def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n") \
                .replace('"', r"\"")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _labels_text(names, values, extra=()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs.extend(f'{n}="{_escape_label(v)}"' for n, v in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_hist(metric, values, child) -> list[str]:
    lines = []
    cumulative = 0
    bounds = [*metric.buckets, math.inf]
    for bound, count in zip(bounds, child._buckets):
        cumulative += count
        le = _labels_text(metric.labelnames, values,
                          extra=(("le", _fmt(bound)),))
        lines.append(f"{metric.name}_bucket{le} {cumulative}")
    base = _labels_text(metric.labelnames, values)
    lines.append(f"{metric.name}_sum{base} {_fmt(child._sum)}")
    lines.append(f"{metric.name}_count{base} {_fmt(child._count)}")
    return lines


# ---- text-format parser (tests, wrl-top fallback) ---------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_text(text: str) -> dict:
    """Parse Prometheus text exposition into
    ``{name: {"type": kind, "help": str, "samples": [(labels, value)]}}``.

    Covers the subset :meth:`MetricsRegistry.render_text` emits (which
    is the subset real scrapers require); raises ``ValueError`` on a
    malformed sample line so tests genuinely verify parseability.
    """
    out: dict[str, dict] = {}

    def family(name: str) -> dict:
        # _bucket/_sum/_count samples belong to their histogram family.
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in out:
                return out[name[:-len(suffix)]]
        return out.setdefault(name, {"type": "untyped", "help": "",
                                     "samples": []})

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            family(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            family(name)["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparsable metrics sample: {line!r}")
        raw = match.group("value")
        value = math.inf if raw == "+Inf" else float(raw)
        labels = {}
        if match.group("labels"):
            labels = {k: v.replace(r"\"", '"').replace(r"\n", "\n")
                       .replace(r"\\", "\\")
                      for k, v in
                      _LABEL_PAIR_RE.findall(match.group("labels"))}
        family(match.group("name"))["samples"].append(
            (match.group("name"), labels, value))
    return out


__all__ = [
    "METRICS_SCHEMA", "WINDOWS", "DEFAULT_BUCKETS", "MetricsError",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "parse_text",
]
