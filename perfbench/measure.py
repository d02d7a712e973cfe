"""Summary statistics and process measurements the benchmark reports."""

from __future__ import annotations

import math
import os
import resource
import time

#: A percentile is reported only with at least this many samples beyond
#: it; fewer would let one or two slow ops decide the value.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised instead of reporting a percentile the data cannot carry."""


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (0 < q < 1).

    A weighted mean of all order statistics, the i-th weighted by the
    mass Beta((n+1)q, (n+1)(1-q)) puts on [(i-1)/n, i/n].  It estimates
    the same quantile as picking one or two order statistics but moves
    less between runs, because no single op decides it.  Refuses
    (``TooFewSamples``) unless at least ``MIN_BEYOND`` samples lie
    beyond the quantile, so p90 needs 100 samples and p50 needs 20.
    """
    vs = sorted(values)
    n = len(vs)
    if not 0 < q < 1:
        raise ValueError(f"quantile {q} outside (0, 1)")
    if n * (1 - q) < MIN_BEYOND - 1e-9:
        need = math.ceil(MIN_BEYOND / (1 - q) - 1e-9)
        raise TooFewSamples(
            f"p{round(q * 100)} needs at least {need} samples, got {n}")
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16                          # midpoint rule per order statistic
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i * steps + k + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        weights.append(mass * h)
    return sum(w * v for w, v in zip(weights, vs)) / sum(weights)


def median(values) -> float:
    vs = sorted(values)
    if not vs:
        raise ValueError("median of no values")
    mid = len(vs) // 2
    return vs[mid] if len(vs) % 2 else (vs[mid - 1] + vs[mid]) / 2


def geomean(values) -> float:
    vs = list(values)
    if not vs or min(vs) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in vs) / len(vs))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended and counts as gone)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            stat = _proc_stat(int(name))
            if stat is not None:
                children.setdefault(stat[1], []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024


def wait_gone(pids, timeout: float) -> list[int]:
    """Wait up to ``timeout`` seconds for ``pids`` to end; the live rest."""
    deadline = time.monotonic() + timeout
    left = [p for p in pids if alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if alive(p)]
    return left
