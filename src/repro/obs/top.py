"""``wrl-top``: a live dashboard for a running ``wrl-serve`` daemon.

``top`` for the instrumentation service: polls the daemon's ``stats``
and ``metrics`` ops on an interval and renders request rates (with
sparklines built from successive counter deltas), latency percentiles
per op, queue depth, dedup/shed/error counters, the SLO block, and the
per-tenant cache table.

Rendering is a pure function (:func:`render`) over the two reply
documents plus a client-side rate history — trivially testable without
a terminal — wrapped in either a curses screen (interactive TTYs) or a
plain clear-and-reprint loop (``--plain``, pipes, dumb terminals).
``--once`` prints a single frame and exits, which is what scripts and
the test suite use.
"""

from __future__ import annotations

import argparse
import sys
import time

#: Eight-level bar glyphs, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Client-side rate samples kept for sparklines.
HISTORY = 60


def sparkline(values, width: int = 24) -> str:
    """Render a numeric series as a fixed-width sparkline.

    Scaled to the series' own max (flat-zero series render as all-low
    bars); the *last* ``width`` samples are shown, so the right edge is
    "now".
    """
    values = list(values)[-width:]
    if not values:
        return " " * width
    peak = max(values)
    out = []
    for v in values:
        if peak <= 0:
            out.append(SPARK_CHARS[0])
        else:
            idx = int((v / peak) * (len(SPARK_CHARS) - 1) + 0.5)
            out.append(SPARK_CHARS[max(0, min(idx, len(SPARK_CHARS) - 1))])
    return "".join(out).rjust(width, SPARK_CHARS[0])


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GiB"


def _rate_from_metrics(metrics_doc: dict, name: str,
                       window: str = "10s") -> float | None:
    entry = (metrics_doc or {}).get("metrics", {}).get(name)
    if not entry:
        return None
    return entry.get("rates", {}).get(window)


def render(stats: dict, metrics_doc: dict | None = None,
           history=(), width: int = 80) -> str:
    """One dashboard frame as a string (pure; no terminal I/O).

    ``stats`` is the ``stats`` op document; ``metrics_doc`` the JSON
    half of the ``metrics`` op (None degrades gracefully — rates fall
    back to the client-side ``history`` of requests/sec samples).
    """
    lines: list[str] = []
    uptime = stats.get("uptime_s", 0.0)
    lines.append(
        f"wrl-top — uptime {uptime:8.1f}s   jobs {stats.get('jobs', '?')}"
        f"   queue {stats.get('queue_depth', 0)}"
        f"/{stats.get('max_queue', '?')}")
    lines.append("─" * min(width, 80))

    # Request rates: prefer the daemon's rolling windows, fall back to
    # client-side deltas between polls.
    rate_1s = _rate_from_metrics(metrics_doc, "wrl_requests_total", "1s")
    rate_10s = _rate_from_metrics(metrics_doc, "wrl_requests_total", "10s")
    rate_60s = _rate_from_metrics(metrics_doc, "wrl_requests_total", "60s")
    spark = sparkline(history)
    if rate_10s is not None:
        lines.append(f"req/s   1s {rate_1s:8.1f}   10s {rate_10s:8.1f}"
                     f"   60s {rate_60s:8.1f}   {spark}")
    else:
        last = history[-1] if history else 0.0
        lines.append(f"req/s   now {last:8.1f}   (metrics off)   {spark}")

    requests = stats.get("requests", {})
    total = sum(requests.values())
    per_op = "  ".join(f"{op}={requests.get(op, 0)}"
                       for op in ("eval", "run", "stats", "metrics",
                                  "ping") if requests.get(op))
    lines.append(f"requests {total}   {per_op}")
    lines.append(
        f"dedup {stats.get('dedup_hits', 0)} "
        f"(rate {stats.get('dedup_rate', 0.0):.2f})   "
        f"shed {stats.get('overloaded', 0)}   "
        f"cancelled {stats.get('cancelled', 0)}   "
        f"errors {stats.get('errors', 0)}   "
        f"pool rebuilds {stats.get('pool_rebuilds', 0)}")

    lat = stats.get("latency_ms", {})
    lines.append(
        f"latency ms  n={lat.get('count', 0)}  "
        f"p50={lat.get('p50', 0):.1f}  p90={lat.get('p90', 0):.1f}  "
        f"p99={lat.get('p99', 0):.1f}  mean={lat.get('mean', 0):.1f}  "
        f"max={lat.get('max', 0):.1f}")
    by_op = stats.get("latency_ms_by_op", {})
    for op in sorted(by_op):
        s = by_op[op]
        if not s.get("count"):
            continue
        lines.append(f"  {op:<5} n={s['count']:<6} p50={s['p50']:.1f}  "
                     f"p90={s['p90']:.1f}  p99={s['p99']:.1f}  "
                     f"mean={s['mean']:.1f}")

    slo = stats.get("slo", {})
    if slo.get("configured"):
        current = slo.get("current", {})
        breaches = slo.get("breaches", {})
        parts = []
        if slo.get("p99_ms") is not None:
            mark = "BREACH" if breaches.get("p99_ms") else "ok"
            parts.append(f"p99 {current.get('p99_ms', 0):.1f}ms"
                         f"/{slo['p99_ms']:.0f}ms [{mark}"
                         f"{' x' + str(breaches['p99_ms']) if breaches.get('p99_ms') else ''}]")
        if slo.get("error_rate") is not None:
            mark = "BREACH" if breaches.get("error_rate") else "ok"
            parts.append(f"err {current.get('error_rate', 0):.3f}"
                         f"/{slo['error_rate']:.3f} [{mark}"
                         f"{' x' + str(breaches['error_rate']) if breaches.get('error_rate') else ''}]")
        lines.append("slo (60s)   " + "   ".join(parts))

    tenants = stats.get("tenants", {})
    if tenants:
        lines.append("")
        lines.append(f"{'tenant':<20} {'blobs':>8} {'bytes':>12} "
                     f"{'cap':>6}")
        for name in sorted(tenants):
            usage = tenants[name]
            lines.append(
                f"{name:<20} {usage.get('blobs', 0):>8} "
                f"{_fmt_bytes(usage.get('bytes', 0)):>12} "
                f"{usage.get('cap', 0):>6}")
    return "\n".join(lines)


class RateTracker:
    """Client-side requests/sec from successive ``stats`` snapshots."""

    def __init__(self):
        self._last: tuple[float, int] | None = None
        self.history: list[float] = []

    def update(self, stats: dict, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        total = sum(stats.get("requests", {}).values())
        if self._last is not None:
            t0, n0 = self._last
            dt = now - t0
            if dt > 0:
                self.history.append(max(0.0, (total - n0) / dt))
                del self.history[:-HISTORY]
        self._last = (now, total)


def _poll(client):
    """(stats, metrics_doc|None) — metrics degrades to None when the
    op is unavailable."""
    stats = client.stats()
    try:
        metrics_doc = client.metrics().get("metrics")
    except Exception:                          # noqa: BLE001
        metrics_doc = None
    return stats, metrics_doc


def _loop_plain(client, interval: float, count: int | None,
                clear: bool) -> int:
    tracker = RateTracker()
    n = 0
    while True:
        stats, metrics_doc = _poll(client)
        tracker.update(stats)
        frame = render(stats, metrics_doc, tracker.history)
        if clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(frame, flush=True)
        n += 1
        if count is not None and n >= count:
            return 0
        time.sleep(interval)


def _loop_curses(client, interval: float, count: int | None) -> int:
    import curses

    def run(screen) -> int:
        curses.curs_set(0)
        screen.nodelay(True)
        tracker = RateTracker()
        n = 0
        while True:
            stats, metrics_doc = _poll(client)
            tracker.update(stats)
            height, width = screen.getmaxyx()
            frame = render(stats, metrics_doc, tracker.history,
                           width=width - 1)
            screen.erase()
            for i, line in enumerate(frame.splitlines()):
                if i >= height - 1:
                    break
                try:
                    screen.addnstr(i, 0, line, width - 1)
                except curses.error:
                    pass
            screen.addnstr(min(height - 1, i + 2), 0,
                           "q to quit", width - 1)
            screen.refresh()
            n += 1
            if count is not None and n >= count:
                return 0
            deadline = time.monotonic() + interval
            while time.monotonic() < deadline:
                try:
                    if screen.getch() in (ord("q"), ord("Q")):
                        return 0
                except curses.error:
                    pass
                time.sleep(0.05)

    return curses.wrapper(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wrl-top",
        description="Live dashboard for a running wrl-serve daemon: "
                    "request rates, latency percentiles, SLO status, "
                    "tenant cache usage.")
    parser.add_argument("--server", default=None, metavar="SOCKET",
                        help="daemon socket (default: $WRL_SERVER or "
                             "./.repro-serve.sock)")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="poll interval (default 1s)")
    parser.add_argument("--count", type=int, default=None, metavar="N",
                        help="exit after N frames (default: run until "
                             "interrupted)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit (scriptable; "
                             "implies --plain)")
    parser.add_argument("--plain", action="store_true",
                        help="plain reprint loop instead of curses "
                             "(automatic when stdout is not a tty)")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be > 0")
    if args.count is not None and args.count < 1:
        parser.error("--count must be >= 1")

    from ..serve.client import ServeClient
    from ..serve.protocol import ServeError
    client = ServeClient(args.server)
    count = 1 if args.once else args.count
    is_tty = getattr(sys.stdout, "isatty", lambda: False)()
    plain = args.plain or args.once or not is_tty
    try:
        if plain:
            # --once prints a single frame with no screen clearing.
            return _loop_plain(client, args.interval, count,
                               clear=not args.once and is_tty)
        return _loop_curses(client, args.interval, count)
    except ServeError as exc:
        print(f"wrl-top: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
