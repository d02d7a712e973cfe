"""The metrics overhead budget (``python -m repro.serve.overhead``).

The metrics registry's contract mirrors the tracer's: *zero cost when
disabled*, and cheap enough when enabled that operators never have to
choose between visibility and throughput.  The check-metrics CI lane
enforces the second half as a budget: a metrics-on daemon must serve
requests within ``--budget`` (default 2%) of a metrics-off daemon.

Two in-process :class:`~repro.serve.daemon.DaemonThread` instances run
side by side on distinct sockets — identical except for ``metrics=`` —
and each rep times a burst of sequential requests against both,
interleaved so clock drift and scheduler warmth hit both equally.
Requests are ``ping`` ops: the cheapest round-trip the protocol has,
which makes the measurement *adversarial* — every microsecond the
instrumented dispatch path spends in counters shows up undiluted by
interpreter work.  Throughput is best-of-N requests/sec per variant,
timed with the garbage collector off by the helper ``repro.obs.overhead``
uses (:func:`~repro.obs.overhead.best_of`); like it, the harness
re-measures once with more reps before declaring a violation, so one
noisy interval cannot fail the lane.  Sockets and caches live in a
temporary directory removed when both daemons have stopped.

On failure the metrics exposition text and both daemons' stats
snapshots land in ``--artifacts`` for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

from ..obs.overhead import best_of
from .client import ServeClient
from .daemon import DaemonThread

OVERHEAD_SCHEMA = "repro-serve-overhead/v1"
DEFAULT_BUDGET = 0.02
DEFAULT_REPS = 5
DEFAULT_PINGS = 200


def measure(reps: int = DEFAULT_REPS, pings: int = DEFAULT_PINGS,
            artifacts: Path | None = None) -> dict:
    """Best-of-N requests/sec for metrics-on vs metrics-off daemons."""
    with tempfile.TemporaryDirectory(prefix="wrl-serve-overhead-") as root:
        tmp = Path(root)
        with DaemonThread(socket_path=tmp / "on.sock", jobs=1,
                          cache_root=tmp / "cache-on",
                          metrics=True) as on_dt, \
                DaemonThread(socket_path=tmp / "off.sock", jobs=1,
                             cache_root=tmp / "cache-off",
                             metrics=False) as off_dt:
            clients = {"on": ServeClient(on_dt.socket_path, timeout=120.0),
                       "off": ServeClient(off_dt.socket_path,
                                          timeout=120.0)}
            for client in clients.values():    # warmup: loop + socket
                for _ in range(20):
                    client.ping()
            best = best_of({label: partial(_burst, client, pings)
                            for label, client in clients.items()}, reps)
            on_rps = pings / best["on"]
            off_rps = pings / best["off"]
            row = {
                "pings": pings,
                "reps": reps,
                "on_rps": round(on_rps, 1),
                "off_rps": round(off_rps, 1),
                #: > 0 means the metrics-on daemon is slower.
                "overhead": round(1.0 - on_rps / off_rps, 4),
            }
            if artifacts is not None:
                artifacts.mkdir(parents=True, exist_ok=True)
                reply = clients["on"].metrics()
                (artifacts / "metrics.txt").write_text(reply["text"])
                (artifacts / "stats.json").write_text(json.dumps(
                    {"on": clients["on"].stats(),
                     "off": clients["off"].stats()},
                    indent=2, default=str) + "\n")
    return row


def _burst(client: ServeClient, pings: int) -> None:
    for _ in range(pings):
        client.ping()


def run_overhead(reps: int = DEFAULT_REPS, pings: int = DEFAULT_PINGS,
                 budget: float = DEFAULT_BUDGET,
                 artifacts: Path | None = None) -> dict:
    """Measure; re-measure once with more reps before declaring a
    budget violation."""
    row = measure(reps=reps, pings=pings)
    if row["overhead"] > budget:
        # The re-measure doubles reps and burst length (longer bursts
        # shrink relative timer noise) AND captures the exposition
        # text + stats snapshots, so a real failure ships evidence.
        row = measure(reps=reps * 2, pings=pings * 2,
                      artifacts=artifacts)
        row["remeasured"] = True
    return {
        "schema": OVERHEAD_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "budget": budget,
        "row": row,
        "ok": row["overhead"] <= budget,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-overhead",
        description="Assert a metrics-on wrl-serve daemon stays within "
                    "its throughput budget vs a metrics-off daemon.")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="timed repetitions per variant")
    parser.add_argument("--pings", type=int, default=DEFAULT_PINGS,
                        help="sequential requests per repetition")
    parser.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                        help="max tolerated slowdown (fraction, e.g. "
                             "0.02)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer reps and shorter bursts")
    parser.add_argument("--out", default=None, help="JSON report path")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="dump metrics text + stats snapshots here "
                             "when the budget is violated")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.pings < 1:
        parser.error("--pings must be at least 1")
    if not 0 < args.budget < 1:
        parser.error("--budget must be a fraction in (0, 1)")
    reps, pings = args.reps, args.pings
    if args.quick:
        reps, pings = min(reps, 3), min(pings, 100)

    artifacts = Path(args.artifacts) if args.artifacts else None
    report = run_overhead(reps=reps, pings=pings, budget=args.budget,
                          artifacts=artifacts)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")

    row = report["row"]
    verdict = "ok" if report["ok"] else "OVER BUDGET"
    print(f"  ping: metrics-on {row['on_rps']:,.0f} vs metrics-off "
          f"{row['off_rps']:,.0f} req/s ({row['overhead']:+.2%}) "
          f"{verdict}")
    print(f"metrics overhead budget {args.budget:.0%}: "
          f"{'pass' if report['ok'] else 'FAIL'}")
    if not report["ok"] and artifacts is not None:
        print(f"artifacts in {artifacts}/", file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
