"""``wrl-trace``: inspect and convert pipeline traces and profiles.

Three subcommands:

* ``summary TRACE`` — aggregate spans per (category, name): count,
  total/mean/max duration; then counters and histogram summaries.
  ``--top N`` ranks spans/counters/histograms by total time (or
  value/count) and shows only the N largest of each.
  ``--trace-id ID`` instead reconstructs ONE request's chronological
  timeline from a merged trace: every event stamped with (or linked
  to) that id, ordered by timestamp — the client span, the daemon's
  queue/execute spans, and the worker's compile/interpret spans line
  up on the shared monotonic clock.
* ``convert IN OUT`` — re-emit a trace in the format selected by the
  output suffix (``.jsonl`` for JSONL, anything else for Chrome
  trace-event JSON).
* ``profile PROFILE`` — summarize a guest profile artifact produced by
  ``wrl-run --profile`` (top-K locations, pristine vs. overhead split,
  inclusive/exclusive frame tables); ``--collapsed OUT`` extracts the
  flamegraph stacks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import hist_summary, load_trace, write_chrome, write_jsonl


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e3:.1f}us"


def span_rows(snap: dict) -> list[tuple[str, list[int]]]:
    """(label, durations) per span key, ranked by total duration.

    Ties break on the label, so equal-duration rows always print in the
    same order regardless of event arrival order.
    """
    rows: dict[tuple[str, str], list[int]] = {}
    for ev in snap.get("events", ()):
        key = (ev.get("cat", ""), ev["name"])
        rows.setdefault(key, []).append(ev["dur_ns"])
    labeled = [(f"{cat}/{name}" if cat else name, durs)
               for (cat, name), durs in rows.items()]
    labeled.sort(key=lambda kv: (-sum(kv[1]), kv[0]))
    return labeled


def request_events(snap: dict, trace_id: str) -> list[dict]:
    """Every event of one request, chronological.

    Matches events whose ``args.trace_id`` is the id *or* whose
    ``args.linked_to`` is (dedup-follower markers pointing at the
    executing request), so the timeline shows coalesced requests too.
    """
    picked = [ev for ev in snap.get("events", ())
              if ev.get("args", {}).get("trace_id") == trace_id
              or ev.get("args", {}).get("linked_to") == trace_id]
    picked.sort(key=lambda ev: (ev["ts_ns"], -ev["dur_ns"]))
    return picked


def timeline(snap: dict, trace_id: str, out=None) -> int:
    """Print one request's client→queue→worker timeline; returns
    the number of events shown (0 = id not present in the trace)."""
    out = out if out is not None else sys.stdout
    events = request_events(snap, trace_id)
    if not events:
        print(f"no events for trace id {trace_id}", file=out)
        return 0
    t0 = events[0]["ts_ns"]
    pids = {ev["pid"] for ev in events}
    print(f"trace {trace_id}: {len(events)} event(s) across "
          f"{len(pids)} process(es)", file=out)
    print(f"  {'offset':>10} {'dur':>10} {'pid':>7} "
          f"{'cat/name':<28} detail", file=out)
    for ev in events:
        cat = ev.get("cat", "")
        label = f"{cat}/{ev['name']}" if cat else ev["name"]
        args = ev.get("args", {})
        detail = " ".join(
            f"{k}={v}" for k, v in sorted(args.items())
            if k not in ("trace_id",) and isinstance(v, (str, int, float,
                                                         bool)))
        print(f"  {_fmt_ns(ev['ts_ns'] - t0):>10} "
              f"{_fmt_ns(ev['dur_ns']):>10} {ev['pid']:>7} "
              f"{label:<28} {detail}", file=out)
    return len(events)


def summarize(snap: dict, out=None, top: int | None = None) -> None:
    # Resolve stdout at call time, not def time: the interpreter-wide
    # stream may be redirected (or replaced by a test harness) between
    # import and use.
    out = out if out is not None else sys.stdout
    rows = span_rows(snap)
    pids = {ev["pid"] for ev in snap.get("events", ())}
    print(f"{len(snap.get('events', ()))} spans across "
          f"{len(pids) or 1} process(es)", file=out)
    if rows:
        shown = rows if top is None else rows[:top]
        print(f"  {'cat/name':<40} {'count':>6} {'total':>10} "
              f"{'mean':>10} {'max':>10}", file=out)
        for label, durs in shown:
            print(f"  {label:<40} {len(durs):>6} "
                  f"{_fmt_ns(sum(durs)):>10} "
                  f"{_fmt_ns(sum(durs) / len(durs)):>10} "
                  f"{_fmt_ns(max(durs)):>10}", file=out)
        if top is not None and len(rows) > top:
            print(f"  ... {len(rows) - top} more span group(s)", file=out)
    counters = snap.get("counters", {})
    if counters:
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0])) \
            if top is not None else sorted(counters.items())
        print("counters:", file=out)
        for name, value in ranked[:top]:
            print(f"  {name:<40} {value:>14,g}", file=out)
    hists = snap.get("hists", {})
    if hists:
        ranked = sorted(hists.items(),
                        key=lambda kv: (-len(kv[1]), kv[0])) \
            if top is not None else sorted(hists.items())
        print("histograms:", file=out)
        for name, values in ranked[:top]:
            s = hist_summary(values)
            print(f"  {name:<40} n={s['count']} mean={s['mean']:,.0f} "
                  f"p50={s['p50']:,.0f} p90={s['p90']:,.0f} "
                  f"max={s['max']:,.0f}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wrl-trace",
        description="Summarize or convert repro.obs pipeline traces.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_sum = sub.add_parser("summary", help="aggregate a trace file")
    p_sum.add_argument("trace", help="trace file (.jsonl or Chrome JSON)")
    p_sum.add_argument("--top", type=int, default=None, metavar="N",
                       help="show only the N largest spans/counters/"
                            "histograms (ranked by total time, value, "
                            "and count)")
    p_sum.add_argument("--trace-id", default=None, metavar="ID",
                       help="print the chronological timeline of one "
                            "request (events stamped with or linked to "
                            "ID) instead of the aggregate view")
    p_conv = sub.add_parser("convert",
                            help="rewrite a trace in another format")
    p_conv.add_argument("input")
    p_conv.add_argument("output",
                        help=".jsonl for JSONL, else Chrome trace JSON")
    p_prof = sub.add_parser("profile",
                            help="summarize a guest profile artifact")
    p_prof.add_argument("profile",
                        help="profile JSON from wrl-run --profile")
    p_prof.add_argument("--top", type=int, default=10, metavar="K",
                        help="locations/frames to show (default 10)")
    p_prof.add_argument("--collapsed", default=None, metavar="OUT",
                        help="extract collapsed flamegraph stacks")
    args = parser.parse_args(argv)

    try:
        if args.cmd == "summary":
            if args.top is not None and args.top < 1:
                parser.error("--top must be >= 1")
            if args.trace_id:
                shown = timeline(load_trace(args.trace), args.trace_id)
                return 0 if shown else 1
            summarize(load_trace(args.trace), top=args.top)
        elif args.cmd == "profile":
            from .runtime import load_profile, render_profile, \
                write_collapsed
            doc = load_profile(args.profile)
            print(render_profile(doc, top=args.top))
            if args.collapsed:
                if not doc.get("collapsed"):
                    print("wrl-trace: profile has no collapsed stacks "
                          "(run with --call-stacks)", file=sys.stderr)
                    return 1
                write_collapsed(doc, args.collapsed)
                print(f"wrote {args.collapsed}")
        else:
            snap = load_trace(args.input)
            out = Path(args.output)
            if out.suffix == ".jsonl":
                write_jsonl(snap, out)
            else:
                write_chrome(snap, out)
            print(f"wrote {out}")
    except (OSError, ValueError, KeyError) as exc:
        print(f"wrl-trace: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
