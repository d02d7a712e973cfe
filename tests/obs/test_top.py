"""Tests for the wrl-top dashboard: sparkline math, pure-frame
rendering over synthetic stats/metrics documents, the client-side rate
tracker, and a live ``--once`` frame against an in-process daemon."""

from repro.obs.top import RateTracker, render, sparkline


# ---- sparkline -------------------------------------------------------------


def test_sparkline_scales_to_own_max():
    s = sparkline([0, 5, 10], width=3)
    assert len(s) == 3
    assert s[0] == "▁" and s[-1] == "█"


def test_sparkline_pads_and_truncates_to_width():
    assert sparkline([], width=4) == "    "
    assert len(sparkline([1.0], width=8)) == 8
    # Only the newest `width` samples render; the right edge is "now".
    s = sparkline([100, 0, 0], width=2)
    assert "█" not in s


def test_sparkline_flat_zero_series_is_all_low():
    assert sparkline([0, 0, 0], width=3) == "▁▁▁"


# ---- pure-frame rendering --------------------------------------------------


def synthetic_stats(**overrides):
    stats = {
        "uptime_s": 12.5, "jobs": 2, "queue_depth": 1, "max_queue": 64,
        "requests": {"eval": 4, "run": 6, "ping": 2},
        "dedup_hits": 3, "dedup_rate": 0.3, "overloaded": 1,
        "cancelled": 0, "errors": 2, "pool_rebuilds": 0,
        "executed": 8,
        "latency_ms": {"count": 8, "p50": 10.0, "p90": 20.0,
                       "p99": 30.0, "mean": 12.0, "max": 31.0},
        "latency_ms_by_op": {
            "eval": {"count": 4, "p50": 15.0, "p90": 25.0, "p99": 30.0,
                     "mean": 16.0, "max": 31.0},
            "run": {"count": 4, "p50": 5.0, "p90": 9.0, "p99": 10.0,
                    "mean": 6.0, "max": 10.0},
        },
        "tenants": {"default": {"blobs": 7, "bytes": 2048, "cap": 64}},
        "slo": {"configured": False},
    }
    stats.update(overrides)
    return stats


def test_render_is_pure_and_covers_core_lines():
    stats = synthetic_stats()
    frame = render(stats, None, history=[1.0, 2.0])
    assert frame == render(stats, None, history=[1.0, 2.0])
    assert "uptime" in frame and "queue 1/64" in frame
    assert "eval=4" in frame and "run=6" in frame
    assert "p99=30.0" in frame and "mean=12.0" in frame
    assert "dedup 3" in frame and "shed 1" in frame
    assert "default" in frame and "2.0KiB" in frame
    # Without a metrics doc, rates degrade to the client-side history.
    assert "(metrics off)" in frame


def test_render_prefers_daemon_rolling_rates():
    metrics_doc = {"metrics": {"wrl_requests_total": {
        "rates": {"1s": 5.0, "10s": 4.0, "60s": 3.0}}}}
    frame = render(synthetic_stats(), metrics_doc)
    assert "10s      4.0" in frame
    assert "(metrics off)" not in frame


def test_render_shows_slo_breaches():
    stats = synthetic_stats(slo={
        "configured": True, "p99_ms": 25.0, "error_rate": 0.01,
        "window_s": 60,
        "breaches": {"p99_ms": 2},
        "current": {"p99_ms": 30.0, "error_rate": 0.0, "samples": 8},
    })
    frame = render(stats, None)
    assert "BREACH" in frame and "x2" in frame
    assert "err 0.000/0.010 [ok]" in frame


def test_render_handles_empty_stats():
    # An idle daemon's all-zero stats must render without crashing.
    frame = render({}, None)
    assert "wrl-top" in frame


# ---- rate tracker ----------------------------------------------------------


def test_rate_tracker_computes_deltas():
    tracker = RateTracker()
    tracker.update({"requests": {"run": 10}}, now=100.0)
    tracker.update({"requests": {"run": 30}}, now=102.0)
    assert tracker.history == [10.0]
    tracker.update({"requests": {"run": 30}}, now=103.0)
    assert tracker.history == [10.0, 0.0]


def test_rate_tracker_never_goes_negative():
    tracker = RateTracker()
    tracker.update({"requests": {"run": 50}}, now=1.0)
    tracker.update({"requests": {"run": 10}}, now=2.0)   # daemon restart
    assert tracker.history == [0.0]


# ---- live --once frame -----------------------------------------------------


def test_once_renders_a_live_frame(tmp_path, capsys):
    from repro.obs.top import main
    from repro.serve import DaemonThread, ServeClient
    with DaemonThread(socket_path=tmp_path / "serve.sock", jobs=1,
                      cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=60.0)
        client.ping()
        rc = main(["--server", str(dt.socket_path), "--once"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrl-top" in out and "ping=" in out
    assert "latency ms" in out


def test_once_against_no_daemon_fails_cleanly(tmp_path, capsys):
    from repro.obs.top import main
    rc = main(["--server", str(tmp_path / "nope.sock"), "--once"])
    assert rc == 1
    assert "wrl-top:" in capsys.readouterr().err
