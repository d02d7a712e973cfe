"""Unit tests for the metrics registry: instruments, label children,
rolling windows under a fake clock, golden Prometheus exposition, and
the text parser."""

import math

import pytest

from repro.obs.metrics import (DEFAULT_BUCKETS, METRICS_SCHEMA,
                               MetricsError, MetricsRegistry, parse_text)


def make_registry(start: float = 1000.0):
    """Registry on a fake, manually advanced clock."""
    t = [start]
    reg = MetricsRegistry(clock=lambda: t[0])
    return reg, t


# ---- instruments -----------------------------------------------------------


def test_counter_totals_and_label_children():
    reg, _ = make_registry()
    c = reg.counter("wrl_reqs_total", "requests", ("op",))
    c.labels("eval").inc()
    c.labels("eval").inc(2)
    c.labels("run").inc()
    assert c.total() == 4
    assert c.by_label() == {("eval",): 3.0, ("run",): 1.0}
    # Children are cached per label tuple: hot paths bind once.
    assert c.labels("eval") is c.labels("eval")
    # Label values are str-coerced (tenant ints, bools, whatever).
    assert c.labels(42) is c.labels("42")


def test_label_arity_is_checked():
    reg, _ = make_registry()
    c = reg.counter("c_total", "c", ("a", "b"))
    with pytest.raises(MetricsError):
        c.labels("only-one")


def test_gauge_set_inc_dec():
    reg, _ = make_registry()
    g = reg.gauge("depth", "queue depth")
    g.set(5)
    g.inc()
    g.dec(3)
    assert g._solo()._value == 3


def test_histogram_buckets_sum_count():
    reg, _ = make_registry()
    h = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 100.0):
        h.observe(v)
    child = h._solo()
    assert child._count == 3
    assert child._sum == 105.5
    # Per-bucket (non-cumulative internally): <=1, <=10, +Inf.
    assert child._buckets == [1, 1, 1]


def test_histogram_summary_counts_lifetime_over_retained_values():
    """The stats op's projection: count and sum over every observation,
    values only over the last ``_HIST_KEEP`` per label child."""
    from repro.obs.metrics import _HIST_KEEP
    reg, _ = make_registry()
    h = reg.histogram("lat_ms", "latency", ("op",))
    n = _HIST_KEEP + 5
    for v in range(n):
        h.labels("eval").observe(v)
    h.labels("run").observe(0.5)
    count, total, kept = h.summary("eval")
    assert (count, total) == (n, sum(range(n)))
    assert kept == [float(v) for v in range(5, n)]
    count, total, kept = h.summary()
    assert (count, len(kept), kept[0]) == (n + 1, _HIST_KEEP + 1, 0.5)
    assert h.summary("idle") == (0, 0, [])


def test_histogram_rejects_empty_buckets():
    reg, _ = make_registry()
    with pytest.raises(MetricsError):
        reg.histogram("h", "h", buckets=())


# ---- rolling windows -------------------------------------------------------


def test_counter_rates_over_fake_clock_windows():
    reg, t = make_registry(1000.0)
    c = reg.counter("c_total", "c")
    c.inc()
    c.inc()                                  # two events in sec 1000
    t[0] = 1001.0
    c.inc()                                  # one event in sec 1001
    assert c.rate(1) == 1.0                  # current second only
    assert c.rate(10) == pytest.approx(0.3)  # 3 events / 10s
    assert c.total() == 3                    # lifetime total unaffected


def test_ring_slots_expire_after_wraparound():
    reg, t = make_registry(1000.0)
    c = reg.counter("c_total", "c")
    c.inc(10)
    t[0] = 1070.0              # > 64 ring slots later: stale slots must
    assert c.rate(60) == 0.0   # never leak into fresh windows
    assert c.total() == 10


def test_counter_rate_aggregates_label_children():
    reg, _ = make_registry()
    c = reg.counter("c_total", "c", ("op",))
    c.labels("eval").inc(3)
    c.labels("run").inc(1)
    assert c.rate(1) == 4.0


def test_histogram_window_values_filter_by_age():
    reg, t = make_registry(2000.0)
    h = reg.histogram("h_ms", "h", buckets=(1.0,))
    h.observe(5.0)
    t[0] = 2030.0
    h.observe(7.0)
    t[0] = 2059.0
    assert sorted(h.window_values(60)) == [5.0, 7.0]
    assert h.window_values(10) == []         # both older than 10s now


# ---- registry semantics ----------------------------------------------------


def test_registration_is_idempotent_but_kind_mismatch_raises():
    reg, _ = make_registry()
    a = reg.counter("x_total", "x")
    assert reg.counter("x_total", "x") is a
    with pytest.raises(MetricsError):
        reg.gauge("x_total", "now a gauge")
    with pytest.raises(MetricsError):
        reg.counter("x_total", "x", ("op",))   # labelnames changed


def test_bad_names_rejected():
    reg, _ = make_registry()
    with pytest.raises(MetricsError):
        reg.counter("0starts_with_digit", "bad")
    with pytest.raises(MetricsError):
        reg.counter("has-dash", "bad")
    with pytest.raises(MetricsError):
        reg.counter("ok_total", "bad label", ("le-gal",))


# ---- exposition ------------------------------------------------------------


GOLDEN = """\
# HELP wrl_lat_ms latency (ms)
# TYPE wrl_lat_ms histogram
wrl_lat_ms_bucket{le="1"} 1
wrl_lat_ms_bucket{le="10"} 2
wrl_lat_ms_bucket{le="+Inf"} 3
wrl_lat_ms_sum 105.5
wrl_lat_ms_count 3
# HELP wrl_queue_depth queued now
# TYPE wrl_queue_depth gauge
wrl_queue_depth 3
# HELP wrl_reqs_total requests, by op
# TYPE wrl_reqs_total counter
wrl_reqs_total{op="eval"} 1
wrl_reqs_total{op="run"} 2
"""


def golden_registry():
    reg, _ = make_registry()
    c = reg.counter("wrl_reqs_total", "requests, by op", ("op",))
    c.labels("eval").inc()
    c.labels("run").inc(2)
    reg.gauge("wrl_queue_depth", "queued now").set(3)
    h = reg.histogram("wrl_lat_ms", "latency (ms)", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 100.0):
        h.observe(v)
    return reg


def test_golden_text_exposition():
    assert golden_registry().render_text() == GOLDEN


def test_parse_text_roundtrips_the_golden_exposition():
    families = parse_text(GOLDEN)
    assert set(families) == {"wrl_lat_ms", "wrl_queue_depth",
                             "wrl_reqs_total"}
    reqs = families["wrl_reqs_total"]
    assert reqs["type"] == "counter"
    assert (("wrl_reqs_total", {"op": "eval"}, 1.0)
            in reqs["samples"])
    hist = families["wrl_lat_ms"]
    assert hist["type"] == "histogram"
    # _bucket/_sum/_count fold into the histogram family.
    names = {s[0] for s in hist["samples"]}
    assert names == {"wrl_lat_ms_bucket", "wrl_lat_ms_sum",
                     "wrl_lat_ms_count"}
    inf_bucket = [s for s in hist["samples"]
                  if s[1].get("le") == "+Inf"]
    assert inf_bucket and inf_bucket[0][2] == 3.0


def test_label_escaping_roundtrips():
    reg, _ = make_registry()
    c = reg.counter("c_total", "c", ("path",))
    nasty = 'a"b\\c\nd'
    c.labels(nasty).inc()
    text = reg.render_text()
    families = parse_text(text)
    (_, labels, value), = families["c_total"]["samples"]
    assert labels == {"path": nasty}
    assert value == 1.0


def test_parse_text_rejects_malformed_samples():
    with pytest.raises(ValueError):
        parse_text("this is { not a sample\n")


def test_render_doc_shape_and_rates():
    reg, t = make_registry(500.0)
    c = reg.counter("c_total", "c", ("op",))
    c.labels("eval").inc(10)
    h = reg.histogram("h_ms", "h")
    h.observe(2.0)
    doc = reg.render_doc()
    assert doc["schema"] == METRICS_SCHEMA and doc["enabled"] is True
    assert doc["windows_s"] == [1, 10, 60]
    entry = doc["metrics"]["c_total"]
    assert entry["kind"] == "counter"
    assert entry["rates"]["1s"] == 10.0
    assert entry["samples"] == [{"labels": {"op": "eval"},
                                 "value": 10.0}]
    hist = doc["metrics"]["h_ms"]
    sample = hist["samples"][0]
    assert sample["count"] == 1 and sample["sum"] == 2.0
    assert sample["summary"]["p50"] == 2.0
    assert "rates" in hist


def test_default_buckets_are_sorted_and_latency_shaped():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert DEFAULT_BUCKETS[0] <= 1.0 and DEFAULT_BUCKETS[-1] >= 10000.0
    assert math.inf not in DEFAULT_BUCKETS   # +Inf is implicit
