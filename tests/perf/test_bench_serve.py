"""The bench report's serve section: schema, regression gate, and the
committed baseline's daemon-speedup acceptance floor."""

import pytest

from repro.perf.bench import (compare_reports, load_report,
                              validate_report)

_HOST = {"implementation": "CPython", "machine": "x86_64",
         "system": "Linux"}


def _serve_report(warm_rps, host=_HOST):
    return {
        "host": dict(host),
        "tools": [],
        "interpreter": {},
        "serve": {"workload": "fib", "requests": 6, "jobs": 2,
                  "cold_rps": 3.0, "warm_rps": warm_rps,
                  "speedup": round(warm_rps / 3.0, 2),
                  "dedup_burst": 6, "dedup_hits": 5,
                  "dedup_latency_ms_p50": 40.0},
    }


class TestServeCompareLeg:
    def test_throughput_collapse_flagged_same_host(self):
        regressions = compare_reports(_serve_report(15.0),
                                      _serve_report(2.0))
        assert any("serve" in r for r in regressions)

    def test_jitter_within_threshold_passes(self):
        assert not compare_reports(_serve_report(15.0),
                                   _serve_report(11.0))

    def test_cross_host_serve_numbers_never_gate(self):
        other = dict(_HOST, machine="arm64")
        assert not compare_reports(_serve_report(15.0),
                                   _serve_report(1.0, host=other))

    def test_reports_without_serve_section_compare_clean(self):
        old = _serve_report(15.0)
        del old["serve"]
        assert not compare_reports(old, _serve_report(1.0))


def _minimal_report(schema="repro-bench-interp/v5"):
    return {
        "schema": schema,
        "created": "x", "host": {}, "config": {},
        "interpreter": {"w": {"insts": 1, "cycles": 1,
                              "fused_ips": 1, "simple_ips": 1,
                              "speedup": 1.0}},
        "tools": [], "overhead": {},
    }


class TestServeSchema:
    def test_malformed_serve_section_rejected(self):
        report = _minimal_report()
        report["serve"] = {"workload": "fib"}   # missing the numbers
        with pytest.raises(ValueError):
            validate_report(report)

    def test_v5_is_the_only_accepted_schema(self):
        validate_report(_minimal_report())
        for old in ("v1", "v2", "v3", "v4"):
            with pytest.raises(ValueError, match="schema"):
                validate_report(_minimal_report(f"repro-bench-interp/{old}"))


class TestCommittedBaseline:
    def test_baseline_carries_serve_section_with_speedup_floor(self):
        """Acceptance: warm-daemon throughput >= 3x cold-process,
        recorded in the committed BENCH_interp.json."""
        report = load_report()
        if report is None:
            pytest.skip("no committed baseline")
        assert "serve" in report, \
            "committed baseline lost its serve section"
        serve = report["serve"]
        assert serve["speedup"] >= 3.0
        assert serve["warm_rps"] > serve["cold_rps"]
        # The dedup burst must have coalesced onto one execution.
        assert serve["dedup_hits"] == serve["dedup_burst"] - 1