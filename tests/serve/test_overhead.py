"""The metrics overhead harness's report shape and clean-up.

The <2% budget itself is the ``make check-metrics`` lane (``python -m
repro.serve.overhead``); here the harness runs once on a short burst
without asserting wall-clock numbers.
"""

import tempfile

from repro.serve.overhead import measure


def test_measure_row_shape_and_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    row = measure(reps=1, pings=5)
    assert set(row) == {"pings", "reps", "on_rps", "off_rps", "overhead"}
    assert (row["pings"], row["reps"]) == (5, 1)
    assert row["on_rps"] > 0 and row["off_rps"] > 0
    assert isinstance(row["overhead"], float)
    assert list(tmp_path.iterdir()) == []
