"""Correctness oracle: the expected stdout digest and exit status of
every (workload, scale argument) pair on the menus.

``expected_outputs.json`` was generated once, from uninstrumented runs,
by ``python3 perfbench/make_expected.py``.  ATOM's pristine-behaviour
guarantee makes the same file the oracle for instrumented runs: a tool
may add analysis output files, never change the program's stdout or
exit status.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected_outputs.json")


def key(workload: str, arg: str) -> str:
    return f"{workload} {arg}"


class Oracle:
    def __init__(self, path: Path = EXPECTED_PATH):
        self.expected = json.loads(path.read_text())["outputs"]

    def mismatch(self, workload: str, arg: str, status: int,
                 stdout_sha256: str) -> str | None:
        """None when the output is the expected one, else why not."""
        want = self.expected.get(key(workload, arg))
        if want is None:
            return f"no expected output for {key(workload, arg)!r}"
        if status != want["status"]:
            return (f"{key(workload, arg)}: exit status {status}, "
                    f"expected {want['status']}")
        if stdout_sha256 != want["stdout_sha256"]:
            return f"{key(workload, arg)}: stdout differs from expected"
        return None

    def check_run(self, workload: str, arg: str, status: int,
                  stdout: bytes) -> str | None:
        return self.mismatch(workload, arg, status,
                             hashlib.sha256(stdout).hexdigest())
