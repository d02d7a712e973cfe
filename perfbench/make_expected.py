"""Regenerate ``expected_outputs.json``: run every (workload, scale
argument) pair on the menus uninstrumented and record its stdout digest
and exit status.

    python3 perfbench/make_expected.py

Run it only when a workload program or a menu changes; the committed
file is the oracle every benchmark run checks against.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))
sys.dont_write_bytecode = True

from perfbench import menus, oracle                    # noqa: E402
from perfbench.isolate import Sandbox                  # noqa: E402


def main() -> int:
    with Sandbox(ROOT):
        from repro.eval import run_uninstrumented
        from repro.workloads import build_workload
        outputs = {}
        for workload in menus.WORKLOADS:
            app = build_workload(workload)
            for arg in menus.SCALE_ARGS[workload]:
                result = run_uninstrumented(app, args=(arg,))
                outputs[oracle.key(workload, arg)] = {
                    "status": result.status,
                    "stdout_sha256": hashlib.sha256(
                        result.stdout).hexdigest()}
    doc = {"generated_by": "perfbench/make_expected.py",
           "source": "uninstrumented runs", "outputs": outputs}
    oracle.EXPECTED_PATH.write_text(json.dumps(doc, indent=1,
                                               sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} expected outputs to "
          f"{oracle.EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
