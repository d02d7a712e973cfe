"""Run one benchmark workload once, in this fresh process.

    python3 perfbench/run.py --workload fig5-instrument --seed 1 \\
        --seconds 15 --trace 0

Prints progress on stderr and, as the last line of stdout, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  Exits non-zero, without a result line, when the run
cannot measure (the program is missing, set-up failed, too few ops) or
when it left a process or a file behind.
"""

from __future__ import annotations

import time

#: setup_s counts from here: the first statement of a fresh process.
_T_START = time.perf_counter()

import os                                                   # noqa: E402
import sys                                                  # noqa: E402

# Write no bytecode and read none, so that every run compiles what it
# imports from source, whatever earlier runs or tests left in the
# checkout: the prefix names a directory nothing creates.  The sandbox
# moves it into the run's own root before the program is imported.
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), ".work", "pyc")

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import signal                                               # noqa: E402
from subprocess import DEVNULL, PIPE                       # noqa: E402
import traceback                                            # noqa: E402
from contextlib import nullcontext                          # noqa: E402
from pathlib import Path                                    # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import (fig5, fig6, layers, measure, oracle,  # noqa: E402
                       report, serve_mix)
from perfbench.isolate import IsolationError, Sandbox       # noqa: E402

WORKLOADS = {fig5.NAME: (fig5, fig5.Fig5), fig6.NAME: (fig6, fig6.Fig6),
             serve_mix.NAME: (serve_mix, serve_mix.ServeMix)}

TRACE_DIR = ROOT / "perfbench" / "out"


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


#: Set-ups per untraced run: this process plus fresh probe processes.
#: setup_s is their median, so one slow set-up does not decide it.
SETUP_REPS = 3
PROBE_TIMEOUT_S = 30.0


def setup_probe(box: Sandbox, name: str, seed: int) -> float:
    """Set up once more in a fresh process; its setup_s.

    The probe is a child of the run's sandbox: when it times out, or a
    signal ends this run while it works, the sandbox stops it (its own
    sandbox then stops its daemon and deletes its root), kills whatever
    of its process tree is left, and fails the run if the probe's root
    is left behind.
    """
    proc = box.spawn(
        [sys.executable, str(Path(__file__)), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdin=DEVNULL, stdout=PIPE, stderr=PIPE, text=True)
    out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{err}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def measure_run(name: str, seed: int, seconds: float, trace: bool,
                setup_only: bool) -> dict:
    mod, cls = WORKLOADS[name]
    bench = cls(seed, oracle.Oracle())
    with Sandbox(ROOT) as box:
        spans = layers.Spans() if trace else None
        if spans is not None:
            spans.op = -1                   # set-up spans: mlc is timed here
        with spans.installed() if spans is not None else nullcontext():
            bench.setup(box, spans)
        setup_s = time.perf_counter() - _T_START
        log(f"{name} seed {seed}: set up in {setup_s:.2f}s")
        if setup_only:
            return {"setup_s": setup_s}
        ledger = bench.phase(seconds, None if trace else mod.ROUNDS, spans)
        values, errors, checks = bench.finish(box)
        if trace:
            values.update(bench.layer_values(spans, ledger))
            spans.write(TRACE_DIR / f"spans-{name}-seed{seed}.json",
                        workload=name, seed=seed)
        else:
            values.update(ledger.end_to_end())
            log("wall clock: " + ", ".join(
                f"{k} {v:.4g}" for k, v in ledger.wall_clock().items()))
            setups = [setup_s] + [setup_probe(box, name, seed)
                                  for _ in range(SETUP_REPS - 1)]
            log(f"setup_s samples: {', '.join(f'{s:.2f}' for s in setups)}")
            values["setup_s"] = measure.median(setups)
    errors += [o.error for o in ledger.failed]
    log(f"{name}: {len(ledger.outcomes)} ops in {ledger.rounds} rounds, "
        f"{ledger.wall_s:.1f}s, {len(errors)} failed")
    for err in errors[:20]:
        log(f"failed: {err}")
    metrics = report.zero_fill(values) if trace else \
        report.end_to_end(values)
    return report.document(metrics, not errors,
                           len(ledger.outcomes) + checks, len(errors))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    # A terminated run still stops its daemon and deletes its root.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = measure_run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.setup_only)
    except IsolationError as exc:
        log(f"run was not isolated: {exc}")
        return 3
    except Exception:                                    # noqa: BLE001
        # Any failure to measure ends the run without a result line.
        traceback.print_exc()
        log("run failed")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
