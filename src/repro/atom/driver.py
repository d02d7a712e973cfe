"""``atom``: the command-line driver.

Mirrors the paper's usage::

    atom prog inst.py anal.mlc -o prog.atom

where ``prog`` is a linked WOF executable, ``inst.py`` a Python module
defining ``Instrument(iargc, iargv, atom)``, and ``anal.mlc`` the analysis
routines in MLC (one or more files, or a prebuilt ``.wof`` analysis unit).
Extra arguments after ``--`` are passed to the instrumentation routine as
``iargv[1:]``.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from ..mlc import MlcError, build_analysis_unit
from ..objfile.module import Module
from .api import AtomError
from .instrument import HEAP_MODES, instrument_executable
from .saves import OptLevel


def load_instrumentation(path: str):
    """Import a Python instrumentation module and return its Instrument."""
    spec = importlib.util.spec_from_file_location("atom_inst", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fn = getattr(module, "Instrument", None)
    if fn is None:
        raise AtomError(f"{path}: no Instrument(iargc, iargv, atom) "
                        f"procedure")
    return fn


def build_analysis(paths: list[str]) -> Module:
    """Compile/assemble analysis inputs into a linked analysis unit."""
    if len(paths) == 1 and paths[0].endswith(".wof"):
        return Module.load(paths[0])
    sources = []
    for path in paths:
        with open(path) as f:
            sources.append(f.read())
    return build_analysis_unit(sources)


def main(argv: list[str] | None = None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    tool_args: tuple[str, ...] = ()
    if "--" in args_in:
        split = args_in.index("--")
        tool_args = tuple(args_in[split + 1:])
        args_in = args_in[:split]

    ap = argparse.ArgumentParser(
        prog="atom",
        description="build a customized program analysis tool and apply it")
    ap.add_argument("program", help="linked application executable (WOF)")
    ap.add_argument("instrumentation", help="Python instrumentation module")
    ap.add_argument("analysis", nargs="+",
                    help="analysis routine sources (.mlc) or unit (.wof)")
    ap.add_argument("-o", "--output", required=True)
    ap.add_argument("-O", "--opt", type=int, choices=[0, 1, 2, 3, 4],
                    default=1, help="save-strategy optimization level "
                    "(4 = inline analysis bodies + coalesce saves)")
    ap.add_argument("--heap", choices=HEAP_MODES, default="linked")
    ap.add_argument("--heap-offset", type=lambda s: int(s, 0),
                    default=0x10_0000,
                    help="analysis heap offset (partitioned mode)")
    opts = ap.parse_args(args_in)

    try:
        app = Module.load(opts.program)
        instrument_fn = load_instrumentation(opts.instrumentation)
        anal = build_analysis(opts.analysis)
        result = instrument_executable(
            app, instrument_fn, anal, opt=OptLevel(opts.opt),
            heap_mode=opts.heap, heap_offset=opts.heap_offset,
            tool_args=tool_args)
    except (AtomError, MlcError, OSError) as exc:
        print(f"atom: {exc}", file=sys.stderr)
        return 1
    result.module.save(opts.output)
    stats = result.stats
    line = (f"atom: {stats.points} points, {stats.calls_added} calls, "
            f"{stats.wrappers} wrappers, "
            f"{stats.snippet_insts} instructions added")
    if stats.inlined_calls:
        line += f", {stats.inlined_calls} calls inlined"
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
