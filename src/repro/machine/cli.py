"""``wrl-run``: load and execute a WOF executable from the command line."""

from __future__ import annotations

import argparse
import sys

from ..objfile.module import Module
from ..obs import TRACE, mint_trace_id, trace_id_from_env, \
    trace_path_from_env
from .cpu import MachineError
from .loader import run_module


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="wrl-run",
                                 description="run a WOF executable")
    ap.add_argument("executable")
    ap.add_argument("args", nargs="*", help="program arguments")
    ap.add_argument("--max-insts", type=int, default=2_000_000_000,
                    help="instruction budget (timeout; exit 124)")
    ap.add_argument("--stats", action="store_true",
                    help="print cycle/instruction counts to stderr")
    ap.add_argument("--dump-files", action="store_true",
                    help="print virtual-filesystem outputs to stderr")
    ap.add_argument("--trace", default=trace_path_from_env(),
                    metavar="PATH",
                    help="capture a structured trace of the run "
                         "(.json = Chrome trace, .jsonl = line-"
                         "delimited; default: $WRL_TRACE)")
    ap.add_argument("--profile", default=None, metavar="PATH",
                    help="write a deterministic PC-sample profile "
                         "artifact (render with wrl-trace profile / "
                         "wrl-annotate)")
    ap.add_argument("--sample-interval", type=int, default=None,
                    metavar="N",
                    help="sample every N retired instructions "
                         "(default 1000; implies --profile semantics)")
    ap.add_argument("--call-stacks", action="store_true",
                    help="track shadow call stacks while profiling "
                         "(collapsed flamegraph stacks in the artifact; "
                         "slower: disables superblock dispatch)")
    ap.add_argument("--collapsed", default=None, metavar="PATH",
                    help="also write collapsed flamegraph stacks "
                         "(implies --call-stacks)")
    ap.add_argument("--server", default=None, metavar="SOCKET",
                    help="execute on a running wrl-serve daemon "
                         "instead of in-process (default: $WRL_SERVER "
                         "when set); artifacts are byte-identical to "
                         "the local path")
    ap.add_argument("--tenant", default=None,
                    help="cache namespace on the daemon (default: "
                         "$WRL_TENANT or 'default')")
    ap.add_argument("--trace-id", default=trace_id_from_env(),
                    metavar="ID",
                    help="request trace id stamped on every span "
                         "(server mode mints one when absent; default: "
                         "$WRL_TRACE_ID)")
    args = ap.parse_args(argv)
    if args.max_insts <= 0:
        ap.error("--max-insts must be positive")
    if args.sample_interval is not None and args.sample_interval < 1:
        ap.error("--sample-interval must be >= 1")

    import os
    server = args.server or os.environ.get("WRL_SERVER") or None
    if server:
        profiling = args.profile or args.collapsed \
            or args.sample_interval is not None or args.call_stacks
        if profiling or args.trace:
            ap.error("--profile/--collapsed/--sample-interval/"
                     "--call-stacks/--trace run in-process; drop "
                     "--server (or unset WRL_SERVER) to use them")
        return _main_via_server(args, server)

    module = Module.load(args.executable)

    sampler = None
    profiling = args.profile or args.collapsed \
        or args.sample_interval is not None or args.call_stacks
    if profiling:
        from ..obs import runtime
        interval = args.sample_interval or runtime.DEFAULT_INTERVAL
        if args.call_stacks or args.collapsed:
            sampler = runtime.StackSampler(interval)
        else:
            sampler = runtime.PcSampler(interval)
    if args.trace:
        TRACE.reset()
        TRACE.enable()
    if args.trace_id:
        from ..eval.runner import set_trace_id
        set_trace_id(args.trace_id)
    try:
        stdin = b""
        if not sys.stdin.isatty():
            stdin = sys.stdin.buffer.read()
    except (OSError, ValueError, AttributeError):
        stdin = b""      # no usable stdin (e.g. under a test harness)
    # Budget exhaustion is a *timeout* at this level, not a machine
    # fault: route through the eval runner so it surfaces as the typed
    # EvalTimeout (timeout convention: exit 124, like timeout(1)).
    from ..eval.errors import EvalTimeout
    from ..eval.runner import run_uninstrumented
    try:
        result = run_uninstrumented(module, args=tuple(args.args),
                                    stdin=stdin, max_insts=args.max_insts,
                                    sampler=sampler)
    except EvalTimeout as exc:
        print(f"wrl-run: {exc}", file=sys.stderr)
        return 124
    except MachineError as exc:
        print(f"wrl-run: {exc}", file=sys.stderr)
        return 125
    finally:
        if args.trace:
            TRACE.write(args.trace)
            TRACE.disable()
            print(f"wrl-run: wrote trace to {args.trace}",
                  file=sys.stderr)
        # A timeout still yields a valid (partial) profile; write what
        # was sampled either way.
        if sampler is not None and sampler.cpu is not None:
            from ..obs import runtime
            doc = runtime.profile_doc(sampler, module)
            if args.profile:
                runtime.write_profile(doc, args.profile)
                print(f"wrl-run: wrote profile to {args.profile}",
                      file=sys.stderr)
            if args.collapsed:
                runtime.write_collapsed(doc, args.collapsed)
                print(f"wrl-run: wrote collapsed stacks to "
                      f"{args.collapsed}", file=sys.stderr)
            if not args.profile and not args.collapsed:
                print(runtime.render_profile(doc), file=sys.stderr)
    sys.stdout.buffer.write(result.stdout)
    sys.stderr.buffer.write(result.stderr)
    if args.stats:
        print(f"[cycles={result.cycles} insts={result.inst_count}]",
              file=sys.stderr)
    if args.dump_files:
        for name, content in sorted(result.files.items()):
            print(f"--- {name} ---", file=sys.stderr)
            sys.stderr.write(content.decode("utf-8", "replace"))
    return result.status


def _main_via_server(args, server: str) -> int:
    """The thin-client half of wrl-run: ship the exe to a wrl-serve
    daemon and map its structured replies onto the same exit codes as
    the in-process path (timeout 124, machine fault 125)."""
    import os

    from ..serve.client import ServeClient
    from ..serve.protocol import ServeError
    tenant = args.tenant or os.environ.get("WRL_TENANT") or "default"
    # Thin clients mint the request context (v2 protocol); the daemon
    # tags its queue/execute spans and the worker's spans with it.
    trace_id = args.trace_id or mint_trace_id()
    exe = open(args.executable, "rb").read()
    try:
        stdin = b""
        if not sys.stdin.isatty():
            stdin = sys.stdin.buffer.read()
    except (OSError, ValueError, AttributeError):
        stdin = b""
    client = ServeClient(server)
    try:
        reply = client.run_exe(exe, args=tuple(args.args), stdin=stdin,
                               max_insts=args.max_insts,
                               tenant=tenant, trace_id=trace_id)
    except ServeError as exc:
        print(f"wrl-run: {exc}", file=sys.stderr)
        if exc.kind == "machine-error":
            return 125
        if exc.kind == "overloaded":
            return 75          # EX_TEMPFAIL: back off and retry
        return 1
    if reply.timeout:
        print(f"wrl-run: {reply.message}", file=sys.stderr)
        return 124
    sys.stdout.buffer.write(reply.stdout)
    sys.stderr.buffer.write(reply.stderr)
    if args.stats:
        print(f"[cycles={reply.cycles} insts={reply.insts}]",
              file=sys.stderr)
    if args.dump_files:
        for name, content in sorted((reply.files or {}).items()):
            print(f"--- {name} ---", file=sys.stderr)
            sys.stderr.write(content.decode("utf-8", "replace"))
    return int(reply.status)


if __name__ == "__main__":
    raise SystemExit(main())
