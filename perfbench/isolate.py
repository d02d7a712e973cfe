"""Run isolation: a fresh private root per run, and proof it was left clean.

Every run (and every set-up probe) works in its own directory under
``perfbench/.work/`` in the checkout: the artifact cache
(``WRL_CACHE_DIR``), the daemon's cache root, its socket and its log
all live there, and nothing else of the program's state is shared
between runs.  Every other ``WRL_*`` variable is removed from the
environment, so a developer's ``WRL_TRACE`` or ``WRL_CACHE=0`` cannot
change what a run measures.  The checkout's own ``.repro-cache/`` is
never read.

Bytecode is neither written nor read: the bytecode cache of this
process and of every child points into the run's own, empty root
(``sys.pycache_prefix`` / ``PYTHONPYCACHEPREFIX``), and nothing writes
to it.  So every run compiles the modules it imports from source,
whatever ``__pycache__`` directories earlier test runs left in the
checkout.

On exit the sandbox stops every process it started and their children,
then fails the run if a process is still alive or a file remains that
the program should not have left (a cache ``.tmp-*`` file, a socket the
daemon did not remove, bytecode, anything outside the cache layouts, or
another run root this run created), and deletes it either way.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from . import measure

_BLOB = r"objects/[0-9a-f]{2}/[0-9a-f]{64}"
#: Files the program may leave behind: cache blobs in the default store
#: and in each tenant namespace, and the daemon log.
ALLOWED = re.compile(
    rf"(cache/{_BLOB}|serve/tenants/[A-Za-z0-9._-]+/{_BLOB}"
    r"|daemon\.log)")
#: How long a stopped process tree may take to end before it is killed
#: and counted as left behind.
STOP_WAIT_S = 10.0


class IsolationError(RuntimeError):
    """A run left a process or a file behind."""


class Sandbox:
    """A private root plus a scrubbed environment for one run."""

    def __init__(self, checkout: Path):
        self.checkout = checkout
        self.base = checkout / "perfbench" / ".work"
        self.root: Path | None = None
        self._procs: list[subprocess.Popen] = []
        self._pids: set[int] = set()
        self._saved_env: dict[str, str] | None = None
        self._saved_prefix: str | None = None
        self._checkout_had: set[str] = set()
        self._base_had: set[str] = set()

    # ---- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Sandbox":
        self.base.mkdir(parents=True, exist_ok=True)
        self._base_had = set(os.listdir(self.base))
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=self.base))
        self._checkout_had = self._checkout_state()
        self._saved_env = dict(os.environ)
        for key in [k for k in os.environ if k.startswith("WRL_")]:
            del os.environ[key]
        os.environ["WRL_CACHE_DIR"] = str(self.cache_dir)
        os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
        os.environ["PYTHONPYCACHEPREFIX"] = str(self.pycache_dir)
        self._saved_prefix = sys.pycache_prefix
        sys.pycache_prefix = str(self.pycache_dir)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        problems = self.close()
        if problems and exc_type is None:
            raise IsolationError("; ".join(problems))

    def close(self) -> list[str]:
        """Stop children, check for leftovers, delete the root."""
        problems = self._stop_processes()
        if self.root is not None:
            problems += [f"file left in the run root: {p}"
                         for p in self.leftover_files()]
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None
            sys.pycache_prefix = self._saved_prefix
            # A run root of a probe this run started, left behind.
            for name in sorted(set(os.listdir(self.base)) - self._base_had):
                problems.append(f"run root left behind: {name}")
                shutil.rmtree(self.base / name, ignore_errors=True)
            try:
                self.base.rmdir()
            except OSError:
                pass
        problems += [f"run created {name} in the checkout"
                     for name in sorted(self._checkout_state()
                                        - self._checkout_had)]
        if self._saved_env is not None:
            os.environ.clear()
            os.environ.update(self._saved_env)
            self._saved_env = None
        return problems

    # ---- paths and environment -------------------------------------------

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def serve_dir(self) -> Path:
        return self.root / "serve"

    @property
    def pycache_dir(self) -> Path:
        """Where every process of the run looks for bytecode: it is
        never created, so nothing is read from it."""
        return self.root / "pyc"

    def child_env(self) -> dict[str, str]:
        """The scrubbed environment plus the checkout's ``src`` on the
        import path, for a child Python process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.checkout / "src")
        return env

    # ---- processes -------------------------------------------------------

    def spawn(self, argv, **kw) -> subprocess.Popen:
        """Start a child that ``close`` will stop and account for,
        together with every process below it."""
        proc = subprocess.Popen(argv, env=self.child_env(), **kw)
        self._procs.append(proc)
        self._pids.add(proc.pid)
        return proc

    def watch(self, pids) -> None:
        """Also require ``pids`` to be gone: the children of a child
        that is about to exit, which ``close`` could not find later."""
        self._pids.update(pids)

    def _stop_processes(self) -> list[str]:
        # Take the whole tree first: killing a child orphans its own
        # children, out of reach of a later walk.
        pids = set(self._pids)
        for proc in self._procs:
            pids.update(measure.descendants(proc.pid))
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(STOP_WAIT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(STOP_WAIT_S)
        left = measure.wait_gone(pids, STOP_WAIT_S)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        measure.wait_gone(left, 5.0)
        return [f"process {pid} still running after the run"
                for pid in left]

    # ---- leftovers -------------------------------------------------------

    def leftover_files(self) -> list[str]:
        """Files under the root that no allowed layout explains."""
        out = []
        for dirpath, _, files in os.walk(self.root):
            for name in files:
                rel = Path(dirpath, name).relative_to(self.root)
                if not ALLOWED.fullmatch(rel.as_posix()):
                    out.append(rel.as_posix())
        return sorted(out)

    def _checkout_state(self) -> set[str]:
        """Program state a run could wrongly create in the checkout."""
        names = {".repro-cache", ".repro-serve.sock"}
        found = {n for n in names if (self.checkout / n).exists()}
        src = self.checkout / "src"
        found |= {str(p.relative_to(self.checkout))
                  for p in src.rglob("__pycache__")}
        return found
