"""Seeded generator of random-but-valid mini-C programs.

The fuzzed-program generator the ROADMAP calls for: given a seed it
emits one deterministic MLC translation unit, weighted toward the
constructs that stress the instrumentation optimizer and fused dispatch
— nested loops with back-edges, call graphs with (mutual) recursion,
pointer aliasing through locals/globals/arrays, mixed-width
byte/word/long/quad memory traffic through a multi-page buffer (so
accesses straddle page boundaries), and longjmp-style early exits.

Every generated program is safe by construction:

* **termination** — every loop is counted with a bounded trip count,
  and every call (including self- and mutual recursion) passes ``d - 1``
  for a depth parameter its callee checks first thing, so call chains
  strictly shrink;
* **memory** — array indexes and buffer offsets are masked to their
  bounds before use, so no access can fault;
* **arithmetic** — divisors are ``(e & 15) + 1`` (never zero) and shift
  counts are masked to 0..63;
* **non-local exits** — ``longjmp`` only ever fires under the live
  ``setjmp`` main establishes around each phase call.

The program folds everything it computes into one checksum printed at
exit, so any miscomputation anywhere changes the observable output.
Two calls with the same seed and weights produce byte-identical source
(``random.Random`` is stable across platforms and Python versions).

``python -m repro.mlc.fuzz --seed N`` prints one program;
``--count K --out-dir DIR`` emits a corpus (see tests/fuzz/corpus/).
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field, replace

#: Sizes shared with the harness.  BUF spans three 4 KiB pages no matter
#: where the linker places it, so masked offsets in 0..8191 reach at
#: least one page boundary with every access width.
ARRAY_LEN = 64
BUF_LEN = 12288
BUF_MASK = 8191

#: (cast, mask) per access width for BUF traffic; the mask keeps the
#: access inside BUF for the largest width while still crossing pages.
WIDTHS = (("long", "quad"), ("int", "long"), ("short", "word"),
          ("char", "byte"))


@dataclass(frozen=True)
class GrammarWeights:
    """Relative weights for each construct plus structural knobs.

    The defaults lean toward loops, calls and memory traffic — the
    shapes that exercise superblock fusion, region promotion and the
    O1–O4 save/inline machinery hardest.
    """

    # statement kinds
    assign: float = 4.0
    array_update: float = 3.0       # G[e & 63] op= e  (aliasing via index)
    mem_update: float = 3.0         # *(T *)(BUF + (e & mask)) = e
    ptr_update: float = 2.0         # retarget / write through pointer local
    loop_for: float = 3.0
    loop_while: float = 1.2
    loop_dowhile: float = 0.8
    branch_if: float = 2.5
    branch_switch: float = 0.9
    call_stmt: float = 2.2
    break_stmt: float = 0.5
    continue_stmt: float = 0.5
    longjmp_stmt: float = 0.4
    return_stmt: float = 0.5

    # expression kinds
    leaf_const: float = 2.0
    leaf_var: float = 3.5
    leaf_array: float = 1.8
    leaf_mem: float = 1.3           # typed BUF read
    leaf_ptr: float = 1.0           # *p
    binop: float = 4.0
    divmod: float = 0.7
    shift: float = 1.4
    compare: float = 1.2
    logic: float = 0.8
    ternary: float = 0.7
    unary: float = 1.0
    cast: float = 1.0
    call_expr: float = 1.0

    # structure
    n_funcs: tuple[int, int] = (3, 5)
    n_phases: tuple[int, int] = (2, 3)
    body_stmts: tuple[int, int] = (3, 6)
    block_stmts: tuple[int, int] = (1, 3)
    max_stmt_depth: int = 3
    max_expr_depth: int = 3
    loop_trip: tuple[int, int] = (2, 6)
    hot_trip: tuple[int, int] = (64, 72)
    call_depth: tuple[int, int] = (3, 5)
    n_scalars: int = 5              # long g0..g{n-1}
    n_locals: tuple[int, int] = (2, 4)
    #: cap on one function's total loop-iteration weight (the sum over
    #: its loops of the product of enclosing trip counts) — the governor
    #: that keeps the p95 program from blowing the harness's run budget
    fn_iter_budget: int = 40


#: Named weight profiles, rotated across seeds by the harness for
#: diversity without any extra configuration surface.
PROFILES: dict[str, GrammarWeights] = {
    "default": GrammarWeights(),
    "loops": GrammarWeights(loop_for=6.0, loop_while=3.0, loop_dowhile=2.0,
                            branch_if=1.5, call_stmt=1.0, call_expr=0.4,
                            max_stmt_depth=4),
    "calls": GrammarWeights(call_stmt=5.0, call_expr=2.5, return_stmt=1.2,
                            longjmp_stmt=0.8, n_funcs=(4, 6),
                            call_depth=(4, 6)),
    "memory": GrammarWeights(mem_update=6.0, array_update=5.0,
                             ptr_update=4.0, leaf_mem=3.0, leaf_array=3.0,
                             leaf_ptr=2.5, assign=2.0),
}


def profile_for(seed: int, name: str | None = None) -> GrammarWeights:
    """The weight profile a seed uses: explicit name, or seed rotation."""
    if name is not None:
        return PROFILES[name]
    return PROFILES[sorted(PROFILES)[seed % len(PROFILES)]]


# --------------------------------------------------------------------------


class _Scope:
    """What the statement/expression generators may reference here.

    ``readable`` and ``writable`` are separate pools: loop counters and
    the recursion-depth parameter ``d`` may be *read* anywhere, but are
    never assignment targets — a generated write to either could undo
    the termination argument (reset a counter, regrow the depth).
    """

    def __init__(self, *, writable, readonly, pointers, in_func,
                 can_longjmp):
        self.writable = list(writable)    # assignable long lvalues
        self.readonly = list(readonly)    # counters, depth param
        self.pointers = list(pointers)    # long * locals
        self.in_func = in_func            # return/longjmp legal, has a,b,d
        self.can_longjmp = can_longjmp
        self.loop_depth = 0
        self.switch_depth = 0
        self.iter_mult = 1        # product of enclosing loop trip counts

    @property
    def readable(self) -> list[str]:
        return self.writable + self.readonly


class ProgramGen:
    """One seeded program; :meth:`source` renders the text."""

    def __init__(self, seed: int, weights: GrammarWeights | None = None):
        self.seed = seed
        self.w = weights or profile_for(seed)
        self.rng = random.Random((0xA70A << 20) ^ seed)
        self.n_funcs = self.rng.randint(*self.w.n_funcs)
        self._counter = 0
        self._fn_iters = 0

    # ---- helpers ---------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _pick(self, table: list[tuple[str, float]]) -> str:
        total = sum(weight for _, weight in table)
        x = self.rng.uniform(0, total)
        for name, weight in table:
            x -= weight
            if x <= 0:
                return name
        return table[-1][0]

    def _const(self) -> str:
        r = self.rng
        kind = r.randrange(6)
        if kind == 0:
            return str(r.randint(0, 9))
        if kind == 1:
            return str(r.randint(-128, 255))
        if kind == 2:
            return hex(r.getrandbits(16))
        if kind == 3:
            # page-boundary-adjacent offsets: the interesting addresses
            return str(r.choice([4095, 4096, 4097, 8190, 8191, 4093]))
        if kind == 4:
            return hex(r.getrandbits(32))
        return str(r.choice([1, 2, 3, 7, 15, 31, 63, 255]))

    # ---- expressions -----------------------------------------------------

    def expr(self, sc: _Scope, depth: int = 0) -> str:
        w = self.w
        r = self.rng
        table = [("const", w.leaf_const), ("var", w.leaf_var),
                 ("array", w.leaf_array), ("mem", w.leaf_mem)]
        if sc.pointers:
            table.append(("ptr", w.leaf_ptr))
        if depth < w.max_expr_depth:
            table += [("binop", w.binop), ("divmod", w.divmod),
                      ("shift", w.shift), ("compare", w.compare),
                      ("logic", w.logic), ("ternary", w.ternary),
                      ("unary", w.unary), ("cast", w.cast)]
            if sc.in_func:
                table.append(("call", w.call_expr))
        kind = self._pick(table)
        e = lambda: self.expr(sc, depth + 1)  # noqa: E731
        if kind == "const":
            return self._const()
        if kind == "var":
            return r.choice(sc.readable)
        if kind == "array":
            return f"G[({e()}) & {ARRAY_LEN - 1}]"
        if kind == "mem":
            ctype, _ = r.choice(WIDTHS)
            if ctype == "char":
                return f"(long)BUF[({e()}) & {BUF_MASK}]"
            return f"(long)*({ctype} *)(BUF + (({e()}) & {BUF_MASK}))"
        if kind == "ptr":
            return f"*{r.choice(sc.pointers)}"
        if kind == "binop":
            op = r.choice(["+", "-", "*", "&", "|", "^"])
            return f"({e()} {op} {e()})"
        if kind == "divmod":
            op = r.choice(["/", "%"])
            return f"({e()} {op} ((({e()}) & 15) + 1))"
        if kind == "shift":
            op = r.choice(["<<", ">>"])
            return f"({e()} {op} (({e()}) & 63))"
        if kind == "compare":
            op = r.choice(["<", "<=", ">", ">=", "==", "!="])
            return f"({e()} {op} {e()})"
        if kind == "logic":
            op = r.choice(["&&", "||"])
            return f"({e()} {op} {e()})"
        if kind == "ternary":
            return f"({e()} ? {e()} : {e()})"
        if kind == "unary":
            # the space matters: "-" followed by a negative literal
            # would otherwise lex as the "--" operator
            op = r.choice(["-", "~", "!"])
            return f"({op} {e()})"
        if kind == "cast":
            ctype = r.choice(["char", "short", "int", "unsigned long"])
            return f"(long)({ctype})({e()})"
        if kind == "call":
            return self._call(sc)
        raise AssertionError(kind)

    def _call(self, sc: _Scope) -> str:
        callee = self.rng.randrange(self.n_funcs)
        a = self.expr(sc, self.w.max_expr_depth - 1)
        b = self.expr(sc, self.w.max_expr_depth - 1)
        return f"f{callee}({a}, {b}, d - 1)"

    # ---- statements ------------------------------------------------------

    def _lvalue(self, sc: _Scope) -> str:
        r = self.rng
        kind = r.randrange(4)
        if kind == 0 or not sc.pointers:
            return r.choice(sc.writable)
        if kind == 1:
            return f"G[({self.expr(sc, 2)}) & {ARRAY_LEN - 1}]"
        if kind == 2:
            return f"*{r.choice(sc.pointers)}"
        return r.choice(sc.writable)

    def _trip(self, sc: _Scope, depth: int) -> int:
        """One loop's trip count: shrinks with nesting depth, and is
        clamped so the function's total iteration weight (trip products
        summed over loops) stays within ``fn_iter_budget``."""
        lo, hi = self.w.loop_trip
        hi = max(lo, hi >> depth)
        room = (self.w.fn_iter_budget - self._fn_iters) \
            // max(1, sc.iter_mult)
        trip = self.rng.randint(lo, max(lo, min(hi, room)))
        self._fn_iters += sc.iter_mult * trip
        return trip

    def stmt(self, sc: _Scope, out: list[str], indent: str,
             depth: int) -> None:
        w = self.w
        r = self.rng
        table = [("assign", w.assign), ("array", w.array_update),
                 ("mem", w.mem_update)]
        if sc.pointers:
            table.append(("ptr", w.ptr_update))
        if sc.in_func:
            table.append(("callst", w.call_stmt))
            table.append(("return", w.return_stmt))
            if sc.can_longjmp:
                table.append(("longjmp", w.longjmp_stmt))
        if depth < w.max_stmt_depth:
            table += [("if", w.branch_if), ("switch", w.branch_switch)]
            # the iteration governor: stop minting loops once this
            # function's worst-case trip product reaches its budget
            if sc.iter_mult * self.w.loop_trip[0] + self._fn_iters \
                    <= w.fn_iter_budget:
                table += [("for", w.loop_for), ("while", w.loop_while),
                          ("dowhile", w.loop_dowhile)]
        if sc.loop_depth > 0 and sc.switch_depth == 0:
            table += [("break", w.break_stmt),
                      ("continue", w.continue_stmt)]
        kind = self._pick(table)
        emit = lambda line: out.append(indent + line)  # noqa: E731

        if kind == "assign":
            op = r.choice(["=", "+=", "-=", "*=", "^=", "|=", "&="])
            emit(f"{self._lvalue(sc)} {op} {self.expr(sc)};")
        elif kind == "callst":
            acc = sc.writable[0]
            op = r.choice(["+=", "^="])
            emit(f"{acc} {op} {self._call(sc)};")
        elif kind == "return":
            emit(f"return {sc.writable[0]} ^ ({self.expr(sc, 2)});")
        elif kind == "array":
            op = r.choice(["=", "+=", "^="])
            emit(f"G[({self.expr(sc, 2)}) & {ARRAY_LEN - 1}] "
                 f"{op} {self.expr(sc)};")
        elif kind == "mem":
            ctype, _ = r.choice(WIDTHS)
            off = f"({self.expr(sc, 2)}) & {BUF_MASK}"
            if ctype == "char":
                emit(f"BUF[{off}] = (char)({self.expr(sc)});")
            else:
                emit(f"*({ctype} *)(BUF + ({off})) = {self.expr(sc)};")
        elif kind == "ptr":
            p = r.choice(sc.pointers)
            if r.random() < 0.5:
                emit(f"{p} = &G[({self.expr(sc, 2)}) & {ARRAY_LEN - 1}];")
            else:
                op = r.choice(["=", "+=", "^="])
                emit(f"*{p} {op} {self.expr(sc)};")
        elif kind == "longjmp":
            emit(f"if ((({self.expr(sc, 2)}) & 31) == 0) longjmp(JB, 1);")
        elif kind == "for":
            i = self._fresh("i")
            sc.readonly.append(i)
            trip = self._trip(sc, depth)
            emit(f"for ({i} = 0; {i} < {trip}; {i}++) {{")
            self._loop_body(sc, out, indent, depth, trip)
            emit("}")
        elif kind == "while":
            i = self._fresh("wc")
            sc.readonly.append(i)
            trip = self._trip(sc, depth)
            emit(f"{i} = 0;")
            emit(f"while ({i} < {trip}) {{")
            # counted first so a generated `continue` cannot skip it
            emit(f"    {i} += 1;")
            self._loop_body(sc, out, indent, depth, trip)
            emit("}")
        elif kind == "dowhile":
            i = self._fresh("dc")
            sc.readonly.append(i)
            trip = self._trip(sc, depth)
            emit(f"{i} = 0;")
            emit("do {")
            emit(f"    {i} += 1;")
            self._loop_body(sc, out, indent, depth, trip)
            emit(f"}} while ({i} < {trip});")
        elif kind == "if":
            emit(f"if ({self.expr(sc)}) {{")
            self.block(sc, out, indent + "    ", depth + 1)
            if r.random() < 0.4:
                emit("} else {")
                self.block(sc, out, indent + "    ", depth + 1)
            emit("}")
        elif kind == "switch":
            n = r.randint(2, 4)
            emit(f"switch (({self.expr(sc, 2)}) & {n - 1}) {{")
            sc.switch_depth += 1
            for case in range(n):
                emit(f"case {case}:")
                self.block(sc, out, indent + "    ", depth + 1)
                if r.random() < 0.75 or case == n - 1:
                    emit("    break;")
            if r.random() < 0.5:
                emit("default:")
                self.block(sc, out, indent + "    ", depth + 1)
            sc.switch_depth -= 1
            emit("}")
        elif kind == "break":
            emit("break;")
        elif kind == "continue":
            emit("continue;")
        else:
            raise AssertionError(kind)

    def _loop_body(self, sc: _Scope, out: list[str], indent: str,
                   depth: int, trip: int) -> None:
        sc.iter_mult *= trip
        self.block(sc, out, indent + "    ", depth + 1, loop=True)
        sc.iter_mult //= trip

    def block(self, sc: _Scope, out: list[str], indent: str, depth: int,
              loop: bool = False) -> None:
        if loop:
            sc.loop_depth += 1
        lo, hi = (self.w.block_stmts if depth else self.w.body_stmts)
        for _ in range(self.rng.randint(lo, hi)):
            self.stmt(sc, out, indent, depth)
        if loop:
            sc.loop_depth -= 1

    # ---- top level -------------------------------------------------------

    def _function(self, index: int) -> str:
        r = self.rng
        self._fn_iters = 0
        n_ptr = r.randint(0, 2)
        pointers = [self._fresh("p") for _ in range(n_ptr)]
        locals_ = [self._fresh("l")
                   for _ in range(r.randint(*self.w.n_locals))]
        globals_ = [f"g{k}" for k in range(self.w.n_scalars)]
        sc = _Scope(writable=["acc", "a", "b"] + locals_ + globals_,
                    readonly=["d"], pointers=pointers, in_func=True,
                    can_longjmp=True)
        body: list[str] = []
        self.block(sc, body, "    ", 0)
        # declarations for every loop counter the body minted
        decls = [f"    long acc = a ^ {self._const()};"]
        decls += [f"    long {name} = {self._const()};" for name in locals_]
        decls += [f"    long {name} = 0;" for name in sc.readonly[1:]]
        decls += [f"    long *{p} = &G[{r.randrange(ARRAY_LEN)}];"
                  for p in pointers]
        # the termination guard: the depth chain shrinks every call, and
        # FUEL caps total invocations whatever the call graph's shape
        guard = ("    FUEL -= 1;\n"
                 f"    if (d <= 0 || FUEL <= 0) "
                 f"return (a ^ {self._const()}) + b;")
        return "\n".join(
            [f"long f{index}(long a, long b, long d) {{"]
            + decls + [guard] + body
            + ["    return acc + b;", "}"])

    def _main(self) -> str:
        r = self.rng
        w = self.w
        n_phases = r.randint(*w.n_phases)
        depth = r.randint(*w.call_depth)
        sc = _Scope(writable=["fold"], readonly=[], pointers=[],
                    in_func=False, can_longjmp=False)
        # BSS is zero-initialized, so G/BUF start deterministic without
        # full init sweeps; sparse seeding keeps the skeleton cheap.
        lines = ["int main() {",
                 "    long i, k, ph, fold = 0;",
                 f"    FUEL = {r.randint(10, 16)};",
                 f"    for (i = 0; i < {BUF_LEN}; i += 257)",
                 "        BUF[i] = (char)(i * 131 + 7);",
                 "    for (i = 0; i < 16; i++)",
                 f"        G[(i * 5) & {ARRAY_LEN - 1}] = "
                 f"i * {r.randint(3, 97)} + {self._const()};"]
        lines.append(f"    for (ph = 0; ph < {n_phases}; ph++) {{")
        lines.append("        if (setjmp(JB) == 0) {")
        lines.append("            switch (ph) {")
        for ph in range(n_phases):
            a = self.expr(sc, 2)
            b = self.expr(sc, 2)
            callee = r.randrange(self.n_funcs)
            lines.append(f"            case {ph}: CHK = CHK * 31 + "
                         f"f{callee}({a}, {b}, {depth}); break;")
        lines.append("            }")
        lines.append("        } else {")
        lines.append("            CHK = (CHK << 1) ^ 0x5EED;")
        lines.append("        }")
        lines.append("    }")
        # the guaranteed-hot fold loop: trips well past the promotion
        # threshold, reading every G slot and strided mixed-width BUF
        hot = max(r.randint(*w.hot_trip), ARRAY_LEN)
        lines += [
            f"    for (i = 0; i < {hot}; i++) {{",
            f"        k = (long)*(int *)(BUF + ((i * 509) & "
            f"{BUF_MASK}));",
            f"        fold = (fold * 31 + G[i & {ARRAY_LEN - 1}]) ^ "
            "(k + ((long)BUF[(i * 127) & "
            f"{BUF_MASK}] << (i & 15)));",
            "    }",
            '    printf("chk=%x fold=%x\\n", '
            "(CHK ^ (unsigned long)fold) & 0xFFFFFFFF, "
            "fold & 0xFFFF);",
            "    return (int)(CHK & 63);",
            "}"]
        return "\n".join(lines)

    def source(self) -> str:
        header = [f"// wrl-fuzz seed={self.seed} "
                  f"profile={_profile_name(self.w)}",
                  f"long G[{ARRAY_LEN}];",
                  f"char BUF[{BUF_LEN}];",
                  "long JB[11];",
                  "long FUEL;",
                  "unsigned long CHK;"]
        header += [f"long g{k};" for k in range(self.w.n_scalars)]
        protos = [f"long f{k}(long a, long b, long d);"
                  for k in range(self.n_funcs)]
        # globals g* join every function scope through the scalar pool
        funcs = []
        for k in range(self.n_funcs):
            text = self._function(k)
            funcs.append(text)
        return "\n".join(header + protos + funcs + [self._main()]) + "\n"


def _profile_name(weights: GrammarWeights) -> str:
    for name, profile in PROFILES.items():
        if profile == weights:
            return name
    return "custom"


def generate_program(seed: int,
                     weights: GrammarWeights | None = None) -> str:
    """One deterministic program for ``seed`` (see module docstring)."""
    gen = ProgramGen(seed, weights)
    # widen the scalar pool with the global g* so functions alias them
    return gen.source()


def corpus_sources(count: int, seed0: int = 0,
                   profile: str | None = None) -> list[tuple[int, str]]:
    """``count`` programs starting at ``seed0``, profile-rotated."""
    return [(seed, generate_program(seed, profile_for(seed, profile)))
            for seed in range(seed0, seed0 + count)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.mlc.fuzz",
        description="emit deterministic fuzzed MLC programs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--profile", choices=sorted(PROFILES), default=None,
                    help="weight profile (default: rotate by seed)")
    ap.add_argument("--out-dir", default=None,
                    help="write seed_<n>.mlc files here instead of stdout")
    args = ap.parse_args(argv)
    programs = corpus_sources(args.count, args.seed, args.profile)
    if args.out_dir is None:
        for _, text in programs:
            sys.stdout.write(text)
        return 0
    from pathlib import Path
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for seed, text in programs:
        (out / f"seed_{seed:04d}.mlc").write_text(text)
    print(f"wrote {len(programs)} programs to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
