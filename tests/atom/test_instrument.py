"""End-to-end instrumentation tests: every placement, every argument kind,
all optimization levels, pristine behavior."""

import pytest

from repro.atom import (AtomError, BlockAfter, BlockBefore, BrCondValue,
                        EffAddrValue, InstAfter, InstBefore, InstTypeCall,
                        InstTypeCondBr, InstTypeLoad, InstTypeMemRef,
                        InstTypeStore, OptLevel, ProcAfter, ProcBefore,
                        ProgramAfter, ProgramBefore,
                        instrument_executable)
from repro.isa import registers as R

from .conftest import parse_counts


def instr(app, fn, anal, **kw):
    return instrument_executable(app, fn, anal, **kw)


class TestPlacements:
    def test_program_before_after(self, app, counter_analysis, run):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            atom.AddCallProgram(ProgramBefore, "Count", 0)
            atom.AddCallProgram(ProgramBefore, "Count", 0)
            atom.AddCallProgram(ProgramAfter, "Count", 1)
            atom.AddCallProgram(ProgramAfter, "Report")
        res = instr(app, Instrument, counter_analysis)
        result = run(res.module)
        counts = parse_counts(result)
        assert counts[0] == 2 and counts[1] == 1

    def test_proc_before_counts_calls(self, app, counter_analysis, run):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            mix = atom.GetNamedProc("mix")
            atom.AddCallProc(mix, ProcBefore, "Count", 7)
            atom.AddCallProgram(ProgramAfter, "Report")
        result = run(instr(app, Instrument, counter_analysis).module)
        # mix called for i % 3 == 0 within 0..15: 6 times.
        assert parse_counts(result)[7] == 6

    def test_proc_after_matches_before(self, app, counter_analysis, run):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            mix = atom.GetNamedProc("mix")
            atom.AddCallProc(mix, ProcBefore, "Count", 1)
            atom.AddCallProc(mix, ProcAfter, "Count", 2)
            atom.AddCallProgram(ProgramAfter, "Report")
        counts = parse_counts(run(
            instr(app, Instrument, counter_analysis).module))
        assert counts[1] == counts[2] == 6

    def test_block_counting(self, app, counter_analysis, run):
        """The Pixie-style basic block counter: dynamic instruction count
        equals the uninstrumented run's instruction count."""
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("CountBy(int, long)")
            atom.AddCallProto("Report()")
            for p in atom.procs():
                for b in atom.blocks(p):
                    atom.AddCallBlock(b, BlockBefore, "CountBy", 1,
                                      atom.GetBlockInstCount(b))
            atom.AddCallProgram(ProgramAfter, "Report")
        base = run(app)
        result = run(instr(app, Instrument, counter_analysis).module)
        assert parse_counts(result)[1] == base.inst_count

    def test_block_after_runs_when_block_completes(self, app,
                                                   counter_analysis, run):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            mix = atom.GetNamedProc("mix")
            for b in atom.blocks(mix):
                atom.AddCallBlock(b, BlockBefore, "Count", 3)
                atom.AddCallBlock(b, BlockAfter, "Count", 4)
            atom.AddCallProgram(ProgramAfter, "Report")
        counts = parse_counts(run(
            instr(app, Instrument, counter_analysis).module))
        assert counts[3] == counts[4] > 0

    def test_inst_before_after(self, app, counter_analysis, run):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            mix = atom.GetNamedProc("mix")
            first = atom.GetFirstInst(atom.GetFirstBlock(mix))
            atom.AddCallInst(first, InstBefore, "Count", 5)
            if not first.inst.is_control_transfer():
                atom.AddCallInst(first, InstAfter, "Count", 6)
            atom.AddCallProgram(ProgramAfter, "Report")
        counts = parse_counts(run(
            instr(app, Instrument, counter_analysis).module))
        assert counts[5] == counts[6] == 6

    def test_calls_made_in_order_added(self, build_app, build_analysis,
                                       run):
        app = build_app("int main() { return 0; }")
        anal = build_analysis(r"""
        FILE *f;
        void Open(void) { f = fopen("order.out", "w"); }
        void Emit(long c) { fputc(c, f); }
        void Close(void) { fclose(f); }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Open()")
            atom.AddCallProto("Emit(int)")
            atom.AddCallProto("Close()")
            atom.AddCallProgram(ProgramBefore, "Open")
            main = atom.GetNamedProc("main")
            for ch in "atom!":
                atom.AddCallProc(main, ProcBefore, "Emit", ord(ch))
            atom.AddCallProgram(ProgramAfter, "Close")
        result = run(instr(app, Instrument, anal).module)
        assert result.files["order.out"] == b"atom!"

    def test_edge_instrumentation_not_implemented(self, app,
                                                  counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallEdge()
        with pytest.raises(NotImplementedError):
            instr(app, Instrument, counter_analysis)


class TestArguments:
    def test_brcond_value(self, build_app, build_analysis, run):
        app = build_app(r"""
        int main() {
            long i, odd = 0;
            for (i = 0; i < 10; i++) if (i & 1) odd++;
            printf("%d\n", odd);
            return 0;
        }
        """)
        anal = build_analysis(r"""
        long taken, nottaken;
        void Br(long t) { if (t) taken++; else nottaken++; }
        void Dump(void) {
            FILE *f = fopen("br.out", "w");
            fprintf(f, "%d %d\n", taken, nottaken);
            fclose(f);
        }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Br(VALUE)")
            atom.AddCallProto("Dump()")
            main = atom.GetNamedProc("main")
            for b in atom.blocks(main):
                last = atom.GetLastInst(b)
                if atom.IsInstType(last, InstTypeCondBr):
                    atom.AddCallInst(last, InstBefore, "Br", BrCondValue)
            atom.AddCallProgram(ProgramAfter, "Dump")
        result = run(instr(app, Instrument, anal).module)
        taken, nottaken = map(int, result.files["br.out"].split())
        # Sanity: both outcomes occur, and totals match loop structure.
        assert taken > 0 and nottaken > 0

    def test_effaddr_value(self, build_app, build_analysis, run):
        app = build_app(r"""
        long cells[8];
        int main() {
            long i;
            for (i = 0; i < 8; i++) cells[i] = i;
            return (int)cells[3];
        }
        """)
        anal = build_analysis(r"""
        long lo = -1;
        long hi = 0;
        long n;
        void Store(long addr) {
            if (lo == -1 || addr < lo) lo = addr;
            if (addr > hi) hi = addr;
            n++;
        }
        void Dump(void) {
            FILE *f = fopen("addr.out", "w");
            fprintf(f, "%d %d %d\n", lo, hi, n);
            fclose(f);
        }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Store(VALUE)")
            atom.AddCallProto("Dump()")
            main = atom.GetNamedProc("main")
            for ir in atom.insts(main):
                if atom.IsInstType(ir, InstTypeStore):
                    atom.AddCallInst(ir, InstBefore, "Store", EffAddrValue)
            atom.AddCallProgram(ProgramAfter, "Dump")
        res = instr(app, Instrument, anal)
        result = run(res.module)
        lo, hi, n = map(int, result.files["addr.out"].split())
        cells = res.module.addr_of("cells")
        assert lo <= cells and hi >= cells + 56
        assert n >= 8

    def test_regv_passes_register_contents(self, build_app,
                                           build_analysis, run):
        app = build_app(r"""
        long probe(long x) { return x + 1; }
        int main() { return (int)probe(41); }
        """)
        anal = build_analysis(r"""
        long seen;
        void Grab(long v) { seen = v; }
        void Dump(void) {
            FILE *f = fopen("regv.out", "w");
            fprintf(f, "%d\n", seen);
            fclose(f);
        }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Grab(REGV)")
            atom.AddCallProto("Dump()")
            probe = atom.GetNamedProc("probe")
            # At probe entry, a0 holds the first argument: 41.
            atom.AddCallProc(probe, ProcBefore, "Grab", R.A0)
            atom.AddCallProgram(ProgramAfter, "Dump")
        result = run(instr(app, Instrument, anal).module)
        assert result.files["regv.out"].strip() == b"41"
        assert result.status == 42

    def test_string_argument(self, build_app, build_analysis, run):
        app = build_app("int main() { return 0; }")
        anal = build_analysis(r"""
        FILE *f;
        void Open(void) { f = fopen("s.out", "w"); }
        void Say(char *s, long n) { fprintf(f, "%s=%d;", s, n); }
        void Close(void) { fclose(f); }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Open()")
            atom.AddCallProto("Say(char *, long)")
            atom.AddCallProto("Close()")
            atom.AddCallProgram(ProgramBefore, "Open")
            for p in atom.procs():
                if p.name in ("main", "_exit"):
                    atom.AddCallProc(p, ProcBefore, "Say", p.name,
                                     atom.GetProcInstCount(p))
            atom.AddCallProgram(ProgramAfter, "Close")
        result = run(instr(app, Instrument, anal).module)
        text = result.files["s.out"].decode()
        assert "main=" in text and "_exit=" in text

    def test_array_argument(self, build_app, build_analysis, run):
        """Footnote 4: passing arrays (here, a table built at
        instrumentation time)."""
        app = build_app("int main() { return 0; }")
        anal = build_analysis(r"""
        void DumpTable(long *tbl, long n) {
            FILE *f = fopen("tbl.out", "w");
            long i;
            for (i = 0; i < n; i++) fprintf(f, "%d ", tbl[i]);
            fclose(f);
        }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("DumpTable(long[], long)")
            atom.AddCallProgram(ProgramAfter, "DumpTable",
                                [10, 20, 30, 40], 4)
        result = run(instr(app, Instrument, anal).module)
        assert result.files["tbl.out"].decode().split() == \
            ["10", "20", "30", "40"]

    def test_pc_constants_are_original(self, app, counter_analysis,
                                       build_analysis, run):
        """InstPC materializes original addresses (pristine text view)."""
        anal = build_analysis(r"""
        long pcs[4];
        long n;
        void Pc(long pc) { if (n < 4) pcs[n++] = pc; }
        void Dump(void) {
            FILE *f = fopen("pc.out", "w");
            long i;
            for (i = 0; i < n; i++) fprintf(f, "%x\n", pcs[i]);
            fclose(f);
        }
        """)
        seen = []

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Pc(long)")
            atom.AddCallProto("Dump()")
            mix = atom.GetNamedProc("mix")
            first = atom.GetFirstInst(atom.GetFirstBlock(mix))
            seen.append(atom.InstPC(first))
            atom.AddCallProgram(ProgramBefore, "Pc", atom.InstPC(first))
            atom.AddCallProgram(ProgramAfter, "Dump")
            # Instrument the first procedure too, so code layout shifts
            # and mix genuinely moves.
            atom.AddCallProc(atom.GetFirstProc(), ProcBefore, "Pc", 0)
        res = instr(app, Instrument, anal)
        result = run(res.module)
        reported = int(result.files["pc.out"].split()[0], 16)
        assert reported == seen[0] == app.addr_of("mix")
        # The *new* address of mix differs (code moved).
        assert res.module.addr_of("mix") != app.addr_of("mix")

    def test_stack_args_beyond_six(self, build_app, build_analysis, run):
        app = build_app("int main() { return 0; }")
        anal = build_analysis(r"""
        void Eight(long a, long b, long c, long d,
                   long e, long f, long g, long h) {
            FILE *out = fopen("eight.out", "w");
            fprintf(out, "%d %d %d %d %d %d %d %d\n",
                    a, b, c, d, e, f, g, h);
            fclose(out);
        }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto(
                "Eight(long, long, long, long, long, long, long, long)")
            atom.AddCallProgram(ProgramBefore, "Eight",
                                1, 2, 3, 4, 5, 6, 7, 8)
        result = run(instr(app, Instrument, anal).module)
        assert result.files["eight.out"].decode().split() == \
            [str(i) for i in range(1, 9)]


class TestStats:
    def test_points_count_sites_calls_count_actions(self, build_app,
                                                    counter_analysis):
        """``points`` is distinct non-empty hook sites; ``calls_added`` is
        one per action.  Stacking actions on one site must not inflate
        ``points``."""
        app = build_app(r"""
        long one(long x) { return x + 1; }
        int main() { return (int)one(3); }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            one = atom.GetNamedProc("one")
            # Three actions stacked on the same site: one point.
            atom.AddCallProc(one, ProcBefore, "Count", 1)
            atom.AddCallProc(one, ProcBefore, "Count", 2)
            atom.AddCallProc(one, ProcBefore, "Count", 3)

        res = instr(app, Instrument, counter_analysis)
        assert res.stats.points == 1
        assert res.stats.calls_added == 3

    def test_points_distinct_sites_counted_separately(self, build_app,
                                                      counter_analysis):
        app = build_app(r"""
        long one(long x) { return x + 1; }
        int main() { return (int)one(3); }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            one = atom.GetNamedProc("one")
            atom.AddCallProc(one, ProcBefore, "Count", 1)
            atom.AddCallProc(one, ProcAfter, "Count", 2)
            atom.AddCallProgram(ProgramBefore, "Count", 3)

        res = instr(app, Instrument, counter_analysis)
        # Entry site, exit site (single return), and the program hook.
        assert res.stats.points == 3
        assert res.stats.calls_added == 3


class TestValidation:
    def test_missing_proto_rejected(self, app, counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProgram(ProgramBefore, "Nope")
        with pytest.raises(AtomError, match="prototype"):
            instr(app, Instrument, counter_analysis)

    def test_wrong_arg_count_rejected(self, app, counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProgram(ProgramBefore, "Count", 1, 2)
        with pytest.raises(AtomError, match="argument"):
            instr(app, Instrument, counter_analysis)

    def test_unknown_analysis_routine_rejected(self, app,
                                               counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Missing(int)")
            atom.AddCallProgram(ProgramBefore, "Missing", 1)
        with pytest.raises(KeyError, match="Missing"):
            instr(app, Instrument, counter_analysis)

    def test_brcond_only_on_cond_branches(self, app, counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(VALUE)")
            mix = atom.GetNamedProc("mix")
            first = atom.GetFirstInst(atom.GetFirstBlock(mix))
            atom.AddCallInst(first, InstBefore, "Count", BrCondValue)
        with pytest.raises(AtomError, match="BrCondValue"):
            instr(app, Instrument, counter_analysis)

    def test_effaddr_only_on_memory_refs(self, app, counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(VALUE)")
            for ir in atom.insts():
                if atom.IsInstType(ir, InstTypeCondBr):
                    atom.AddCallInst(ir, InstBefore, "Count", EffAddrValue)
                    return
        with pytest.raises(AtomError, match="EffAddrValue"):
            instr(app, Instrument, counter_analysis)

    def test_inst_after_on_branch_rejected(self, app, counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            for ir in atom.insts():
                if atom.IsInstType(ir, InstTypeCondBr):
                    atom.AddCallInst(ir, InstAfter, "Count", 1)
                    return
        with pytest.raises(AtomError, match="InstAfter"):
            instr(app, Instrument, counter_analysis)

    def test_tool_args_passed(self, app, counter_analysis):
        got = []

        def Instrument(iargc, iargv, atom):
            got.append((iargc, iargv))
        instr(app, Instrument, counter_analysis,
              tool_args=("-n", "5"))
        assert got[0][0] == 3
        assert got[0][1][1:] == ("-n", "5")


class TestPristineBehavior:
    """Paper Section 4: the application must run as if uninstrumented."""

    def _heavy_instrument(self, atom):
        atom.AddCallProto("Count(int)")
        atom.AddCallProto("Report()")
        for p in atom.procs():
            for b in atom.blocks(p):
                atom.AddCallBlock(b, BlockBefore, "Count", 9)
        atom.AddCallProgram(ProgramAfter, "Report")

    def test_output_identical(self, app, counter_analysis, run):
        base = run(app)
        res = instr(app, self_fn(self._heavy_instrument),
                    counter_analysis)
        result = run(res.module)
        assert result.stdout == base.stdout
        assert result.status == base.status

    def test_data_addresses_unchanged(self, app, counter_analysis):
        res = instr(app, self_fn(self._heavy_instrument),
                    counter_analysis)
        for sym in app.symtab:
            if sym.section in (".data", ".bss", ".lita") and sym.defined:
                assert res.module.addr_of(sym.name) == sym.value, sym.name

    def test_heap_and_stack_unchanged(self, app, counter_analysis, run):
        base = run(app)
        res = instr(app, self_fn(self._heavy_instrument),
                    counter_analysis)
        result = run(res.module)
        assert result.heap_base == base.heap_base
        assert result.initial_sp == base.initial_sp

    def test_heap_pointer_values_identical(self, build_app,
                                           counter_analysis, run):
        """malloc in the instrumented run returns the same addresses
        (linked-sbrk mode, analysis allocates after the app)."""
        app = build_app(r"""
        int main() {
            printf("%p %p\n", malloc(64), malloc(128));
            return 0;
        }
        """)
        base = run(app)
        res = instr(app, self_fn(self._heavy_instrument),
                    counter_analysis)
        assert run(res.module).stdout == base.stdout

    def test_adversarial_register_usage(self, build_analysis, run):
        """A hand-written application that violates calling conventions:
        it fills every caller-saved register with a known value, is
        instrumented in the middle, then checks every register survived."""
        from repro.isa.asm import assemble
        from repro.objfile.linker import link

        regs = ["v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
                "t8", "t9", "t10", "t11", "a0", "a1", "a2", "a3", "a4",
                "a5", "at", "pv"]
        fill = "\n".join(f"        li {r}, {0x1000 + i}"
                         for i, r in enumerate(regs))
        check = "\n".join(
            f"        subq {r}, {0x1000 + i}, s2\n"
            f"        bne s2, bad" for i, r in enumerate(regs))
        src = f"""
        .text
        .globl __start
        .ent __start
__start:
        ldgp
{fill}
        .globl checkpoint
        .ent checkpoint
checkpoint:
{check}
        clr a0
        br done
bad:    li a0, 1
done:   li v0, 1
        sys
        .end checkpoint
        .end __start
"""
        # Note: nested .ent is not allowed; build as two procs instead.
        src = f"""
        .text
        .globl __start
        .ent __start
__start:
        ldgp
{fill}
        br checkpoint
        .end __start
        .globl checkpoint
        .ent checkpoint
checkpoint:
{check}
        clr a0
        br done
bad:    li a0, 1
done:   li v0, 1
        sys
        .end checkpoint
"""
        app = link([assemble(src, "adv.s")])
        anal = build_analysis(r"""
        long hits;
        void Clobber(long a, long b, long c) {
            // Touch lots of registers and call around.
            char buf[64];
            sprintf(buf, "%d %d %d %d", a, b, c, a * b + c);
            hits += strlen(buf);
        }
        """)

        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Clobber(long, long, long)")
            cp = atom.GetNamedProc("checkpoint")
            atom.AddCallProc(cp, ProcBefore, "Clobber", 11, 22, 33)
        for level in (OptLevel.O0, OptLevel.O1, OptLevel.O2):
            res = instr(app, Instrument, anal, opt=level)
            result = run(res.module)
            assert result.status == 0, f"registers clobbered at {level!r}"


def self_fn(bound):
    """Adapt a bound single-arg instrument helper to the 3-arg protocol."""
    def Instrument(iargc, iargv, atom):
        bound(atom)
    return Instrument


class TestOptLevels:
    @pytest.mark.parametrize("level", [OptLevel.O0, OptLevel.O1,
                                       OptLevel.O2, OptLevel.O3])
    def test_all_levels_correct(self, app, counter_analysis, run, level):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            for p in atom.procs():
                for b in atom.blocks(p):
                    atom.AddCallBlock(b, BlockBefore, "Count", 2)
            atom.AddCallProgram(ProgramAfter, "Report")
        base = run(app)
        res = instr(app, Instrument, counter_analysis, opt=level)
        result = run(res.module)
        assert result.stdout == base.stdout
        assert parse_counts(result)[2] > 0

    def test_higher_levels_cheaper(self, app, counter_analysis, run):
        """O1's summary-based saves beat O0's save-everything."""
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            for p in atom.procs():
                for b in atom.blocks(p):
                    atom.AddCallBlock(b, BlockBefore, "Count", 2)
            atom.AddCallProgram(ProgramAfter, "Report")
        cycles = {}
        for level in (OptLevel.O0, OptLevel.O1, OptLevel.O2):
            res = instr(app, Instrument, counter_analysis, opt=level)
            cycles[level] = run(res.module).cycles
        assert cycles[OptLevel.O1] < cycles[OptLevel.O0]
        assert cycles[OptLevel.O2] < cycles[OptLevel.O0]

    def test_save_sets_smaller_at_o1(self, app, counter_analysis):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            main = atom.GetNamedProc("main")
            atom.AddCallProc(main, ProcBefore, "Count", 0)
        r0 = instr(app, Instrument, counter_analysis, opt=OptLevel.O0)
        r1 = instr(app, Instrument, counter_analysis, opt=OptLevel.O1)
        assert r1.stats.save_set_sizes["Count"] < \
            r0.stats.save_set_sizes["Count"]


class TestFarCalls:
    """The bsr-vs-jsr decision of paper Section 4: when the analysis
    routines are beyond the signed 21-bit pc-relative reach, the
    procedure value is loaded into a register and jsr used."""

    def _tool(self):
        def Instrument(iargc, iargv, atom):
            atom.AddCallProto("Count(int)")
            atom.AddCallProto("Report()")
            for p in atom.procs():
                for b in atom.blocks(p):
                    atom.AddCallBlock(b, BlockBefore, "Count", 4)
            atom.AddCallProgram(ProgramAfter, "Report")
        return Instrument

    @pytest.mark.parametrize("level", [OptLevel.O1, OptLevel.O2,
                                       OptLevel.O3])
    def test_far_call_mode_correct(self, app, counter_analysis, run,
                                   level):
        base = run(app)
        res = instr(app, self._tool(), counter_analysis, opt=level,
                    force_far_calls=True)
        result = run(res.module)
        assert result.stdout == base.stdout
        assert parse_counts(result)[4] > 0

    def test_far_mode_emits_jsr(self, app, counter_analysis):
        from repro.isa import encoding, opcodes
        near = instr(app, self._tool(), counter_analysis)
        far = instr(app, self._tool(), counter_analysis,
                    force_far_calls=True)

        def count_jsr(module):
            return sum(1 for i in encoding.decode_stream(
                bytes(module.section(".text").data))
                if i.op is opcodes.JSR)
        assert count_jsr(far.module) > count_jsr(near.module)


class TestInputs:
    @staticmethod
    def Instrument(iargc, iargv, atom):
        atom.AddCallProto("Count(int)")
        atom.AddCallProto("Report()")
        for p in atom.procs():
            for b in atom.blocks(p):
                atom.AddCallBlock(b, BlockBefore, "Count", 2)
        atom.AddCallProgram(ProgramAfter, "Report")

    def test_inputs_byte_unchanged(self, app, counter_analysis):
        """Neither input module is mutated, at any level: the O1+
        renaming and O2 in-frame rewrite work on the instrumenter's own
        copy of the analysis unit."""
        app_bytes = app.to_bytes()
        unit_bytes = counter_analysis.to_bytes()
        for level in OptLevel:
            instr(app, self.Instrument, counter_analysis, opt=level)
        assert app.to_bytes() == app_bytes
        assert counter_analysis.to_bytes() == unit_bytes

    def test_serialized_unit_rewrites_identically(self, app,
                                                  counter_analysis):
        as_module = instr(app, self.Instrument, counter_analysis,
                          opt=OptLevel.O4)
        as_bytes = instr(app, self.Instrument, counter_analysis.to_bytes(),
                         opt=OptLevel.O4)
        assert as_bytes.module.to_bytes() == as_module.module.to_bytes()
        assert as_bytes.stats == as_module.stats
