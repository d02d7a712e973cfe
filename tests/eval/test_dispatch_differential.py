"""The fused-vs-simple dispatch differential lane over real compiled
programs.

Fused dispatch promises to be architecturally invisible end to end:
whatever the mlc compiler emits, whatever a tool splices in at any opt
level, and whatever the deterministic profiler observes, a run on fused
superblocks must be byte-identical to the same run on the plain
per-instruction loop — exit status, stdout, output files,
``InstrumentStats``, simulated cycles and ``wrl-profile/v1`` artifacts
alike.  Hypothesis widens the analysis-routine population beyond the
hand-written tools.

The tier-up budget is lowered (the ``early_tiers`` fixture) so these
short programs reach the compiled tier, and every comparison checks
that the fused run compiled a superblock — otherwise "fused vs simple"
would compare the per-instruction walk with itself.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.atom import (OptLevel, ProcBefore, ProgramAfter,
                        instrument_executable)
from repro.machine import Machine
from repro.mlc import build_analysis_unit, build_executable
from repro.obs.runtime import PcSampler, profile_doc

from ..atom.test_o4_hypothesis import analysis_bodies, analysis_source

pytestmark = pytest.mark.usefixtures("early_tiers")

#: mlc-compiled example programs: hot loops, function calls (dynamic
#: re-entry), arrays, strings and file output.
EXAMPLE_PROGRAMS = {
    "checksum": r"""
int step(int acc, int v) { return (acc * 33 + v) & 0xFFFFFF; }
int main() {
    int i, acc = 7;
    char buf[64];
    for (i = 0; i < 64; i++) buf[i] = (i * 11) & 0x7F;
    for (i = 0; i < 400; i++) acc = step(acc, buf[i & 63]);
    printf("acc=%d\n", acc);
    return acc & 7;
}
""",
    "matmul": r"""
long a[8][8], b[8][8], c[8][8];
int main() {
    long i, j, k, t = 0;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++) { a[i][j] = i + j; b[i][j] = i - j; }
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++) {
            long s = 0;
            for (k = 0; k < 8; k++) s += a[i][k] * b[k][j];
            c[i][j] = s;
        }
    for (i = 0; i < 8; i++) t += c[i][i];
    printf("trace=%d\n", t);
    return 0;
}
""",
    "fileout": r"""
int main() {
    FILE *f = fopen("out.txt", "w");
    int i, acc = 0;
    for (i = 0; i < 300; i++) {
        acc += i * i;
        if (i % 50 == 0) fprintf(f, "i=%d acc=%d\n", i, acc);
    }
    fclose(f);
    printf("done %d\n", acc & 0xFFFF);
    return 0;
}
""",
}

_exe_cache: dict[str, object] = {}


def example(name: str):
    if name not in _exe_cache:
        _exe_cache[name] = build_executable([EXAMPLE_PROGRAMS[name]])
    return _exe_cache[name]


def observable(result) -> tuple:
    return (result.status, result.stdout, result.stderr,
            dict(result.files), result.cycles, result.inst_count)


def run_tier(module, fuse: bool, sampler=None):
    """Run ``module`` fused or on the per-instruction loop; a fused run
    must have compiled a superblock."""
    machine = Machine(module, fuse=fuse)
    result = machine.run(sampler=sampler)
    if fuse:
        assert machine.cpu.sb_compiled >= 1, "the fused run compiled nothing"
    return result


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_mlc_programs_bit_identical(name):
    exe = example(name)
    fused = run_tier(exe, fuse=True)
    simple = run_tier(exe, fuse=False)
    assert observable(fused) == observable(simple)


COUNTER_TOOL_ANALYSIS = r"""
long calls;
void Count(void) { calls += 1; }
void Report(void) {
    FILE *f = fopen("calls.out", "w");
    fprintf(f, "calls=%d\n", calls);
    fclose(f);
}
"""


def counter_tool(iargc, iargv, atom):
    atom.AddCallProto("Count()")
    atom.AddCallProto("Report()")
    for proc in atom.procs():
        atom.AddCallProc(proc, ProcBefore, "Count")
    atom.AddCallProgram(ProgramAfter, "Report")


@pytest.mark.parametrize("opt", list(OptLevel))
def test_instrumented_runs_bit_identical(opt):
    exe = example("checksum")
    res = instrument_executable(exe, counter_tool,
                                COUNTER_TOOL_ANALYSIS, opt=opt)
    fused = run_tier(res.module, fuse=True)
    simple = run_tier(res.module, fuse=False)
    assert observable(fused) == observable(simple)
    assert fused.files["calls.out"] == simple.files["calls.out"]
    # The instrumenter never sees the dispatch tier, but pin its stats
    # so any future coupling of splicing to execution shows up here.
    res2 = instrument_executable(exe, counter_tool,
                                 COUNTER_TOOL_ANALYSIS, opt=opt)
    assert res.stats == res2.stats


@pytest.mark.parametrize("name", ["checksum", "matmul"])
def test_profile_artifacts_byte_identical(name):
    exe = example(name)
    docs = {}
    for fuse in (True, False):
        sampler = PcSampler(interval=97)
        run_tier(exe, fuse=fuse, sampler=sampler)
        docs[fuse] = json.dumps(profile_doc(sampler, exe), sort_keys=True)
    assert docs[True] == docs[False]
    assert '"wrl-profile/v1"' in docs[True]


def test_instrumented_profile_identical_across_dispatch():
    exe = example("checksum")
    res = instrument_executable(exe, counter_tool,
                                COUNTER_TOOL_ANALYSIS, opt=OptLevel.O4)
    docs = {}
    for fuse in (True, False):
        sampler = PcSampler(interval=131)
        run_tier(res.module, fuse=fuse, sampler=sampler)
        docs[fuse] = json.dumps(profile_doc(sampler, res.module),
                                sort_keys=True)
    assert docs[True] == docs[False]


def hypo_tool(iargc, iargv, atom):
    atom.AddCallProto("Probe(int)")
    atom.AddCallProto("Dump()")
    for proc in atom.procs():
        atom.AddCallProc(proc, ProcBefore, "Probe", 3)
    atom.AddCallProgram(ProgramAfter, "Dump")


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(body=analysis_bodies())
def test_random_analysis_routines_identical_across_dispatch(body):
    exe = example("checksum")
    anal = build_analysis_unit([analysis_source(body)])
    res = instrument_executable(exe, hypo_tool, anal, opt=OptLevel.O4)
    fused = run_tier(res.module, fuse=True)
    simple = run_tier(res.module, fuse=False)
    assert observable(fused) == observable(simple)
    assert fused.files["sound.out"] == simple.files["sound.out"]
