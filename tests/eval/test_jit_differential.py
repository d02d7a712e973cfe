"""The jit on/off differential lane over real compiled programs.

The region JIT promises to be architecturally invisible end to end:
whatever the mlc compiler emits, whatever a tool splices in at any opt
level, and whatever the deterministic profiler observes, a run with the
JIT engaged must be byte-identical to the same run without it — exit
status, stdout, output files, ``InstrumentStats``, simulated cycles and
``wrl-profile/v1`` artifacts alike.  Hypothesis widens the analysis-
routine population beyond the hand-written tools.

The tier-up budgets are lowered (the ``early_tiers`` fixture) so these
short programs reach both compiled tiers, and every comparison checks
that the jit run promoted a region and the fused run compiled a
superblock — otherwise "jit vs no-jit" would compare fused with fused.
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

pytestmark = [pytest.mark.jit, pytest.mark.usefixtures("early_tiers")]

#: mlc-compiled example programs: loops hot enough to promote regions,
#: function calls (dynamic re-entry), arrays, strings and file output.
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


def run_tier(module, jit: bool, sampler=None):
    """Run ``module`` fused with the JIT on or off; the run must have
    compiled its tier: a region with the JIT, a superblock without."""
    machine = Machine(module, jit=jit)
    result = machine.run(sampler=sampler)
    cpu = machine.cpu
    compiled = cpu.jit.promoted if jit else cpu.sb_compiled
    assert compiled >= 1, f"the jit={jit} run compiled nothing"
    return result


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_mlc_programs_bit_identical(name):
    exe = example(name)
    on = run_tier(exe, jit=True)
    off = run_tier(exe, jit=False)
    assert observable(on) == observable(off)


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
    on = run_tier(res.module, jit=True)
    off = run_tier(res.module, jit=False)
    assert observable(on) == observable(off)
    assert on.files["calls.out"] == off.files["calls.out"]
    # The instrumenter never sees the JIT, but pin its stats so any
    # future coupling of splicing to the execution tier shows up here.
    res2 = instrument_executable(exe, counter_tool,
                                 COUNTER_TOOL_ANALYSIS, opt=opt)
    assert res.stats == res2.stats


@pytest.mark.parametrize("name", ["checksum", "matmul"])
def test_profile_artifacts_byte_identical(name):
    exe = example(name)
    docs = {}
    for jit in (True, False):
        sampler = PcSampler(interval=97)
        run_tier(exe, jit=jit, sampler=sampler)
        docs[jit] = json.dumps(profile_doc(sampler, exe), sort_keys=True)
    assert docs[True] == docs[False]
    assert '"wrl-profile/v1"' in docs[True]


def test_instrumented_profile_identical_across_jit():
    exe = example("checksum")
    res = instrument_executable(exe, counter_tool,
                                COUNTER_TOOL_ANALYSIS, opt=OptLevel.O4)
    docs = {}
    for jit in (True, False):
        sampler = PcSampler(interval=131)
        run_tier(res.module, jit=jit, sampler=sampler)
        docs[jit] = json.dumps(profile_doc(sampler, res.module),
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
def test_random_analysis_routines_identical_across_jit(body):
    exe = example("checksum")
    anal = build_analysis_unit([analysis_source(body)])
    res = instrument_executable(exe, hypo_tool, anal, opt=OptLevel.O4)
    on = run_tier(res.module, jit=True)
    off = run_tier(res.module, jit=False)
    assert observable(on) == observable(off)
    assert on.files["sound.out"] == off.files["sound.out"]
