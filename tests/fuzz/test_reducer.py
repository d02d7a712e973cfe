"""The structural reducer, and the end-to-end divergence-to-repro path.

The marquee test injects a real codegen fault into the fused superblock
templates (xor results corrupted inside compiled superblocks only), lets
the harness catch the divergence, and requires the reducer to shrink
the fuzzed program to a handful of lines that still reproduce it — the
workflow a human debugging a genuine miscompile would follow.
"""

import pytest

import repro.machine.cpu as cpumod
from repro.eval.fuzz_matrix import (check_program, divergence_predicate,
                                    reduce_divergence)
from repro.mlc import build_executable
from repro.mlc.fuzz import generate_program, profile_for
from repro.mlc.reduce import checked_predicate, reduce_source

SMALL = r"""
long G[4];

long helper(long x) { return x * 3; }

int main() {
    long i, acc = 0;
    for (i = 0; i < 10; i++) {
        G[i & 3] = i;
        acc = acc + helper(i);
    }
    if (acc > 100) {
        acc = acc - 5;
    }
    printf("MAGIC %d\n", acc);
    return 0;
}
"""


def test_reduce_keeps_predicate_true():
    predicate = checked_predicate(lambda s: build_executable([s]),
                                  lambda s: "MAGIC" in s)
    reduced = reduce_source(SMALL, predicate)
    assert "MAGIC" in reduced
    build_executable([reduced])                 # still valid mlc
    # everything inessential is gone: helper, the loop, the branch
    assert "helper" not in reduced
    assert "for" not in reduced
    assert len(reduced.splitlines()) <= 5
    assert all(ln.strip() for ln in reduced.splitlines())


def test_reduce_rejects_noncompiling_candidates():
    """Deleting ``long v;`` alone breaks compilation, so the reducer
    must keep declaration and use together or drop both."""
    src = "int main() {\n    long v;\n    v = 7;\n    printf(\"k=%d\\n\", v);\n    return 0;\n}\n"
    predicate = checked_predicate(lambda s: build_executable([s]),
                                  lambda s: "printf" in s)
    reduced = reduce_source(src, predicate)
    build_executable([reduced])
    assert "printf" in reduced
    # printf still reads v, so its declaration must have survived even
    # though the (deletable) assignment may be gone
    assert "long v;" in reduced


def test_reduce_unwraps_compound_statements():
    src = ("int main() {\n    long x = 1;\n"
           "    if (x) {\n        printf(\"KEEP %d\\n\", x);\n    }\n"
           "    return 0;\n}\n")
    predicate = checked_predicate(lambda s: build_executable([s]),
                                  lambda s: "KEEP" in s)
    reduced = reduce_source(src, predicate)
    assert "KEEP" in reduced
    assert "if" not in reduced                  # unwrapped, then deleted


@pytest.fixture
def broken_fused_xor(monkeypatch):
    """Corrupt every xor result inside fused superblocks only: the fused
    filler is sabotaged, the per-instruction closures are not."""
    orig = cpumod._fused_lines

    def sabotaged(inst, index, base):
        lines = orig(inst, index, base)
        if inst.op.mnemonic == "xor" and inst.rc != 31:
            lines = lines + [f"r[{inst.rc}] = r[{inst.rc}] ^ 2"]
        return lines

    monkeypatch.setattr(cpumod, "_fused_lines", sabotaged)


@pytest.mark.fuzz
def test_injected_fused_fault_is_caught_and_reduced(broken_fused_xor):
    src = generate_program(0, profile_for(0))
    report = check_program(src, seed=0, tools=("prof",), opts=("O0",),
                           stop_on_first=True)
    assert not report.ok
    div = report.divergences[0]
    assert div.kind == "dispatch"
    assert div.cell_b == "fused"

    reduced = reduce_divergence(src, div)
    assert len(reduced.splitlines()) <= 20      # acceptance bar
    # the reduced program still reproduces the divergence on its own
    assert divergence_predicate(div)(reduced)
    # ... and is healthy once the sabotage is gone (the fault is in the
    # fused templates, not the program): checked by the matrix smoke
    # test elsewhere.


@pytest.mark.fuzz
def test_injected_fault_vanishes_without_sabotage():
    src = generate_program(0, profile_for(0))
    report = check_program(src, seed=0, tools=("prof",), opts=("O0",),
                           stop_on_first=True)
    assert report.ok, [d.describe() for d in report.divergences]
