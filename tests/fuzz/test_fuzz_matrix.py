"""The differential harness itself: fingerprints, matrix, parallel leg.

The quick tests run in tier-1; the ``fuzz``-marked ones are the deep
lane behind ``make check-fuzz``.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.eval.fuzz_matrix import (DISPATCH, _analysis_view, _canon,
                                    _fingerprint, check_program, main)
from repro.mlc import build_executable
from repro.mlc.fuzz import generate_program, profile_for

FAULTING_PROGRAM = r"""
int main() {
    int i, d = 0, acc = 0;
    for (i = 0; i < 200; i++) acc += i;
    printf("acc=%d\n", acc);
    return acc / d;
}
"""


def test_fingerprint_shape():
    exe = build_executable([generate_program(0, profile_for(0))])
    fp = _fingerprint(exe, fuse=True, jit=True, max_insts=5_000_000,
                      sample_interval=97)
    assert set(fp) == {"status", "stdout", "stderr", "files", "cycles",
                       "inst_count", "profile"}
    assert '"wrl-profile/v1"' in fp["profile"]
    # hex round-trips: the fingerprint is lossless on the observables
    assert bytes.fromhex(fp["stdout"]).startswith(b"chk=")
    json.dumps(fp)                              # canonical-JSON-able


def test_fingerprint_captures_faults_identically():
    """A guest fault is part of the fingerprint, not a harness crash —
    and it must be the *same* fault in every dispatch tier."""
    exe = build_executable([FAULTING_PROGRAM])
    fps = {}
    for name, (fuse, jit) in DISPATCH.items():
        fps[name] = _fingerprint(exe, fuse=fuse, jit=jit,
                                 max_insts=5_000_000, sample_interval=None)
    assert "error" in fps["simple"]
    assert "MachineError" in fps["simple"]["error"]
    assert _canon(fps["simple"]) == _canon(fps["fused"]) == _canon(fps["jit"])


def test_fingerprint_budget_exhaustion_is_deterministic():
    exe = build_executable([generate_program(0, profile_for(0))])
    fps = [_fingerprint(exe, fuse=fuse, jit=jit, max_insts=2_000,
                        sample_interval=None)
           for fuse, jit in DISPATCH.values()]
    assert "BudgetExhausted" in fps[0]["error"]
    assert len({_canon(fp) for fp in fps}) == 1


def test_analysis_view_drops_cost_and_named_files():
    fp = {"status": 0, "stdout": "61", "stderr": "", "cycles": 9,
          "inst_count": 5, "files": {"prof.out": "00", "data": "ff"}}
    view = _analysis_view(fp, drop=("prof.out",))
    assert view == {"status": 0, "stdout": "61", "stderr": "",
                    "files": {"data": "ff"}}
    assert _analysis_view({"error": "MachineError: x"}) == \
        {"error": "MachineError: x"}


def test_check_program_smoke():
    """One seed, one tool, two opt levels, serial only — the quick
    tier-1 proof that the matrix plumbing holds together."""
    report = check_program(generate_program(0, profile_for(0)), seed=0,
                           tools=("prof",), opts=("O0", "O4"))
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.seconds > 0
    # The fused and jit cells run with lowered tier-up budgets, so they
    # compare compiled superblocks and regions, not the cold walk.
    assert report.tiers["simple"] == {"superblocks": 0, "regions": 0}
    assert report.tiers["fused"]["superblocks"] >= 1
    assert report.tiers["fused"]["regions"] == 0
    assert report.tiers["jit"]["regions"] >= 1


def test_cli_report_records_tiers_per_column(tmp_path, capsys):
    """``fuzz_report.json`` carries what each dispatch column compiled;
    ``make check-fuzz`` fails when the jit column compiled no region."""
    assert main(["--seed", "0", "--count", "1", "--tools", "prof",
                 "--opts", "O0", "--jobs", "0", "--out",
                 str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fuzz_report.json").read_text())
    assert doc["programs"] == 1
    assert doc["per_program"][0]["tiers"] == doc["tiers"]
    assert set(doc["tiers"]) == set(DISPATCH)
    assert doc["tiers"]["jit"]["regions"] >= 1
    assert "compiled: fused" in capsys.readouterr().out


@pytest.mark.fuzz
def test_full_matrix_with_parallel_leg():
    """The acceptance-shaped cell: O0–O4 x three dispatch tiers x
    serial+parallel, byte-identical, for both default tools."""
    src = generate_program(1, profile_for(1))
    with ProcessPoolExecutor(max_workers=2) as pool:
        report = check_program(src, seed=1, tools=("prof", "dyninst"),
                               pool=pool)
    assert report.ok, [d.describe() for d in report.divergences]


@pytest.mark.fuzz
def test_several_seeds_all_profiles():
    for seed in range(2, 6):                    # covers every profile
        src = generate_program(seed, profile_for(seed))
        report = check_program(src, seed=seed, tools=("prof",),
                               opts=("O0", "O2", "O4"))
        assert report.ok, (seed, [d.describe() for d in report.divergences])
