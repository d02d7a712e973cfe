"""The fuzz generator's contract: deterministic, valid, bounded.

Every program it emits must compile through the real mlc pipeline and
terminate quickly on the simulated machine — the differential matrix is
only as good as the generator's validity rate, so a 100% rate is pinned
here, not sampled.
"""

import subprocess
import sys

from repro.machine import run_module
from repro.mlc import build_executable
from repro.mlc.fuzz import (PROFILES, GrammarWeights, corpus_sources,
                            generate_program, profile_for)

SMOKE_SEEDS = (0, 1, 2, 3)


def test_generation_is_deterministic():
    for seed in SMOKE_SEEDS:
        a = generate_program(seed, profile_for(seed))
        b = generate_program(seed, profile_for(seed))
        assert a == b


def test_seeds_differ():
    sources = {generate_program(s, profile_for(s)) for s in range(8)}
    assert len(sources) == 8


def test_profile_rotation_is_seed_stable():
    names = sorted(PROFILES)
    for seed in range(10):
        assert profile_for(seed) is PROFILES[names[seed % len(names)]]
        # an explicit profile always wins over rotation
        assert profile_for(seed, "loops") is PROFILES["loops"]


def test_profiles_change_the_program():
    by_profile = {name: generate_program(0, PROFILES[name])
                  for name in PROFILES}
    assert len(set(by_profile.values())) == len(PROFILES)


def test_programs_compile_and_terminate():
    for seed in SMOKE_SEEDS:
        src = generate_program(seed, profile_for(seed))
        exe = build_executable([src])
        result = run_module(exe, max_insts=5_000_000, fuse=False)
        assert 0 <= result.status < 64          # main returns CHK & 63
        assert result.stdout.startswith(b"chk=")
        # bounded: big enough to run fused superblocks hot, small
        # enough that a full instrumented matrix stays affordable
        assert 1_000 < result.inst_count < 100_000


def test_custom_weights_accepted():
    heavy_loops = GrammarWeights(loop_for=20.0)
    src = generate_program(5, heavy_loops)
    result = run_module(build_executable([src]), max_insts=5_000_000)
    assert result.stdout.startswith(b"chk=")


def test_corpus_sources_rotates_and_orders():
    programs = corpus_sources(4, seed0=10)
    assert [seed for seed, _ in programs] == [10, 11, 12, 13]
    for seed, text in programs:
        assert text == generate_program(seed, profile_for(seed))


def test_cli_writes_corpus(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.mlc.fuzz", "--seed", "3",
         "--count", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    files = sorted(p.name for p in tmp_path.glob("*.mlc"))
    assert files == ["seed_0003.mlc", "seed_0004.mlc"]
    assert (tmp_path / "seed_0003.mlc").read_text() == \
        generate_program(3, profile_for(3))
    assert "wrote 2 programs" in proc.stderr
