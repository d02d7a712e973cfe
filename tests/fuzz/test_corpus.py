"""The committed seed corpus (tests/fuzz/corpus/).

The corpus is the regression net: 25 generator outputs frozen in-tree
so the differential lane keeps exercising exactly these programs even
as the generator evolves.  Policy (DESIGN.md): regenerate only via
``make fuzz-corpus`` when the generator's output changes deliberately —
never edit a corpus file by hand, and never regenerate to make a
failing differential pass.
"""

from pathlib import Path

import pytest

from repro.eval.fuzz_matrix import check_program
from repro.mlc.fuzz import generate_program, profile_for

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("seed_*.mlc"))


def test_corpus_is_committed_and_big_enough():
    assert len(CORPUS_FILES) >= 25


def test_corpus_matches_generator_byte_for_byte():
    """Catches accidental generator drift: any change to emitted text
    must come with a deliberate `make fuzz-corpus` regeneration."""
    for path in CORPUS_FILES:
        seed = int(path.stem.split("_")[1])
        assert path.read_text() == generate_program(seed, profile_for(seed)), \
            f"{path.name} no longer matches the generator; " \
            f"see the regeneration policy in DESIGN.md"


@pytest.mark.fuzz
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_base_dispatch_identity(path):
    """Every corpus program, uninstrumented: all three dispatch tiers
    byte-identical including the sampled profile document, with the
    jit cell running compiled regions and the fused cell compiled
    superblocks."""
    report = check_program(path.read_text(),
                           seed=int(path.stem.split("_")[1]),
                           tools=())
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.tiers["jit"]["regions"] >= 1
    assert report.tiers["fused"]["superblocks"] >= 1


@pytest.mark.fuzz
@pytest.mark.parametrize("path", CORPUS_FILES[::5], ids=lambda p: p.stem)
def test_corpus_instrumented_differential(path):
    """A rotating slice of the corpus through an instrumented column
    (prof at the O0/O4 extremes) — the full matrix for these programs
    runs in the wrl-fuzz smoke that follows in the same CI lane."""
    report = check_program(path.read_text(),
                           seed=int(path.stem.split("_")[1]),
                           tools=("prof",), opts=("O0", "O4"))
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.tiers["jit"]["regions"] >= 1
    assert report.tiers["fused"]["superblocks"] >= 1
