import pytest

from repro.eval.fuzz_matrix import DIFF_FUSE_WORK, DIFF_JIT_WORK
from repro.machine import cpu, jit


@pytest.fixture
def early_tiers(monkeypatch):
    """Tier-up budgets lowered to the fuzz matrix's: a superblock head
    fuses on its second entry and promotes by its 17th, so the short
    loops of a differential test run compiled superblocks and regions
    rather than only the per-instruction walk."""
    monkeypatch.setattr(cpu, "FUSE_WORK", DIFF_FUSE_WORK)
    monkeypatch.setattr(jit, "JIT_WORK", DIFF_JIT_WORK)
