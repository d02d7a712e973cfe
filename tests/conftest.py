import pytest

from repro.eval.fuzz_matrix import DIFF_FUSE_WORK
from repro.machine import cpu


@pytest.fixture
def early_tiers(monkeypatch):
    """The tier-up budget lowered to the fuzz matrix's: a superblock
    head fuses on its second entry, so the short loops of a differential
    test run compiled superblocks rather than only the per-instruction
    walk."""
    monkeypatch.setattr(cpu, "FUSE_WORK", DIFF_FUSE_WORK)
