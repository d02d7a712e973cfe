"""Byte-identity lane for ATOM rewrites.

Every (tool, workload, opt) rewrite is hashed — the sha256 of the
instrumented module's bytes followed by its :class:`InstrumentStats` —
and compared with the digests committed in ``rewrite_digests.json``.
A change to atom, om or the isa layer that moves any instrumented
executable by one byte, or any statistic, fails here.

Tier-1 rewrites one workload per tool at O0-O4, a different workload
for each tool, and at O1 and O4 a second workload that reuses the
tool's prepared analysis unit.  The ``matrix`` lane (``make
check-matrix``) rewrites all 12 tools x 20 workloads x 5 levels in one
process per shard, so most of its rewrites reuse a prepared unit,
sharded with ``select_shard`` through ``WRL_EVAL_SHARD``/
``WRL_EVAL_SHARDS`` like the parallel eval matrix.

``make rewrite-digests`` regenerates the file.  Like the fuzz corpus,
regenerate it only when a rewrite's output changes on purpose, and say
so in CHANGES.md; never to paper over a difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.atom import OptLevel
from repro.eval import apply_tool, plan_matrix, select_shard
from repro.tools import TOOL_NAMES, get_tool
from repro.workloads import WORKLOAD_NAMES, build_workload

DIGESTS_PATH = Path(__file__).with_name("rewrite_digests.json")
SCHEMA = "rewrite-digests/1"
OPTS = ("O0", "O1", "O2", "O3", "O4")

#: Tier-1 cells: one workload per tool, no workload used twice.
TIER1_WORKLOADS = {
    "branch": "compress", "cache": "eqntott", "dyninst": "espresso",
    "gprof": "li", "inline": "sc", "io": "fileio", "malloc": "churn",
    "pipe": "quick", "prof": "sieve", "syscall": "strings",
    "taint": "crc", "unalign": "matrix",
}


def cell_id(tool: str, workload: str, opt: str) -> str:
    return f"{tool}/{workload}/{opt}"


def rewrite_digest(tool: str, workload: str, opt: str) -> str:
    """sha256 of one uncached rewrite: module bytes, then its stats."""
    result = apply_tool(build_workload(workload), get_tool(tool),
                        opt=OptLevel[opt], cache=None)
    h = hashlib.sha256(result.module.to_bytes())
    h.update(json.dumps(vars(result.stats), sort_keys=True).encode())
    return h.hexdigest()


def load_digests() -> dict[str, str]:
    doc = json.loads(DIGESTS_PATH.read_text())
    assert doc["schema"] == SCHEMA, doc["schema"]
    return doc["digests"]


def _mismatches(cells, expected: dict[str, str]) -> list[str]:
    out = []
    for tool, workload, opt in cells:
        cid = cell_id(tool, workload, opt)
        if rewrite_digest(tool, workload, opt) != expected[cid]:
            out.append(cid)
    return out


def test_digest_file_covers_the_full_matrix():
    expected = {cell_id(t, w, o) for t in TOOL_NAMES
                for w in WORKLOAD_NAMES for o in OPTS}
    assert set(load_digests()) == expected


def test_tier1_workloads_are_distinct():
    assert sorted(TIER1_WORKLOADS) == sorted(TOOL_NAMES)
    assert len(set(TIER1_WORKLOADS.values())) == len(TOOL_NAMES)
    assert set(TIER1_WORKLOADS.values()) <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("tool", TOOL_NAMES)
def test_rewrites_match_digests(tool):
    cells = [(tool, TIER1_WORKLOADS[tool], opt) for opt in OPTS]
    assert _mismatches(cells, load_digests()) == []


@pytest.mark.parametrize("tool", TOOL_NAMES)
def test_prepared_unit_rewrites_match_digests(tool, prepared_units):
    """A rewrite that reuses the tool's prepared analysis unit writes the
    committed bytes: at O1 and O4 the tool's tier-1 workload prepares
    the unit and the next tool's tier-1 workload reuses it."""
    following = TOOL_NAMES[(TOOL_NAMES.index(tool) + 1) % len(TOOL_NAMES)]
    expected = load_digests()
    for opt in ("O1", "O4"):
        for workload, prepares in ((TIER1_WORKLOADS[tool], True),
                                   (TIER1_WORKLOADS[following], False)):
            before = len(prepared_units)
            assert rewrite_digest(tool, workload, opt) == \
                expected[cell_id(tool, workload, opt)]
            assert (len(prepared_units) > before) == prepares, workload


@pytest.mark.matrix
def test_full_matrix_rewrites_match_digests():
    shard = int(os.environ.get("WRL_EVAL_SHARD", "0"))
    num_shards = int(os.environ.get("WRL_EVAL_SHARDS", "1"))
    specs = select_shard(
        plan_matrix(tools=TOOL_NAMES, workloads=WORKLOAD_NAMES, opts=OPTS),
        shard, num_shards)
    assert specs, "shard selected no cells"
    cells = [(s.tool, s.workload, s.opt) for s in specs]
    assert _mismatches(cells, load_digests()) == []


def main() -> int:
    """Rewrite every cell and write the digest file (``make
    rewrite-digests``)."""
    digests = {}
    for workload in WORKLOAD_NAMES:
        for tool in TOOL_NAMES:
            for opt in OPTS:
                digests[cell_id(tool, workload, opt)] = \
                    rewrite_digest(tool, workload, opt)
        print(f"rewrite-digests: {workload} done", file=sys.stderr)
    doc = {"schema": SCHEMA, "digests": dict(sorted(digests.items()))}
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"rewrite-digests: wrote {len(digests)} digests to "
          f"{DIGESTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
