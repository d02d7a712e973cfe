"""Each analysis unit is prepared once per process.

The analysis half of a rewrite (decode the unit, build its IR, plan the
saves, emit it) reads only the unit's bytes, the opt level, the sorted
(target, arg count) pairs and the ``noinline`` set, and
``instrument_executable`` memoizes it on exactly those.  These tests pin
that every one of them is in the key, that what a rewrite is handed
cannot change a later one, and that the memo is bounded.  That a reused
unit rewrites every tool's programs to the committed bytes is checked
in ``test_rewrite_digests.py``.
"""

import pytest

from repro.atom import OptLevel, ProcBefore, ProgramAfter, instrument
from repro.atom import instrument_executable
from repro.objfile.module import Module

from .conftest import APP_SOURCE


def counting_tool(proto="Count(int)"):
    """Count calls to ``mix``: through ``Count``, or through ``CountBy``
    when the tool's arguments say ``by``."""
    def Instrument(iargc, iargv, atom):
        atom.AddCallProto(proto)
        atom.AddCallProto("CountBy(int, long)")
        atom.AddCallProto("Report()")
        mix = atom.GetNamedProc("mix")
        if "by" in iargv:
            atom.AddCallProc(mix, ProcBefore, "CountBy", 1, 2)
        else:
            atom.AddCallProc(mix, ProcBefore, "Count", 1)
        atom.AddCallProgram(ProgramAfter, "Report")
    return Instrument


@pytest.fixture(scope="module")
def other_app(build_app):
    return build_app(APP_SOURCE.replace("a * 3", "a * 5"))


def rewrite(prepared, app, unit, *, tool=None, **kw):
    """The rewrite's module bytes and whether it prepared the unit."""
    before = len(prepared)
    result = instrument_executable(app, tool or counting_tool(), unit, **kw)
    return result.module.to_bytes(), len(prepared) > before


def one_byte_off(unit: bytes) -> bytes:
    module = Module.from_bytes(unit)
    module.name = module.name[:-1] + chr(ord(module.name[-1]) ^ 1)
    other = module.to_bytes()
    assert len(other) == len(unit)
    assert sum(a != b for a, b in zip(unit, other)) == 1
    return other


CHANGES = {
    "opt level": dict(opt=OptLevel.O3),
    "targets": dict(tool_args=("by",)),
    "noinline": dict(tool=counting_tool("noinline Count(int)")),
    "unit byte": dict(unit=one_byte_off),
}


@pytest.mark.parametrize("change", CHANGES)
def test_every_input_of_the_analysis_half_is_in_the_key(
        prepared_units, app, other_app, counter_analysis, change):
    unit = counter_analysis.to_bytes()
    kw = dict(CHANGES[change])
    changed_unit = kw.pop("unit", lambda u: u)(unit)
    _, missed = rewrite(prepared_units, app, unit, opt=OptLevel.O4)
    assert missed
    _, missed = rewrite(prepared_units, other_app, changed_unit,
                        **{"opt": OptLevel.O4, **kw})
    assert missed, change
    _, missed = rewrite(prepared_units, other_app, unit, opt=OptLevel.O4)
    assert not missed


def test_mutating_a_results_plans_changes_no_later_rewrite(
        prepared_units, app, other_app, counter_analysis):
    unit = counter_analysis.to_bytes()
    first = instrument_executable(app, counting_tool(), unit,
                                  opt=OptLevel.O4)
    plans = first.plans
    assert plans.plan("Count").mode == "inlined" and plans.plan("Count").body
    for plan in plans.plans.values():
        for ir in plan.body:
            ir.inst.disp += 8
            for rel in ir.relocs:
                rel.addend += 8
            ir.relocs.clear()
        plan.mode, plan.saves, plan.body = "wrapper", (), ()
    plans.plans.clear()
    reused, missed = rewrite(prepared_units, other_app, unit,
                             opt=OptLevel.O4)
    assert not missed
    instrument._prepared.clear()
    fresh, missed = rewrite(prepared_units, other_app, unit,
                            opt=OptLevel.O4)
    assert missed
    assert reused == fresh


def test_least_recently_used_unit_is_dropped_at_the_cap(
        prepared_units, monkeypatch, app, counter_analysis):
    monkeypatch.setattr(instrument, "_PREPARED_CAP", 2)
    unit = counter_analysis.to_bytes()

    def missed(opt):
        return rewrite(prepared_units, app, unit, opt=opt)[1]

    assert [missed(OptLevel.O1), missed(OptLevel.O2), missed(OptLevel.O1),
            missed(OptLevel.O3)] == [True, True, False, True]
    assert len(instrument._prepared) == 2
    assert [missed(OptLevel.O1), missed(OptLevel.O2)] == [False, True]
