"""ATOM: a system for building customized program analysis tools.

The public surface mirrors the paper: instrumentation routines receive an
:class:`AtomContext` with the ``GetFirstProc``/``AddCall*`` primitives;
:func:`instrument_executable` (or the ``atom`` command line) combines the
application, the instrumentation routines, and the analysis routines into
one instrumented executable whose analysis output is produced as a side
effect of a normal run.
"""

from .api import (AtomContext, AtomError, BlockAfter, BlockBefore,
                  BrCondValue, EffAddrValue, InstAfter, InstBefore,
                  InstType, InstTypeCall, InstTypeCondBr, InstTypeJump,
                  InstTypeLoad, InstTypeMemRef, InstTypeRet,
                  InstTypeStore, InstTypeSyscall, InstTypeUncondBr,
                  Placement, ProcAfter, ProcBefore, ProgramAfter,
                  ProgramBefore)
from .instrument import (HEAP_MODES, InstrumentResult, InstrumentStats,
                         LayoutError, instrument_executable)
from .proto import ProtoError, parse_proto
from .saves import OptLevel

__all__ = [
    "AtomContext", "AtomError", "instrument_executable", "HEAP_MODES",
    "InstrumentResult", "InstrumentStats", "LayoutError", "OptLevel",
    "ProtoError", "parse_proto",
    "InstBefore", "InstAfter", "BlockBefore", "BlockAfter", "ProcBefore",
    "ProcAfter", "ProgramBefore", "ProgramAfter", "Placement",
    "EffAddrValue", "BrCondValue",
    "InstType", "InstTypeCondBr", "InstTypeUncondBr", "InstTypeLoad",
    "InstTypeStore", "InstTypeMemRef", "InstTypeCall", "InstTypeJump",
    "InstTypeRet", "InstTypeSyscall",
]
