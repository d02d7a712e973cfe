"""Execution substrate: the WRL-64 machine simulator and its tiny OS."""

from .costmodel import CostModel
from .cpu import BudgetExhausted, Cpu, MachineError
from .loader import Machine, RunResult, run_module
from .memory import Memory, MemoryFault
from .syscalls import ExitProgram, Kernel

__all__ = [
    "BudgetExhausted", "CostModel", "Cpu", "MachineError",
    "Machine", "RunResult", "run_module", "Memory", "MemoryFault",
    "ExitProgram", "Kernel",
]
