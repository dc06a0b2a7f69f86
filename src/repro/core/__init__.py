"""In-order scalar core substrate (stand-in for the Rocket core).

Provides a functional + cycle-cost execution model with user/kernel
privilege modes, Table II cache timing, and commit hooks that the
FlexStep units (:mod:`repro.flexstep`) attach to.
"""

from .registers import (
    ArchSnapshot,
    CSRFile,
    Privilege,
    RegisterFile,
    CSR_CYCLE,
    CSR_INSTRET,
    CSR_MCAUSE,
    CSR_MEPC,
    CSR_MSCRATCH,
    CSR_MTVEC,
)
from .cache import Cache, MemoryHierarchy
from .memory import MainMemory, MemoryPort, DirectPort, CachedPort
from .branch import BranchPredictor
from .core import (
    CommitRecord,
    Core,
    CoreStats,
    MemEntry,
    engine_override,
    resolve_engine,
)
from .decode import DecodedProgram, decode_program

__all__ = [
    "ArchSnapshot",
    "CSRFile",
    "Privilege",
    "RegisterFile",
    "CSR_CYCLE",
    "CSR_INSTRET",
    "CSR_MCAUSE",
    "CSR_MEPC",
    "CSR_MSCRATCH",
    "CSR_MTVEC",
    "Cache",
    "MemoryHierarchy",
    "MainMemory",
    "MemoryPort",
    "DirectPort",
    "CachedPort",
    "BranchPredictor",
    "Core",
    "CommitRecord",
    "CoreStats",
    "MemEntry",
    "engine_override",
    "resolve_engine",
    "DecodedProgram",
    "decode_program",
]
