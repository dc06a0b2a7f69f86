"""The in-order scalar core: functional execution + cycle-cost timing.

One :meth:`Core.step` executes and commits exactly one instruction,
returning a :class:`CommitRecord` describing everything the FlexStep
units need: privilege level, memory operations in commit order, and the
cycle cost.  Commit hooks let the RCPM/MAL attach without the core
knowing about them (mirroring the paper's "incorporating the same
functional units into each core").

Execution engines
-----------------
The core dispatches through one of three bit-identical engines:

``interp``
    The seed string-keyed interpreter, kept verbatim as the executable
    reference.  The differential suite
    (``tests/core/test_differential_engine.py``) runs every engine
    against it over randomized programs and asserts bit-identical
    architectural state, Memory Access Log streams and cycle counts.

``decoded`` (default)
    The decoded-dispatch engine (:mod:`repro.core.decode`): every
    instruction of the loaded program is decoded once into a pre-bound
    execution kernel, and the hot loop indexes ``kernels[(pc-base)>>2]``
    with no string comparison, no ``inst.info`` registry lookup and —
    on the record-free paths :meth:`advance` / :meth:`exec_one` — no
    per-step allocation for non-memory instructions.
    :meth:`commit_one` is the record-free path for main cores under
    verification: it hands the commit's fields to the FlexStep
    adapter instead of building a :class:`CommitRecord`.

``compiled``
    The code-generating trace tier (:mod:`repro.core.compile`): hot
    entry points are translated into specialized Python functions with
    register indices, immediates and timing constants inlined as
    literals, used by the batched :meth:`advance` loop when the L1I
    timing path is off.  :meth:`step` and :meth:`exec_one` behave
    exactly as under ``decoded`` (they are per-instruction by nature),
    and guarded bail-outs preserve the uncommitted-instruction
    contract on every trap.

Select with ``Core(..., engine=...)``, a pinned ``CoreConfig.engine``,
or the ``REPRO_CORE_ENGINE`` environment variable — see
:func:`resolve_engine` for the precedence; :func:`engine_override`
pins a tier for a dynamic extent the way ``soc_sched_override`` does
for the co-sim scheduler.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from ..config import CORE_ENGINE_CHOICES, CoreConfig
from ..errors import (
    ExecutionLimitExceeded,
    IllegalInstructionError,
    PrivilegeError,
)
from ..isa.instructions import (
    INST_BYTES,
    MASK64,
    Instruction,
    OpKind,
    to_signed64,
)
from ..isa.program import Program
from .branch import BranchPredictor
from .cache import Cache, MemoryHierarchy
from .compile import CompiledProgram, compiled_table
from .decode import DecodedProgram, decode_program
from ..runtime import knobs
from .memory import MemoryPort
from .registers import (
    ArchSnapshot,
    CSR_INSTRET,
    CSR_MCAUSE,
    CSR_MEPC,
    CSR_MTVEC,
    CSRFile,
    ECALL_FROM_KERNEL,
    ECALL_FROM_USER,
    Privilege,
    RegisterFile,
    SNAPSHOT_CSRS,
)

#: Concrete engine tiers, reference first (``auto`` is a deferral, not
#: a tier).  Benches iterate this, so new tiers are swept automatically.
_ENGINES = tuple(name for name in CORE_ENGINE_CHOICES if name != "auto")


def resolve_engine(name: str | None = None,
                   config: CoreConfig | None = None) -> str:
    """Resolve an execution-engine request to a concrete tier.

    Precedence: an explicit ``name`` argument, then a non-``auto``
    ``CoreConfig.engine``, then the ``REPRO_CORE_ENGINE`` environment
    variable, then ``decoded``.  Any unknown name — including an env
    var typo — raises :class:`~repro.errors.ConfigurationError` naming
    the offending value, its source and the valid tiers, so a
    misspelled engine fails loudly at core construction instead of
    silently selecting the default.
    """
    return knobs.value(
        "core_engine", arg=name,
        config=config.engine if config is not None else None)


@contextmanager
def engine_override(engine: str | None):
    """Pin ``REPRO_CORE_ENGINE`` for a dynamic extent.

    ``None`` / ``"auto"`` leave the environment untouched.  Mirrors
    ``soc_sched_override``: the tier is validated eagerly, exported via
    the environment so campaign worker processes spawned inside the
    extent inherit it, and the previous value is restored on exit.
    Engines are bit-identical, so this never perturbs results — only
    throughput.
    """
    with knobs.env_override("core_engine", engine):
        yield


class MemEntry:
    """One Memory Access Log entry: direction, address, data word.

    ``kind`` is ``"r"`` for a read or ``"w"`` for a write.  AMO/LR/SC
    instructions expand to multiple entries (paper Sec. III-B).

    A plain ``__slots__`` class (not a frozen dataclass): the execution
    kernels allocate these on every committed memory instruction, and
    slotted construction is several times cheaper than dataclass
    ``__init__`` + ``__post_init__`` machinery.
    """

    __slots__ = ("kind", "addr", "data")

    def __init__(self, kind: str, addr: int, data: int):
        self.kind = kind
        self.addr = addr
        self.data = data

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemEntry):
            return NotImplemented
        return (self.kind == other.kind and self.addr == other.addr
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.kind, self.addr, self.data))

    def __repr__(self) -> str:
        return f"MemEntry(kind={self.kind!r}, addr={self.addr:#x}, " \
               f"data={self.data:#x})"


class CommitRecord:
    """Everything observable about one committed instruction (slotted)."""

    __slots__ = ("pc", "inst", "priv", "next_pc", "mem_ops", "cycles",
                 "trap", "trap_cause")

    def __init__(self, pc: int, inst: Instruction, priv: Privilege,
                 next_pc: int, mem_ops: tuple = (), cycles: int = 1,
                 trap: bool = False, trap_cause: int = 0):
        self.pc = pc
        self.inst = inst
        self.priv = priv
        self.next_pc = next_pc
        self.mem_ops = mem_ops
        self.cycles = cycles
        self.trap = trap
        self.trap_cause = trap_cause

    @property
    def is_memory(self) -> bool:
        return bool(self.mem_ops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommitRecord):
            return NotImplemented
        return (self.pc == other.pc and self.inst == other.inst
                and self.priv == other.priv
                and self.next_pc == other.next_pc
                and self.mem_ops == other.mem_ops
                and self.cycles == other.cycles
                and self.trap == other.trap
                and self.trap_cause == other.trap_cause)

    def __hash__(self) -> int:
        return hash((self.pc, self.inst, self.priv, self.next_pc,
                     self.mem_ops, self.cycles, self.trap,
                     self.trap_cause))

    def __repr__(self) -> str:
        return (f"CommitRecord(pc={self.pc:#x}, inst={self.inst!r}, "
                f"priv={self.priv!r}, next_pc={self.next_pc:#x}, "
                f"mem_ops={self.mem_ops!r}, cycles={self.cycles}, "
                f"trap={self.trap}, trap_cause={self.trap_cause})")


@dataclass
class CoreStats:
    """Cumulative execution counters."""

    instructions: int = 0
    user_instructions: int = 0
    cycles: int = 0
    stall_cycles: int = 0
    traps: int = 0
    memory_ops: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


CommitHook = Callable[[CommitRecord], None]

#: ``report(pc, prior_priv, mem_ops, trap, halt)`` of :meth:`Core.commit_one`.
CommitReport = Callable[[int, Privilege, tuple, bool, bool], None]


class Core:
    """An in-order scalar core executing one :class:`Program`.

    Parameters
    ----------
    core_id:
        SoC-wide identifier.
    config:
        Timing parameters (clock, mul/div latencies, predictor sizes).
    port:
        Data-memory port (cached or direct).
    l1i / hierarchy:
        Optional instruction-fetch timing path; when omitted, fetches
        are free (functional-only runs).
    engine:
        ``"interp"`` (seed reference interpreter), ``"decoded"``
        (default) or ``"compiled"`` (trace codegen); ``None`` defers to
        ``config.engine`` and then the ``REPRO_CORE_ENGINE`` env var —
        see :func:`resolve_engine`.
    """

    def __init__(self, core_id: int, config: CoreConfig, port: MemoryPort,
                 *, l1i: Cache | None = None,
                 hierarchy: MemoryHierarchy | None = None,
                 engine: str | None = None):
        self.core_id = core_id
        self.config = config
        self.port = port
        self.l1i = l1i
        self.hierarchy = hierarchy
        self.regs = RegisterFile()
        self.csrs = CSRFile()
        self.priv = Privilege.USER
        self.pc = 0
        self.halted = False
        self.program: Optional[Program] = None
        self.predictor = BranchPredictor(config.branch_predictor)
        self.stats = CoreStats()
        self._reservation: Optional[int] = None
        self._pending_interrupt: Optional[int] = None
        self._hooks: list[CommitHook] = []
        self.engine = resolve_engine(engine, config)
        self._use_kernels = self.engine != "interp"
        self._use_compiled = self.engine == "compiled"
        self._decoded: Optional[DecodedProgram] = None
        self._compiled: Optional[CompiledProgram] = None
        # Kernel scratch (see repro.core.decode kernel contract).
        self._record_mem = True
        self._mem_scratch: tuple = ()
        self._trap_scratch = -1
        self._block_scratch: Optional[tuple] = None

    # ------------------------------------------------------------------
    # setup / control
    # ------------------------------------------------------------------

    def load_program(self, program: Program, *, entry: int | None = None,
                     ) -> None:
        """Point the core at ``program`` and jump to its entry."""
        self.program = program
        self.pc = entry if entry is not None else program.entry
        self.halted = False
        self._decoded = None
        self._compiled = None

    def add_commit_hook(self, hook: CommitHook) -> None:
        self._hooks.append(hook)

    def remove_commit_hook(self, hook: CommitHook) -> None:
        self._hooks.remove(hook)

    def raise_interrupt(self, cause: int) -> None:
        """Post an asynchronous interrupt taken before the next step."""
        self._pending_interrupt = cause

    def snapshot(self) -> ArchSnapshot:
        """Capture the architectural state as a Register Checkpoint."""
        return ArchSnapshot(
            npc=self.pc,
            regs=self.regs.snapshot(),
            csrs=tuple(self.csrs.raw_read(i) for i in SNAPSHOT_CSRS),
        )

    def restore(self, snap: ArchSnapshot) -> None:
        """Apply a Register Checkpoint (the checker's ``C.apply``+``C.jal``)."""
        self.regs.load(snap.regs)
        for idx, value in zip(SNAPSHOT_CSRS, snap.csrs):
            self.csrs.raw_write(idx, value)
        self.pc = snap.npc

    # ------------------------------------------------------------------
    # decoded-dispatch plumbing
    # ------------------------------------------------------------------

    def decoded(self) -> DecodedProgram:
        """The loaded program's decode tables (building them if needed).

        Valid for either engine — ``interp`` cores may still use the
        tables for metadata peeks (the checker's replay scheduler does).
        """
        d = self._decoded
        if d is None or d.program is not self.program:
            if self.program is None:
                raise IllegalInstructionError(
                    f"core {self.core_id} has no program loaded")
            d = decode_program(self.program, self.config)
            self._decoded = d
        return d

    def peek_kind_code(self) -> int:
        """Integer kind code of the instruction at the current pc.

        Raises the same :class:`~repro.errors.IsaError` as
        ``program.fetch`` when the pc escapes the program.
        """
        d = self.decoded()
        off = self.pc - d.base
        if off < 0 or off >= d.limit or off & 3:
            self.program.fetch(self.pc)  # raises with canonical message
        return d.kinds[off >> 2]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> CommitRecord:
        """Execute one instruction (or take one pending interrupt)."""
        if self.halted:
            raise IllegalInstructionError(
                f"core {self.core_id} is halted")
        if self.program is None:
            raise IllegalInstructionError(
                f"core {self.core_id} has no program loaded")

        if self._pending_interrupt is not None:
            record = self._take_interrupt()
            self.stats.traps += 1
            self._retire(record)
            return record

        pc = self.pc
        if not self._use_kernels:
            inst = self.program.fetch(pc)
            cycles = 1
            if self.l1i is not None and self.hierarchy is not None:
                cycles += self.hierarchy.fetch_access(self.l1i, pc)
            record = self._execute(pc, inst, cycles)
            self.stats.memory_ops += len(record.mem_ops)
            if record.trap:
                self.stats.traps += 1
            self._retire(record)
            return record

        d = self._decoded
        if d is None or d.program is not self.program:
            d = self.decoded()
        off = pc - d.base
        if off < 0 or off >= d.limit or off & 3:
            self.program.fetch(pc)  # raises with canonical message
        extra = 0
        if self.l1i is not None and self.hierarchy is not None:
            extra = self.hierarchy.fetch_access(self.l1i, pc)
        prior_priv = self.priv
        self._record_mem = True
        self._mem_scratch = ()
        self._trap_scratch = -1
        idx = off >> 2
        cycles = d.kernels[idx](self) + extra
        cause = self._trap_scratch
        record = CommitRecord(pc, d.insts[idx], prior_priv, self.pc,
                              self._mem_scratch, cycles,
                              cause >= 0, cause if cause >= 0 else 0)
        self._retire(record)
        return record

    def exec_one(self) -> int:
        """Execute one instruction on the record-free fast path.

        Architectural state, stats and ``instret`` advance exactly as in
        :meth:`step`, but no :class:`CommitRecord` or
        :class:`MemEntry` objects are built.  Falls back to
        :meth:`step` whenever full fidelity demands it (commit hooks
        registered, reference engine, pending interrupt).  Returns the
        cycles charged.
        """
        if (self._hooks or not self._use_kernels
                or self._pending_interrupt is not None):
            return self.step().cycles
        if self.halted:
            raise IllegalInstructionError(
                f"core {self.core_id} is halted")
        if self.program is None:
            raise IllegalInstructionError(
                f"core {self.core_id} has no program loaded")
        d = self._decoded
        if d is None or d.program is not self.program:
            d = self.decoded()
        pc = self.pc
        off = pc - d.base
        if off < 0 or off >= d.limit or off & 3:
            self.program.fetch(pc)  # raises with canonical message
        extra = 0
        if self.l1i is not None and self.hierarchy is not None:
            extra = self.hierarchy.fetch_access(self.l1i, pc)
        user = self.priv is Privilege.USER
        self._record_mem = False
        try:
            cycles = d.kernels[off >> 2](self) + extra
        finally:
            self._record_mem = True
        stats = self.stats
        stats.instructions += 1
        if user:
            stats.user_instructions += 1
        stats.cycles += cycles
        self.csrs._csrs[CSR_INSTRET] += 1
        return cycles

    def commit_one(self, report: CommitReport) -> int:
        """Execute one instruction and report it without a record.

        The commit path of a core with a FlexStep main-core adapter:
        architectural state, stats and ``instret`` advance exactly as in
        :meth:`step`, and ``report(pc, prior_priv, mem_ops, trap, halt)``
        receives what the adapter reads from a :class:`CommitRecord`
        (``mem_ops`` are the Memory Access Log entries in commit order).
        No record is built, no commit hook runs and no ``inst.info``
        lookup is made.  Decoded engines only, with no interrupt
        pending; callers take :meth:`step` otherwise.  Returns the
        cycles charged.
        """
        if self.halted:
            raise IllegalInstructionError(
                f"core {self.core_id} is halted")
        if self.program is None:
            raise IllegalInstructionError(
                f"core {self.core_id} has no program loaded")
        d = self._decoded
        if d is None or d.program is not self.program:
            d = self.decoded()
        pc = self.pc
        off = pc - d.base
        if off < 0 or off >= d.limit or off & 3:
            self.program.fetch(pc)  # raises with canonical message
        extra = 0
        if self.l1i is not None and self.hierarchy is not None:
            extra = self.hierarchy.fetch_access(self.l1i, pc)
        prior_priv = self.priv
        self._mem_scratch = ()
        self._trap_scratch = -1
        cycles = d.kernels[off >> 2](self) + extra
        stats = self.stats
        stats.instructions += 1
        if prior_priv is Privilege.USER:
            stats.user_instructions += 1
        stats.cycles += cycles
        self.csrs._csrs[CSR_INSTRET] += 1
        report(pc, prior_priv, self._mem_scratch, self._trap_scratch >= 0,
               self.halted)
        return cycles

    def advance(self, n: int) -> int:
        """Execute up to ``n`` instructions; returns how many committed.

        The batched fast path: one decoded-dispatch loop with stats
        accumulated in locals and flushed on exit, no record or MAL
        allocation, and the L1I timing path folded in when modelled.
        Stops early at a halt.  Falls back to a :meth:`step` loop when
        commit hooks are registered or the reference engine is
        selected, so observable behaviour is engine-independent.

        Asynchronous interrupts are taken only at the batch boundary
        (callers post them between batches; nothing inside the loop can
        post one).
        """
        if n <= 0 or self.halted:
            return 0
        if self.program is None:
            raise IllegalInstructionError(
                f"core {self.core_id} has no program loaded")
        executed = 0
        while self._pending_interrupt is not None and executed < n \
                and not self.halted:
            self.step()
            executed += 1
        if self._hooks or not self._use_kernels:
            while executed < n and not self.halted:
                self.step()
                executed += 1
            return executed
        if executed >= n or self.halted:
            return executed

        d = self._decoded
        if d is None or d.program is not self.program:
            d = self.decoded()
        kernels = d.kernels
        base = d.base
        limit = d.limit
        stats = self.stats
        csrd = self.csrs._csrs
        user_priv = Privilege.USER
        l1i = self.l1i
        hierarchy = self.hierarchy
        use_l1i = l1i is not None and hierarchy is not None
        if use_l1i:
            fetch = hierarchy.fetch_access
        blocks = d.blocks
        block_lens = d.block_lens
        # Trace dispatch needs block-granular commits, so it only runs
        # when the per-instruction I-fetch timing model is off; the
        # decoded tables remain the fallback for cold/trivial slots and
        # for traces that might overrun the remaining budget.
        use_compiled = self._use_compiled and not use_l1i
        if use_compiled:
            table = self._compiled
            if table is None or table.decoded is not d:
                table = compiled_table(self.program, self.config)
                self._compiled = table
            traces = table.traces
            trace_lens = table.trace_lens
        cycles = 0
        user = 0
        in_user = False
        self._record_mem = False
        self._block_scratch = None
        try:
            pc = self.pc
            while executed < n:
                off = pc - base
                if off < 0 or off >= limit or off & 3:
                    self.program.fetch(pc)  # raises canonical IsaError
                idx = off >> 2
                in_user = self.priv is user_priv
                if use_l1i:
                    # Per-instruction path: the I-fetch timing model
                    # needs each pc, so blocks cannot be fused.
                    take = 1
                    c = fetch(l1i, pc) + kernels[idx](self)
                elif use_compiled and traces[idx] is not None \
                        and trace_lens[idx] <= n - executed:
                    take, c = traces[idx](self)
                else:
                    take = block_lens[idx]
                    if take > n - executed:
                        take = 1
                        c = kernels[idx](self)
                    else:
                        c = blocks[idx](self)
                cycles += c
                executed += take
                csrd[CSR_INSTRET] += take
                if in_user:
                    user += take
                pc = self.pc
                if self.halted:
                    break
        except BaseException:
            # A block may die mid-run (memory fault, CSR privilege
            # error): settle the members that did commit.  Each member
            # kernel updates pc itself, so pc is already architectural.
            partial = self._block_scratch
            if partial is not None:
                done, part_cycles = partial
                self._block_scratch = None
                executed += done
                cycles += part_cycles
                csrd[CSR_INSTRET] += done
                if in_user:
                    user += done
            raise
        finally:
            self._record_mem = True
            stats.instructions += executed
            stats.user_instructions += user
            stats.cycles += cycles
        return executed

    def run(self, max_instructions: int = 1_000_000) -> CoreStats:
        """Run until halt; raises on exceeding the watchdog budget."""
        executed = 0
        while not self.halted:
            executed += self.advance(max_instructions + 1 - executed)
            if executed > max_instructions:
                raise ExecutionLimitExceeded(
                    f"core {self.core_id} exceeded {max_instructions} "
                    "instructions without halting")
        return self.stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _retire(self, record: CommitRecord) -> None:
        """Commit-time accounting shared by both engines.

        Memory-op and trap counters are owned by whoever produced the
        record (kernels on the decoded path, :meth:`step` on the
        reference path) because the decoded kernels also run without
        records on the fast paths.
        """
        stats = self.stats
        stats.instructions += 1
        if record.priv is Privilege.USER:
            stats.user_instructions += 1
        stats.cycles += record.cycles
        self.csrs._csrs[CSR_INSTRET] += 1
        for hook in self._hooks:
            hook(record)

    def _take_interrupt(self) -> CommitRecord:
        cause = self._pending_interrupt
        assert cause is not None
        self._pending_interrupt = None
        prior_priv = self.priv
        self.csrs.raw_write(CSR_MEPC, self.pc)
        self.csrs.raw_write(CSR_MCAUSE, cause)
        self.priv = Privilege.KERNEL
        self.pc = self.csrs.raw_read(CSR_MTVEC)
        return CommitRecord(pc=self.csrs.raw_read(CSR_MEPC),
                            inst=Instruction("nop"),
                            priv=prior_priv, next_pc=self.pc,
                            cycles=self.config.branch_predictor.
                            mispredict_penalty_cycles,
                            trap=True, trap_cause=cause)

    # ------------------------------------------------------------------
    # reference interpreter (the seed engine, kept for differential
    # testing; semantics must match repro.core.decode kernel for kernel)
    # ------------------------------------------------------------------

    def _execute(self, pc: int, inst: Instruction, cycles: int,
                 ) -> CommitRecord:
        op = inst.op
        kind = inst.info.kind
        regs = self.regs
        next_pc = pc + INST_BYTES
        mem_ops: tuple = ()
        trap = False
        trap_cause = 0
        prior_priv = self.priv

        if kind is OpKind.ALU:
            regs.write(inst.rd, self._alu(inst))
        elif kind is OpKind.MUL:
            regs.write(inst.rd,
                       (regs.read(inst.rs1) * regs.read(inst.rs2)) & MASK64)
            cycles += self.config.mul_latency_cycles - 1
        elif kind is OpKind.DIV:
            regs.write(inst.rd, self._divide(inst))
            cycles += self.config.div_latency_cycles - 1
        elif kind is OpKind.LOAD:
            addr = (regs.read(inst.rs1) + inst.imm) & MASK64
            value, mem_cycles = self.port.read(addr)
            regs.write(inst.rd, value)
            mem_ops = (MemEntry("r", addr, value),)
            cycles += mem_cycles - 1
        elif kind is OpKind.STORE:
            addr = (regs.read(inst.rs1) + inst.imm) & MASK64
            value = regs.read(inst.rs2)
            mem_cycles = self.port.write(addr, value)
            mem_ops = (MemEntry("w", addr, value),)
            cycles += mem_cycles - 1
        elif kind is OpKind.LR:
            addr = regs.read(inst.rs1)
            value, mem_cycles = self.port.read(addr)
            regs.write(inst.rd, value)
            self._reservation = addr
            mem_ops = (MemEntry("r", addr, value),)
            cycles += mem_cycles - 1
        elif kind is OpKind.SC:
            addr = regs.read(inst.rs1)
            value = regs.read(inst.rs2)
            if self._reservation == addr:
                mem_cycles = self.port.write(addr, value)
                regs.write(inst.rd, 0)
                mem_ops = (MemEntry("w", addr, value),)
                cycles += mem_cycles - 1
            else:
                regs.write(inst.rd, 1)
            self._reservation = None
        elif kind is OpKind.AMO:
            addr = regs.read(inst.rs1)
            old, read_cycles = self.port.read(addr)
            new = self._amo_value(op, old, regs.read(inst.rs2))
            write_cycles = self.port.write(addr, new)
            regs.write(inst.rd, old)
            mem_ops = (MemEntry("r", addr, old), MemEntry("w", addr, new))
            cycles += read_cycles + write_cycles - 1
        elif kind is OpKind.BRANCH:
            taken = self._branch_taken(inst)
            if self.predictor.update_branch(pc, taken):
                cycles += self.config.branch_predictor.\
                    mispredict_penalty_cycles
            if taken:
                next_pc = pc + inst.imm
        elif kind is OpKind.JUMP:
            next_pc, extra = self._jump(pc, inst)
            cycles += extra
        elif kind is OpKind.CSR:
            self._csr_op(inst)
        elif kind is OpKind.SYSTEM:
            if op == "ecall":
                trap = True
                trap_cause = (ECALL_FROM_USER
                              if self.priv is Privilege.USER
                              else ECALL_FROM_KERNEL)
                self.csrs.raw_write(CSR_MEPC, next_pc)
                self.csrs.raw_write(CSR_MCAUSE, trap_cause)
                self.priv = Privilege.KERNEL
                next_pc = self.csrs.raw_read(CSR_MTVEC)
                cycles += self.config.branch_predictor.\
                    mispredict_penalty_cycles
            elif op == "mret":
                if prior_priv is not Privilege.KERNEL:
                    raise PrivilegeError("mret from user mode")
                self.priv = Privilege.USER
                next_pc = self.csrs.raw_read(CSR_MEPC)
                cycles += self.config.branch_predictor.\
                    mispredict_penalty_cycles
            else:  # pragma: no cover - registry guards this
                raise IllegalInstructionError(f"unknown system op {op!r}")
        elif kind is OpKind.HALT:
            self.halted = True
        else:  # pragma: no cover - registry guards this
            raise IllegalInstructionError(f"unhandled op kind {kind}")

        self.pc = next_pc
        return CommitRecord(pc=pc, inst=inst, priv=prior_priv,
                            next_pc=next_pc, mem_ops=mem_ops,
                            cycles=cycles, trap=trap,
                            trap_cause=trap_cause)

    def _alu(self, inst: Instruction) -> int:
        regs = self.regs
        op = inst.op
        a = regs.read(inst.rs1)
        b = inst.imm if inst.info.has_imm else regs.read(inst.rs2)
        if op in ("add", "addi", "nop"):
            return (a + b) & MASK64
        if op == "sub":
            return (a - b) & MASK64
        if op in ("and", "andi"):
            return a & (b & MASK64)
        if op in ("or", "ori"):
            return a | (b & MASK64)
        if op in ("xor", "xori"):
            return a ^ (b & MASK64)
        if op in ("slt", "slti"):
            return 1 if to_signed64(a) < to_signed64(b) else 0
        if op == "sltu":
            return 1 if a < (b & MASK64) else 0
        if op in ("sll", "slli"):
            return (a << (b & 63)) & MASK64
        if op in ("srl", "srli"):
            return a >> (b & 63)
        if op in ("sra", "srai"):
            return (to_signed64(a) >> (b & 63)) & MASK64
        if op == "lui":
            return (inst.imm << 12) & MASK64
        raise IllegalInstructionError(f"unknown ALU op {op!r}")

    def _divide(self, inst: Instruction) -> int:
        """Truncating signed divide/remainder in pure integer arithmetic.

        ``int(a / b)`` would route 64-bit operands through a float and
        silently corrupt results beyond 2**53; integer floor division
        with explicit sign handling is exact over the full range.
        """
        a = to_signed64(self.regs.read(inst.rs1))
        b = to_signed64(self.regs.read(inst.rs2))
        if inst.op == "div":
            if b == 0:
                return MASK64  # RISC-V: division by zero yields -1
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return q & MASK64  # truncate toward zero
        if b == 0:
            return a & MASK64  # remainder by zero yields dividend
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return (a - q * b) & MASK64

    @staticmethod
    def _amo_value(op: str, old: int, rs2: int) -> int:
        if op == "amoadd":
            return (old + rs2) & MASK64
        if op == "amoswap":
            return rs2
        if op == "amoand":
            return old & rs2
        if op == "amoor":
            return old | rs2
        if op == "amoxor":
            return old ^ rs2
        if op == "amomax":
            return old if to_signed64(old) >= to_signed64(rs2) else rs2
        if op == "amomin":
            return old if to_signed64(old) <= to_signed64(rs2) else rs2
        raise IllegalInstructionError(f"unknown AMO {op!r}")

    def _branch_taken(self, inst: Instruction) -> bool:
        a = self.regs.read(inst.rs1)
        b = self.regs.read(inst.rs2)
        op = inst.op
        if op == "beq":
            return a == b
        if op == "bne":
            return a != b
        if op == "blt":
            return to_signed64(a) < to_signed64(b)
        if op == "bge":
            return to_signed64(a) >= to_signed64(b)
        if op == "bltu":
            return a < b
        if op == "bgeu":
            return a >= b
        raise IllegalInstructionError(f"unknown branch {op!r}")

    def _jump(self, pc: int, inst: Instruction) -> tuple[int, int]:
        """Resolve jal/jalr; returns (target, extra_cycles)."""
        penalty = self.config.branch_predictor.mispredict_penalty_cycles
        extra = 0
        if inst.op == "jal":
            target = pc + inst.imm
            if inst.rd != 0:
                self.regs.write(inst.rd, pc + INST_BYTES)
                self.predictor.push_return(pc + INST_BYTES)
            return target, extra
        # jalr
        target = (self.regs.read(inst.rs1) + inst.imm) & MASK64 & ~1
        if inst.rd == 0 and inst.rs1 == 1:
            # return: predict via RAS
            if self.predictor.pop_return() != target:
                extra = penalty
        else:
            if self.predictor.update_target(pc, target):
                extra = penalty
            if inst.rd != 0:
                # call: write the link register, push the return address
                self.regs.write(inst.rd, pc + INST_BYTES)
                self.predictor.push_return(pc + INST_BYTES)
        return target, extra

    def _csr_op(self, inst: Instruction) -> None:
        csr = inst.imm
        old = self.csrs.read(csr, self.priv)
        src = self.regs.read(inst.rs1)
        if inst.op == "csrrw":
            self.csrs.write(csr, src, self.priv)
        elif inst.op == "csrrs":
            if inst.rs1 != 0:
                self.csrs.write(csr, old | src, self.priv)
        elif inst.op == "csrrc":
            if inst.rs1 != 0:
                self.csrs.write(csr, old & ~src, self.priv)
        self.regs.write(inst.rd, old)
