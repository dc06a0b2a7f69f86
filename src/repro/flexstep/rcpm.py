"""Register Checkpoint Management + Memory Access Log on the main core.

:class:`MainCoreAdapter` bundles the three per-core units the paper adds
to a core configured as *main*:

* **CPC** — counts committed user-mode instructions and cuts checking
  segments at the instruction-count limit or at a privilege switch
  (Sec. III-A).  Kernel-mode commits are never checked.
* **ASS** — captures SCP/ECP architectural snapshots and stages them
  for transmission.
* **MAL** — packages each committed memory operation (one entry for
  LD/ST, multiple for LR/SC/AMO) in commit order (Sec. III-B).

The adapter hears of every commit through :meth:`MainCoreAdapter.on_commit`:
the SoC loop passes it to the core's record-free
:meth:`~repro.core.core.Core.commit_one`, and the commit hook that
serves the :meth:`~repro.core.core.Core.step` path (the ``interp``
engine, interrupts) unpacks a record into the same call.  A
``before_step`` call from the SoC loop captures the SCP *before* the
first instruction of a segment executes.  Packets go to the adapter's
outbound queue; the SoC flushes that queue into the interconnect
channels and stalls the core when they are full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..config import FlexStepConfig
from ..core.core import CommitRecord, Core
from ..core.decode import MAL_ENTRIES_BY_KIND
from ..core.registers import ArchSnapshot, Privilege
from ..isa.instructions import OpKind
from .dbc import Channel
from .packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    Packet,
    ProgressPacket,
    ScpPacket,
    SegmentCloseReason,
)

#: Default cycles the main core stalls to extract a snapshot through the
#: ASS's single register-file read port (34 words, one per cycle).
SNAPSHOT_CAPTURE_CYCLES = 34

#: Additional per-channel cycles to serialise a snapshot into each FIFO
#: (17 two-word entries per checker channel).
SNAPSHOT_TRANSFER_CYCLES = 17

#: Emit a progress heartbeat at least every this many user instructions.
PROGRESS_INTERVAL = 64


def max_step_entries(snapshot: ArchSnapshot) -> int:
    """FIFO entries one main-core step can stage at most.

    ``before_step`` may open a segment (an SCP); the commit then stages
    its MAL entries (two for an AMO; a progress heartbeat, the
    alternative, is one) and, if it closes the segment, an IC and an
    ECP.
    """
    scp = ScpPacket(segment=0, push_cycle=0, snapshot=snapshot)
    ecp = EcpPacket(segment=0, push_cycle=0, snapshot=snapshot)
    mal = MemPacket(segment=0, push_cycle=0).entries
    ic = IcPacket(segment=0, push_cycle=0)
    return (scp.entries + max(MAL_ENTRIES_BY_KIND) * mal + ic.entries
            + ecp.entries)


@dataclass
class AdapterStats:
    segments_opened: int = 0
    segments_closed: int = 0
    close_reasons: dict = field(default_factory=dict)
    mem_packets: int = 0
    progress_packets: int = 0
    extraction_stall_cycles: int = 0
    backpressure_stall_cycles: int = 0


class MainCoreAdapter:
    """CPC + ASS + MAL for one core in *main* attribute."""

    def __init__(self, core: Core, config: FlexStepConfig, *,
                 capture_cycles: int = SNAPSHOT_CAPTURE_CYCLES,
                 transfer_cycles: int = SNAPSHOT_TRANSFER_CYCLES,
                 progress_interval: int = PROGRESS_INTERVAL):
        self.core = core
        self.config = config
        self.capture_cycles = capture_cycles
        self.transfer_cycles = transfer_cycles
        self.progress_interval = progress_interval
        self.channels: list[Channel] = []
        self.enabled = False
        self.stats = AdapterStats()
        # CPC state
        self._segment_open = False
        self._segment_id = 0
        self._count = 0
        self._last_progress = 0
        # outbound staging (the main core's own FIFO contents)
        self._outbox: Deque[Packet] = deque()
        #: Whether :meth:`_on_commit` is registered on the core.
        self.hooked = False
        #: Free entries every channel needs so that one step's packets
        #: all go out at once (see :meth:`can_run_ahead`).
        self.step_entries = max_step_entries(core.snapshot())

    # ------------------------------------------------------------------
    # configuration (driven by the FlexStep ISA facade)
    # ------------------------------------------------------------------

    def associate(self, channels: list[Channel]) -> None:
        """``M.associate``: bind the checker channel(s)."""
        self.channels = list(channels)

    def enable(self) -> None:
        """``M.check.enable``: begin cutting segments at the next
        user-mode instruction."""
        if not self.channels:
            raise RuntimeError("enable() before associate()")
        if not self.hooked:
            self.core.add_commit_hook(self._on_commit)
            self.hooked = True
        self.enabled = True

    def disable(self) -> None:
        """``M.check.disable``: close any open segment and stop."""
        if self._segment_open:
            self._close_segment(self.core.snapshot(),
                                SegmentCloseReason.CHECK_DISABLED)
        self.enabled = False

    # ------------------------------------------------------------------
    # SoC-loop interface
    # ------------------------------------------------------------------

    @property
    def blocked(self) -> bool:
        """True when staged packets exceed what the channels accepted —
        the core must stall (backpressure) until the checkers drain."""
        return bool(self._outbox)

    def before_step(self) -> None:
        """Called before the core executes its next instruction.

        Opens a new segment (capturing the SCP) when checking is
        enabled, no segment is open, and the core sits in user mode.
        The SCP-extraction stall is charged to the core directly.
        """
        if (not self.enabled or self._segment_open
                or self.core.halted
                or self.core.priv is not Privilege.USER):
            return
        self._segment_id += 1
        self._segment_open = True
        self._count = 0
        self._last_progress = 0
        self.stats.segments_opened += 1
        scp = ScpPacket(segment=self._segment_id,
                        push_cycle=self.core.stats.cycles,
                        snapshot=self.core.snapshot())
        self._stage(scp)
        self._charge_extraction()

    def try_flush(self) -> None:
        """Move staged packets into every channel (broadcast).

        A packet leaves the outbox only when *all* channels accepted it
        (one-to-two mode must keep checkers consistent), so a single
        full channel backpressures the main core.
        """
        now = self.core.stats.cycles
        while self._outbox:
            packet = self._outbox[0]
            if not all(ch.can_push(packet) for ch in self.channels):
                return
            for ch in self.channels:
                ch.push(packet, now)
            self._outbox.popleft()

    def can_run_ahead(self) -> bool:
        """True when the core's next step reaches the checkers only
        through packets that belong to a segment and go out at once.

        Checking is enabled, nothing is staged, a segment is open or
        the core is in user mode (so ``before_step`` opens one), and
        every channel has room for the most one step can stage.  The
        SoC adds the cache conditions before it lets the core run past
        its checkers' clocks.
        """
        if not self.enabled or self._outbox or not (
                self._segment_open
                or self.core.priv is Privilege.USER):
            return False
        need = self.step_entries
        for ch in self.channels:
            if ch.free_entries() < need:
                return False
        return True

    # ------------------------------------------------------------------
    # CPC / MAL behaviour at commit
    # ------------------------------------------------------------------

    def _on_commit(self, record: CommitRecord) -> None:
        """Commit hook for the :meth:`Core.step` path."""
        self.on_commit(record.pc, record.priv, record.mem_ops, record.trap,
                       record.inst.info.kind is OpKind.HALT)

    def on_commit(self, pc: int, priv: Privilege, mem_ops: tuple,
                  trap: bool, halt: bool) -> None:
        """One committed instruction: its pc, the privilege it ran at,
        its MAL entries, and whether it trapped or halted."""
        if not self.enabled:
            return
        if priv is not Privilege.USER or trap or halt:
            # Kernel-mode commit, the user->kernel transition itself
            # (ecall / interrupt), or a halt: never part of a segment.
            # A checker core cannot replay any of these.
            if self._segment_open:
                ecp = self.core.snapshot()
                if trap or halt:
                    # The architectural point the user thread stopped at
                    # is the trapped/halted pc, not where the core went.
                    ecp = type(ecp)(npc=pc, regs=ecp.regs, csrs=ecp.csrs)
                self._close_segment(ecp, SegmentCloseReason.PRIV_SWITCH)
            return
        if not self._segment_open:
            # User-mode commit without an open segment can only happen if
            # enable() raced a step; before_step() opens on the next one.
            return
        self._count += 1
        cycles = self.core.stats.cycles
        if mem_ops:
            for entry in mem_ops:
                self._stage(MemPacket(segment=self._segment_id,
                                      push_cycle=cycles,
                                      count=self._count,
                                      kind=entry.kind,
                                      addr=entry.addr,
                                      data=entry.data))
                self.stats.mem_packets += 1
            self._last_progress = self._count
        elif self._count - self._last_progress >= self.progress_interval:
            self._stage(ProgressPacket(segment=self._segment_id,
                                       push_cycle=cycles,
                                       count=self._count))
            self._last_progress = self._count
            self.stats.progress_packets += 1
        if self._count >= self.config.segment_limit:
            self._close_segment(self.core.snapshot(),
                                SegmentCloseReason.LIMIT)

    def _close_segment(self, ecp_snapshot, reason: SegmentCloseReason,
                       ) -> None:
        cycles = self.core.stats.cycles
        self._stage(IcPacket(segment=self._segment_id, push_cycle=cycles,
                             count=self._count, reason=reason))
        self._stage(EcpPacket(segment=self._segment_id, push_cycle=cycles,
                              snapshot=ecp_snapshot))
        self._segment_open = False
        self.stats.segments_closed += 1
        self.stats.close_reasons[reason] = (
            self.stats.close_reasons.get(reason, 0) + 1)
        # ECP extraction stalls the core just like SCP capture.
        self._charge_extraction()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stage(self, packet: Packet) -> None:
        self._outbox.append(packet)
        self.try_flush()

    def _extraction_cost(self) -> int:
        return (self.capture_cycles
                + self.transfer_cycles * max(1, len(self.channels)))

    def _charge_extraction(self) -> None:
        cost = self._extraction_cost()
        self.core.stats.cycles += cost
        self.core.stats.stall_cycles += cost
        self.stats.extraction_stall_cycles += cost

    @property
    def open_segment_id(self) -> Optional[int]:
        return self._segment_id if self._segment_open else None

    @property
    def current_count(self) -> int:
        return self._count
