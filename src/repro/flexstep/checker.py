"""Checker-core replay engine (paper Secs. II, III and Algorithm 2).

A core configured as *checker* re-executes checking segments received
over its inbound channel:

1. ``C.record`` — save the checker's own context into its ASS.
2. Wait for an SCP, ``C.apply`` it and ``C.jal`` to its ``npc``.
3. Replay user instructions.  Loads take their data from the Memory
   Access Log stream instead of memory (the checker "halts memory
   access"); every logged address and store value is verified against
   what the replay computes.
4. When the replayed instruction count reaches the segment's IC, compare
   the architectural state against the ECP and report via ``C.result``.

The engine is driven in small steps by the SoC co-simulation so checker
cycles interleave realistically with main-core cycles; backpressure and
detection latency emerge from that interleaving.

Waiting is one action, not one per cycle.  Whenever the checker cannot
proceed — no SCP yet, a safe count that is too low, MAL entries still
missing, no visible ECP, or a failed segment's leftovers not yet
arrived — it idles straight to its next *wake-up*: the first cycle at
which a queued packet becomes visible, capped at the action's horizon,
and at least one cycle away.  This is exact.  A waiting checker's
decisions read only the visible part of its channel; packets queue in
push order with non-decreasing ``push_cycle`` (RCPM stamps them at
stage time and fault taps leave the stamp alone), so the visible part
grows only at those wake-up cycles.  Nothing else can change it before
the horizon, where another core may run and push.  Each skipped cycle
would have made the same wait decision, so cycles, ``idle_cycles``
and every later event land where one-cycle ticks would put them.

Replay steps one instruction at a time (``peek_kind_code`` +
``exec_one``), so the checker itself never batches through an
execution-engine tier; main cores may run under any
``REPRO_CORE_ENGINE`` tier (``interp``/``decoded``/``compiled``) and
produce bit-identical commit streams, MAL entries and checkpoints —
the three-way differential suite replays injected faults under every
tier to prove detection results are engine-invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.core import Core
from ..core.decode import K_HALT, K_SYSTEM, MAL_ENTRIES_BY_KIND
from ..core.registers import ArchSnapshot
from ..errors import VerificationMismatch
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

#: Cycles to apply an SCP / compare an ECP through the ASS ports.
APPLY_CYCLES = 10
COMPARE_CYCLES = 10


class ReplayMismatch(VerificationMismatch):
    """A divergence discovered during replay (memory entry or stream)."""


class CheckerState(enum.Enum):
    IDLE = "idle"            # checking disabled (C.check_state idle)
    WAIT_SCP = "wait_scp"    # busy, waiting for a segment to start
    REPLAY = "replay"        # re-executing a segment
    SKIP = "skip"            # draining a failed segment's leftovers


@dataclass
class SegmentResult:
    """``C.result`` payload for one checked segment."""

    segment: int
    ok: bool
    count: int
    detail: str = ""
    detect_cycle: int = 0
    close_reason: Optional[SegmentCloseReason] = None


@dataclass
class CheckerStats:
    segments_checked: int = 0
    segments_failed: int = 0
    replayed_instructions: int = 0
    idle_cycles: int = 0
    verified_entries: int = 0


class ReplayPort:
    """Memory port that feeds loads from, and verifies stores against,
    the Memory Access Log stream."""

    def __init__(self, engine: "CheckerEngine"):
        self.engine = engine

    def _next_entry(self) -> MemPacket:
        packet = self.engine.channel.head(self.engine.core.stats.cycles)
        if not isinstance(packet, MemPacket):
            raise ReplayMismatch(
                "memory access with no matching log entry "
                f"(head={type(packet).__name__ if packet else 'empty'})")
        self.engine.channel.pop(self.engine.core.stats.cycles)
        return packet

    def read(self, addr: int) -> tuple[int, int]:
        entry = self._next_entry()
        if entry.kind != "r" or entry.addr != addr:
            raise ReplayMismatch(
                f"read divergence: replay addr {addr:#x}, "
                f"log ({entry.kind!r}, {entry.addr:#x})")
        self.engine.stats.verified_entries += 1
        return entry.data, 1

    def write(self, addr: int, value: int) -> int:
        entry = self._next_entry()
        if entry.kind != "w" or entry.addr != addr or entry.data != value:
            raise ReplayMismatch(
                f"write divergence: replay ({addr:#x}, {value:#x}), "
                f"log ({entry.kind!r}, {entry.addr:#x}, {entry.data:#x})")
        self.engine.stats.verified_entries += 1
        return 1


class CheckerEngine:
    """State machine running on a checker-attributed core."""

    def __init__(self, core: Core, channel: Channel, *,
                 segment_service_pause: int = 0):
        self.core = core
        self.channel = channel
        self.port = ReplayPort(self)
        self.state = CheckerState.IDLE
        self.stats = CheckerStats()
        self.results: list[SegmentResult] = []
        #: The program the verified thread executes.  Real hardware
        #: fetches by pc from the shared address space; with per-task
        #: Program objects the engine must pin the main task's text so
        #: replay still fetches it after the checker core ran an
        #: unrelated task.  None = use whatever the core has loaded.
        self.program = None
        self._saved_program = None
        #: Cycles the checker spends away from verification after each
        #: segment (asynchronous checking: the checker core may execute
        #: other tasks between segments, paper Sec. II).  Used by the
        #: detection-latency experiment; zero = dedicated checker.
        self.segment_service_pause = segment_service_pause
        self._saved_context: Optional[ArchSnapshot] = None
        self._saved_port = None
        # per-segment replay state
        self._segment = 0
        self._executed = 0
        self._safe_count = 0
        self._ic: Optional[int] = None
        self._ic_reason: Optional[SegmentCloseReason] = None
        #: Frozen replay state across a preemption of the checker thread
        #: (state, mid-replay architectural snapshot or None).
        self._frozen: Optional[tuple[CheckerState,
                                     Optional[ArchSnapshot]]] = None

    # ------------------------------------------------------------------
    # control (C.check_state / C.record)
    # ------------------------------------------------------------------

    def start_checking(self) -> None:
        """``C.check_state(busy)`` + ``C.record``: save the core's own
        context to the ASS, swap in the replay memory port, and resume
        any replay frozen by an earlier preemption."""
        if self.state is not CheckerState.IDLE:
            return
        self._saved_context = self.core.snapshot()
        self._saved_port = self.core.port
        self._saved_program = self.core.program
        self.core.port = self.port
        if self.program is not None:
            self.core.program = self.program
        if self._frozen is not None:
            state, snap = self._frozen
            self._frozen = None
            if snap is not None:
                self.core.restore(snap)
                self.core.halted = False
            self.state = state
        else:
            self.state = CheckerState.WAIT_SCP

    def stop_checking(self) -> None:
        """``C.check_state(idle)``: freeze any in-flight replay (its
        progress lives in the ASS) and restore the saved context so the
        core can run ordinary tasks.  Buffered segments keep
        accumulating in the DBC meanwhile — that is the asynchrony that
        lets verification be preempted (Fig. 1(c))."""
        if self.state is CheckerState.IDLE:
            return
        if self.state is CheckerState.REPLAY:
            self._frozen = (self.state, self.core.snapshot())
        elif self.state is CheckerState.SKIP:
            self._frozen = (self.state, None)
        else:
            self._frozen = None
        if self._saved_port is not None:
            self.core.port = self._saved_port
        if self._saved_program is not None:
            self.core.program = self._saved_program
        if self._saved_context is not None:
            self.core.restore(self._saved_context)
        self.state = CheckerState.IDLE

    @property
    def busy(self) -> bool:
        return self.state is not CheckerState.IDLE

    @property
    def drained(self) -> bool:
        """True when no segment is in flight and the channel is empty."""
        return self.state in (CheckerState.IDLE, CheckerState.WAIT_SCP) \
            and len(self.channel) == 0

    # ------------------------------------------------------------------
    # main loop step
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Take one checker action outside an :meth:`advance` window.

        Another core may push into the channel on the very next cycle,
        so the action's horizon is one cycle away: a wait lasts one
        cycle, and a failed segment's drain pops one packet.
        """
        self._act(self.core.stats.cycles + 1)

    def advance(self, horizon: Optional[int] = None,
                max_actions: int = 256) -> int:
        """Run a batch of checker actions between co-sim sync points.

        Takes at least one action (the co-simulation's progress
        guarantee), then keeps going while the checker's local clock
        stays below ``horizon`` — the point where another core would
        become the event-ordering minimum — and there is conceivably
        work left.  Returns the number of actions taken.

        No other core runs inside the window, so the channel's contents
        are fixed and only a queued packet becoming visible can end a
        wait: each wait jumps to the next wake-up (see the module
        docstring), and draining a failed segment pops every visible
        packet up to its ECP in one action.  ``None`` leaves the window
        unbounded (the checker is the only candidate).
        """
        done = 0
        while True:
            self._act(horizon)
            done += 1
            if done >= max_actions:
                break
            if self.state is CheckerState.IDLE or self.drained:
                break
            if horizon is not None and self.core.stats.cycles >= horizon:
                break
        return done

    def _act(self, horizon: Optional[int]) -> None:
        """One action; waits and drains stop by ``horizon``."""
        state = self.state
        if state is CheckerState.REPLAY:
            self._step_replay(horizon)
        elif state is CheckerState.WAIT_SCP:
            self._step_wait_scp(horizon)
        elif state is CheckerState.SKIP:
            self._step_skip(horizon)
        else:
            self._wait(horizon)

    # -- WAIT_SCP -------------------------------------------------------

    def _step_wait_scp(self, horizon: Optional[int]) -> None:
        packet = self.channel.head(self.core.stats.cycles)
        if packet is None:
            self._wait(horizon)
            return
        if not isinstance(packet, ScpPacket):
            # Protocol corruption (e.g. a fault flipped stream framing):
            # drop the stray packet and report the segment as failed.
            self.channel.pop(self.core.stats.cycles)
            self._fail(packet.segment, f"expected SCP, got "
                       f"{type(packet).__name__}")
            self.state = CheckerState.SKIP
            return
        self.channel.pop(self.core.stats.cycles)
        self._segment = packet.segment
        self._executed = 0
        self._safe_count = 0
        self._ic = None
        self._ic_reason = None
        # C.apply + C.jal
        self.core.restore(packet.snapshot)
        self.core.halted = False
        self._charge(APPLY_CYCLES)
        self.state = CheckerState.REPLAY

    # -- REPLAY -----------------------------------------------------------

    def _step_replay(self, horizon: Optional[int]) -> None:
        now = self.core.stats.cycles
        packet = self.channel.head(now)

        # Consume stream metadata at the head.
        if isinstance(packet, ProgressPacket):
            self.channel.pop(now)
            self._safe_count = max(self._safe_count, packet.count)
            self._charge(1)
            return
        if isinstance(packet, IcPacket) and self._ic is None:
            self.channel.pop(now)
            self._ic = packet.count
            self._ic_reason = packet.reason
            self._charge(1)
            return
        if isinstance(packet, MemPacket):
            self._safe_count = max(self._safe_count, packet.count)

        # Segment complete: verify the ECP.
        if self._ic is not None and self._executed >= self._ic:
            if self._executed > self._ic:
                # A corrupted (smaller) IC: we already replayed past it.
                self._fail(self._segment,
                           f"IC {self._ic} below replayed count "
                           f"{self._executed}")
                self.state = CheckerState.SKIP
                return
            self._step_verify_ecp(packet, horizon)
            return

        # Replay one more instruction if it is safe to do so.
        next_count = self._executed + 1
        if self._ic is None and next_count > self._safe_count:
            self._wait(horizon)
            return
        try:
            # Decoded-dispatch metadata peek: no Instruction fetch, no
            # info registry lookup on the replay hot path.
            kind_code = self.core.peek_kind_code()
        except Exception:
            self._fail(self._segment,
                       f"replay pc {self.core.pc:#x} escaped the program")
            self.state = CheckerState.SKIP
            return
        if kind_code == K_SYSTEM or kind_code == K_HALT:
            # A correct segment never contains a privilege switch; report
            # the divergence (corrupted IC or SCP drove us here).
            op = self.core.program.fetch(self.core.pc).op
            self._fail(self._segment,
                       f"replay reached {op} at {self.core.pc:#x}")
            self.state = CheckerState.SKIP
            return
        needed = MAL_ENTRIES_BY_KIND[kind_code]
        if needed and not self._entries_ready(needed):
            self._wait(horizon)
            return
        try:
            # Record-free fast path: replay needs only the architectural
            # effects and cycle charge, not a CommitRecord.
            self.core.exec_one()
        except VerificationMismatch as exc:
            self._fail(self._segment, str(exc))
            self.state = CheckerState.SKIP
            return
        self._executed += 1
        self.stats.replayed_instructions += 1

    def _step_verify_ecp(self, packet: Optional[Packet],
                         horizon: Optional[int]) -> None:
        now = self.core.stats.cycles
        if packet is None:
            self._wait(horizon)
            return
        if not isinstance(packet, EcpPacket):
            self.channel.pop(now)
            self._fail(self._segment,
                       f"expected ECP, got {type(packet).__name__}")
            self.state = CheckerState.SKIP
            return
        self.channel.pop(now)
        self._charge(COMPARE_CYCLES)
        mine = self.core.snapshot()
        diffs = mine.diff(packet.snapshot)
        if diffs:
            self._fail(self._segment, "ECP mismatch: " + "; ".join(diffs),
                       count=self._executed)
        else:
            self.results.append(SegmentResult(
                segment=self._segment, ok=True, count=self._executed,
                detect_cycle=self.core.stats.cycles,
                close_reason=self._ic_reason))
            self.stats.segments_checked += 1
        self.state = CheckerState.WAIT_SCP
        if self.segment_service_pause:
            self._charge(self.segment_service_pause)

    # -- SKIP -------------------------------------------------------------

    def _step_skip(self, horizon: Optional[int]) -> None:
        """Drain the remainder of a failed segment up to its ECP: every
        packet visible before ``horizon``, one cycle per pop."""
        channel = self.channel
        stats = self.core.stats
        packet = channel.head(stats.cycles)
        if packet is None:
            self._wait(horizon)
            return
        while True:
            channel.pop(stats.cycles)
            stats.cycles += 1
            if isinstance(packet, EcpPacket):
                self.state = CheckerState.WAIT_SCP
                return
            if horizon is not None and stats.cycles >= horizon:
                return
            packet = channel.head(stats.cycles)
            if packet is None:
                return

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _entries_ready(self, needed: int) -> bool:
        now = self.core.stats.cycles
        ready = 0
        for packet in self.channel.iter_packets():
            if now < packet.push_cycle + self.channel.latency:
                break
            if isinstance(packet, MemPacket):
                ready += 1
                if ready >= needed:
                    return True
                continue
            # Non-mem packet at/near head while entries are owed: replay
            # will surface the divergence via the port; let it run.
            return True
        return False

    def _fail(self, segment: int, detail: str, count: int | None = None,
              ) -> None:
        self.results.append(SegmentResult(
            segment=segment, ok=False,
            count=self._executed if count is None else count,
            detail=detail, detect_cycle=self.core.stats.cycles,
            close_reason=self._ic_reason))
        self.stats.segments_failed += 1

    def _wait(self, horizon: Optional[int]) -> None:
        """Idle until the next wake-up: the cycle the first queued
        packet not yet visible becomes visible, capped at ``horizon``,
        and at least one cycle."""
        now = self.core.stats.cycles
        wake = self.channel.next_arrival(now)
        if wake is None or (horizon is not None and horizon < wake):
            wake = horizon
        cycles = wake - now if wake is not None and wake > now else 1
        self.core.stats.cycles += cycles
        self.stats.idle_cycles += cycles

    def _charge(self, cycles: int) -> None:
        self.core.stats.cycles += cycles
