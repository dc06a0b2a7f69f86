"""FlexStep SoC: homogeneous cores + DBC interconnect + ISA facade.

:class:`FlexStepSoC` builds the Table II platform (n cores, private
L1s, shared L2) and co-simulates main cores, checker cores and plain
compute cores in min-clock order: the core with the smallest local
cycle count runs until it passes the next core's clock.  This
conservative event ordering keeps per-core clocks comparable, so
backpressure and detection latency are measured on one timeline.

Two interchangeable, bit-identical schedulers drive that arbitration:

* ``loop`` — the oracle: every round rebuilds the candidate set and
  min-scans it (O(cores) per round), and the chosen core stops at the
  next candidate's clock.
* ``heap`` — the default: main/compute cores and checkers keep their
  next events in two :class:`~repro.sim.engine.EventQueue` heaps
  keyed by local clock, halted cores and drained checkers leave the queues
  instead of being rescanned, and checker drains are batched per
  horizon window.  A main core also *runs ahead* of its checkers: past
  the next event of any core it keeps committing, up to the next event
  of another main or compute core, while its next instruction is
  private (see :meth:`FlexStepSoC._advance_main`).  Checking is
  asynchronous, so a main never needs its checkers' progress unless
  its channel is full.

Selection mirrors the sched-backend convention: an explicit argument
(``FlexStepSoC.run(sched=...)`` / ``SoCConfig.soc_sched`` /
``python -m repro run --soc-sched``) beats the ``REPRO_SOC_SCHED``
environment variable, which beats ``auto`` (= ``heap``).  Because the
schedulers are proven bit-identical (``tests/flexstep/test_soc_sched``
and the always-on gate of ``scripts/bench.py --bench soc``), the choice
is an execution knob, never part of experiment identity: campaign
spawn seeds and result-cache digests exclude it.  The same contract
holds for the per-core execution engine tier
(``REPRO_CORE_ENGINE=interp|decoded``, see :mod:`repro.core.core`):
main cores, checkers and compute cores commit identical streams under
either tier — the differential suite proves it — so engine selection
is likewise excluded from spawn seeds and cache digests.

:class:`FlexStepControl` is the software-visible face of the custom ISA
(paper Table I).  The OS layer (:mod:`repro.kernel`) calls it from the
context switch exactly as Algorithm 1 does.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..config import SoCConfig
from ..core.cache import Cache, MemoryHierarchy
from ..core.core import Core
from ..core.decode import K_AMO, K_LOAD, K_LR, K_SC, K_STORE
from ..core.memory import CachedPort, MainMemory
from ..core.registers import CSR_MTVEC
from ..errors import ConfigurationError, ExecutionLimitExceeded
from ..isa.instructions import MASK64
from ..isa.program import Program
from ..runtime import knobs
from ..sim.engine import Event, EventQueue
from .checker import CheckerEngine, SegmentResult
from .dbc import SystemInterconnect
from .rcpm import MainCoreAdapter

#: Environment variable selecting the default co-sim scheduler.
ENV_SOC_SCHED = "REPRO_SOC_SCHED"


def resolve_soc_sched(name: Optional[str] = None) -> str:
    """Resolve a scheduler: argument > ``REPRO_SOC_SCHED`` > auto."""
    return knobs.value("soc_sched", arg=name)


@contextmanager
def soc_sched_override(name: Optional[str]) -> Iterator[None]:
    """Temporarily pin ``REPRO_SOC_SCHED`` (no-op for ``None``).

    Works through the environment so campaign worker *processes* —
    forked or spawned inside the context — inherit the selection,
    mirroring :func:`repro.sched.backend.backend_override`.
    """
    with knobs.env_override("soc_sched", name):
        yield


def _noop() -> None:
    """Placeholder callback for heap-scheduler candidate events."""


class CoreAttr(enum.Enum):
    """Runtime core attribute (paper Sec. II: main / checker / compute)."""

    COMPUTE = "compute"
    MAIN = "main"
    CHECKER = "checker"


class FlexStepControl:
    """The Table I custom-ISA control interface.

    ==================  =============================================
    Instruction         Method
    ==================  =============================================
    ``G.IDs.contain``   :meth:`ids_contain` / :meth:`attr_of`
    ``G.Configure``     :meth:`configure`
    ``M.associate``     :meth:`associate`
    ``M.check``         :meth:`check_enable` / :meth:`check_disable`
    ``C.check_state``   :meth:`check_state`
    ``C.record``        performed inside ``check_state(busy)``
    ``C.apply/C.jal``   internal to the checker engine's replay loop
    ``C.result``        :meth:`result`
    ==================  =============================================
    """

    def __init__(self, soc: "FlexStepSoC"):
        self._soc = soc

    # -- global instructions -------------------------------------------

    def ids_contain(self, attr: CoreAttr, core_id: int) -> bool:
        """``G.IDs.contain``: is ``core_id`` currently of ``attr``?"""
        return self._soc.attrs[core_id] is attr

    def attr_of(self, core_id: int) -> CoreAttr:
        return self._soc.attrs[core_id]

    def configure(self, main_ids: Iterable[int],
                  checker_ids: Iterable[int]) -> None:
        """``G.Configure``: write main/checker IDs to the global register.

        Cores in neither set become plain compute cores.
        """
        mains = set(main_ids)
        checkers = set(checker_ids)
        overlap = mains & checkers
        if overlap:
            raise ConfigurationError(
                f"cores {sorted(overlap)} listed as both main and checker")
        for cid in mains | checkers:
            if not 0 <= cid < self._soc.config.num_cores:
                raise ConfigurationError(f"core id {cid} out of range")
        for cid in range(self._soc.config.num_cores):
            if cid in mains:
                self._soc.attrs[cid] = CoreAttr.MAIN
            elif cid in checkers:
                self._soc.attrs[cid] = CoreAttr.CHECKER
            else:
                self._soc.attrs[cid] = CoreAttr.COMPUTE

    # -- main-core instructions ------------------------------------------

    def associate(self, main_id: int, checker_ids: Sequence[int]) -> None:
        """``M.associate``: allocate checker core(s) to a main core."""
        if self._soc.attrs[main_id] is not CoreAttr.MAIN:
            raise ConfigurationError(f"core {main_id} is not a main core")
        for cid in checker_ids:
            if self._soc.attrs[cid] is not CoreAttr.CHECKER:
                raise ConfigurationError(f"core {cid} is not a checker core")
        channels = self._soc.interconnect.configure(main_id, checker_ids)
        self._soc.adapter_of(main_id).associate(channels)
        for cid in checker_ids:
            self._soc.bind_engine(cid)

    def check_enable(self, main_id: int) -> None:
        """``M.check(enable)``."""
        self._soc.adapter_of(main_id).enable()

    def check_disable(self, main_id: int) -> None:
        """``M.check(disable)``."""
        self._soc.adapter_of(main_id).disable()

    # -- checker-core instructions ----------------------------------------

    def check_state(self, checker_id: int, busy: bool) -> None:
        """``C.check_state``: busy starts checking (includes ``C.record``);
        idle stops it and restores the saved context."""
        engine = self._soc.engine_of(checker_id)
        if busy:
            engine.start_checking()
        else:
            engine.stop_checking()

    def result(self, checker_id: int) -> list[SegmentResult]:
        """``C.result``: comparison results accumulated so far."""
        return self._soc.engine_of(checker_id).results


@dataclass
class SoCRunStats:
    """Outcome of one co-simulated run."""

    main_cycles: dict
    total_instructions: int
    segments_checked: int
    segments_failed: int


class FlexStepSoC:
    """Co-simulated homogeneous SoC with FlexStep units on every core."""

    def __init__(self, config: SoCConfig | None = None):
        self.config = config or SoCConfig()
        mem_cfg = self.config.memory
        self.memory = MainMemory(mem_cfg.dram_size_bytes)
        self.l2 = Cache(mem_cfg.l2, name="l2")
        self.hierarchy = MemoryHierarchy(
            self.l2, l2_latency=mem_cfg.l2.latency_cycles,
            dram_latency=mem_cfg.dram_latency_cycles)
        self.cores: list[Core] = []
        self._l1is: list[Cache] = []
        self._l1ds: list[Cache] = []
        for cid in range(self.config.num_cores):
            l1d = Cache(mem_cfg.l1d, name=f"l1d{cid}")
            l1i = Cache(mem_cfg.l1i, name=f"l1i{cid}")
            port = CachedPort(self.memory, self.hierarchy, l1d)
            core = Core(cid, self.config.core, port,
                        l1i=l1i, hierarchy=self.hierarchy)
            self.cores.append(core)
            self._l1is.append(l1i)
            self._l1ds.append(l1d)
        self.interconnect = SystemInterconnect(
            self.config.num_cores, self.config.flexstep)
        self.attrs: list[CoreAttr] = (
            [CoreAttr.COMPUTE] * self.config.num_cores)
        self._adapters: dict[int, MainCoreAdapter] = {}
        self._engines: dict[int, CheckerEngine] = {}
        self.control = FlexStepControl(self)

    # ------------------------------------------------------------------
    # unit accessors
    # ------------------------------------------------------------------

    def adapter_of(self, main_id: int) -> MainCoreAdapter:
        if main_id not in self._adapters:
            self._adapters[main_id] = MainCoreAdapter(
                self.cores[main_id], self.config.flexstep)
        return self._adapters[main_id]

    def bind_engine(self, checker_id: int) -> CheckerEngine:
        """(Re)bind a checker engine to its inbound channel."""
        channel = self.interconnect.channel_to(checker_id)
        if channel is None:
            raise ConfigurationError(
                f"checker {checker_id} has no inbound channel")
        engine = self._engines.get(checker_id)
        if engine is None or engine.channel is not channel:
            engine = CheckerEngine(self.cores[checker_id], channel)
            self._engines[checker_id] = engine
        return engine

    def engine_of(self, checker_id: int) -> CheckerEngine:
        engine = self._engines.get(checker_id)
        if engine is None:
            raise ConfigurationError(
                f"checker {checker_id} has no engine; associate first")
        return engine

    # ------------------------------------------------------------------
    # convenient setup helpers
    # ------------------------------------------------------------------

    def load_program(self, core_id: int, program: Program) -> None:
        """Load ``program`` (text + data segment) onto a core.

        If the program defines a ``_trap_handler`` label, mtvec is
        pointed at it (firmware-style pre-configuration), so generated
        workloads can take ecalls immediately.
        """
        self.memory.load_segment(program.data.words)
        core = self.cores[core_id]
        core.load_program(program)
        handler = program.labels.get("_trap_handler")
        if handler is not None:
            core.csrs.raw_write(CSR_MTVEC, handler)

    def setup_verification(self, main_id: int,
                           checker_ids: Sequence[int]) -> None:
        """One call to configure dual/triple-core verification mode."""
        self.control.configure([main_id], checker_ids)
        self.control.associate(main_id, checker_ids)
        self.control.check_enable(main_id)
        for cid in checker_ids:
            self.control.check_state(cid, busy=True)

    # ------------------------------------------------------------------
    # co-simulation
    # ------------------------------------------------------------------

    #: Max instructions/actions one core commits per arbitration round.
    #: Within a round the chosen core only runs while it remains the
    #: min-clock candidate (the ``horizon`` bound), so event ordering is
    #: the same as the seed's one-instruction arbitration — the batch
    #: just amortises the candidate scan over whole runs.
    COSIM_BATCH = 256

    def run(self, *, max_instructions: int = 50_000_000,
            max_cycles: Optional[int] = None,
            sched: Optional[str] = None) -> SoCRunStats:
        """Run until every main/compute core halts and all checkers
        drain.  Per-core local clocks advance in min-time order; the
        ``sched`` argument (then ``SoCConfig.soc_sched``, then
        ``REPRO_SOC_SCHED``) picks the arbitration scheduler — the
        ``loop`` oracle or the bit-identical ``heap`` default."""
        if sched is None and self.config.soc_sched != "auto":
            sched = self.config.soc_sched
        if resolve_soc_sched(sched) == "heap":
            self._run_heap(max_instructions, max_cycles)
        else:
            self._run_loop(max_instructions, max_cycles)
        return SoCRunStats(
            main_cycles={cid: self.cores[cid].stats.cycles
                         for cid in range(self.config.num_cores)},
            total_instructions=sum(c.stats.instructions
                                   for c in self.cores),
            segments_checked=sum(e.stats.segments_checked
                                 for e in self._engines.values()),
            segments_failed=sum(e.stats.segments_failed
                                for e in self._engines.values()),
        )

    def _run_loop(self, max_instructions: int,
                  max_cycles: Optional[int]) -> int:
        """The round-scan oracle: one :meth:`advance` call per round."""
        executed = 0
        active_mains = self._initial_active_mains()
        while True:
            progressed, stop = self.advance(
                min(self.COSIM_BATCH, max_instructions - executed + 1),
                active_mains, max_cycles=max_cycles)
            executed += progressed
            if executed > max_instructions:
                raise ExecutionLimitExceeded(
                    f"SoC exceeded {max_instructions} instructions")
            if stop:
                break
        return executed

    def _initial_active_mains(self) -> set[int]:
        return {cid for cid, attr in enumerate(self.attrs)
                if attr in (CoreAttr.MAIN, CoreAttr.COMPUTE)
                and self.cores[cid].program is not None}

    def advance(self, n: int, active_mains: set | None = None, *,
                max_cycles: Optional[int] = None) -> tuple[int, bool]:
        """One batched co-simulation round: arbitrate, then advance the
        min-clock core by up to ``n`` instructions (or checker actions).

        The chosen core runs only while its local clock stays below the
        next-smallest candidate clock (the conservative horizon), so
        cross-core event ordering matches single-instruction
        arbitration.  Returns ``(progressed, stop)``: the committed
        main/compute instructions, and whether co-simulation is over —
        everything halted and drained, or every candidate passed
        ``max_cycles``.  ``progressed`` is reported even on a stopping
        round so the caller's instruction watchdog sees every commit.

        ``active_mains`` carries the not-yet-finished main/compute set
        across rounds; omit it for a standalone round.

        Candidate order is canonical — main/compute cores ascending,
        then checkers in engine-binding order — so clock ties resolve
        identically here and in the heap scheduler (``min`` keeps the
        first minimum it meets).
        """
        if active_mains is None:
            active_mains = self._initial_active_mains()
        runnable: list[int] = []
        for cid in sorted(active_mains):
            if self.cores[cid].halted:
                adapter = self._adapters.get(cid)
                if adapter is not None and adapter.enabled:
                    adapter.disable()
                    adapter.try_flush()
                    if adapter.blocked:
                        runnable.append(cid)
                        continue
                active_mains.discard(cid)
            else:
                runnable.append(cid)
        checker_pending = []
        for cid, engine in self._engines.items():
            if not engine.busy:
                continue
            main_id = self.interconnect.main_of(cid)
            main_done = main_id is None or (
                main_id not in active_mains
                and not self._adapter_blocked(main_id))
            if engine.drained and main_done:
                continue
            checker_pending.append(cid)
        if not runnable and not checker_pending:
            return 0, True
        candidates = runnable + checker_pending
        cid = min(candidates, key=lambda c: self.cores[c].stats.cycles)
        if len(candidates) == 1:
            horizon = None
        else:
            horizon = min(self.cores[c].stats.cycles
                          for c in candidates if c != cid)
        if max_cycles is not None:
            horizon = max_cycles if horizon is None \
                else min(horizon, max_cycles)
        if cid in self._engines and cid in checker_pending:
            self._engines[cid].advance(horizon, self.COSIM_BATCH)
            progressed = 0
        else:
            progressed = self._advance_main(cid, horizon, n)
        stop = max_cycles is not None and all(
            self.cores[c].stats.cycles >= max_cycles
            for c in candidates)
        return progressed, stop

    # -- heap scheduler -------------------------------------------------

    def _run_heap(self, max_instructions: int,
                  max_cycles: Optional[int]) -> int:
        """Event-driven arbitration on two :class:`EventQueue` heaps.

        Every candidate owns one event keyed ``(local clock, rank)``
        with rank = core id for main/compute cores and ``num_cores +
        binding index`` for checkers — exactly the oracle's canonical
        candidate order.  Main/compute events and checker events live
        in separate queues and each round pops the smaller head by
        ``(clock, rank)``; ranks are unique, so clock ties pop in the
        same sequence the loop's min-scan would select.  A pop is one
        arbitration round: the candidate advances and is re-pushed at
        its new clock.  Halted mains and terminally drained checkers
        simply leave the queues instead of being rescanned every round.

        A popped core gets two bounds:

        * the *sync horizon* — the next event of any core, the bound
          the oracle uses;
        * the *hard horizon* — the head of the mains queue, the next
          event of any other main or compute core (O(1)).

        Both are capped at ``max_cycles``.  A checker stops at the sync
        horizon.  A main core may run on to the hard horizon while its
        next instruction is private (:meth:`_advance_main`): nothing a
        checker does before that instruction can change it, and it
        changes nothing a checker can see earlier than it would in the
        oracle, so the run is the oracle's in a different execution
        order.

        Bookkeeping the oracle performs eagerly each round happens here
        at the equivalent sequence points, so the two schedulers are
        bit-identical (cycle counts, segment streams, stall charges):

        * post-halt adapter teardown runs at the end of the halting
          pop — the oracle does it at the very next round's scan,
          before anyone else advances;
        * a halted main whose outbox is still backpressured stays a
          candidate for exactly one more round (``zombies``), matching
          the oracle's scan-keep-then-discard sequence;
        * a stale event (its owner left the candidate set) pops as a
          side-effect-free no-op; it can only shorten another
          candidate's horizon, which splits a batch without changing
          the committed instruction/stall sequence.
        """
        cores = self.cores
        engines = self._engines
        interconnect = self.interconnect
        num_cores = self.config.num_cores
        batch = self.COSIM_BATCH
        mains = EventQueue()
        checks = EventQueue()
        events: dict[int, Event] = {}
        active = self._initial_active_mains()
        # rank -> (checker id, engine, its main's id); the wiring cannot
        # change during a run
        checker_of_rank: dict[int, tuple] = {}

        # The live head event of each queue, kept in step with every
        # pop and push; a cancelled head is re-peeked at the round start.
        head_main: Optional[Event] = None
        head_check: Optional[Event] = None

        def _push(cid: int, rank: int) -> None:
            nonlocal head_main, head_check
            time = cores[cid].stats.cycles
            if rank < num_cores:
                event = mains.push(time, _noop, priority=rank)
                head = head_main
                if head is None or time < head.time or (
                        time == head.time and rank < head.priority):
                    head_main = event
            else:
                event = checks.push(time, _noop, priority=rank)
                head = head_check
                if head is None or time < head.time or (
                        time == head.time and rank < head.priority):
                    head_check = event
            events[cid] = event

        def _drop_event(cid: int) -> None:
            event = events.pop(cid, None)
            if event is not None:
                event.cancel()

        def _discard_main(cid: int) -> None:
            """Oracle's ``active_mains.discard``: the main is done; its
            drained checkers (if nothing is stuck in the outbox) have
            nothing left to wait for and leave the queues too."""
            active.discard(cid)
            _drop_event(cid)
            if not self._adapter_blocked(cid):
                for chk in interconnect.checkers_of(cid):
                    engine = engines.get(chk)
                    if engine is not None and engine.busy \
                            and engine.drained:
                        _drop_event(chk)

        def _retire_halted(cid: int) -> bool:
            """Post-halt teardown (the oracle's round-start scan).

            Returns True when the main stays a candidate for one more
            round because its outbox is still backpressured."""
            adapter = self._adapters.get(cid)
            if adapter is not None and adapter.enabled:
                adapter.disable()
                adapter.try_flush()
                if adapter.blocked:
                    return True
            _discard_main(cid)
            return False

        executed = 0
        zombies: list[int] = []
        for index, (cid, engine) in enumerate(engines.items()):
            if engine.busy:
                rank = num_cores + index
                checker_of_rank[rank] = (cid, engine,
                                         interconnect.main_of(cid))
                _push(cid, rank)
        # Seed main/compute cores through the oracle's first-round scan:
        # already-halted cores (a rerun) retire before anyone advances.
        for cid in sorted(active):
            if cores[cid].halted:
                if _retire_halted(cid):
                    _push(cid, cid)
                    zombies.append(cid)
            else:
                _push(cid, cid)

        peek_main = mains.peek
        peek_check = checks.peek
        events_pop = events.pop
        advance_main = self._advance_main

        def _next_time() -> Optional[int]:
            """The next event of any core."""
            if head_check is not None and (
                    head_main is None or head_check.time < head_main.time):
                return head_check.time
            return head_main.time if head_main is not None else None

        while True:
            if zombies:
                # one round has passed since these mains halted with a
                # backpressured outbox; the oracle discards them now
                for cid in zombies:
                    if cid in active:
                        _discard_main(cid)
                zombies = []
            if head_main is not None and head_main.cancelled:
                head_main = peek_main()
            if head_check is not None and head_check.cancelled:
                head_check = peek_check()
            # Main ranks sort below checker ranks, so a main wins ties.
            if head_check is not None and (
                    head_main is None or head_check.time < head_main.time):
                rank = checks.pop().priority
                head_check = peek_check()
            elif head_main is not None:
                rank = mains.pop().priority
                head_main = peek_main()
            else:
                break
            if rank < num_cores:
                cid = rank
                events_pop(cid, None)
                if cid not in active:
                    continue
                core = cores[cid]
                if core.halted:
                    # seeded pre-halted (e.g. a rerun): scan-equivalent
                    if _retire_halted(cid):
                        _push(cid, cid)
                        zombies.append(cid)
                    continue
                # the hard horizon: the next other main or compute core
                hard = head_main.time if head_main is not None else None
                horizon = hard
                if head_check is not None and (
                        horizon is None or head_check.time < horizon):
                    horizon = head_check.time
                if max_cycles is not None:
                    if horizon is None or horizon > max_cycles:
                        horizon = max_cycles
                    if hard is None or hard > max_cycles:
                        hard = max_cycles
                budget = min(batch, max_instructions - executed + 1)
                executed += advance_main(
                    cid, horizon, budget,
                    math.inf if hard is None else hard)
                if executed > max_instructions:
                    raise ExecutionLimitExceeded(
                        f"SoC exceeded {max_instructions} instructions")
                if max_cycles is not None \
                        and core.stats.cycles >= max_cycles:
                    next_time = _next_time()
                    if next_time is None or next_time >= max_cycles:
                        # the oracle stops before the post-halt scan
                        break
                if core.halted:
                    if _retire_halted(cid):
                        _push(cid, cid)
                        zombies.append(cid)
                else:
                    _push(cid, cid)
            else:
                cid, engine, main_id = checker_of_rank[rank]
                events_pop(cid, None)
                if not engine.busy:
                    continue
                main_done = main_id is None or (
                    main_id not in active
                    and not self._adapter_blocked(main_id))
                if engine.drained and main_done:
                    continue
                horizon = head_check.time if head_check is not None \
                    else None
                if head_main is not None and (
                        horizon is None or head_main.time < horizon):
                    horizon = head_main.time
                if max_cycles is not None and (horizon is None
                                               or horizon > max_cycles):
                    horizon = max_cycles
                engine.advance(horizon, batch)
                if max_cycles is not None \
                        and engine.core.stats.cycles >= max_cycles:
                    next_time = _next_time()
                    if next_time is None or next_time >= max_cycles:
                        break
                if not (engine.drained and main_done):
                    _push(cid, rank)
        return executed

    def _adapter_blocked(self, main_id: int) -> bool:
        adapter = self._adapters.get(main_id)
        return adapter is not None and adapter.blocked

    def _step_main(self, cid: int) -> int:
        """Advance a main/compute core by one instruction or stall."""
        return self._advance_main(cid, None, 1)

    def _advance_main(self, cid: int, horizon: Optional[int],
                      budget: int,
                      hard_horizon: Optional[float] = None) -> int:
        """Run a main/compute core for up to ``budget`` instructions.

        Stops at the cycle ``horizon`` (where another candidate becomes
        the arbitration minimum), at a halt, or at backpressure — a
        blocked DBC charges one stall cycle only when nothing committed
        this round, exactly like the seed's per-instruction arbitration,
        and always yields so the checkers can drain.

        *Run-ahead.*  Given a ``hard_horizon`` (the heap scheduler's
        next event of any other main or compute core), a main core
        keeps committing past ``horizon``, while below
        ``hard_horizon``, as long as its next instruction is private
        (:meth:`_next_is_private`): it touches no state a checker can
        change.  The stop is exact.  Checkers never write memory or
        touch a main core's caches, and their only link to the main is
        the channel.  There a private step's packets all go out at
        once, stamped with the main's clock, so a checker reads the same
        visible prefix at every clock as in the oracle; its packets
        also belong to an open segment, so no drained checker idles
        along with the main meanwhile.  Every clock, stall, segment
        result and fault record stays bit-identical.

        Attached main cores commit through the record-free
        :meth:`Core.commit_one` into :meth:`MainCoreAdapter.on_commit`;
        the ``interp`` engine, interrupts and foreign commit hooks take
        :meth:`Core.step` and its hooks instead.
        """
        core = self.cores[cid]
        adapter = self._adapters.get(cid)
        if adapter is None and not core._hooks and horizon is None:
            # Sole candidate, no FlexStep units attached: the core
            # cannot interact with anything mid-round, so take the
            # record-free block-dispatch path.
            return core.advance(budget)
        stats = core.stats
        # the adapter's own hook is the only one a main core may carry
        # on the record-free path
        record_free = adapter is not None and core._use_kernels and (
            len(core._hooks) == (1 if adapter.hooked else 0))
        on_commit = adapter.on_commit if adapter is not None else None
        done = 0
        while done < budget:
            if adapter is not None and adapter.enabled:
                if adapter.blocked:
                    adapter.try_flush()
                    if adapter.blocked:
                        if done == 0:
                            stats.cycles += 1
                            stats.stall_cycles += 1
                            adapter.stats.backpressure_stall_cycles += 1
                        break
                adapter.before_step()
            if core.halted:
                break
            if adapter is None:
                # exec_one falls back to step() itself when hooks exist
                core.exec_one()
            else:
                if record_free and core._pending_interrupt is None:
                    core.commit_one(on_commit)
                else:
                    core.step()
                if adapter.blocked:
                    adapter.try_flush()
            done += 1
            if horizon is not None and stats.cycles >= horizon and (
                    hard_horizon is None or stats.cycles >= hard_horizon
                    or not self._next_is_private(cid, adapter)):
                break
        return done

    def _next_is_private(self, cid: int,
                         adapter: Optional[MainCoreAdapter]) -> bool:
        """Whether the main core's next step touches no state a checker
        can change, nor any it can see before it would in the oracle.

        The core is not halted and has no interrupt pending; its
        adapter's next packets belong to a segment and all go out at
        once (:meth:`MainCoreAdapter.can_run_ahead`); the fetch hits in
        its L1I; and the instruction is not a memory op, or is a LOAD
        or STORE whose address hits in its L1D.  A miss would reach
        the L2, which checker fetches share.  LR, SC and AMO are never
        private.
        """
        core = self.cores[cid]
        if adapter is None or core.halted \
                or core._pending_interrupt is not None \
                or not adapter.can_run_ahead():
            return False
        pc = core.pc
        if not self._l1is[cid].contains(pc):
            return False
        d = core.decoded()
        off = pc - d.base
        if off < 0 or off >= d.limit or off & 3:
            return False
        kind = d.kinds[off >> 2]
        if kind == K_LOAD or kind == K_STORE:
            inst = d.insts[off >> 2]
            addr = (core.regs._regs[inst.rs1] + inst.imm) & MASK64
            return self._l1ds[cid].contains(addr)
        return kind != K_LR and kind != K_SC and kind != K_AMO

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def all_results(self) -> list[SegmentResult]:
        out: list[SegmentResult] = []
        for engine in self._engines.values():
            out.extend(engine.results)
        return out

    def cycles_us(self, cycles: int) -> float:
        return self.config.core.cycles_to_us(cycles)
