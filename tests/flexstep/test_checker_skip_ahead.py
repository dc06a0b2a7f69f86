"""Differential suite: checker idle skip-ahead vs one-cycle waits.

A waiting checker jumps straight to its next wake-up, and a failed
segment's leftovers drain in one action.  The reference below swaps
both back to the one-cycle behaviour (a wait idles exactly one cycle,
a drain pops exactly one packet) and every configuration must produce
the same complete outcome either way, under both SoC schedulers:
per-core clocks, every ``CheckerStats`` field, every ``SegmentResult``
(detect cycles included), ``ChannelStats``, ``AdapterStats`` and the
fault records.
"""

import random
from dataclasses import asdict

import pytest

from repro.flexstep.bench import build_point_soc
from repro.flexstep.checker import CheckerEngine, CheckerState
from repro.flexstep.faults import FaultTarget, install_injector
from repro.flexstep.packets import EcpPacket

from ..conftest import make_ecall_program, make_sum_program, \
    make_verified_soc

SCHEDS = ("loop", "heap")


def _one_cycle_wait(self, horizon):
    self.core.stats.cycles += 1
    self.stats.idle_cycles += 1


def _one_pop_skip(self, horizon):
    now = self.core.stats.cycles
    packet = self.channel.head(now)
    if packet is None:
        _one_cycle_wait(self, horizon)
        return
    self.channel.pop(now)
    self.core.stats.cycles += 1
    if isinstance(packet, EcpPacket):
        self.state = CheckerState.WAIT_SCP


def outcome(soc, stats, injectors):
    """The complete observable result of one co-simulated run."""
    return {
        "run": asdict(stats),
        "cores": [(c.stats.cycles, c.stats.instructions,
                   c.stats.stall_cycles) for c in soc.cores],
        "checkers": {
            cid: (asdict(engine.stats),
                  [asdict(r) for r in engine.results],
                  asdict(engine.channel.stats))
            for cid, engine in soc._engines.items()},
        "adapters": {cid: asdict(adapter.stats)
                     for cid, adapter in soc._adapters.items()},
        "faults": [asdict(r) for inj in injectors for r in inj.records],
    }


def run(build, sched, *, reference, **run_kwargs):
    """``(outcome, checker actions)`` of one fresh build under
    ``sched``, with skip-ahead or with the one-cycle reference."""
    actions = [0]
    advance = CheckerEngine.advance

    def counted(self, *args, **kwargs):
        done = advance(self, *args, **kwargs)
        actions[0] += done
        return done

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CheckerEngine, "advance", counted)
        if reference:
            mp.setattr(CheckerEngine, "_wait", _one_cycle_wait)
            mp.setattr(CheckerEngine, "_step_skip", _one_pop_skip)
        soc, injectors = build()
        stats = soc.run(sched=sched, **run_kwargs)
    return outcome(soc, stats, injectors), actions[0]


def assert_matches_reference(build, **run_kwargs):
    for sched in SCHEDS:
        fast, fast_actions = run(build, sched, reference=False,
                                 **run_kwargs)
        slow, slow_actions = run(build, sched, reference=True,
                                 **run_kwargs)
        assert fast == slow, sched
        assert fast_actions <= slow_actions
    return fast, fast_actions, slow_actions


def grid_point(pairs, checkers, faults=True, target=3_000):
    return {"name": f"{pairs}x{checkers}", "workload": "dedup",
            "pairs": pairs, "checkers": checkers, "faults": faults,
            "target_instructions": target}


class TestCleanRuns:
    @pytest.mark.parametrize("checkers", [1, 2])
    def test_sum_loop(self, checkers):
        def build():
            return make_verified_soc(make_sum_program(n=2_000),
                                     checkers=checkers), ()

        result, _, _ = assert_matches_reference(build)
        assert result["run"]["segments_failed"] == 0

    def test_ecalls(self):
        def build():
            return make_verified_soc(make_ecall_program(n=25)), ()

        assert_matches_reference(build)

    def test_segment_service_pause(self):
        def build():
            soc = make_verified_soc(make_sum_program(n=2_000))
            soc.engine_of(1).segment_service_pause = 3_000
            return soc, ()

        assert_matches_reference(build)


class TestFaultInjectedDies:
    @pytest.mark.parametrize("pairs,checkers",
                             [(2, 1), (4, 1), (2, 2), (4, 2)])
    def test_multi_pair(self, pairs, checkers):
        result, _, _ = assert_matches_reference(
            lambda: build_point_soc(grid_point(pairs, checkers)))
        assert result["faults"]
        assert result["run"]["segments_failed"] > 0

    def test_every_segment_corrupted(self):
        """Failed segments drain through SKIP, batched or one by one."""
        def build():
            soc = make_verified_soc(make_sum_program(n=1_500))
            injector = install_injector(
                soc, 0, side="checker", target=FaultTarget.ANY,
                segment_interval=1, rng=random.Random(99))
            return soc, [injector]

        result, _, _ = assert_matches_reference(build)
        assert result["run"]["segments_failed"] > 0

    def test_dual_core_actions_fall_fivefold(self):
        result, fast, slow = assert_matches_reference(
            lambda: build_point_soc(grid_point(1, 1, target=5_000)))
        assert result["run"]["segments_failed"] > 0
        assert slow >= 5 * fast, (fast, slow)


class TestBoundedRuns:
    @pytest.mark.parametrize("max_cycles", [3_000, 40_000])
    def test_max_cycles(self, max_cycles):
        assert_matches_reference(
            lambda: build_point_soc(grid_point(2, 1, target=8_000)),
            max_cycles=max_cycles)

    def test_preempt_and_resume(self):
        """The checker is preempted mid-replay, the main core runs on
        alone, and the resumed replay must land identically."""
        def build():
            soc = make_verified_soc(make_sum_program(n=2_000),
                                    dma_spill_entries=8_192)
            engine = soc.engine_of(1)
            for _ in range(40_000):
                soc._step_main(0)
                engine.step()
                if engine.state is CheckerState.REPLAY \
                        and engine._executed > 3:
                    break
            else:
                pytest.fail("checker never entered replay")
            engine.stop_checking()
            for _ in range(3_000):
                soc._step_main(0)
            engine.start_checking()
            return soc, ()

        result, _, _ = assert_matches_reference(build)
        assert result["run"]["segments_failed"] == 0


class TestWindowBounds:
    def test_step_after_advance_ignores_the_old_horizon(self):
        """``step()`` runs while other cores may push at any cycle, so
        no wait may sleep through a packet's arrival — even right after
        an ``advance()`` whose window reached far ahead."""
        soc = make_verified_soc(make_sum_program(n=300))
        engine = soc.engine_of(1)
        channel = soc.interconnect.channel_to(1)
        pushed = []
        channel.add_push_tap(lambda packet: pushed.append(packet)
                             or packet)
        soc._step_main(0)                       # the SCP goes out
        horizon = 100_000
        engine.advance(horizon, max_actions=2)  # wait for it, apply it
        assert engine.state is CheckerState.REPLAY
        assert engine.core.stats.cycles < horizon
        waits = []
        for _ in range(2_000):
            start = engine.core.stats.cycles
            idle = engine.stats.idle_cycles
            engine.step()
            if engine.stats.idle_cycles != idle:
                waits.append((start, engine.core.stats.cycles))
            soc._step_main(0)
        assert waits
        for packet in pushed:
            visible = packet.push_cycle + channel.latency
            for start, end in waits:
                assert not start < visible < end, (packet, start, end)

    def test_skip_drain_stops_at_the_horizon(self):
        """A failed segment's drain pops one packet per cycle and stops
        at the window's horizon, or after one packet outside a window,
        even with more leftovers already visible."""
        soc = make_verified_soc(make_sum_program(n=200),
                                dma_spill_entries=4_096)
        engine = soc.engine_of(1)
        channel = soc.interconnect.channel_to(1)
        engine.stop_checking()
        while not soc.cores[0].halted:
            soc._step_main(0)
        soc.adapter_of(0).disable()
        soc.adapter_of(0).try_flush()
        engine.start_checking()
        engine.state = CheckerState.SKIP
        engine.core.stats.cycles = soc.cores[0].stats.cycles
        queued = len(channel)
        start = engine.core.stats.cycles
        assert engine.advance(start + 5) == 1
        assert engine.core.stats.cycles == start + 5
        assert len(channel) == queued - 5
        engine.step()
        assert engine.core.stats.cycles == start + 6
        assert len(channel) == queued - 6
        assert engine.state is CheckerState.SKIP
        assert engine.stats.idle_cycles == 0
