"""Packet capacity accounting, fault-flip primitive, channels and the
System Interconnect."""

import pytest
from hypothesis import given, strategies as st

from repro.config import FlexStepConfig
from repro.core.registers import ArchSnapshot
from repro.errors import ChannelError, ConfigurationError
from repro.flexstep import Channel, SystemInterconnect
from repro.flexstep.packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    ProgressPacket,
    ScpPacket,
    flip_bit_in_packet,
)
from repro.isa.instructions import REG_COUNT


def snap(npc=0x40, seed=3):
    return ArchSnapshot(npc=npc,
                        regs=tuple(seed * i for i in range(REG_COUNT)),
                        csrs=(0,))


class TestPackets:
    def test_mem_packet_one_entry(self):
        p = MemPacket(segment=1, push_cycle=0, count=1, kind="r",
                      addr=8, data=9)
        assert p.entries == 1

    def test_snapshot_packet_entries(self):
        p = ScpPacket(segment=1, push_cycle=0, snapshot=snap())
        # 34 words * 8 B / 16 B per entry = 17
        assert p.entries == 17
        e = EcpPacket(segment=1, push_cycle=0, snapshot=snap())
        assert e.entries == 17

    def test_ic_and_progress_single_entry(self):
        assert IcPacket(segment=1, push_cycle=0, count=5).entries == 1
        assert ProgressPacket(segment=1, push_cycle=0, count=5).entries == 1


class TestFlip:
    def test_flip_mem_addr_and_data(self):
        p = MemPacket(segment=1, push_cycle=0, count=1, kind="r",
                      addr=0x10, data=0x20)
        assert flip_bit_in_packet(p, 0, 0).addr == 0x11
        assert flip_bit_in_packet(p, 1, 4).data == 0x30

    def test_flip_snapshot_word(self):
        p = ScpPacket(segment=1, push_cycle=0, snapshot=snap())
        flipped = flip_bit_in_packet(p, 0, 2)     # npc word
        assert flipped.snapshot.npc == p.snapshot.npc ^ 4

    def test_flip_ic_count(self):
        p = IcPacket(segment=1, push_cycle=0, count=8)
        assert flip_bit_in_packet(p, 0, 1).count == 10

    def test_flip_is_involution(self):
        p = MemPacket(segment=1, push_cycle=0, count=1, kind="w",
                      addr=5 * 8, data=77)
        assert flip_bit_in_packet(flip_bit_in_packet(p, 1, 7), 1, 7) == p

    @given(st.integers(0, 33), st.integers(0, 63))
    def test_flip_always_changes_snapshot(self, word, bit):
        p = EcpPacket(segment=1, push_cycle=0, snapshot=snap())
        flipped = flip_bit_in_packet(p, word, bit)
        assert flipped.snapshot.words() != p.snapshot.words()


class TestChannel:
    def test_capacity_enforced(self):
        ch = Channel(0, 1, capacity_entries=2)
        assert ch.push(MemPacket(segment=1, push_cycle=0))
        assert ch.push(MemPacket(segment=1, push_cycle=0))
        assert not ch.push(MemPacket(segment=1, push_cycle=0))
        assert ch.stats.refusals == 1

    def test_large_packet_refused_when_tight(self):
        ch = Channel(0, 1, capacity_entries=10)
        assert not ch.can_push(
            ScpPacket(segment=1, push_cycle=0, snapshot=snap()))

    def test_pop_frees_space(self):
        ch = Channel(0, 1, capacity_entries=1)
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.pop(now=100)
        assert ch.push(MemPacket(segment=1, push_cycle=0))

    def test_latency_gates_delivery(self):
        ch = Channel(0, 1, capacity_entries=4, latency_cycles=3)
        ch.push(MemPacket(segment=1, push_cycle=10))
        assert ch.head(now=12) is None
        assert ch.head(now=13) is not None

    def test_pop_undelivered_raises(self):
        ch = Channel(0, 1, capacity_entries=4, latency_cycles=5)
        ch.push(MemPacket(segment=1, push_cycle=10))
        with pytest.raises(ChannelError):
            ch.pop(now=11)

    def test_pop_empty_raises(self):
        with pytest.raises(ChannelError):
            Channel(0, 1, capacity_entries=1).pop()

    def test_fifo_order(self):
        ch = Channel(0, 1, capacity_entries=8)
        for i in range(3):
            ch.push(MemPacket(segment=1, push_cycle=0, count=i))
        assert [ch.pop(10).count for _ in range(3)] == [0, 1, 2]

    def test_push_tap_can_replace(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.add_push_tap(lambda p: flip_bit_in_packet(p, 1, 0))
        ch.push(MemPacket(segment=1, push_cycle=0, data=0))
        assert ch.pop(10).data == 1

    def test_drain(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.push(MemPacket(segment=1, push_cycle=0))
        dropped = ch.drain()
        assert len(dropped) == 1 and len(ch) == 0 and ch.occupancy == 0

    def test_replace_packet(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.push(MemPacket(segment=1, push_cycle=0, data=1))
        ch.push(MemPacket(segment=1, push_cycle=0, data=2))
        original = ch.replace_packet(
            1, MemPacket(segment=1, push_cycle=0, data=9))
        assert original.data == 2
        ch.pop(10)
        assert ch.pop(10).data == 9

    def test_max_occupancy_tracked(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.pop(10)
        assert ch.stats.max_occupancy == 2

    def test_max_occupancy_is_simulated_time(self):
        """A push made early in execution order but at a later clock
        counts after the pops at earlier clocks."""
        ch = Channel(0, 1, capacity_entries=8)
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.push(MemPacket(segment=1, push_cycle=100))  # a main ran ahead
        assert ch.stats.max_occupancy == 3             # not yet settled
        ch.pop(10)
        assert ch.stats.max_occupancy == 2
        ch.pop(20)
        ch.pop(120)
        assert ch.stats.max_occupancy == 2

    def test_max_occupancy_pops_before_pushes_at_equal_clocks(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.push(MemPacket(segment=1, push_cycle=3), now=5)
        ch.pop(5)
        assert ch.stats.max_occupancy == 1
        ch.pop(6)
        assert ch.stats.max_occupancy == 1


class TestInterconnect:
    def _ic(self, cores=4, **overrides):
        return SystemInterconnect(cores, FlexStepConfig(**overrides))

    def test_one_to_one(self):
        ic = self._ic()
        channels = ic.configure(0, [1])
        assert len(channels) == 1
        assert ic.checkers_of(0) == (1,)
        assert ic.main_of(1) == 0
        assert ic.channel_to(1) is channels[0]

    def test_one_to_two_splits_main_share(self):
        ic = self._ic()
        dual = ic.configure(0, [1])[0].capacity
        ic.release(0)
        triple = ic.configure(0, [1, 2])[0].capacity
        assert triple < dual

    def test_self_check_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [0])

    def test_duplicate_checkers_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [1, 1])

    def test_mode_limit_enforced(self):
        ic = self._ic(max_checkers_per_main=1)
        with pytest.raises(ConfigurationError):
            ic.configure(0, [1, 2])

    def test_checker_stealing_rejected(self):
        ic = self._ic()
        ic.configure(0, [1])
        with pytest.raises(ConfigurationError):
            ic.configure(2, [1])

    def test_reassociate_same_wiring_preserves_channel(self):
        ic = self._ic()
        before = ic.configure(0, [1])[0]
        before.push(MemPacket(segment=1, push_cycle=0))
        after = ic.configure(0, [1])[0]
        assert after is before
        assert len(after) == 1

    def test_release_frees_checkers(self):
        ic = self._ic()
        ic.configure(0, [1])
        ic.release(0)
        assert ic.channel_to(1) is None
        ic.configure(2, [1])  # now allowed

    def test_out_of_range_core_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [9])

    def test_empty_checkers_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [])

    def test_wiring_complexity_quadratic(self):
        assert self._ic(cores=4).wiring_complexity == 12
        assert self._ic(cores=8).wiring_complexity == 56
