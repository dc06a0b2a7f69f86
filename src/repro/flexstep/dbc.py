"""Data Buffering and Channelling (DBC) — paper Sec. III-C.

A :class:`Channel` models the combined buffering along one main→checker
path: the producing share of the main core's Data Buffer FIFO plus the
checker core's FIFO.  Capacity is counted in 16-byte entries; a push
that does not fit is refused, which the SoC turns into main-core stall
cycles (backpressure).

The :class:`SystemInterconnect` is the fully connected MUX–DEMUX
network: a global register maps each main core to the checker cores it
forwards to (one-to-one for DCLS-like dual mode, one-to-two for
TCLS-like triple mode, and so on up to ``max_checkers_per_main``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Optional

from ..config import FlexStepConfig
from ..errors import ChannelError, ConfigurationError
from .packets import Packet


@dataclass
class ChannelStats:
    pushes: int = 0
    pops: int = 0
    entries_pushed: int = 0
    refusals: int = 0
    #: Peak occupancy in simulated time: a push counts at the main
    #: core's clock, a pop at the checker's, and pops come first at
    #: equal clocks.  The order the co-simulation runs the two cores in
    #: does not move it, as long as every pop's clock is no later than
    #: the pushes that follow it (the SoC schedulers' conservative
    #: ordering guarantees this).
    max_occupancy: int = 0


class Channel:
    """One main→checker stream with entry-granular capacity."""

    def __init__(self, main_id: int, checker_id: int, *,
                 capacity_entries: int, latency_cycles: int = 1):
        if capacity_entries <= 0:
            raise ConfigurationError("channel capacity must be positive")
        self.main_id = main_id
        self.checker_id = checker_id
        self.capacity = capacity_entries
        self.latency = latency_cycles
        self.occupancy = 0
        self.stats = ChannelStats()
        self._queue: Deque[Packet] = deque()
        # Simulated-time peak (ChannelStats.max_occupancy).  The pushes
        # no pop at a later clock has followed yet: their clocks, and the
        # entries ever pushed up to and including each (int64 arrays: a
        # checker that falls behind leaves hundreds pending per
        # channel); the entries ever popped; and the peak over the
        # pushes already settled.
        self._push_clocks = array("q")
        self._push_totals = array("q")
        self._entries_out = 0
        self._settled_peak = 0
        #: Observers called on every successful push (fault injection).
        self._push_taps: list[Callable[[Packet], Packet]] = []

    def add_push_tap(self, tap: Callable[[Packet], Packet]) -> None:
        """Register a function applied to each pushed packet; it may
        return a (possibly corrupted) replacement packet."""
        self._push_taps.append(tap)

    def free_entries(self) -> int:
        return self.capacity - self.occupancy

    def can_push(self, packet: Packet) -> bool:
        return packet.entries <= self.free_entries()

    def push(self, packet: Packet, now: Optional[int] = None) -> bool:
        """Append ``packet`` if it fits; returns success.

        ``now`` is the pushing main core's clock (default: the packet's
        ``push_cycle``)."""
        if not self.can_push(packet):
            self.stats.refusals += 1
            return False
        for tap in self._push_taps:
            packet = tap(packet)
        self._queue.append(packet)
        self.occupancy += packet.entries
        self.stats.pushes += 1
        self.stats.entries_pushed += packet.entries
        self._push_clocks.append(packet.push_cycle if now is None else now)
        self._push_totals.append(self.occupancy + self._entries_out)
        if self.occupancy > self.stats.max_occupancy:
            self.stats.max_occupancy = self.occupancy
        return True

    def _settle(self, now: Optional[int]) -> None:
        """Fold in the pushes made before clock ``now`` (all if None).

        Pops arrive in clock order, so no later pop can come before
        such a push: its simulated-time occupancy is final.  Each one's
        is its entry total less the entries popped so far, so the
        latest is the highest."""
        clocks = self._push_clocks
        settled = len(clocks) if now is None else bisect_left(clocks, now)
        if settled:
            level = self._push_totals[settled - 1] - self._entries_out
            if level > self._settled_peak:
                self._settled_peak = level
            del clocks[:settled]
            del self._push_totals[:settled]

    def head(self, now: Optional[int] = None) -> Optional[Packet]:
        """Peek the oldest packet; ``now`` (checker cycles) gates on the
        channel delivery latency when provided."""
        if not self._queue:
            return None
        packet = self._queue[0]
        if now is not None and now < packet.push_cycle + self.latency:
            return None
        return packet

    def next_arrival(self, now: int) -> Optional[int]:
        """The cycle the first packet not yet visible at ``now`` becomes
        visible, or None when every queued packet already is.

        Packets queue in push order with non-decreasing ``push_cycle``,
        so the visible packets are a prefix of the queue and this is
        the next cycle at which that prefix grows."""
        latency = self.latency
        for packet in self._queue:
            visible = packet.push_cycle + latency
            if now < visible:
                return visible
        return None

    def pop(self, now: Optional[int] = None) -> Packet:
        packet = self.head(now)
        if packet is None:
            raise ChannelError(
                f"pop from empty/not-yet-delivered channel "
                f"{self.main_id}->{self.checker_id}")
        self._settle(now)
        self._queue.popleft()
        self.occupancy -= packet.entries
        self._entries_out += packet.entries
        self.stats.pops += 1
        self.stats.max_occupancy = (
            max(self._settled_peak, self.occupancy) if self._push_clocks
            else self._settled_peak)
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self) -> list[Packet]:
        """Remove and return everything (checker released / reset)."""
        out = list(self._queue)
        self._settle(None)
        self._entries_out += self.occupancy
        self._queue.clear()
        self.occupancy = 0
        self.stats.max_occupancy = self._settled_peak
        return out

    def iter_packets(self) -> Iterable[Packet]:
        """Inspection without consumption (fault-injection targeting)."""
        return iter(self._queue)

    def replace_packet(self, index: int, packet: Packet) -> Packet:
        """Swap the packet at queue position ``index`` (fault injection).

        Returns the original packet.  Occupancy is kept consistent.
        """
        if not 0 <= index < len(self._queue):
            raise ChannelError(f"no packet at index {index}")
        self._queue.rotate(-index)
        original = self._queue.popleft()
        self._queue.appendleft(packet)
        self._queue.rotate(index)
        self.occupancy += packet.entries - original.entries
        return original


class SystemInterconnect:
    """Global-register-controlled MUX/DEMUX network between core FIFOs.

    ``configure(main_id, checker_ids)`` is the hardware effect of
    ``G.Configure`` + ``M.associate``: it builds one :class:`Channel`
    per (main, checker) pair.  The main core's FIFO share is split
    across its channels, so one-to-two mode has less slack per channel
    than one-to-one — the source of the slightly higher triple-core
    slowdown (paper Fig. 6).
    """

    def __init__(self, num_cores: int, config: FlexStepConfig):
        self.num_cores = num_cores
        self.config = config
        self._channels: dict[tuple[int, int], Channel] = {}
        self._checkers_of: dict[int, tuple[int, ...]] = {}
        self._main_of: dict[int, int] = {}

    def configure(self, main_id: int, checker_ids: Iterable[int],
                  ) -> list[Channel]:
        """Establish channels from ``main_id`` to each checker."""
        ids = tuple(checker_ids)
        if not ids:
            raise ConfigurationError("at least one checker required")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate checker ids {ids}")
        if len(ids) > self.config.max_checkers_per_main:
            raise ConfigurationError(
                f"{len(ids)} checkers exceeds mode limit "
                f"{self.config.max_checkers_per_main}")
        for cid in (main_id, *ids):
            if not 0 <= cid < self.num_cores:
                raise ConfigurationError(f"core id {cid} out of range")
        if main_id in ids:
            raise ConfigurationError(
                f"core {main_id} cannot check itself")
        for cid in ids:
            bound = self._main_of.get(cid)
            if bound is not None and bound != main_id:
                raise ConfigurationError(
                    f"checker {cid} already serves main {bound}")
        if self._checkers_of.get(main_id) == ids:
            # Re-associating the same wiring is a no-op (the global
            # register already holds these ids); buffered data survives.
            return self.channels_of(main_id)
        self.release(main_id)
        main_share = self.config.total_buffer_entries // len(ids)
        capacity = self.config.fifo_entries + main_share
        channels = []
        for cid in ids:
            channel = Channel(main_id, cid, capacity_entries=capacity,
                              latency_cycles=self.config.
                              channel_latency_cycles)
            self._channels[(main_id, cid)] = channel
            self._main_of[cid] = main_id
            channels.append(channel)
        self._checkers_of[main_id] = ids
        return channels

    def release(self, main_id: int) -> None:
        """Tear down all of ``main_id``'s channels."""
        for cid in self._checkers_of.pop(main_id, ()):
            self._channels.pop((main_id, cid), None)
            self._main_of.pop(cid, None)

    def channels_of(self, main_id: int) -> list[Channel]:
        return [self._channels[(main_id, cid)]
                for cid in self._checkers_of.get(main_id, ())]

    def channel_to(self, checker_id: int) -> Optional[Channel]:
        main_id = self._main_of.get(checker_id)
        if main_id is None:
            return None
        return self._channels.get((main_id, checker_id))

    def checkers_of(self, main_id: int) -> tuple[int, ...]:
        return self._checkers_of.get(main_id, ())

    def main_of(self, checker_id: int) -> Optional[int]:
        return self._main_of.get(checker_id)

    @property
    def wiring_complexity(self) -> int:
        """Fully connected MUX/DEMUX pairs: grows quadratically — the
        reason the paper notes the interconnect would become a bus/NoC
        at scale (Sec. III-C)."""
        return self.num_cores * (self.num_cores - 1)
