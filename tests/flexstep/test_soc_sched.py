"""Differential suite: the heap co-sim scheduler vs the loop oracle.

Every test runs the same workload/topology twice — once under
``sched="loop"`` (the seed's round-scan arbitration, kept as the
oracle) and once under ``sched="heap"`` (the event-queue scheduler) —
and asserts the complete observable outcome is bit-identical:
``SoCRunStats``, every core's final cycle count, each checker's
ordered ``SegmentResult`` stream (including detect cycles and close
reasons), checker counters, channel stats, and fault-injection records.

``TestRunAhead`` aims at the heap's main-core run-ahead: each case
drives one of the conditions that must stop a main core at the sync
horizon.
"""

import os
import random

import pytest

from repro.analysis.latency import FIG7_DEFAULTS, _fig7_specs, _fig7_unit
from repro.config import CacheConfig, MemoryConfig, SoCConfig
from repro.errors import ConfigurationError
from repro.isa import assemble
from repro.scenarios.catalog import get_scenario
from repro.workloads.profiles import get_profile
from repro.flexstep.bench import (
    DEFAULT_GRID,
    build_point_soc,
    soc_fingerprint,
)
from repro.flexstep.faults import FaultTarget, install_injector
from repro.flexstep.soc import (
    ENV_SOC_SCHED,
    FlexStepSoC,
    resolve_soc_sched,
    soc_sched_override,
)

from ..conftest import (
    make_ecall_program,
    make_sum_program,
    make_verified_soc,
)

SCHEDS = ("loop", "heap")


def run_fingerprint(build, sched, **run_kwargs):
    """Build a fresh SoC via ``build()`` and run it under ``sched``."""
    soc, injectors = build()
    stats = soc.run(sched=sched, **run_kwargs)
    return soc_fingerprint(soc, stats, injectors)


def assert_schedulers_identical(build, **run_kwargs):
    prints = {
        sched: run_fingerprint(build, sched, **run_kwargs)
        for sched in SCHEDS
    }
    assert prints["loop"] == prints["heap"]
    return prints["loop"]


def grid_point(pairs, checkers, workload="dedup", faults=True, target=3_000):
    return {
        "name": f"{pairs}x{checkers}",
        "workload": workload,
        "pairs": pairs,
        "checkers": checkers,
        "faults": faults,
        "target_instructions": target,
    }


class TestCleanRuns:
    @pytest.mark.parametrize("checkers", [1, 2])
    def test_sum_loop_identical(self, checkers):
        def build():
            soc = make_verified_soc(
                make_sum_program(n=2_000), checkers=checkers
            )
            return soc, ()

        fingerprint = assert_schedulers_identical(build)
        assert fingerprint[3] == 0  # no failed segments

    def test_ecalls_identical(self):
        def build():
            return make_verified_soc(make_ecall_program(n=25)), ()

        assert_schedulers_identical(build)

    def test_vanilla_single_core_identical(self):
        def build():
            soc = FlexStepSoC(SoCConfig(num_cores=1))
            soc.load_program(0, make_sum_program(n=2_000))
            return soc, ()

        assert_schedulers_identical(build)


class TestTopologySweep:
    """Fault-injected multi-pair dies from 4 to 32 cores.

    ``(4, 2)`` matters beyond scale: its main ids {0, 3, 6, 9} are the
    pattern where a hash-ordered candidate scan would diverge from the
    canonical sorted order both schedulers define.
    """

    @pytest.mark.parametrize(
        "pairs,checkers",
        [(2, 1), (4, 1), (16, 1), (2, 2), (4, 2)],
    )
    def test_fault_injection_identical(self, pairs, checkers):
        point = grid_point(pairs, checkers)
        fingerprint = assert_schedulers_identical(
            lambda: build_point_soc(point)
        )
        assert fingerprint[5]  # fault records were produced and match

    def test_bench_grid_points_are_well_formed(self):
        names = [p["name"] for p in DEFAULT_GRID]
        assert len(names) == len(set(names))
        assert any(
            p["pairs"] * (1 + p["checkers"]) == 32 for p in DEFAULT_GRID
        )


class TestBoundedRuns:
    @pytest.mark.parametrize("max_cycles", [3_000, 40_000])
    def test_max_cycles_identical(self, max_cycles):
        point = grid_point(2, 1, target=8_000)
        assert_schedulers_identical(
            lambda: build_point_soc(point), max_cycles=max_cycles
        )

    def test_rerun_after_completion_identical(self):
        """A second run() seeds already-halted cores: both schedulers
        must retire them through the same first-round sweep."""

        def build():
            soc = make_verified_soc(make_sum_program(n=400))
            soc.run()  # leaves every core halted and drained
            soc.cores[0].load_program(make_sum_program(n=300, value=3))
            return soc, ()

        assert_schedulers_identical(build)


class TestDetectionIdentity:
    def test_corrupted_stream_detected_identically(self):
        def build():
            soc = make_verified_soc(make_sum_program(n=1_500))
            injector = install_injector(
                soc,
                0,
                side="checker",
                target=FaultTarget.ANY,
                segment_interval=1,
                rng=random.Random(99),
            )
            return soc, [injector]

        fingerprint = assert_schedulers_identical(build)
        assert fingerprint[3] > 0  # some segments failed, identically


#: One memory op per iteration, striding 64 KB through 1 MB: every
#: access maps to the same L1D set and the same L2 set as the loop's
#: own first code line, so it misses both, and a main core that ran
#: ahead through it would evict that line before its checker's first
#: fetch of it.
STRIDE_SRC = """
.text
main:
    li   x1, {n}
    li   x13, 0x10000
    li   x14, 0x110000
    li   x10, 0x10000
loop:
    {op}
    add  x10, x10, x13
    bne  x10, x14, next
    li   x10, 0x10000
next:
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""


def ring_program(n, blocks=5):
    """A loop through ``blocks`` code blocks 4 KB apart: with a 4-way
    L1I and a 4-way, 64-set L2 every block shares one set of each, so
    main and checker fetches miss both and contend for the L2 set."""
    lines = [".text", "main:", f"    li   x1, {n}", "loop:",
             "    addi x1, x1, -1", "    j    far1"]
    count = 3
    for k in range(1, blocks):
        lines += ["    nop"] * (k * 1024 - count)
        count = k * 1024
        lines.append(f"far{k}:")
        if k < blocks - 1:
            lines.append(f"    j    far{k + 1}")
            count += 1
    lines += ["    bne  x1, x0, loop", "    halt"]
    return assemble("\n".join(lines), name="ring")


#: Two mains sharing a word: the producer counts it up with stores that
#: hit its L1D, the consumer spins on it, so the consumer's instruction
#: count depends on how the two interleave.
PRODUCER_SRC = """
.text
main:
    li   x1, {n}
    li   x2, 0
loop:
    addi x2, x2, 1
    sd   x2, 0x3000(x0)
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""
CONSUMER_SRC = """
.text
main:
    li   x5, {n}
    li   x4, 0
spin:
    ld   x3, 0x3000(x0)
    addi x4, x4, 1
    blt  x3, x5, spin
    sd   x4, 0x3008(x0)
    halt
"""

#: User code, one ecall, and a kernel-mode handler that halts: the run
#: ends with no segment open while the checker is drained.
ECALL_HALT_SRC = """
.text
main:
    li   x1, {n}
    li   x2, 0
loop:
    addi x2, x2, 3
    sd   x2, 0x2000(x0)
    addi x1, x1, -1
    bne  x1, x0, loop
    ecall
    halt
_trap_handler:
    li   x5, {k}
spin:
    addi x5, x5, -1
    bne  x5, x0, spin
    halt
"""


def verified(program, *, checkers=1, **flex_overrides):
    return lambda: (make_verified_soc(program, checkers=checkers,
                                      **flex_overrides), ())


class TestRunAhead:
    @pytest.mark.parametrize("fifo_entries", [12, 24, 40])
    def test_tiny_fifo_without_spill(self, fifo_entries):
        """Channels too small for a whole step's packets, or only
        sometimes large enough: the slack guard stops run-ahead."""
        fingerprint = assert_schedulers_identical(verified(
            make_sum_program(n=1_500), fifo_entries=fifo_entries))
        assert fingerprint[3] == 0

    @pytest.mark.parametrize("op", ["ld   x3, 0(x10)", "sd   x1, 0(x10)",
                                    "amoadd x3, x1, (x10)",
                                    "lr   x3, (x10)"])
    def test_strided_memory_ops_miss_l1d(self, op):
        program = assemble(STRIDE_SRC.format(n=300, op=op), name="stride")
        assert_schedulers_identical(verified(program))

    def test_fetch_misses_contend_in_a_small_l2(self):
        config = SoCConfig(num_cores=2, memory=MemoryConfig(
            l2=CacheConfig(size_bytes=16 * 1024, ways=4,
                           latency_cycles=40, mshrs=8)))
        program = ring_program(200)

        def build():
            soc = FlexStepSoC(config)
            soc.load_program(0, program)
            soc.cores[1].load_program(program)
            soc.setup_verification(0, [1])
            return soc, ()

        assert_schedulers_identical(build)

    def test_mains_share_memory(self):
        """A main never runs past another main's clock."""
        producer = assemble(PRODUCER_SRC.format(n=3_000), name="producer")
        consumer = assemble(CONSUMER_SRC.format(n=3_000), name="consumer")

        def build():
            soc = FlexStepSoC(SoCConfig(num_cores=4))
            soc.control.configure([0, 2], [1, 3])
            for main, program in ((0, producer), (2, consumer)):
                soc.load_program(main, program)
                soc.cores[main + 1].load_program(program)
                soc.control.associate(main, [main + 1])
                soc.control.check_enable(main)
                soc.control.check_state(main + 1, busy=True)
            return soc, ()

        assert_schedulers_identical(build)

    def test_ecall_then_kernel_halt_without_segment(self):
        program = assemble(ECALL_HALT_SRC.format(n=300, k=400),
                           name="ecall-halt")
        assert_schedulers_identical(verified(program))

    def test_triple_checker_mode(self):
        assert_schedulers_identical(verified(make_sum_program(n=2_000),
                                             checkers=2))

    @pytest.mark.parametrize("pairs", [2, 3, 4])
    def test_pairs_on_one_die(self, pairs):
        point = grid_point(pairs, 1, workload="blackscholes")
        fingerprint = assert_schedulers_identical(
            lambda: build_point_soc(point))
        assert fingerprint[5]

    @pytest.mark.parametrize("max_cycles", [3_000, 40_000])
    def test_max_cycles(self, max_cycles):
        assert_schedulers_identical(verified(make_sum_program(n=5_000)),
                                    max_cycles=max_cycles)

    @pytest.mark.parametrize("side,checkers", [("checker", 1),
                                               ("main", 2)])
    def test_faults(self, side, checkers):
        def build():
            soc = make_verified_soc(make_sum_program(n=2_000),
                                    checkers=checkers)
            injector = install_injector(
                soc, 0, side=side, target=FaultTarget.ANY,
                segment_interval=1, rng=random.Random(5))
            return soc, [injector]

        fingerprint = assert_schedulers_identical(build)
        assert fingerprint[3] > 0

    def test_fig7_unit_rounds_fall_fivefold(self, monkeypatch):
        """On a fig7-latency unit the heap needs at least 5x fewer main
        rounds than the loop, with the same unit payload."""
        scenario = get_scenario("fig7-latency")
        spec = _fig7_specs(
            get_profile(scenario.workloads[0]),
            **{**FIG7_DEFAULTS,
               "target_instructions": scenario.target_instructions})[0]
        rounds = [0]
        advance_main = FlexStepSoC._advance_main

        def counted(self, *args, **kwargs):
            rounds[0] += 1
            return advance_main(self, *args, **kwargs)

        monkeypatch.setattr(FlexStepSoC, "_advance_main", counted)
        payloads, counts = {}, {}
        for sched in SCHEDS:
            rounds[0] = 0
            with soc_sched_override(sched):
                payloads[sched] = _fig7_unit(spec, 0)
            counts[sched] = rounds[0]
        assert payloads["loop"] == payloads["heap"]
        assert counts["loop"] >= 5 * counts["heap"], counts


class TestSchedulerSelection:
    def test_resolve_defaults_to_heap(self, monkeypatch):
        monkeypatch.delenv(ENV_SOC_SCHED, raising=False)
        assert resolve_soc_sched() == "heap"
        assert resolve_soc_sched("loop") == "loop"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_SOC_SCHED, "loop")
        assert resolve_soc_sched() == "loop"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SOC_SCHED, "loop")
        assert resolve_soc_sched("heap") == "heap"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_soc_sched("bogus")

    def test_config_field_validated(self):
        with pytest.raises(ConfigurationError):
            SoCConfig(soc_sched="bogus")

    def test_config_field_pins_scheduler(self, monkeypatch):
        monkeypatch.setenv(ENV_SOC_SCHED, "heap")
        soc = make_verified_soc(make_sum_program(n=100))
        pinned = FlexStepSoC(
            SoCConfig(num_cores=2, soc_sched="loop"),
        )
        assert pinned.config.soc_sched == "loop"
        # both still produce the same run, so just exercise the path
        soc.run()

    def test_override_pins_and_restores_env(self):
        before = os.environ.get(ENV_SOC_SCHED)
        with soc_sched_override("loop"):
            assert os.environ[ENV_SOC_SCHED] == "loop"
        assert os.environ.get(ENV_SOC_SCHED) == before

    def test_override_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            with soc_sched_override("bogus"):
                pass


class TestConfigRoundTrip:
    def test_soc_sched_excluded_from_spec_dict(self):
        from repro.config import soc_config_from_dict, soc_config_to_dict

        config = SoCConfig(num_cores=4, soc_sched="loop")
        data = soc_config_to_dict(config)
        assert "soc_sched" not in data
        restored = soc_config_from_dict(data)
        assert restored.soc_sched == "auto"
        assert restored.num_cores == 4
