"""SoC co-simulation scheduler bench: ``loop`` oracle vs ``heap``.

Times a Fig. 4/6/7-shaped grid of co-simulations — dual- and
triple-core verification of single pairs, and multi-pair
fault-injection dies up to 32 cores — once per scheduler, asserts the
two runs are **bit-identical** (per-core cycle counts, segment-result
streams, fault records — exact equality, not tolerance), and appends
the wall-clock trajectory to ``BENCH_soc.json`` so every future
scheduler PR reports its speedup against a written-down baseline
(mirrors ``BENCH_engine.json`` / ``BENCH_sched.json``).

The ``>= 2x at 8+ cores`` speedup assertion (geomean over the grid
points with at least 8 cores) is gated behind ``REPRO_BENCH_STRICT``
like the other wall-clock gates; scheduler identity always gates.

Environment knobs (all optional):

===============================  ====================================
``REPRO_BENCH_SOC_POINTS``       comma-separated grid point names
``REPRO_BENCH_SOC_REPEATS``      timing repeats per scheduler
``REPRO_BENCH_MIN_SOC_SPEEDUP``  strict-mode 8+-core floor (2.0)
``REPRO_BENCH_STRICT``           enable wall-clock assertions
===============================  ====================================
"""

from __future__ import annotations

import dataclasses
import random
import time
from datetime import datetime, timezone
from typing import Optional, Sequence

from ..config import SoCConfig
from ..runtime import knobs
from ..core.decode import decode_program
from ..sim.stats import geomean
from ..workloads.generator import GeneratorOptions, cached_program
from ..workloads.profiles import get_profile
from .faults import FaultInjector, FaultTarget, install_injector
from .soc import FlexStepSoC, SoCRunStats

#: Default benchmark trajectory file, relative to the repository root.
BENCH_FILE = "BENCH_soc.json"

#: The Fig. 4/6/7-shaped workload grid.  Single-pair points mirror the
#: slowdown experiments (Figs. 4 and 6); multi-pair fault-injection
#: points mirror Fig. 7 and the 32core-scaling scenario, where the
#: arbitration loop dominates wall-clock.
DEFAULT_GRID: tuple[dict, ...] = (
    {
        "name": "fig4-dual",
        "workload": "dedup",
        "pairs": 1,
        "checkers": 1,
        "faults": False,
        "target_instructions": 20_000,
    },
    {
        "name": "fig6-triple",
        "workload": "x264",
        "pairs": 1,
        "checkers": 2,
        "faults": False,
        "target_instructions": 20_000,
    },
    {
        "name": "fig7-8core",
        "workload": "dedup",
        "pairs": 4,
        "checkers": 1,
        "faults": True,
        "target_instructions": 5_000,
    },
    {
        "name": "fig7-12core-triple",
        "workload": "blackscholes",
        "pairs": 4,
        "checkers": 2,
        "faults": True,
        "target_instructions": 5_000,
    },
    {
        "name": "fig7-16core",
        "workload": "dedup",
        "pairs": 8,
        "checkers": 1,
        "faults": True,
        "target_instructions": 5_000,
    },
    {
        "name": "fig7-32core",
        "workload": "mcf",
        "pairs": 16,
        "checkers": 1,
        "faults": True,
        "target_instructions": 4_000,
    },
)


def default_points() -> tuple[str, ...]:
    return (knobs.value("bench_soc_points")
            or tuple(p["name"] for p in DEFAULT_GRID))


def default_repeats() -> int:
    return knobs.value("bench_soc_repeats")


def min_soc_speedup(default: float = 2.0) -> float:
    found = knobs.resolve("bench_min_soc_speedup")
    return default if found.source == "default" else found.value


def build_point_soc(point: dict) -> tuple[FlexStepSoC, list]:
    """One co-simulated die for a grid point, verification armed.

    ``pairs`` main/checker groups run the point's workload concurrently
    (the Fig. 7 topology); fault points install one deterministic
    injector per pair, exactly like ``analysis.latency._fig7_unit``.
    """
    profile = get_profile(point["workload"])
    options = GeneratorOptions(
        target_instructions=point["target_instructions"],
    )
    program = cached_program(profile, options)
    pairs = point["pairs"]
    checkers = point["checkers"]
    group = 1 + checkers
    config = SoCConfig(num_cores=pairs * group).with_flexstep(
        dma_spill_entries=2_048,
    )
    # warm the decode cache so neither scheduler pays it in its timing
    decode_program(program, config.core)
    soc = FlexStepSoC(config)
    mains = [p * group for p in range(pairs)]
    checker_ids = [[m + 1 + i for i in range(checkers)] for m in mains]
    flat_checkers = [cid for ids in checker_ids for cid in ids]
    soc.control.configure(mains, flat_checkers)
    injectors: list[FaultInjector] = []
    for pair, (main, ids) in enumerate(zip(mains, checker_ids)):
        soc.load_program(main, program)
        for cid in ids:
            soc.cores[cid].load_program(program)
        soc.control.associate(main, ids)
        soc.control.check_enable(main)
        for cid in ids:
            soc.control.check_state(cid, busy=True)
            soc.engine_of(cid).segment_service_pause = 20_000
        if point["faults"]:
            injector = install_injector(
                soc,
                main,
                side="checker",
                target=FaultTarget.ANY,
                segment_interval=2,
                rng=random.Random(11 + 7_919 * pair),
            )
            injectors.append(injector)
    return soc, injectors


def soc_fingerprint(
    soc: FlexStepSoC,
    stats: SoCRunStats,
    injectors: Sequence[FaultInjector] = (),
) -> tuple:
    """Everything a scheduler could perturb, as one comparable value.

    Captures the run stats, every core's final cycle count, each
    checker engine's ordered ``SegmentResult`` stream and counters,
    its inbound channel's stats, and each injector's fault records —
    the identity the differential suite
    (``tests/flexstep/test_soc_sched.py``) and the always-on bench gate
    both assert on.
    """
    segment_rows = []
    for cid, engine in sorted(soc._engines.items()):
        for result in engine.results:
            row = (
                cid,
                result.segment,
                result.ok,
                result.count,
                result.detail,
                result.detect_cycle,
                str(result.close_reason),
            )
            segment_rows.append(row)
        counters = (
            cid,
            engine.stats.segments_checked,
            engine.stats.segments_failed,
            engine.stats.replayed_instructions,
            engine.stats.idle_cycles,
            engine.stats.verified_entries,
            dataclasses.astuple(engine.channel.stats),
        )
        segment_rows.append(counters)
    fault_rows = []
    for injector in injectors:
        for record in injector.records:
            fault_rows.append(tuple(sorted(record.to_dict().items())))
        fault_rows.append(("armed_unfired", injector.armed_unfired))
    return (
        tuple(sorted(stats.main_cycles.items())),
        stats.total_instructions,
        stats.segments_checked,
        stats.segments_failed,
        tuple(segment_rows),
        tuple(fault_rows),
    )


def run_point(point: dict, sched: str) -> tuple[float, tuple]:
    """Run one grid point under ``sched``; (seconds, fingerprint)."""
    soc, injectors = build_point_soc(point)
    start = time.perf_counter()
    stats = soc.run(sched=sched)
    seconds = time.perf_counter() - start
    return seconds, soc_fingerprint(soc, stats, injectors)


def run_soc_benchmark(
    *,
    points: Sequence[str] | None = None,
    repeats: Optional[int] = None,
    label: str = "",
) -> dict:
    """Run the scheduler bench; returns one trajectory record."""
    names = tuple(points) if points else default_points()
    grid_by_name = {p["name"]: p for p in DEFAULT_GRID}
    unknown = set(names) - set(grid_by_name)
    if unknown:
        message = (
            f"unknown soc bench points {sorted(unknown)}; "
            f"known: {sorted(grid_by_name)}"
        )
        raise KeyError(message)
    reps = repeats if repeats is not None else default_repeats()
    if reps < 1:
        raise ValueError(f"repeats must be >= 1, got {reps}")
    rows = []
    for name in names:
        point = grid_by_name[name]
        timings: dict[str, float] = {}
        prints: dict[str, tuple] = {}
        for sched in ("loop", "heap"):
            best = None
            for _ in range(reps):
                seconds, fingerprint = run_point(point, sched)
                prints[sched] = fingerprint
                if best is None or seconds < best:
                    best = seconds
            timings[sched] = best
        heap_seconds = timings["heap"]
        speedup = timings["loop"] / heap_seconds if heap_seconds else 0.0
        row = {
            "point": name,
            "workload": point["workload"],
            "cores": point["pairs"] * (1 + point["checkers"]),
            "faults": point["faults"],
            "loop_seconds": round(timings["loop"], 3),
            "heap_seconds": round(heap_seconds, 3),
            "speedup": round(speedup, 3),
            "identical": prints["loop"] == prints["heap"],
        }
        rows.append(row)
    big = [r["speedup"] for r in rows if r["cores"] >= 8]
    big_geomean = round(geomean(big), 3) if big else None
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "bench": "soc",
        "timestamp": timestamp,
        "label": label,
        "repeats": reps,
        "points": rows,
        "identical": all(r["identical"] for r in rows),
        "speedup_geomean": round(geomean([r["speedup"] for r in rows]), 3),
        "speedup_8plus_geomean": big_geomean,
    }


def format_record(record: dict) -> str:
    """Human-readable table for one soc benchmark record."""
    title = (
        "SoC co-simulation: heap scheduler vs loop oracle "
        "(bit-identical arbitration)"
    )
    header = (
        f"{'point':<20s} {'cores':>5s} {'loop':>9s} {'heap':>9s} "
        f"{'speedup':>8s} {'identical':>9s}"
    )
    lines = [title, header]
    for row in record["points"]:
        text = (
            f"{row['point']:<20s} {row['cores']:>5d} "
            f"{row['loop_seconds']:>8.3f}s {row['heap_seconds']:>8.3f}s "
            f"{row['speedup']:>7.2f}x {str(row['identical']):>9s}"
        )
        lines.append(text)
    overall = record["speedup_geomean"]
    pad = f"{'geomean':<20s} {'':>5s} {'':>9s} {'':>9s}"
    lines.append(f"{pad} {overall:>7.2f}x")
    eight_plus = record["speedup_8plus_geomean"]
    eight_plus_text = f"{eight_plus:.2f}x" if eight_plus else "n/a"
    lines.append(f"geomean at >=8 cores   {eight_plus_text}")
    return "\n".join(lines)
