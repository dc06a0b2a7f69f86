"""SoC scheduler bench (the co-simulation arbitration trajectory).

Runs a scaled-down slice of the Fig. 4/6/7-shaped grid under both
co-sim schedulers, asserts the runs are bit-identical, and checks the
record appends to a temporary trajectory file (``scripts/bench.py
--bench soc`` appends to ``BENCH_soc.json``, see EXPERIMENTS.md).

The ≥2× at 8+ cores wall-clock target is a property of the full grid
on a quiet host, so — like the campaign bench — the speedup assertion
is gated behind ``REPRO_BENCH_STRICT``; the identity assertion always
runs.
"""

import pytest

from repro.flexstep.bench import (
    format_record,
    min_soc_speedup,
    run_soc_benchmark,
)
from repro.campaign.bench import strict_enabled
from repro.perfbench import append_record, load_trajectory
from repro.runtime import knobs

#: Tier-1 slice: one single-pair point plus one 8+-core fault point.
DEFAULT_TEST_POINTS = "fig4-dual,fig7-8core"


@pytest.fixture(scope="module")
def soc_record():
    points = (knobs.value("bench_soc_points")
              or tuple(DEFAULT_TEST_POINTS.split(",")))
    return run_soc_benchmark(points=list(points),
                             label="benchmarks/test_perf_soc.py")


def test_schedulers_bit_identical(soc_record):
    print()
    print(format_record(soc_record))
    assert soc_record["identical"], (
        "heap scheduler produced a different co-simulation than the "
        "loop oracle")


def test_grid_covers_multi_pair_dies(soc_record):
    cores = [row["cores"] for row in soc_record["points"]]
    assert max(cores) >= 8, "bench slice lost its 8+-core point"


def test_soc_record_appended(soc_record, tmp_path):
    path = append_record(soc_record, tmp_path / "BENCH_soc.json", bench="soc")
    trajectory = load_trajectory(path, bench="soc")
    assert trajectory["records"], "trajectory file empty after append"
    last = trajectory["records"][-1]
    assert last["speedup_geomean"] == soc_record["speedup_geomean"]
    assert last["identical"] is True


@pytest.mark.skipif(
    not strict_enabled(),
    reason="wall-clock speedup is host-dependent: set "
           "REPRO_BENCH_STRICT=1 to assert it")
def test_heap_speedup_at_scale(soc_record):
    eight_plus = soc_record["speedup_8plus_geomean"]
    assert eight_plus is not None
    assert eight_plus >= min_soc_speedup(2.0), (
        f"8+-core geomean speedup {eight_plus}x below target")
