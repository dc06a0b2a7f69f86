"""Campaign-engine throughput bench (the parallel-sweep trajectory).

Runs a scaled-down Fig. 5 sweep serial vs parallel vs cached replay,
asserts the results are bit-identical on every path, and checks the
record appends to a temporary trajectory file (``scripts/bench.py
--bench campaign`` appends to ``BENCH_campaign.json``, see
EXPERIMENTS.md).

The ≥4× wall-clock target only holds with real cores to fan out to, so
the speedup assertion is gated behind ``REPRO_BENCH_STRICT`` — on a
single-core CI runner the bench still verifies equivalence and records
the trajectory, it just cannot demonstrate parallel speedup.
"""

import pytest

from repro.campaign.bench import (
    format_record,
    min_campaign_speedup,
    run_campaign_benchmark,
    strict_enabled,
)
from repro.perfbench import append_record, load_trajectory
from repro.runtime import knobs


@pytest.fixture(scope="module")
def campaign_record():
    return run_campaign_benchmark(
        configs=("a", "f"),
        sets_per_point=knobs.value("bench_sets"),
        label="benchmarks/test_perf_campaign.py")


def test_parallel_and_replay_bit_identical(campaign_record):
    print()
    print(format_record(campaign_record))
    assert campaign_record["bit_identical"], (
        "workers=N produced different curves than workers=1")
    assert campaign_record["replay_identical"], (
        "cached replay produced different curves than the fresh sweep")


def test_cached_replay_is_fast(campaign_record):
    """A fully cached sweep must cost a small fraction of computing it."""
    assert campaign_record["replay_seconds"] \
        < campaign_record["serial_seconds"] * 0.5


def test_campaign_record_appended(campaign_record, tmp_path):
    path = append_record(campaign_record, tmp_path / "BENCH_campaign.json",
                         bench="campaign")
    trajectory = load_trajectory(path, bench="campaign")
    assert trajectory["records"], "trajectory file empty after append"
    last = trajectory["records"][-1]
    assert last["speedup"] == campaign_record["speedup"]
    assert last["units"] == campaign_record["units"]


@pytest.mark.skipif(
    not strict_enabled(),
    reason="wall-clock speedup needs a multi-core host: set "
           "REPRO_BENCH_STRICT=1 to enforce the >=4x target")
def test_campaign_speedup_target(campaign_record):
    threshold = min_campaign_speedup(4.0)
    assert campaign_record["speedup"] >= threshold, (
        f"campaign speedup {campaign_record['speedup']}x below the "
        f"{threshold}x target with workers={campaign_record['workers']}")
