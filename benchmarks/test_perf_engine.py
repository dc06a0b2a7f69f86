"""Execution-engine throughput bench (the repo's perf trajectory seed).

Measures instructions/second of every registered engine tier (interp,
decoded) over the default workload mix, asserts the ≥5×
decoded-over-interp target, and checks the record appends to a
trajectory file.  The test writes to a
temporary file; ``scripts/bench.py`` appends to the committed
``BENCH_engine.json`` (see EXPERIMENTS.md).

Every measurement also differentially verifies that all engines
finished in bit-identical architectural state — a fast wrong simulator
would be worse than a slow right one.
"""

import pytest

from repro.perfbench import (
    append_record,
    format_record,
    min_speedup_threshold,
    run_engine_benchmark,
)


@pytest.fixture(scope="module")
def engine_record():
    return run_engine_benchmark(label="benchmarks/test_perf_engine.py")


def test_engine_speedup_target(engine_record):
    """Decoded dispatch must hold the ≥5× geomean over the interpreter.

    Override the threshold with ``REPRO_BENCH_MIN_SPEEDUP`` (e.g. on a
    heavily loaded CI box).
    """
    print()
    print(format_record(engine_record))
    threshold = min_speedup_threshold(5.0)
    assert engine_record["speedup_geomean"] >= threshold, (
        f"decoded-dispatch speedup {engine_record['speedup_geomean']}x "
        f"below the {threshold}x target")
    # No individual workload may fall off a cliff either.
    assert engine_record["speedup_min"] >= threshold * 0.6


def test_engine_record_appended(engine_record, tmp_path):
    """The measured record lands in a trajectory file."""
    path = append_record(engine_record, tmp_path / "BENCH_engine.json")
    from repro.perfbench import load_trajectory
    trajectory = load_trajectory(path)
    assert trajectory["records"], "trajectory file empty after append"
    last = trajectory["records"][-1]
    assert last["speedup_geomean"] == engine_record["speedup_geomean"]
    assert {row["workload"] for row in last["workloads"]} \
        == {row["workload"] for row in engine_record["workloads"]}
