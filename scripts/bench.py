#!/usr/bin/env python
"""Headless perf-bench entry point.

Runs one of the repo's benchmarks outside pytest and appends a
timestamped record to its trajectory file, so a PR can report its
speedup with one command::

    python scripts/bench.py --label "PR 1: decoded dispatch"
    python scripts/bench.py --bench campaign --label "PR 2: fan-out"

``--bench engine`` (default) measures execution-engine throughput into
``BENCH_engine.json``; ``--bench campaign`` measures the Fig. 5 sweep
under the parallel campaign engine into ``BENCH_campaign.json``;
``--bench scenarios`` measures scenario-catalog wall-clock and
cached-replay speedup into ``BENCH_scenarios.json``; ``--bench sched``
measures the vectorized (numpy) schedulability backend against the
scalar oracle into ``BENCH_sched.json``; ``--bench soc`` measures the
heap co-simulation scheduler against the loop oracle over a
Fig. 4/6/7-shaped grid into ``BENCH_soc.json`` (scheduler identity
always gates; the >=2x at 8+ cores wall-clock gate is strict-mode).

Defaults come from the ``REPRO_BENCH_*`` environment variables (see
``repro/perfbench.py`` and ``repro/campaign/bench.py``); flags override
the environment.  Campaign wall-clock assertions only gate the exit
code when ``REPRO_BENCH_STRICT`` is set (single-core CI runners cannot
show a multiprocessing speedup); the serial-vs-parallel bit-identity
check always gates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro import perfbench  # noqa: E402  (needs the sys.path insert)
from repro.runtime import knobs  # noqa: E402
from repro.campaign import bench as campaign_bench  # noqa: E402
from repro.flexstep import bench as soc_bench  # noqa: E402
from repro.scenarios import bench as scenario_bench  # noqa: E402
from repro.sched import bench as sched_bench  # noqa: E402


def _run_engine(args: argparse.Namespace) -> int:
    workloads = None
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",")
                     if w.strip()]
    record = perfbench.run_engine_benchmark(
        workloads, target_instructions=args.instructions,
        repeats=args.repeats, label=args.label)
    print(perfbench.format_record(record))
    if args.dry_run:
        return 0
    path = perfbench.append_record(record, args.output, bench="engine")
    print(f"\nappended record to {path}")
    status = 0
    threshold = perfbench.min_speedup_threshold(5.0)
    if record["speedup_geomean"] < threshold:
        print(f"WARNING: geomean speedup {record['speedup_geomean']}x "
              f"below the {threshold}x target", file=sys.stderr)
        status = 1
    return status


def _run_campaign(args: argparse.Namespace) -> int:
    configs = None
    if args.configs:
        configs = [key.strip() for key in args.configs.split(",")
                   if key.strip()]
    record = campaign_bench.run_campaign_benchmark(
        configs=configs, sets_per_point=args.sets, workers=args.workers,
        label=args.label)
    print(campaign_bench.format_record(record))
    status = 0
    if not (record["bit_identical"] and record["replay_identical"]
            and record["sharded_identical"]):
        print("ERROR: parallel/cached/sharded curves diverge from the "
              "serial sweep — determinism regression", file=sys.stderr)
        status = 1
    threshold = campaign_bench.min_campaign_speedup(4.0)
    if record["speedup"] < threshold:
        if campaign_bench.strict_enabled():
            print(f"ERROR: campaign speedup {record['speedup']}x below "
                  f"the {threshold}x target (REPRO_BENCH_STRICT set)",
                  file=sys.stderr)
            status = 1
        else:
            print(f"note: campaign speedup {record['speedup']}x below "
                  f"the {threshold}x target on this host "
                  f"(cpu_count={record['cpu_count']}); set "
                  "REPRO_BENCH_STRICT=1 to make this fatal",
                  file=sys.stderr)
    if args.dry_run:
        return status
    path = perfbench.append_record(record, args.output, bench="campaign")
    print(f"\nappended record to {path}")
    return status


def _run_scenarios(args: argparse.Namespace) -> int:
    names = None
    if args.scenarios:
        names = [key.strip() for key in args.scenarios.split(",")
                 if key.strip()]
    record = scenario_bench.run_scenario_benchmark(
        names=names, workers=args.workers, label=args.label)
    print(scenario_bench.format_record(record))
    status = 0
    if not (record["zero_recompute"] and record["replay_identical"]):
        print("ERROR: cached replay recomputed units or diverged from "
              "the cold run — determinism regression", file=sys.stderr)
        status = 1
    threshold = scenario_bench.min_replay_speedup(3.0)
    if record["replay_speedup"] < threshold:
        if campaign_bench.strict_enabled():
            print(f"ERROR: replay speedup {record['replay_speedup']}x "
                  f"below the {threshold}x target "
                  "(REPRO_BENCH_STRICT set)", file=sys.stderr)
            status = 1
        else:
            print(f"note: replay speedup {record['replay_speedup']}x "
                  f"below the {threshold}x target on this host; set "
                  "REPRO_BENCH_STRICT=1 to make this fatal",
                  file=sys.stderr)
    if args.dry_run:
        return status
    path = perfbench.append_record(record, args.output,
                                   bench="scenarios")
    print(f"\nappended record to {path}")
    return status


def _run_sched(args: argparse.Namespace) -> int:
    configs = None
    if args.configs:
        configs = [key.strip() for key in args.configs.split(",")
                   if key.strip()]
    record = sched_bench.run_sched_benchmark(
        configs=configs, sets_per_point=args.sets, label=args.label)
    print(sched_bench.format_record(record))
    status = 0
    if record["numpy_available"]:
        if not record["verdicts_identical"]:
            print("ERROR: numpy backend verdicts diverge from the "
                  "scalar oracle — backend-equivalence regression",
                  file=sys.stderr)
            status = 1
        threshold = sched_bench.min_sched_speedup(3.0)
        if record["speedup"] < threshold:
            if campaign_bench.strict_enabled():
                print(f"ERROR: vectorization speedup "
                      f"{record['speedup']}x below the {threshold}x "
                      "target (REPRO_BENCH_STRICT set)",
                      file=sys.stderr)
                status = 1
            else:
                print(f"note: vectorization speedup {record['speedup']}x "
                      f"below the {threshold}x target on this host; set "
                      "REPRO_BENCH_STRICT=1 to make this fatal",
                      file=sys.stderr)
    else:
        print("note: numpy not installed — recorded the scalar "
              "baseline only", file=sys.stderr)
    if args.dry_run:
        return status
    path = perfbench.append_record(record, args.output, bench="sched")
    print(f"\nappended record to {path}")
    return status


def _run_soc(args: argparse.Namespace) -> int:
    points = None
    if args.points:
        points = [key.strip() for key in args.points.split(",")
                  if key.strip()]
    record = soc_bench.run_soc_benchmark(
        points=points, repeats=args.repeats, label=args.label)
    print(soc_bench.format_record(record))
    status = 0
    if not record["identical"]:
        print("ERROR: heap scheduler diverged from the loop oracle — "
              "arbitration-identity regression", file=sys.stderr)
        status = 1
    threshold = soc_bench.min_soc_speedup(2.0)
    eight_plus = record["speedup_8plus_geomean"]
    if eight_plus is not None and eight_plus < threshold:
        if campaign_bench.strict_enabled():
            print(f"ERROR: 8+-core scheduler speedup {eight_plus}x "
                  f"below the {threshold}x target "
                  "(REPRO_BENCH_STRICT set)", file=sys.stderr)
            status = 1
        else:
            print(f"note: 8+-core scheduler speedup {eight_plus}x "
                  f"below the {threshold}x target on this host; set "
                  "REPRO_BENCH_STRICT=1 to make this fatal",
                  file=sys.stderr)
    if args.dry_run:
        return status
    path = perfbench.append_record(record, args.output, bench="soc")
    print(f"\nappended record to {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a repo benchmark and append the record to its "
                    "perf trajectory file.")
    parser.add_argument(
        "--bench",
        choices=("engine", "campaign", "scenarios", "sched", "soc"),
        default="engine",
        help="which benchmark to run (default: engine)")
    parser.add_argument(
        "--label", default=knobs.value("bench_label"),
        help="free-form tag stored with the record (e.g. the PR title)")
    parser.add_argument(
        "--output", default=None,
        help="trajectory file (default <repo>/BENCH_<bench>.json)")
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the record without writing the trajectory file")
    engine = parser.add_argument_group("engine bench")
    engine.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names "
             f"(default: {','.join(perfbench.DEFAULT_WORKLOADS)})")
    engine.add_argument(
        "--instructions", type=int, default=None,
        help="target instructions per workload "
             f"(default {perfbench.default_instructions()})")
    engine.add_argument(
        "--repeats", type=int, default=None,
        help=f"timing repeats (default {perfbench.default_repeats()})")
    campaign = parser.add_argument_group("campaign / sched bench")
    campaign.add_argument(
        "--configs", default=None,
        help="comma-separated Fig. 5 config keys (default: all six)")
    campaign.add_argument(
        "--sets", type=int, default=None,
        help="task sets per utilisation point "
             f"(default {campaign_bench.default_sets_per_point()})")
    campaign.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker count (default REPRO_WORKERS or cpu_count)")
    scenarios = parser.add_argument_group("scenarios bench")
    scenarios.add_argument(
        "--scenarios", default=None,
        help="comma-separated catalog scenario names (default: "
             f"{','.join(scenario_bench.DEFAULT_SCENARIOS)})")
    soc = parser.add_argument_group("soc bench")
    soc.add_argument(
        "--points", default=None,
        help="comma-separated soc grid point names "
             f"(default: {','.join(soc_bench.default_points())})")
    args = parser.parse_args(argv)

    if args.bench == "campaign":
        return _run_campaign(args)
    if args.bench == "scenarios":
        return _run_scenarios(args)
    if args.bench == "sched":
        return _run_sched(args)
    if args.bench == "soc":
        return _run_soc(args)
    return _run_engine(args)


if __name__ == "__main__":
    raise SystemExit(main())
