"""The benchmark's workloads: a name-to-callable table.

Each workload runs one figure of the paper through the repo's public
entry points with ``workers=1`` and an explicit cache, and returns the
figure's result payload.  ``repro`` is imported inside the callables,
so the orchestrator can read this table without importing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Fig. 5 replay grid: the six configurations × 13 points × 5 sets,
#: one set per unit (390 units).  It fills in about 5 s and replays in
#: about 0.03 s, so each of a run's four set-ups leaves time to time
#: about a hundred passes; 780 units would take 10 s to fill and
#: leave none within the run's share.
REPLAY_SETS_PER_POINT = 5


@dataclass(frozen=True)
class Workload:
    name: str
    #: the catalog / campaign default seed
    default_seed: int
    #: campaign units one iteration runs
    units: int
    #: task sets one iteration analyses or answers (0 on co-sim)
    task_sets: int
    #: co-simulation workload (simulated instructions are counted)
    cosim: bool
    #: iterations are warm replays of a cache filled during set-up
    replay: bool
    #: seed, empty cache directory -> the figure's result payload
    run: Callable[[int, Path], dict]
    #: payload -> invariant violations, for any seed
    check: Callable[[dict], list]
    #: the workload's input configuration, for the record's config hash
    describe: Callable[[], dict]


def _scenario(name: str) -> dict:
    def run(seed: int, cache_dir: Path) -> dict:
        from repro.campaign import ResultCache
        from repro.scenarios.catalog import get_scenario
        from repro.scenarios.runner import run_scenario

        result = run_scenario(get_scenario(name), workers=1,
                              cache=ResultCache(cache_dir), seed=seed)
        return result.payload

    def describe() -> dict:
        from repro.scenarios.catalog import get_scenario

        return {"scenario": get_scenario(name).to_dict()}

    return {"run": run, "describe": describe}


def _fig5(**grid) -> dict:
    def run(seed: int, cache_dir: Path) -> dict:
        from repro.campaign import ResultCache
        from repro.sched.experiments import fig5_campaign

        curves = fig5_campaign(workers=1, cache=ResultCache(cache_dir),
                               seed=seed, **grid)
        return {key: [{"utilization": p.utilization, "ratios": p.ratios}
                      for p in points]
                for key, points in curves.items()}

    def describe() -> dict:
        from repro.sched.experiments import (
            DEFAULT_UTILIZATIONS,
            FIG5_CONFIGS,
        )

        return {"fig5_configs": FIG5_CONFIGS,
                "utilizations": list(DEFAULT_UTILIZATIONS), **grid}

    return {"run": run, "describe": describe}


def check_latency(payload: dict) -> list:
    """No misattributed fault, and every fired fault that reaches
    replayed state is detected with one latency sample.

    A flipped bit in a start checkpoint (``scp``) can be masked: the
    register may be overwritten before the segment reads it, and the
    replay then matches.  Such a fault is a valid undetected outcome;
    an undetected fault in any other field is a simulator error.
    """
    errors = []
    for w in payload["workloads"]:
        name = w["workload"]
        records = w["records"]
        if w["misattributed"] or any(r["misattributed"] for r in records):
            errors.append(f"{name}: {w['misattributed']} misattributed")
        if len(records) != w["injected"] \
                or sum(r["detected"] for r in records) != w["detected"]:
            errors.append(f"{name}: {len(records)} records, "
                          f"{w['injected']} injected, "
                          f"{w['detected']} detected")
        missed = [r for r in records
                  if not r["detected"] and r["target"] != "scp"]
        if missed:
            errors.append(f"{name}: {len(missed)} undetected "
                          f"{sorted({r['target'] for r in missed})} faults")
        if len(w["latencies_us"]) != w["detected"]:
            errors.append(f"{name}: {len(w['latencies_us'])} latencies "
                          f"for {w['detected']} detections")
        if w["armed_unfired"] < 0:
            errors.append(f"{name}: armed_unfired {w['armed_unfired']}")
    if not payload["workloads"]:
        errors.append("no workloads in the latency payload")
    return errors


def check_fig5(payload: dict) -> list:
    """Six curves of 13 points; every acceptance ratio in [0, 1]."""
    errors = []
    if sorted(payload) != list("abcdef"):
        errors.append(f"configs {sorted(payload)} != a..f")
    for key, points in payload.items():
        if len(points) != 13:
            errors.append(f"config {key}: {len(points)} points")
        for point in points:
            for scheme, ratio in point["ratios"].items():
                if not 0.0 <= ratio <= 1.0:
                    errors.append(f"config {key} u={point['utilization']} "
                                  f"{scheme}: ratio {ratio}")
    return errors


# Why each workload is here, and why 32core-scaling is not gated:
# README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig7-latency", default_seed=7, units=6, task_sets=0,
        cosim=True, replay=False, check=check_latency,
        **_scenario("fig7-latency")),
    Workload(
        name="32core-scaling", default_seed=7, units=2, task_sets=0,
        cosim=True, replay=False, check=check_latency,
        **_scenario("32core-scaling")),
    Workload(
        name="fig5-full", default_seed=2025, units=78, task_sets=7800,
        cosim=False, replay=False, check=check_fig5, **_fig5()),
    Workload(
        name="fig5-replay", default_seed=2025, units=390, task_sets=390,
        cosim=False, replay=True, check=check_fig5,
        **_fig5(sets_per_point=REPLAY_SETS_PER_POINT, batch_size=1)),
)}
