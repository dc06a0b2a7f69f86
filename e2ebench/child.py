"""One benchmark process: set up, run a workload, report as JSON.

Started by ``run.py`` as a fresh interpreter for every cold iteration,
so interpreter start, imports and per-process memos are paid the way a
user running ``python -m repro run`` pays them.  The single argument
is a JSON object:

``workload``, ``seed``
    what to run;
``spawn``
    the parent's ``time.monotonic()`` just before it started this
    process (on Linux the clock is system-wide, so set-up time
    includes interpreter start);
``spawn_cal``
    the parent's calibration time (:func:`calibrate`) just before
    ``spawn``;
``work``
    an empty directory for the result cache;
``trace``
    install the per-layer tracer before anything runs;
``budget_s``
    replay workloads only: seconds from ``spawn`` until the child
    stops starting warm passes (the fill is part of the budget).

Times are reported twice: as measured (``raw_*``), and scaled to the
reference host speed (:class:`HostClock`).

The last line of standard output is one JSON object.  A crash exits
nonzero with the traceback on standard error.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostclock import CAL_EVERY_S, HostClock, calibrate, scale  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Warm passes a replay child times even when its budget is short.
MIN_PASSES = 5


def result_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON form of a result payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Probe:
    """Event-bus subscriber: counts events and campaign outcomes."""

    def __init__(self, clocked: bool = False) -> None:
        self.counts: Counter = Counter()
        self.started = None
        self.clock = None
        self.clocked = clocked
        self.computed = 0
        self.cached = 0
        self.quarantined = 0

    def __call__(self, record: dict) -> None:
        event = record["event"]
        self.counts[event] += 1
        if event == "campaign.start" and self.started is None:
            self.started = time.monotonic()
            if self.clocked:
                self.clock = HostClock()
        elif event in ("unit.start", "unit.end") and self.clock is not None:
            self.clock.mark()
        elif event == "campaign.end":
            self.computed += record["computed"]
            self.cached += record["cached"]
            self.quarantined += record["quarantined"]

    def count(self, *events: str) -> int:
        if not events:
            return sum(self.counts.values())
        return sum(self.counts[e] for e in events)


def count_instructions() -> list:
    """Sum ``SoCRunStats.total_instructions`` over every SoC run."""
    from repro.flexstep.soc import FlexStepSoC

    total = [0]
    original = FlexStepSoC.run

    def run(self, *args, **kwargs):
        stats = original(self, *args, **kwargs)
        total[0] += stats.total_instructions
        return stats

    FlexStepSoC.run = run
    return total


def run_cold(workload, cfg: dict, tracer) -> dict:
    from repro.runtime import events

    instructions = count_instructions() if workload.cosim else [0]
    run = workload.run
    if tracer is not None:
        tracer.install()
        run = tracer.wrap("workload", run, span=True)
    # Calibrating inside the run would add to the traced layers' self
    # times, so a traced child calibrates only before and after it.
    probe = Probe(clocked=tracer is None)
    events.subscribe(probe)
    payload = run(cfg["seed"], Path(cfg["work"]))
    end = time.monotonic()
    if probe.started is None:
        raise RuntimeError("the workload started no campaign")
    if probe.clock is None:
        raw = end - probe.started
        wall = raw * scale(cfg["spawn_cal"], calibrate())
        setup_cal = cfg["spawn_cal"]
    else:
        raw, wall = probe.clock.stop()
        setup_cal = probe.clock.first
    setup = probe.started - cfg["spawn"]
    out = {
        "raw_setup_s": [setup],
        "setup_s": [setup * scale(cfg["spawn_cal"], setup_cal)],
        "raw_wall_s": [raw],
        "wall_s": [wall],
        "digest": result_digest(payload),
        "errors": workload.check(payload),
        "instructions": instructions[0],
        "computed": probe.computed,
        "cached": probe.cached,
        "quarantined": probe.quarantined,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, probe, 1)
    return out


def run_replay(workload, cfg: dict, tracer) -> dict:
    from repro.runtime import events

    cache_dir = Path(cfg["work"])
    fill = Probe(clocked=True)
    token = events.subscribe(fill)
    payload = workload.run(cfg["seed"], cache_dir)
    events.unsubscribe(token)
    if fill.clock is None:
        raise RuntimeError("the fill started no campaign")
    raw_fill, scaled_fill = fill.clock.stop()
    reached = fill.started - cfg["spawn"]
    digest = result_digest(payload)
    errors = workload.check(payload)
    if fill.computed != workload.units:
        errors.append(f"fill computed {fill.computed} of "
                      f"{workload.units} units")

    run = workload.run
    probe = Probe()
    if tracer is not None:
        tracer.install()
        run = tracer.wrap("workload", run, span=True)
        events.subscribe(probe)
    # Passes are timed one by one and scaled by the calibrations that
    # bracket each group of passes (about CAL_EVERY_S of work).
    walls: list = []
    raw_walls: list = []
    deadline = cfg["spawn"] + cfg["budget_s"]
    before = calibrate()
    while len(raw_walls) < MIN_PASSES or time.monotonic() < deadline:
        group: list = []
        while sum(group) < CAL_EVERY_S and (
                len(raw_walls) + len(group) < MIN_PASSES
                or time.monotonic() < deadline):
            start = time.perf_counter()
            replayed = run(cfg["seed"], cache_dir)
            group.append(time.perf_counter() - start)
            if result_digest(replayed) != digest:
                errors.append(f"replay pass {len(raw_walls) + len(group)} "
                              f"differs from fill")
        after = calibrate()
        walls += [t * scale(before, after) for t in group]
        raw_walls += group
        before = after
    passes = len(walls)
    if tracer is None:
        # one untimed pass proves the timed ones were pure cache reads
        events.subscribe(probe)
        run(cfg["seed"], cache_dir)
        passes = 1
    if probe.computed or probe.cached != workload.units * passes:
        errors.append(f"replay computed {probe.computed}, cached "
                      f"{probe.cached} of {workload.units * passes}")
    out = {
        "raw_setup_s": [reached + raw_fill],
        "setup_s": [reached * scale(cfg["spawn_cal"], fill.clock.first)
                    + scaled_fill],
        "raw_wall_s": raw_walls,
        "wall_s": walls,
        "digest": digest,
        "errors": errors,
        "instructions": 0,
        "computed": fill.computed,
        "cached": probe.cached,
        "quarantined": fill.quarantined + probe.quarantined,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, probe, len(walls))
    return out


def main(argv: list) -> int:
    cfg = json.loads(argv[1])
    workload = WORKLOADS[cfg["workload"]]
    tracer = Tracer() if cfg["trace"] else None
    if workload.replay:
        out = run_replay(workload, cfg, tracer)
    else:
        out = run_cold(workload, cfg, tracer)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["boundaries"] = tracer.boundaries()
        out["spans"] = tracer.spans
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
