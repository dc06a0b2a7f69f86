"""Execution-engine performance harness.

Measures instructions/second of every registered execution engine tier
(:data:`repro.core.core._ENGINES` — today the seed string-keyed
interpreter ``interp`` and the decoded-dispatch engine ``decoded``)
over the synthetic workload mix, and records the trajectory in
``BENCH_engine.json`` so every future PR can report its speedup
against the same baseline.  New tiers are benched automatically: the
sweep is driven from the engine registry, not a hardcoded pair.

Each measurement runs one workload program to completion on a bare core
(direct memory port, no L1I model: the configuration the speedup
targets are defined against), checks that all engines finish in
bit-identical architectural state, and reports the best of ``repeats``
timings.  One untimed warmup run per engine precedes the timed
repeats, so one-time costs (decode) are excluded the same way
``decode_seconds`` is reported separately — matching production use
where a program is decoded once and executed for millions of
instructions.

Environment knobs (all optional):

======================================  ===============================
``REPRO_BENCH_ENGINE_INSTRUCTIONS``     target instructions/workload
``REPRO_BENCH_ENGINE_REPEATS``          timing repeats per engine
``REPRO_BENCH_ENGINE_WORKLOADS``        comma-separated workload names
``REPRO_BENCH_MIN_SPEEDUP``             decoded/interp gate threshold
======================================  ===============================
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .config import CoreConfig
from .core import Core, DirectPort, MainMemory, CSR_MTVEC
from .core.core import _ENGINES
from .core.decode import decode_program
from .runtime import events, knobs
from .workloads.generator import (
    GeneratorOptions,
    build_program,
    trap_handler_address,
)
from .workloads.profiles import get_profile

#: Default workload mix: spans memory density 0.18-0.35, branchy and
#: straight-line code, mul-heavy and syscall-heavy profiles.
DEFAULT_WORKLOADS: tuple[str, ...] = (
    "blackscholes", "dedup", "mcf", "hmmer", "x264",
)

#: Default benchmark file, relative to the repository root.
BENCH_FILE = "BENCH_engine.json"


def default_instructions() -> int:
    return knobs.value("bench_engine_instructions")


def default_repeats() -> int:
    return knobs.value("bench_engine_repeats")


def default_workloads() -> tuple[str, ...]:
    return knobs.value("bench_engine_workloads") or DEFAULT_WORKLOADS


def min_speedup_threshold(default: float = 5.0) -> float:
    found = knobs.resolve("bench_min_speedup")
    return default if found.source == "default" else found.value


@dataclass
class EngineMeasurement:
    """One engine timed over one workload program."""

    workload: str
    engine: str
    instructions: int
    seconds: float
    #: Fingerprint of the final architectural state + counters, used to
    #: assert both engines computed the same execution.
    state: tuple = field(default_factory=tuple, repr=False)

    @property
    def ips(self) -> float:
        return self.instructions / self.seconds if self.seconds else 0.0


def _run_once(program, engine: str,
              max_instructions: int) -> EngineMeasurement:
    memory = MainMemory()
    memory.load_segment(program.data.words)
    core = Core(0, CoreConfig(), DirectPort(memory), engine=engine)
    core.load_program(program)
    handler = trap_handler_address(program)
    if handler is not None:
        core.csrs.raw_write(CSR_MTVEC, handler)
    start = time.perf_counter()
    stats = core.run(max_instructions)
    seconds = time.perf_counter() - start
    snap = core.snapshot()
    pstats = core.predictor.stats
    state = (snap.words(), stats.instructions, stats.user_instructions,
             stats.cycles, stats.memory_ops, stats.traps,
             pstats.predictions, pstats.mispredictions,
             tuple(sorted(memory._words.items())))
    return EngineMeasurement(workload=program.name, engine=engine,
                             instructions=stats.instructions,
                             seconds=seconds, state=state)


def measure_workload(name: str, *, target_instructions: int | None = None,
                     repeats: int | None = None) -> dict:
    """Benchmark every engine tier on one workload; returns a result row.

    The engine list comes from :data:`repro.core.core._ENGINES`, so a
    new tier is benched (and differentially compared) the moment it is
    registered.  Raises :class:`AssertionError` if any engine disagrees
    with the interpreter on architectural state, stats counters or
    memory words — the throughput number of a wrong simulation is
    meaningless.
    """
    target = target_instructions or default_instructions()
    reps = repeats or default_repeats()
    engines = tuple(_ENGINES)
    program = build_program(
        get_profile(name), GeneratorOptions(target_instructions=target))
    budget = max(10_000_000, target * 4)

    decode_start = time.perf_counter()
    decode_program(program, CoreConfig())
    decode_seconds = time.perf_counter() - decode_start

    best: dict[str, EngineMeasurement] = {}
    for engine in engines:
        _run_once(program, engine, budget)  # untimed warmup (see module doc)
    for _ in range(reps):
        for engine in engines:
            m = _run_once(program, engine, budget)
            prev = best.get(engine)
            if prev is None or m.seconds < prev.seconds:
                best[engine] = m
    reference = best[engines[0]]
    for engine in engines[1:]:
        assert best[engine].state == reference.state, (
            f"{name}: {engine} diverged from {engines[0]} "
            "(differential failure)")
    row = {
        "workload": name,
        "instructions": reference.instructions,
        "decode_seconds": round(decode_seconds, 6),
    }
    for engine in engines:
        row[f"{engine}_ips"] = round(best[engine].ips, 1)
    interp_ips = row.get("interp_ips", 0.0)
    decoded_ips = row.get("decoded_ips", 0.0)
    row["speedup"] = round(decoded_ips / interp_ips, 3) if interp_ips \
        else 0.0
    return row


def _geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def run_engine_benchmark(workloads: Sequence[str] | None = None, *,
                         target_instructions: int | None = None,
                         repeats: int | None = None,
                         label: str = "") -> dict:
    """Run the full engine benchmark; returns one trajectory record."""
    names = tuple(workloads) if workloads else default_workloads()
    rows = [measure_workload(name, target_instructions=target_instructions,
                             repeats=repeats) for name in names]
    record = {
        "bench": "engine",
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "label": label,
        "target_instructions": target_instructions
        or default_instructions(),
        "repeats": repeats or default_repeats(),
        "engines": list(_ENGINES),
        "workloads": rows,
        "speedup_geomean": round(
            _geomean(r["speedup"] for r in rows), 3),
        "speedup_min": round(min(r["speedup"] for r in rows), 3),
    }
    for engine in _ENGINES:
        key = f"{engine}_ips"
        if all(key in r for r in rows):
            record[f"{key}_geomean"] = round(
                _geomean(r[key] for r in rows), 1)
    return record


def format_record(record: dict) -> str:
    """Human-readable table for one benchmark record."""
    engines = record.get("engines") or ["interp", "decoded"]
    header = f"{'workload':<14s}" + "".join(
        f" {e:>12s}" for e in engines) + f" {'dec/int':>9s}"
    lines = [
        "Engine throughput: " + " vs ".join(engines),
        header,
    ]

    def fmt(row, geo=False):
        suffix = "_geomean" if geo else ""
        cells = "".join(
            f" {row[f'{e}_ips{suffix}']:>10.0f}/s" for e in engines)
        cells += f" {row['speedup' + suffix]:>8.2f}x"
        return cells

    for row in record["workloads"]:
        lines.append(f"{row['workload']:<14s}" + fmt(row))
    geo_row = {f"{e}_ips_geomean": record[f"{e}_ips_geomean"]
               for e in engines}
    geo_row["speedup_geomean"] = record["speedup_geomean"]
    lines.append(f"{'geomean':<14s}" + fmt(geo_row, geo=True))
    return "\n".join(lines)


def repo_root() -> Path:
    """The repository root (two levels above this package)."""
    return Path(__file__).resolve().parent.parent.parent


def bench_file(bench: str = "engine") -> Path:
    """The default trajectory file of a named bench (``BENCH_<name>.json``
    at the repo root) — ``engine`` and ``campaign`` today, one file per
    perf subsystem as the trajectory grows."""
    return repo_root() / f"BENCH_{bench}.json"


def load_trajectory(path: str | os.PathLike | None = None, *,
                    bench: str = "engine") -> dict:
    """Read a benchmark trajectory file (empty skeleton if absent)."""
    bench_path = Path(path) if path else bench_file(bench)
    if not bench_path.exists():
        return {"bench": bench, "records": []}
    with open(bench_path) as fh:
        return json.load(fh)


def append_record(record: dict,
                  path: str | os.PathLike | None = None, *,
                  bench: str = "engine") -> Path:
    """Append ``record`` to a trajectory file; returns its path."""
    bench_path = Path(path) if path else bench_file(bench)
    trajectory = load_trajectory(bench_path, bench=bench)
    trajectory["records"].append(record)
    with open(bench_path, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=False)
        fh.write("\n")
    events.emit("bench.sample", bench=bench,
                label=record.get("label", ""),
                metrics={k: v for k, v in record.items()
                         if isinstance(v, (int, float))
                         and not isinstance(v, bool)},
                path=str(bench_path))
    return bench_path
