"""The repo benchmark: cold figure runs, a warm replay, traced layers.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fig7-latency --seed 7 \\
        --seconds 36 --trace 0

One client, one scenario in flight, ``workers=1``: a closed loop that
reports throughput at a fixed input size.  Every cold iteration is a
fresh interpreter (``child.py``) with an empty cache, because the
cold time to produce a figure is what a user waits for.
``fig5-replay`` fills a cache during set-up and then times warm
replays of it.  ``--trace 1`` runs one untraced and one traced child
and reports the per-layer metrics instead of the end-to-end ones.
Times are scaled to the reference host speed (``hostclock.py``).

The output's last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
come from ``BENCHMARK.json``.  A full record (identity, knob table,
every sample, spans) goes to ``.bench_out/records/``.  The command
exits nonzero when any output check fails.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from hostclock import CAL_EVERY_S, CAL_REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Cold iterations per run, however short ``--seconds`` is.
MIN_ITERATIONS = 2
#: Cache fills (set-ups) per ``fig5-replay`` run.  Each child gets an
#: equal share of ``--seconds`` for its fill and then its warm passes.
REPLAY_SETUPS = 4
#: A run stops starting work after this many seconds.
RUN_DEADLINE_S = 170.0


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list) -> dict:
    """The highest of p90/p99/p99.9 with ten samples beyond it."""
    n = len(values)
    best = None
    for pct in (90.0, 99.0, 99.9):
        if n * (1 - pct / 100) >= 10:
            best = pct
    if best is None:
        return {}
    ordered = sorted(values)
    return {"percentile": best,
            "value": ordered[min(n - 1, int(n * best / 100))]}


class Run:
    """Spawns the children of one benchmark run and keeps the samples."""

    def __init__(self, workload, seed: int, work: Path, child_env: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env
        self.started = time.monotonic()
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def child(self, *, trace: bool, budget_s: float = 0.0) -> dict:
        """Run one child; a crash or timeout becomes ``ok: False``."""
        work = self.work / str(len(self.children))
        work.mkdir(parents=True)
        cfg = {"workload": self.workload.name, "seed": self.seed,
               "work": str(work), "trace": trace, "budget_s": budget_s,
               "spawn_cal": calibrate()}
        began = time.monotonic()
        cfg["spawn"] = began
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(5.0, self.remaining()))
            if proc.returncode != 0:
                raise RuntimeError(
                    f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            out["ok"] = True
        except (subprocess.TimeoutExpired, RuntimeError, ValueError,
                IndexError) as exc:
            out = {"ok": False, "error": str(exc), "wall_s": [],
                   "setup_s": [], "raw_wall_s": [], "raw_setup_s": []}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out["trace"] = trace
        out["elapsed_s"] = time.monotonic() - began
        self.children.append(out)
        return out

    def account(self, out: dict, reference: dict) -> None:
        """Count units attempted and failed, and check the outputs."""
        units = self.workload.units
        iterations = max(1, len(out["wall_s"]))
        self.attempted += units * iterations
        problems = []
        if not out["ok"]:
            problems.append(f"child crashed: {out['error']}")
        else:
            problems += out["errors"]
            self.failed += out["quarantined"]
            expected = reference.get(str(self.seed))
            first = self.children[0]
            if expected and out["digest"] != expected["digest"]:
                problems.append(f"digest {out['digest'][:16]} != "
                                f"reference {expected['digest'][:16]}")
            if expected and out["instructions"] != expected["instructions"]:
                problems.append(f"{out['instructions']} instructions != "
                                f"reference {expected['instructions']}")
            if first["ok"] and (out["digest"], out["instructions"]) != \
                    (first["digest"], first["instructions"]):
                problems.append("output differs from this run's first "
                                "child (nondeterminism or tracing)")
        if problems:
            self.failed += units * iterations
            self.problems += problems

    def samples(self, key: str, *, traced: bool = False) -> list:
        return [v for c in self.children if c["trace"] == traced
                for v in c[key]]


def run_workload(run: Run, seconds: int, trace: bool,
                 reference: dict) -> None:
    w = run.workload
    if trace:
        budget = seconds / 2 if w.replay else 0.0
        for traced in (False, True):
            run.account(run.child(trace=traced, budget_s=budget),
                        reference)
    elif w.replay:
        for _ in range(REPLAY_SETUPS):
            run.account(run.child(trace=False,
                                  budget_s=seconds / REPLAY_SETUPS),
                        reference)
    else:
        measured = time.monotonic()
        while True:
            out = run.child(trace=False)
            run.account(out, reference)
            elapsed = time.monotonic() - measured
            if not out["ok"] or run.remaining() < 2 * out["elapsed_s"]:
                break
            # stop unless the next iteration would end nearer to
            # ``seconds`` than this one did, so runs average ``seconds``
            if len(run.children) >= MIN_ITERATIONS \
                    and elapsed + out["elapsed_s"] / 2 > seconds:
                break


def end_to_end(run: Run) -> dict:
    """Every end-to-end metric, from the untraced children."""
    w = run.workload
    ok = [c for c in run.children if c["ok"] and not c["trace"]]
    wall = median(run.samples("wall_s"))
    instructions = ok[0]["instructions"] if ok else 0
    return {
        "setup_s": median(run.samples("setup_s")),
        "wall_s": wall,
        "units_per_s": w.units / wall if wall else 0.0,
        "peak_rss_mb": median([c["rss_mb"] for c in ok]),
        "sim_kips": instructions / wall / 1000 if wall else 0.0,
        "sets_per_s": w.task_sets / wall if wall else 0.0,
        "error_rate": run.failed / run.attempted,
    }


def per_layer(run: Run, e2e: dict) -> dict:
    traced = [c for c in run.children if c["ok"] and c["trace"]]
    layers = dict(traced[0]["layers"]) if traced else {}
    # Raw times: a traced child calibrates only before and after its
    # run, so its scaled time is coarser than the untraced one's.
    untraced_wall = median(run.samples("raw_wall_s"))
    traced_wall = median(run.samples("raw_wall_s", traced=True))
    layers["trace.overhead_ratio"] = (
        traced_wall / untraced_wall if untraced_wall else 0.0)
    for name in ("sim_kips", "sets_per_s", "error_rate"):
        layers[name] = e2e[name]
    return layers


def git_identity() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain",
                              "--untracked-files=no"))}


def source_sha256() -> str:
    """Content hash of the simulator and benchmark sources."""
    digest = hashlib.sha256()
    files = sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"),
                    HERE / "reference.json", ROOT / "BENCHMARK.json"])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no simulator sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from repro.errors import ConfigurationError
    from repro.runtime import knobs
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        knobs.check_env()
    except ConfigurationError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh).get(workload.name, {})

    # Every REPRO_* knob is cleared so both sides of a comparison run
    # the defaults: engine tier, SoC scheduler, sched backend, workers,
    # memory tier, chaos, event log and shard all alter the measured
    # path.  Caches and reports land in the run's own directory.
    work = OUT / f"work-{os.getpid()}"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(knobs.ENV_PREFIX)}
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env["REPRO_REPORT_DIR"] = str(work / "reports")
    run = Run(workload, seed, work, env)
    try:
        run_workload(run, args.seconds, bool(args.trace), reference)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    e2e = end_to_end(run)
    metrics = per_layer(run, e2e) if args.trace else e2e
    knob_rows = [{k: row[k] for k in ("name", "value", "source")}
                 for row in knobs.describe(environ=env)
                 if row["name"] not in ("cache_dir", "report_dir")]
    config = {"workload": workload.name, "inputs": workload.describe(),
              "seconds": args.seconds, "trace": args.trace,
              "min_iterations": MIN_ITERATIONS,
              "replay_setups": REPLAY_SETUPS, "cal_ref_s": CAL_REF_S,
              "cal_every_s": CAL_EVERY_S, "knobs": knob_rows}
    record = {
        "identity": {
            **git_identity(),
            "source_sha256": source_sha256(),
            "host": host_fingerprint(),
            "seed": seed,
            "workload": workload.name,
            "config_sha256": hashlib.sha256(json.dumps(
                config, sort_keys=True, default=str).encode()).hexdigest(),
        },
        "config": config,
        "metrics": metrics,
        "samples": {"setup_s": run.samples("setup_s"),
                    "wall_s": run.samples("wall_s"),
                    "raw_setup_s": run.samples("raw_setup_s"),
                    "raw_wall_s": run.samples("raw_wall_s"),
                    "wall_s_tail": tail(run.samples("wall_s"))},
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "children": run.children,
        "written_at_unix": time.time(),
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / (f"{workload.name}-seed{seed}-trace{args.trace}-"
                      f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True,
                               default=str) + "\n")

    n_wall = len(run.samples("wall_s"))
    print(f"{workload.name} seed={seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed} "
          f"record={path.relative_to(ROOT)}")
    shown = dict(e2e)
    shown["raw_setup_s"] = median(run.samples("raw_setup_s"))
    shown["raw_wall_s"] = median(run.samples("raw_wall_s"))
    if not workload.cosim:
        del shown["sim_kips"]
    if not workload.task_sets:
        del shown["sets_per_s"]
    if args.trace:
        shown.update(metrics)
    for name, value in shown.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, 's')}")
    print(f"  samples: wall_s n={n_wall}, "
          f"setup_s n={len(run.samples('setup_s'))}; tail "
          f"{record['samples']['wall_s_tail'] or 'n/a (<11 samples)'}")
    for problem in run.problems:
        print(f"  FAILED CHECK: {problem}")

    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
