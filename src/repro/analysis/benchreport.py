"""Render the five ``BENCH_*.json`` perf trajectories as tables.

``python -m repro report --bench`` reads the committed trajectory
files (``BENCH_engine.json``, ``BENCH_campaign.json``,
``BENCH_scenarios.json``, ``BENCH_sched.json``, ``BENCH_soc.json``)
and prints one speedup-over-PRs table per bench: every appended
record's label, timestamp and headline metrics, so the repo's perf
story is readable without spelunking JSON.  The latest record is
compared against the best record on each headline metric and flagged
when it has regressed past :data:`REGRESSION_RATIO` — a warning, not
a failure: wall-clock trajectories mix hosts, and the strict gates in
``scripts/bench.py`` are the enforcement point.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..perfbench import load_trajectory

#: The five committed trajectory files, in report order.
BENCHES: tuple[str, ...] = (
    "engine", "campaign", "scenarios", "sched", "soc")

#: Headline metrics per bench: ``(record key, column header)``.  The
#: first entry is the metric regressions are flagged on.
BENCH_METRICS: dict[str, tuple[tuple[str, str], ...]] = {
    "engine": (("speedup_geomean", "dec/int"),
               ("decoded_ips_geomean", "decoded ips")),
    "campaign": (("speedup", "speedup"),
                 ("replay_speedup", "replay"),
                 ("units_per_second_parallel", "units/s")),
    "scenarios": (("replay_speedup", "replay"),
                  ("cold_seconds", "cold s"),
                  ("replay_seconds", "replay s")),
    "sched": (("speedup", "speedup"),
              ("numpy_sets_per_second", "numpy sets/s"),
              ("python_sets_per_second", "python sets/s")),
    "soc": (("speedup_8plus_geomean", "8+core"),
            ("speedup_geomean", "geomean")),
}

#: Latest-vs-best ratio below which the report flags a regression.
REGRESSION_RATIO = 0.9


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def bench_table(bench: str, trajectory: Optional[dict] = None,
                path: Optional[str] = None) -> str:
    """One bench's trajectory as an aligned text table."""
    doc = trajectory if trajectory is not None \
        else load_trajectory(path, bench=bench)
    records = doc.get("records", [])
    metrics = BENCH_METRICS.get(bench, ())
    header = ["#", "timestamp", "label"] + [h for _, h in metrics]
    table = [header]
    for i, record in enumerate(records):
        table.append(
            [str(i), str(record.get("timestamp", "-"))[:19],
             str(record.get("label", "") or "-")]
            + [_fmt(record.get(key)) for key, _ in metrics])
    widths = [max(len(row[col]) for row in table)
              for col in range(len(header))]
    lines = [f"BENCH_{bench}.json ({len(records)} record(s))"]
    for n, row in enumerate(table):
        lines.append("  ".join(
            cell.ljust(widths[col]) if col < 3 else cell.rjust(widths[col])
            for col, cell in enumerate(row)))
        if n == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def regressions(bench: str, trajectory: Optional[dict] = None,
                path: Optional[str] = None) -> list[str]:
    """Warnings for headline metrics where latest < 0.9x best."""
    doc = trajectory if trajectory is not None \
        else load_trajectory(path, bench=bench)
    records = doc.get("records", [])
    if len(records) < 2 or bench not in BENCH_METRICS:
        return []
    latest = records[-1]
    out = []
    for key, header in BENCH_METRICS[bench]:
        if "seconds" in key:
            continue   # lower is better; hosts differ too much to flag
        values = [r.get(key) for r in records
                  if isinstance(r.get(key), (int, float))]
        current = latest.get(key)
        if not values or not isinstance(current, (int, float)):
            continue
        best = max(values)
        if best > 0 and current < REGRESSION_RATIO * best:
            out.append(
                f"{bench}: {key} regressed to {_fmt(current)} "
                f"(best on record {_fmt(best)}, "
                f"{current / best:.0%} of best)")
    return out


def render_bench_report(benches: Optional[Sequence[str]] = None) -> str:
    """The full ``repro report --bench`` document."""
    names = tuple(benches) if benches else BENCHES
    sections = [bench_table(bench) for bench in names]
    warnings = [w for bench in names for w in regressions(bench)]
    if warnings:
        sections.append("regression warnings (latest < "
                        f"{REGRESSION_RATIO:.0%} of best):\n"
                        + "\n".join(f"  ! {w}" for w in warnings))
    else:
        sections.append("no regressions against best-known records")
    return "\n\n".join(sections)
