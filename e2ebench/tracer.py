"""Per-layer tracing for the traced benchmark run.

Every layer is measured from outside: the tracer replaces public
methods at class level, and public functions in every ``repro``
module that imported them, with timing wrappers.  Nothing under
``src/`` is edited.

Hot boundaries (core steps, L1 accesses, heap and channel operations)
keep only in-memory aggregates per boundary: call count, total time,
the part of that time covered by nested traced calls, and an optional
tally taken from the call (checker actions, task sets generated).
Self time is total minus children.  Coarse boundaries (the workload
call, campaigns and ``FlexStepSoC.run``) also keep full spans with
their parent span, written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Optional

# Aggregate slots: calls, total seconds, seconds in nested traced
# calls, tally.
CALLS, TOTAL, CHILDREN, TALLY = range(4)


class Tracer:
    """Boundary aggregates plus coarse spans for one process."""

    def __init__(self) -> None:
        self.aggregates: dict[str, list] = {}
        self.spans: list[dict] = []
        self.socs: dict[int, Any] = {}
        self._stack: list[float] = [0.0]
        self._span_stack: list[int] = []

    def wrap(self, name: str, fn: Callable, *, span: bool = False,
             tally: Optional[Callable[..., int]] = None) -> Callable:
        """A timing wrapper around ``fn`` recorded as boundary ``name``.

        ``tally(result, args, kwargs)`` adds a count per call.
        """
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        # Three closures rather than one with flags: the plain one wraps
        # calls made millions of times per run, and every test it skips
        # lowers the tracing overhead.
        if span:
            spans = self.spans
            span_stack = self._span_stack

            def wrapper(*args, **kwargs):
                span_id = len(spans)
                record = {"id": span_id, "name": name,
                          "parent": span_stack[-1] if span_stack else None}
                spans.append(record)
                span_stack.append(span_id)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    agg[CHILDREN] += stack.pop()
                    stack[-1] += elapsed
                    agg[CALLS] += 1
                    agg[TOTAL] += elapsed
                    span_stack.pop()
                    record["start"] = start
                    record["end"] = end
                if tally is not None:
                    agg[TALLY] += tally(result, args, kwargs)
                return result
        elif tally is not None:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    agg[CHILDREN] += stack.pop()
                    stack[-1] += elapsed
                    agg[CALLS] += 1
                    agg[TOTAL] += elapsed
                agg[TALLY] += tally(result, args, kwargs)
                return result
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    agg[CHILDREN] += stack.pop()
                    stack[-1] += elapsed
                    agg[CALLS] += 1
                    agg[TOTAL] += elapsed

        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------

    def wrap_method(self, cls: type, method: str, name: str,
                    **kw: Any) -> None:
        setattr(cls, method, self.wrap(name, getattr(cls, method), **kw))

    def wrap_function(self, module: Any, attr: str, name: str,
                      **kw: Any) -> None:
        """Replace a module function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced boundary; call before any SoC is built."""
        import repro.scenarios.runner  # noqa: F401  (binds every layer)
        import repro.sched.experiments  # noqa: F401
        from repro.campaign import cache as cache_mod
        from repro.campaign import engine as engine_mod
        from repro.campaign import supervisor
        from repro.core.cache import Cache
        from repro.core.core import Core
        from repro.flexstep.checker import CheckerEngine
        from repro.flexstep.dbc import Channel
        from repro.flexstep.rcpm import MainCoreAdapter
        from repro.flexstep.soc import FlexStepSoC
        from repro.isa import assembler
        from repro.runtime import knobs
        from repro.sched.backend import numpy_available
        from repro.sched.backend.python_backend import PythonBackend
        from repro.sim.engine import EventQueue
        from repro.workloads import generator

        socs = self.socs

        def soc_run(result, args, kwargs):
            socs[id(args[0])] = args[0]
            return result.total_instructions

        self.wrap_method(FlexStepSoC, "run", "soc.run", span=True,
                         tally=soc_run)
        self.wrap_method(CheckerEngine, "advance", "checker.advance",
                         tally=lambda result, args, kwargs: result)
        for method in ("step", "exec_one", "advance"):
            self.wrap_method(Core, method, f"core.{method}")
        self.wrap_method(Cache, "access", "core.cache.access")
        self.wrap_method(EventQueue, "push", "sim.engine.push")
        self.wrap_method(EventQueue, "pop", "sim.engine.pop")
        self.wrap_method(Channel, "push", "dbc.push")
        self.wrap_method(Channel, "pop", "dbc.pop")
        self.wrap_method(MainCoreAdapter, "try_flush", "rcpm.try_flush")

        backends: list[type] = [PythonBackend]
        if numpy_available():
            from repro.sched.backend.numpy_backend import NumpyBackend
            backends.append(NumpyBackend)
        for cls in backends:
            self.wrap_method(
                cls, "generate_batch", "sched.generate",
                tally=lambda result, args, kwargs: len(kwargs["seeds"]))
            self.wrap_method(cls, "judge_batch", "sched.judge")
            self.wrap_method(cls, "qpa_batch", "sched.qpa")

        self.wrap_method(cache_mod.ResultCache, "get", "campaign.cache.get")
        self.wrap_method(cache_mod.ResultCache, "put", "campaign.cache.put")
        self.wrap_function(engine_mod, "run_campaign", "campaign.run",
                           span=True)
        self.wrap_function(supervisor, "run_attempt", "campaign.unit")
        self.wrap_function(cache_mod, "unit_digest", "campaign.digest")
        self.wrap_function(cache_mod, "canonical_json",
                           "campaign.canonical_json")
        self.wrap_function(knobs, "resolve", "runtime.resolve")
        self.wrap_function(generator, "cached_program",
                           "workloads.cached_program")
        self.wrap_function(generator, "build_program", "workloads.build")
        self.wrap_function(assembler, "assemble", "isa.assemble")

    # -- read-out ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.aggregates.get(name, [0])[CALLS]

    def self_s(self, *names: str) -> float:
        total = 0.0
        for name in names:
            agg = self.aggregates.get(name)
            if agg is not None:
                total += agg[TOTAL] - agg[CHILDREN]
        return total

    def tally(self, name: str) -> int:
        return self.aggregates.get(name, [0, 0.0, 0.0, 0])[TALLY]

    def boundaries(self) -> dict[str, dict]:
        """Every boundary's aggregate, for the written record."""
        return {
            name: {"calls": agg[CALLS], "total_s": agg[TOTAL],
                   "children_s": agg[CHILDREN],
                   "self_s": agg[TOTAL] - agg[CHILDREN],
                   "tally": agg[TALLY]}
            for name, agg in sorted(self.aggregates.items())
        }


def soc_counters(socs) -> dict[str, float]:
    """Sum the layers' public stats objects over the SoCs that ran."""
    from repro.flexstep.soc import CoreAttr

    out = {"core.instructions": 0, "core.stall_cycles": 0,
           "l1.hits": 0, "l1.misses": 0,
           "checker.replayed_instructions": 0, "checker.idle_cycles": 0,
           "dbc.pushes": 0, "dbc.pops": 0, "dbc.refusals": 0,
           "dbc.max_occupancy": 0,
           "rcpm.backpressure_stall_cycles": 0,
           "rcpm.extraction_stall_cycles": 0}
    for soc in socs:
        for cid, core in enumerate(soc.cores):
            out["core.instructions"] += core.stats.instructions
            out["core.stall_cycles"] += core.stats.stall_cycles
            for l1 in (core.l1i, getattr(core.port, "l1d", None)):
                if l1 is not None:
                    out["l1.hits"] += l1.stats.hits
                    out["l1.misses"] += l1.stats.misses
            attr = soc.control.attr_of(cid)
            if attr is CoreAttr.CHECKER:
                stats = soc.engine_of(cid).stats
                out["checker.replayed_instructions"] += \
                    stats.replayed_instructions
                out["checker.idle_cycles"] += stats.idle_cycles
                channel = soc.interconnect.channel_to(cid)
                if channel is not None:
                    out["dbc.pushes"] += channel.stats.pushes
                    out["dbc.pops"] += channel.stats.pops
                    out["dbc.refusals"] += channel.stats.refusals
                    out["dbc.max_occupancy"] = max(
                        out["dbc.max_occupancy"],
                        channel.stats.max_occupancy)
            elif attr is CoreAttr.MAIN \
                    and soc.interconnect.checkers_of(cid):
                stats = soc.adapter_of(cid).stats
                out["rcpm.backpressure_stall_cycles"] += \
                    stats.backpressure_stall_cycles
                out["rcpm.extraction_stall_cycles"] += \
                    stats.extraction_stall_cycles
    return out


def layer_metrics(tracer: Tracer, probe: Any,
                  iterations: int) -> dict[str, float]:
    """The per-layer metrics, each per measured iteration.

    Every ``*_s`` metric is self time: the boundary's own time minus
    the nested traced calls it made.
    """
    t = tracer
    c = soc_counters(t.socs.values())
    actions = t.tally("checker.advance")
    l1_accesses = c["l1.hits"] + c["l1.misses"]
    gets = probe.count("cache.hit", "cache.mem_hit", "cache.miss")
    raw = {
        "workloads.build_s": t.self_s("workloads.build"),
        "isa.assemble_s": t.self_s("isa.assemble"),
        "workloads.builds": t.calls("workloads.build"),
        "core.step_calls": t.calls("core.step"),
        "core.step_s": t.self_s("core.step"),
        "core.exec_one_calls": t.calls("core.exec_one"),
        "core.exec_one_s": t.self_s("core.exec_one"),
        "core.advance_calls": t.calls("core.advance"),
        "core.advance_s": t.self_s("core.advance"),
        "core.instructions": c["core.instructions"],
        "core.stall_cycles": c["core.stall_cycles"],
        "core.cache.access_calls": t.calls("core.cache.access"),
        "core.cache.access_s": t.self_s("core.cache.access"),
        "checker.advance_calls": t.calls("checker.advance"),
        "checker.actions": actions,
        "checker.self_s": t.self_s("checker.advance"),
        "checker.replayed_instructions":
            c["checker.replayed_instructions"],
        "checker.idle_cycles": c["checker.idle_cycles"],
        "soc.run_calls": t.calls("soc.run"),
        "soc.self_s": t.self_s("soc.run"),
        "sim.engine.push_calls": t.calls("sim.engine.push"),
        "sim.engine.pop_calls": t.calls("sim.engine.pop"),
        "sim.engine.self_s": t.self_s("sim.engine.push",
                                      "sim.engine.pop"),
        "dbc.pushes": c["dbc.pushes"],
        "dbc.pops": c["dbc.pops"],
        "dbc.refusals": c["dbc.refusals"],
        "dbc.self_s": t.self_s("dbc.push", "dbc.pop"),
        "rcpm.try_flush_calls": t.calls("rcpm.try_flush"),
        "rcpm.self_s": t.self_s("rcpm.try_flush"),
        "rcpm.backpressure_stall_cycles":
            c["rcpm.backpressure_stall_cycles"],
        "rcpm.extraction_stall_cycles": c["rcpm.extraction_stall_cycles"],
        "sched.generate_calls": t.calls("sched.generate"),
        "sched.generate_s": t.self_s("sched.generate"),
        "sched.judge_s": t.self_s("sched.judge"),
        "sched.qpa_s": t.self_s("sched.qpa"),
        "sched.task_sets": t.tally("sched.generate"),
        "campaign.run_s": t.self_s("campaign.run"),
        "campaign.unit_s": t.self_s("campaign.unit"),
        "campaign.units_computed": probe.computed,
        "campaign.units_cached": probe.cached,
        "campaign.cache.get_calls": t.calls("campaign.cache.get"),
        "campaign.cache.get_s": t.self_s("campaign.cache.get"),
        "campaign.cache.put_calls": t.calls("campaign.cache.put"),
        "campaign.cache.put_s": t.self_s("campaign.cache.put"),
        "campaign.digest_s": t.self_s("campaign.digest"),
        "campaign.canonical_json_calls":
            t.calls("campaign.canonical_json"),
        "campaign.canonical_json_s": t.self_s("campaign.canonical_json"),
        "runtime.knob_resolves": t.calls("runtime.resolve"),
        "runtime.events_emitted": probe.count(),
    }
    out = {name: value / iterations for name, value in raw.items()}
    # ratios and maxima are not per-iteration sums
    cached_program_calls = t.calls("workloads.cached_program")
    out["workloads.memo_ratio"] = (
        t.calls("workloads.build") / cached_program_calls
        if cached_program_calls else 0.0)
    out["core.cache.hit_ratio"] = (
        c["l1.hits"] / l1_accesses if l1_accesses else 0.0)
    out["checker.useful_ratio"] = (
        c["checker.replayed_instructions"] / actions if actions else 0.0)
    out["dbc.max_occupancy"] = c["dbc.max_occupancy"]
    out["campaign.cache.hit_ratio"] = (
        probe.count("cache.hit", "cache.mem_hit") / gets if gets else 0.0)
    return out
