"""Spans around the calls into each triclock layer, recorded from outside.

The traced run installs wrappers on the public functions that sit at layer
boundaries, by rebinding the module attributes their callers look up, and
removes them after each job.  Nothing under ``src/`` changes.

A span records name, start, end, parent span and job id.  Hot leaf calls
(the map kernel and the event kernel's cycle, called up to tens of
thousands of times per job) are folded into one aggregate span per parent:
calls, total time and items processed.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("cli", "core", "basin", "analysis", "events", "render")


@dataclass
class Span:
    id: int
    parent: int | None
    job: int
    name: str
    start: int
    end: int = 0
    calls: int = 1
    items: int = 0
    total_ns: int = 0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """In-memory span store plus the stack of open spans of the current job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._aggregates: dict[tuple[int, str], Span] = {}
        self.job = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.job, name, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        span.total_ns = span.end - span.start
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add_leaf(self, name: str, start: int, end: int, items: int) -> None:
        parent = self._stack[-1].id if self._stack else None
        key = (-1 if parent is None else parent, name)
        agg = self._aggregates.get(key)
        if agg is None:
            agg = Span(len(self.spans), parent, self.job, name, start, end, calls=0)
            self.spans.append(agg)
            self._aggregates[key] = agg
        agg.calls += 1
        agg.items += items
        agg.total_ns += end - start
        agg.end = end

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "job": s.job, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "ns": s.total_ns,
                    "calls": s.calls, "items": s.items, "info": s.info,
                }) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _rasterize_info(args, kwargs, grid) -> dict:
    cells = int(grid.labels.size)
    unresolved = int((grid.labels == 3).sum())
    return {"cells": cells, "decided": cells - unresolved, "point_iters": int(grid.iterations.sum())}


def _fixed_points_info(args, kwargs, search) -> dict:
    seed_grid = kwargs.get("seed_grid", args[0] if args else 50)
    seeds = seed_grid * seed_grid
    return {"seeds": seeds, "converged": seeds - len(search.unconverged_seeds)}


def _census_info(args, kwargs, census) -> dict:
    return {"samples": sum(int(o.samples.shape[0]) for o in census.orbits)}


def _lock_info(args, kwargs, result) -> dict:
    return {"cycles": int(result.cycles), "locked": bool(result.locked)}


# (module, attribute, span name, info extractor) for full spans.
SPAN_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("triclock.basin", "rasterize", "basin.rasterize", _rasterize_info),
    ("triclock.basin", "write_grid_csv", "basin.write_grid_csv", None),
    ("triclock.basin", "write_grid_binary", "basin.write_grid_binary", None),
    ("triclock.render", "render_portrait", "render.render_portrait", None),
    ("triclock.analysis", "find_fixed_points", "analysis.find_fixed_points", _fixed_points_info),
    ("triclock.analysis", "classify", "analysis.classify", None),
    ("triclock.analysis", "verify_invariance", "analysis.verify_invariance", None),
    ("triclock.analysis", "heteroclinic_census", "analysis.heteroclinic_census", _census_info),
    ("triclock.analysis", "orbital_derivative_scan", "analysis.orbital_derivative_scan", None),
    ("triclock.events", "run_until_locked", "events.run_until_locked", _lock_info),
    ("triclock.events", "write_events_jsonl", "events.write_events_jsonl", None),
    ("triclock.events", "write_events_csv", "events.write_events_csv", None),
)


def _points(args, kwargs) -> int:
    return int(getattr(args[0], "size", 2)) // 2


# (module, attribute, span name, item counter) for aggregated leaf calls.  The
# map kernel is bound by name in each module that calls it.
LEAF_TARGETS: tuple[tuple[str, str, str, Callable], ...] = (
    ("triclock.basin", "three_clock_step", "core.three_clock_step", _points),
    ("triclock.analysis", "three_clock_step", "core.three_clock_step", _points),
    ("triclock.analysis", "omega_field", "core.omega_field", _points),
    ("triclock.analysis", "omega_jacobian", "core.omega_jacobian", _points),
    ("triclock.events", "run_cycle", "events.run_cycle", lambda args, kwargs: 1),
)


def _wrap_span(rec: Recorder, name: str, fn: Callable, info: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    return wrapped


def _wrap_leaf(rec: Recorder, name: str, fn: Callable, items: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        rec.add_leaf(name, start, perf_counter_ns(), items(args, kwargs))
        return result

    return wrapped


class Instrumentation:
    """Installs the wrappers of one recorder; ``uninstall`` restores the originals."""

    def __init__(self, rec: Recorder) -> None:
        self._patches = []
        for module_name, attr, name, info in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, _wrap_span(rec, name, original, info)))
        for module_name, attr, name, items in LEAF_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, _wrap_leaf(rec, name, original, items)))

    def install(self) -> None:
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns of every span: duration minus its children's time."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.total_ns
    return {s.id: s.total_ns - child_ns.get(s.id, 0) for s in spans}


def layer_shares(spans: list[Span], jobs: set[int]) -> dict:
    """Share of the jobs' time spent in each layer's own code, with its base."""
    own = [s for s in spans if s.job in jobs]
    selfs = self_times(own)
    base = sum(s.total_ns for s in own if s.name == "cli.main")
    by_layer = {layer: 0 for layer in LAYERS}
    for s in own:
        by_layer[s.layer] += selfs[s.id]
    return {
        "base_s": base / 1e9,
        "jobs": len(jobs),
        "self_s": {k: v / 1e9 for k, v in by_layer.items()},
        "share": {k: (v / base if base else 0.0) for k, v in by_layer.items()},
    }


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _per_job_sum(spans: list[Span], names: set[str], selfs: dict[int, int] | None = None) -> list[float]:
    totals: dict[int, int] = {}
    for s in spans:
        if s.name in names:
            ns = selfs[s.id] if selfs is not None else s.total_ns
            totals[s.job] = totals.get(s.job, 0) + ns
    return [v / 1e9 for v in totals.values()]


def _ratio(num: float, den: float, scale: float = 1.0) -> float | None:
    return num / den * scale if den else None


def span_metrics(spans: list[Span], job_files: dict[int, dict]) -> dict[str, float | None]:
    """Per-layer metrics of one set of jobs; ``job_files`` maps a job id to its
    pool, format and output sizes."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str, key: str) -> int:
        return sum(int(s.info.get(key, 0)) for s in by_name.get(name, []))

    raster = by_name.get("basin.rasterize", [])
    raster_ns = sum(s.total_ns for s in raster)
    point_iters = total("basin.rasterize", "point_iters")
    census = by_name.get("analysis.heteroclinic_census", [])
    samples = total("analysis.heteroclinic_census", "samples")
    locks = by_name.get("events.run_until_locked", [])
    cycles_calls = by_name.get("events.run_cycle", [])
    trace_jobs = {j for j, f in job_files.items() if f["trace_bytes"] is not None}
    simulated = sum(s.calls for s in cycles_calls if s.job in trace_jobs)
    reported = sum(int(s.info["cycles"]) for s in locks if s.job in trace_jobs)

    def out_bytes(pool: str, fmts: tuple[str, ...]) -> int | None:
        sizes = [f["out_bytes"] for f in job_files.values() if f["pool"] == pool and f["fmt"] in fmts]
        return sum(sizes) if sizes else None

    return {
        "basin.rasterize_s": _median(_per_job_sum(raster, {"basin.rasterize"}, selfs)),
        "basin.point_iters": point_iters if raster else None,
        "basin.ns_per_point_iter": _ratio(raster_ns, point_iters),
        "basin.decided_ratio": _ratio(total("basin.rasterize", "decided"), total("basin.rasterize", "cells")),
        "basin.write_s": _median(_per_job_sum(spans, {"basin.write_grid_csv", "basin.write_grid_binary"})),
        "basin.write_bytes": out_bytes("basins", ("csv", "bin")),
        "render.portrait_s": _median(_per_job_sum(spans, {"render.render_portrait"})),
        "render.svg_bytes": out_bytes("basins", ("svg",)),
        "analysis.census_s": _median(_per_job_sum(census, {"analysis.heteroclinic_census"})),
        "analysis.census_samples": samples if census else None,
        "analysis.census_us_per_sample": _ratio(sum(s.total_ns for s in census), samples, 1e-3),
        "analysis.newton_s": _median(_per_job_sum(spans, {"analysis.find_fixed_points"})),
        "analysis.newton_converged_ratio": _ratio(total("analysis.find_fixed_points", "converged"),
                                                  total("analysis.find_fixed_points", "seeds")),
        "analysis.lyapunov_s": _median(_per_job_sum(spans, {"analysis.orbital_derivative_scan"})),
        "analysis.invariance_s": _median(_per_job_sum(spans, {"analysis.verify_invariance"})),
        "events.lock_s": _median([s.total_ns / 1e9 for s in locks]),
        "events.cycles": total("events.run_until_locked", "cycles") if locks else None,
        "events.us_per_cycle": _ratio(sum(s.total_ns for s in cycles_calls),
                                      sum(s.calls for s in cycles_calls), 1e-3),
        "events.locked_ratio": _ratio(sum(1 for s in locks if s.info["locked"]), len(locks)),
        "events.cycles_per_reported": _ratio(simulated, reported),
        "events.trace_write_s": _median(_per_job_sum(spans, {"events.write_events_jsonl",
                                                             "events.write_events_csv"})),
        "events.trace_bytes": sum(job_files[j]["trace_bytes"] for j in trace_jobs) if trace_jobs else None,
        "cli.self_s": _median([selfs[s.id] / 1e9 for s in by_name.get("cli.main", [])]),
        "cli.out_bytes": sum(f["out_bytes"] for f in job_files.values()) if job_files else None,
    }
