"""Pure job-list generator for the triclock benchmark.

A job is one ``triclock`` command line.  Its parameters come from a pool
of job specs recorded, with their expected outputs, in ``reference.json``
(see ``make_reference.py``).  The pools were drawn once from continuous
parameter ranges, so job cost has no gaps for a percentile to sit in, and
every pool entry has a reference result recorded at the seed commit.

A job list depends only on (workload, seed, job count), and the job count
only on the run length fixed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("basin-raster", "analysis-verify", "lock-sim")

# Seed reserved for confirming a gain claim; never used while tuning a change.
HELD_OUT_SEED = 7919

# Mean job latency per workload at the seed commit on the 2-core reference
# host.  It converts the run length into a fixed job count, so that a faster
# program finishes the same list sooner instead of doing more work.
NOMINAL_JOB_S = {
    "basin-raster": 0.14,
    "analysis-verify": 0.18,
    "lock-sim": 0.07,
}
MIN_JOBS = 30

# Which pool each position of a workload's job list draws from, cycled.
PATTERNS = {
    "basin-raster": ("basins",),
    "analysis-verify": ("verify", "verify", "fixed-points"),
    "lock-sim": (
        "simulate", "simulate", "simulate-trace", "simulate-n4",
        "simulate", "simulate", "simulate-trace", "simulate-n4",
    ),
}
# Output formats cycled over the jobs of one pool within a list.
FORMATS = {
    "basins": ("csv", "bin", "svg"),
    "verify": ("text", "json"),
    "fixed-points": ("json",),
    "simulate": ("json",),
    "simulate-n4": ("json",),
    "simulate-trace": ("jsonl", "csv"),
}
# The layers each workload exercises through its own jobs; the traced run
# covers the other layers with the fixed probe jobs.
WORKLOAD_LAYERS = {
    "basin-raster": ("basin", "render"),
    "analysis-verify": ("analysis",),
    "lock-sim": ("events",),
}


@dataclass(frozen=True)
class Job:
    """One CLI call: its argv, the pool entry it came from and its output files."""

    index: int
    pool: str
    entry: int
    fmt: str
    argv: tuple[str, ...]
    out: str
    trace_out: str | None = None
    probe: bool = False


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _num(value: float) -> str:
    return repr(float(value))


def build_argv(pool: str, params: dict, fmt: str, out: str, trace_out: str | None = None) -> list[str]:
    """The command line for one pool entry, writing ``out`` (and ``trace_out``)."""
    if pool == "basins":
        return ["basins", "--eps", _num(params["eps"]), "--resolution", str(params["resolution"]),
                "--format", fmt, "--out", out]
    if pool == "verify":
        return ["verify", "--eps", _num(params["eps"]), "--format", fmt, "--out", out]
    if pool == "fixed-points":
        return ["fixed-points", "--eps", _num(params["eps"]), "--seed-grid", str(params["seed_grid"]),
                "--format", fmt, "--out", out]
    if pool == "simulate":
        return ["simulate", "--eps", _num(params["eps"]), "--random-starts", str(params["starts"]),
                "--seed", str(params["seed"]), "--out", out]
    if pool == "simulate-n4":
        return ["simulate", "--eps", _num(params["eps"]), "--n-clocks", "4", "--random-starts", "1",
                "--seed", str(params["seed"]), "--max-cycles", str(params["max_cycles"]), "--out", out]
    if pool == "simulate-trace":
        return ["simulate", "--eps", _num(params["eps"]),
                "--phases", ",".join(_num(v) for v in params["phases"]),
                "--trace-out", trace_out, "--out", out]
    raise ValueError(f"unknown pool {pool!r}")


def _out_names(index: int, pool: str, fmt: str) -> tuple[str, str | None]:
    stem = f"job{index:05d}"
    if pool == "basins":
        return f"{stem}.{fmt}", None
    if pool == "verify":
        return f"{stem}.{'txt' if fmt == 'text' else 'json'}", None
    if pool == "simulate-trace":
        return f"{stem}.json", f"{stem}-kicks.{fmt}"
    return f"{stem}.json", None


def make_job(index: int, pool: str, entry: int, params: dict, fmt: str, probe: bool = False) -> Job:
    out, trace_out = _out_names(index, pool, fmt)
    argv = build_argv(pool, params, fmt, out, trace_out)
    return Job(index, pool, entry, fmt, tuple(argv), out, trace_out, probe)


def reference_entry(job: Job, reference: dict) -> dict:
    """The recorded spec and expected output of ``job``."""
    if job.probe:
        return reference["probes"][job.entry]
    return reference["pools"][job.pool][job.entry]


def job_count(workload: str, seconds: float) -> int:
    if workload not in NOMINAL_JOB_S:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return max(MIN_JOBS, round(seconds / NOMINAL_JOB_S[workload]))


def cost(pool: str, entry: dict) -> int:
    """Work of a pool entry in the program's own units, for stratified sampling."""
    params, expect = entry["params"], entry["expect"]
    if pool == "basins":
        return expect["point_iters"]
    if pool == "verify":
        return sum(expect["orbit_lengths"])
    if pool == "fixed-points":
        return params["seed_grid"] ** 2
    return sum(expect["cycles"])


def generate(workload: str, seed: int, n_jobs: int, reference: dict) -> list[Job]:
    """The fixed job list of ``workload`` for ``seed``; same inputs, same list.

    Each pool's jobs are a stratified sample: the pool is sorted by cost and
    cut into as many strata as the list takes jobs from it, and one entry is
    drawn from each stratum.  Every seed's list then holds nearly the same
    total work, so seeds differ in their inputs but not in their cost.
    """
    if workload not in PATTERNS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    pattern = PATTERNS[workload]
    slots = [pattern[i % len(pattern)] for i in range(n_jobs)]
    picks: dict[str, list[int]] = {}
    for pool in dict.fromkeys(slots):
        entries = reference["pools"][pool]
        order = sorted(range(len(entries)), key=lambda i: (cost(pool, entries[i]), i))
        k = slots.count(pool)
        chosen = []
        for j in range(k):
            lo = j * len(order) // k
            hi = max((j + 1) * len(order) // k, lo + 1)
            chosen.append(order[rng.randrange(lo, hi)])
        rng.shuffle(chosen)
        picks[pool] = chosen
    jobs = []
    used: dict[str, int] = {}
    for index, pool in enumerate(slots):
        k = used.get(pool, 0)
        used[pool] = k + 1
        entry = picks[pool][k]
        fmt = FORMATS[pool][k % len(FORMATS[pool])]
        jobs.append(make_job(index, pool, entry, reference["pools"][pool][entry]["params"], fmt))
    return jobs


def probe_jobs(workload: str, reference: dict) -> list[Job]:
    """Fixed small jobs for the layers ``workload`` does not exercise itself.

    Only the traced run executes them, after the workload's own list, so that
    every per-layer metric has a value on every workload.
    """
    own = set(WORKLOAD_LAYERS[workload])
    jobs = []
    for entry, probe in enumerate(reference["probes"]):
        if own.isdisjoint(probe["layers"]):
            jobs.append(make_job(90000 + entry, probe["pool"], entry, probe["params"], probe["fmt"], True))
    return jobs
