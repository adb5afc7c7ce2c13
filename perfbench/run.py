"""triclock benchmark: fixed job lists run in-process, outputs checked.

    python3 perfbench/run.py --workload basin-raster --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: this single-threaded process
calls ``triclock.cli.main(argv)`` for the next job as soon as the previous
one returns.  The job list is fixed by (workload, seed) and by ``--seconds``,
which sets the number of jobs, never a time cap.  Every job's output is
decoded and checked against the reference recorded in ``reference.json``.

``--trace 0`` reports the end-to-end metrics, with times scaled to full host
speed (see RefKernel); ``--trace 1`` replays the same list with spans around
each layer's public functions and reports the per-layer metrics, with raw
times.  The last line of standard output is one JSON object;
the full record of the run is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

# Fresh interpreters per run for setup_s (untraced) and cli.import_s (traced),
# spread evenly over the job list so host drift within a run averages out.
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 7
# The reference kernel each workload reads (see RefKernel), and each kernel's
# time on the 2-core reference host when it runs at full speed.  Untraced
# runs time the kernel between jobs and report every time as seconds at that
# full speed: latency * nominal / (mean of the kernel readings around it).
KERNEL_FOR = {"basin-raster": "bulk", "analysis-verify": "small", "lock-sim": "python"}
KERNEL_NOMINAL_S = {"bulk": 0.0032, "small": 0.0022, "python": 0.0024}
# The traced run times its reference kernel before every REF_EVERY-th job.
REF_EVERY = 8
# In the traced run every OVERHEAD_EVERY-th job is also run untraced, to
# measure the tracing overhead on the same job.
OVERHEAD_EVERY = 5
CHILD_TIMEOUT_S = 60
# Highest percentile first; job_tail_s uses the first with >= TAIL_BEYOND jobs beyond it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "core.step_ns_per_point": "ns",
    "core.step_us_per_call": "us",
    "basin.rasterize_s": "s",
    "basin.point_iters": "count",
    "basin.ns_per_point_iter": "ns",
    "basin.decided_ratio": "fraction",
    "basin.write_s": "s",
    "basin.write_bytes": "B",
    "basin.workers2_ratio": "ratio",
    "render.portrait_s": "s",
    "render.svg_bytes": "B",
    "analysis.census_s": "s",
    "analysis.census_samples": "count",
    "analysis.census_us_per_sample": "us",
    "analysis.newton_s": "s",
    "analysis.newton_converged_ratio": "fraction",
    "analysis.lyapunov_s": "s",
    "analysis.invariance_s": "s",
    "events.lock_s": "s",
    "events.cycles": "count",
    "events.us_per_cycle": "us",
    "events.locked_ratio": "fraction",
    "events.cycles_per_reported": "ratio",
    "events.trace_write_s": "s",
    "events.trace_bytes": "B",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_ratio": "ratio",
    "host.ref_kernel_s": "s",
}

# Time from a fresh interpreter to the first job being ready.
SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import triclock.cli
import jobs
jobs.generate(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), jobs.load_reference())
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# triclock's own import cost, with numpy already imported.
IMPORT_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import numpy
t0 = perf_counter()
import triclock.cli
sys.stdout.write(repr(perf_counter() - t0) + "\\n")
"""


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length; sets the job count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import triclock from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "triclock" / "__init__.py").is_file():
        raise BenchError(f"no triclock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import triclock
    import triclock.cli

    if Path(triclock.__file__).resolve().parent != SRC / "triclock":
        raise BenchError(f"imported triclock from {triclock.__file__}, not from {SRC}")
    return triclock.cli


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def time_child(code: str, args: list[str]) -> tuple[float, str]:
    """Wall time from spawning ``python -c code`` to its first output line."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    if rc != 0 or not line:
        raise BenchError(f"measurement child exited {rc}")
    return elapsed, line.strip()


class RefKernel:
    """A fixed kernel owned by the benchmark: a reading of the host's speed.

    The host's speed swings by up to 2x within seconds, and not by the same
    factor for every kind of code: pure-Python loops slow more than bulk numpy.
    So each workload reads the kernel whose code is like its own hot layer:
    ``bulk`` is the map's formula on a 40k-point array (basin-raster),
    ``small`` the same formula on one 2-vector at a time (analysis-verify),
    ``python`` an event-kernel-like pure-Python loop (lock-sim, and the
    interpreter start-up behind ``setup_s``).
    """

    KINDS = ("bulk", "small", "python")

    def __init__(self, kind: str) -> None:
        import numpy as np

        if kind not in self.KINDS:
            raise ValueError(kind)
        self.np = np
        self.kind = kind
        axis = (np.arange(200) + 0.5) * (2.0 * np.pi / 200)
        gx, gy = np.meshgrid(axis, axis)
        self.bulk = np.column_stack((gx.ravel(), gy.ravel()))
        self.one = np.array([1.0, 2.5])
        self._run = getattr(self, "_" + kind)

    def _bulk(self) -> float:
        np, p = self.np, self.bulk
        for _ in range(2):
            x, y = p[:, 0], p[:, 1]
            sx, sy, sxy = np.sin(x), np.sin(y), np.sin(x - y)
            p = p + 0.01 * np.stack((2.0 * sx + sy + sxy, sx + 2.0 * sy - sxy), axis=-1)
        return float(p[0, 0])

    def _small(self) -> float:
        np, p = self.np, self.one
        for _ in range(300):
            x, y = p[..., 0], p[..., 1]
            sx, sy, sxy = np.sin(x), np.sin(y), np.sin(x - y)
            p = p + 0.01 * np.stack((2.0 * sx + sy + sxy, sx + 2.0 * sy - sxy), axis=-1)
        return float(p[0])

    def _python(self) -> float:
        psi, total = [0.3, 2.0, 4.0], 0.0
        for _ in range(2000):
            k = min(range(3), key=lambda i: 6.283185307179586 - psi[i])
            psi = [p + 0.01 * math.sin(p) for p in psi]
            total += psi[k]
        return total

    def time(self) -> float:
        t0 = perf_counter()
        self._run()
        return perf_counter() - t0


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least TAIL_BEYOND of n jobs beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    raise BenchError(f"{n} jobs leave no percentile with {TAIL_BEYOND} jobs beyond it")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def run_job(main, job, reference: dict, workdir: Path) -> dict:
    """One closed-loop request: call ``main(argv)``, then check and delete its output."""
    t0 = perf_counter()
    try:
        rc = main(list(job.argv))
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code
    except Exception:  # a crashing job is a failed job; keep running the list
        rc = traceback.format_exc(limit=3)
    latency = perf_counter() - t0
    error = None
    if rc != 0:
        error = f"exit {rc}"
    else:
        try:
            checks.check_job(job, jobs.reference_entry(job, reference), workdir, reference)
        except checks.CheckError as exc:
            error = str(exc)
    out = workdir / job.out
    record = {
        "index": job.index, "pool": job.pool, "entry": job.entry, "fmt": job.fmt, "probe": job.probe,
        "latency_s": latency, "error": error,
        "out_bytes": out.stat().st_size if out.exists() else 0,
        "trace_bytes": None,
    }
    out.unlink(missing_ok=True)
    if job.trace_out is not None:
        kicks = workdir / job.trace_out
        record["trace_bytes"] = kicks.stat().st_size if kicks.exists() else 0
        kicks.unlink(missing_ok=True)
    if error is not None:
        print(f"perfbench: job {job.index} {' '.join(job.argv)}: {error}", file=sys.stderr)
    return record


def spread_points(n_jobs: int, samples: int) -> set[int]:
    """Job indices before which to take ``samples`` evenly spaced readings."""
    return {round(k * n_jobs / samples) for k in range(samples)}


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------

def untraced_run(cli, job_list, reference, workdir, args) -> dict:
    kernel = RefKernel(KERNEL_FOR[args.workload])
    py_kernel = RefKernel("python")
    setup_at = spread_points(len(job_list), SETUP_SAMPLES)
    child_args = [str(SRC), str(HERE), args.workload, str(args.seed), str(len(job_list))]
    setup, setup_raw, records = [], [], []
    ref = [kernel.time()]
    for job in job_list:
        if job.index in setup_at:
            before = py_kernel.time()
            elapsed = time_child(SETUP_CHILD, child_args)[0]
            speed = KERNEL_NOMINAL_S["python"] / (0.5 * (before + py_kernel.time()))
            setup_raw.append(elapsed)
            setup.append(elapsed * speed)
        gc.collect()
        record = run_job(cli.main, job, reference, workdir)
        ref.append(kernel.time())
        record["host_speed"] = KERNEL_NOMINAL_S[kernel.kind] / (0.5 * (ref[-2] + ref[-1]))
        records.append(record)
    raw = [r["latency_s"] for r in records]
    latencies = [r["latency_s"] * r["host_speed"] for r in records]
    p_tail = tail_percentile(len(latencies))
    metrics = {
        "wall_s": sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": percentile(latencies, p_tail),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_value = metrics["job_tail_s"]
    return {
        "metrics": metrics,
        "raw_metrics": {
            "wall_s": sum(raw),
            "job_p50_s": statistics.median(raw),
            "job_tail_s": percentile(raw, p_tail),
            "setup_s": statistics.median(setup_raw),
        },
        "records": records,
        "tail": {"percentile": p_tail, "jobs": len(latencies),
                 "jobs_beyond": sum(1 for v in latencies if v > tail_value)},
        "setup_samples_s": setup,
        "setup_raw_samples_s": setup_raw,
        "ref_kernel": kernel.kind,
        "ref_kernel_samples_s": ref,
    }


def _micro_core() -> dict:
    import numpy as np
    from triclock.core import CouplingParams, three_clock_step

    params = CouplingParams(epsilon=0.05)
    res = 200  # 40k points, the lattice of a resolution-200 raster
    c = (np.arange(res) + 0.5) * (2.0 * np.pi / res)
    gx, gy = np.meshgrid(c, c)
    bulk = np.column_stack((gx.ravel(), gy.ravel()))
    bulk_s = []
    for _ in range(21):
        t0 = perf_counter()
        three_clock_step(bulk, params)
        bulk_s.append(perf_counter() - t0)
    one = np.array([1.0, 2.5])
    calls, call_s = 500, []
    for _ in range(9):
        t0 = perf_counter()
        for _ in range(calls):
            three_clock_step(one, params)
        call_s.append((perf_counter() - t0) / calls)
    return {
        "core.step_ns_per_point": statistics.median(bulk_s) / bulk.shape[0] * 1e9,
        "core.step_us_per_call": statistics.median(call_s) * 1e6,
    }


def _workers2_ratio() -> float:
    from triclock import basin
    from triclock.core import CouplingParams

    params = CouplingParams(epsilon=0.05)
    times = {1: [], 2: []}
    for rep in range(3):
        for workers in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = perf_counter()
            basin.rasterize(100, params, workers=workers)
            times[workers].append(perf_counter() - t0)
    return statistics.median(times[2]) / statistics.median(times[1])


def traced_run(cli, job_list, reference, workdir, args) -> dict:
    kernel = RefKernel(KERNEL_FOR[args.workload])
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec)
    import_at = spread_points(len(job_list), IMPORT_SAMPLES)
    ref, imports, records, pairs = [], [], [], []

    def traced_main(argv: list[str]) -> int:
        inst.install()
        root = rec.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            rec.close(root)
            inst.uninstall()

    def traced(job) -> dict:
        rec.job = job.index
        gc.collect()
        return run_job(traced_main, job, reference, workdir)

    for job in job_list:
        if job.index in import_at:
            imports.append(float(time_child(IMPORT_CHILD, [str(SRC)])[1]))
        if job.index % REF_EVERY == 0:
            ref.append(kernel.time())
        if job.index % OVERHEAD_EVERY == OVERHEAD_EVERY - 1:
            # Alternate which side runs first, so neither always warms the other.
            if (job.index // OVERHEAD_EVERY) % 2 == 0:
                gc.collect()
                plain = run_job(cli.main, job, reference, workdir)
                record = traced(job)
            else:
                record = traced(job)
                gc.collect()
                plain = run_job(cli.main, job, reference, workdir)
            pairs.append((record["latency_s"], plain["latency_s"], plain["error"]))
        else:
            record = traced(job)
        records.append(record)
    probes = jobs.probe_jobs(args.workload, reference)
    probe_records = [traced(job) for job in probes]

    own = {r["index"] for r in records}
    probe_ids = {r["index"] for r in probe_records}
    job_files = {r["index"]: r for r in records + probe_records}
    metrics_own = spans.span_metrics([s for s in rec.spans if s.job in own],
                                     {j: job_files[j] for j in own})
    metrics_probe = spans.span_metrics([s for s in rec.spans if s.job in probe_ids],
                                       {j: job_files[j] for j in probe_ids})
    own_layers = set(jobs.WORKLOAD_LAYERS[args.workload]) | {"cli"}
    metrics = {}
    sources = {}
    for name, value in metrics_own.items():
        layer = name.split(".", 1)[0]
        use_own = layer in own_layers
        metrics[name] = value if use_own else metrics_probe[name]
        sources[name] = "workload" if use_own else "probe"
    metrics.update(_micro_core())
    metrics["basin.workers2_ratio"] = _workers2_ratio()
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = (statistics.median(p[0] for p in pairs)
                                       / statistics.median(p[1] for p in pairs))
    metrics["host.ref_kernel_s"] = statistics.median(ref)
    missing = sorted(k for k in PER_LAYER_UNITS if metrics.get(k) is None)
    if missing:
        raise BenchError(f"no value for per-layer metrics {missing}")

    spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.dump(spans_path)
    return {
        "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
        "records": records + probe_records,
        "overhead_pairs": [{"traced_s": t, "untraced_s": u} for t, u, _ in pairs],
        "replay_errors": [e for _, _, e in pairs if e is not None],
        "metric_sources": sources,
        "layer_shares": spans.layer_shares(rec.spans, own),
        "import_samples_s": imports,
        "ref_kernel_samples_s": ref,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# facts and output
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def facts(args, n_jobs: int) -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "code": {"git_commit": _git_commit(), "src_sha256": sha.hexdigest(), "src_lines": lines},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": n_jobs,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
        if args.workload not in jobs.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {jobs.WORKLOADS}")
        reference = jobs.load_reference()
        job_list = jobs.generate(args.workload, args.seed, jobs.job_count(args.workload, args.seconds), reference)
        workdir = OUT_ROOT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        os.environ["TRICLOCK_OUTDIR"] = str(workdir)
        try:
            run = (traced_run if args.trace else untraced_run)(cli, job_list, reference, workdir, args)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = run["records"]
    failed = sum(1 for r in records if r["error"] is not None) + len(run.get("replay_errors", []))
    attempted = len(records) + len(run.get("overhead_pairs", []))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    detail = {"facts": facts(args, len(job_list)), "error_rate": failed / attempted, **result, **run}
    result_path = OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        shares = run["layer_shares"]
        summary = ", ".join(f"{k} {v:.1%}" for k, v in shares["share"].items())
        print(f"perfbench: layer self-time shares of {shares['base_s']:.2f} s over "
              f"{shares['jobs']} jobs: {summary}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
