"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The run-level tests start short benchmark runs (``--seconds 1``, the minimum
job count) as subprocesses, the way the benchmark is invoked.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

REFERENCE = jobs.load_reference()


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_file(workload: str, trace: int, seed: int = 3) -> dict:
    path = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs() -> dict:
    """One short untraced and traced run of every workload."""
    out = {}
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            out[workload, trace] = (line, result_file(workload, trace))
    return out


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = jobs.generate(workload, 11, 60, REFERENCE)
    assert first == jobs.generate(workload, 11, 60, REFERENCE)
    assert first != jobs.generate(workload, 12, 60, REFERENCE)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seeds_differ_in_inputs_but_not_in_work(workload):
    n = jobs.job_count(workload, 20)
    lists = [jobs.generate(workload, seed, n, REFERENCE) for seed in range(6)]
    work = [sum(jobs.cost(j.pool, jobs.reference_entry(j, REFERENCE)) for j in jl) for jl in lists]
    assert max(work) / min(work) < 1.05
    assert len({tuple(j.argv for j in jl) for jl in lists}) == len(lists)


def test_job_list_does_not_depend_on_the_interpreter():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import jobs; "
            "print([j.argv for j in jobs.generate('lock-sim', 5, 40, jobs.load_reference())])")
    outputs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert outputs == {str([j.argv for j in jobs.generate("lock-sim", 5, 40, REFERENCE)]) + "\n"}


@pytest.mark.parametrize("pool, low, high", [("basins", 0.02, 0.08), ("verify", 0.01, 0.11)])
def test_job_parameters_come_from_continuous_ranges(pool, low, high):
    eps = sorted({e["params"]["eps"] for e in REFERENCE["pools"][pool]})
    assert len(eps) > 0.95 * len(REFERENCE["pools"][pool])
    assert low < eps[0] and eps[-1] < high
    assert max(np.diff(np.log(eps))) < 0.05 * np.log(high / low)  # no gap in job cost


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [20, 21, 99, 100, 120, 199, 200, 300, 1000, 10000])
def test_tail_percentile_leaves_ten_jobs_beyond(n):
    values = list(np.random.default_rng(n).permutation(n) * 0.001 + 0.1)
    p = run.tail_percentile(n)
    value = run.percentile(values, p)
    assert sum(1 for v in values if v > value) >= run.TAIL_BEYOND
    higher = [q for q in run.TAIL_LADDER if q > p]
    if higher:  # the next rung up would leave fewer than ten
        assert sum(1 for v in values if v > run.percentile(values, min(higher))) < run.TAIL_BEYOND


def test_too_few_jobs_for_a_tail_is_refused():
    with pytest.raises(run.BenchError):
        run.tail_percentile(19)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _probe(pool: str, fmt: str) -> jobs.Job:
    for job in jobs.probe_jobs("basin-raster", REFERENCE) + jobs.probe_jobs("lock-sim", REFERENCE):
        if job.pool == pool and job.fmt == fmt:
            return job
    raise LookupError((pool, fmt))


@pytest.fixture()
def produced(tmp_path, monkeypatch):
    """Run a probe job into a temporary directory; return the job and the directory."""
    monkeypatch.setenv("TRICLOCK_OUTDIR", str(tmp_path))
    from triclock import cli

    def make(pool: str, fmt: str) -> jobs.Job:
        job = _probe(pool, fmt)
        assert cli.main(list(job.argv)) == 0
        checks.check_job(job, jobs.reference_entry(job, REFERENCE), tmp_path, REFERENCE)
        return job

    return make, tmp_path


def _rejected(job, outdir) -> bool:
    try:
        checks.check_job(job, jobs.reference_entry(job, REFERENCE), outdir, REFERENCE)
    except checks.CheckError:
        return True
    return False


def test_check_rejects_one_flipped_label_in_csv(produced):
    make, outdir = produced
    job = make("basins", "csv")
    path = outdir / job.out
    text = path.read_text()
    i = text.index("upper")
    path.write_text(text[:i] + "lower" + text[i + 5:])
    assert _rejected(job, outdir)


def test_check_rejects_one_changed_iteration_count(produced):
    make, outdir = produced
    job = make("basins", "csv")
    path = outdir / job.out
    head, tail = path.read_text().split("\n\n")
    first, rest = tail.split(",", 1)
    path.write_text(head + "\n\n" + str(int(first) + 1) + "," + rest)
    assert _rejected(job, outdir)


def test_check_rejects_a_swapped_label_pair_in_binary(produced):
    # Swapping an upper and a lower cell keeps every count; only the reference catches it.
    make, outdir = produced
    job = make("basins", "bin")
    path = outdir / job.out
    data = bytearray(path.read_bytes())
    res = jobs.reference_entry(job, REFERENCE)["params"]["resolution"]
    labels = np.frombuffer(bytes(data[-5 * res * res:-4 * res * res]), dtype=np.uint8)
    start = len(data) - 5 * res * res
    up, low = int(np.flatnonzero(labels == 0)[0]), int(np.flatnonzero(labels == 1)[0])
    data[start + up], data[start + low] = 1, 0
    path.write_bytes(bytes(data))
    assert _rejected(job, outdir)


def test_check_rejects_a_truncated_binary(produced):
    make, outdir = produced
    job = make("basins", "bin")
    path = outdir / job.out
    path.write_bytes(path.read_bytes()[:-1])
    assert _rejected(job, outdir)


def test_check_rejects_a_recoloured_svg_cell(produced):
    make, outdir = produced
    job = make("basins", "svg")
    path = outdir / job.out
    text = path.read_text()
    i = text.index('fill="#dbe9f6"')
    path.write_text(text[:i] + 'fill="#fbe8d3"' + text[i + len('fill="#dbe9f6"'):])
    assert _rejected(job, outdir)


def test_check_rejects_a_missing_census_orbit(produced):
    make, outdir = produced
    job = make("verify", "json")
    path = outdir / job.out
    report = json.loads(path.read_text())
    report["census"]["orbits"].pop()
    path.write_text(json.dumps(report))
    assert _rejected(job, outdir)


def test_check_rejects_a_wrong_census_count_in_text(tmp_path):
    job = jobs.make_job(0, "verify", 0, REFERENCE["pools"]["verify"][0]["params"], "text")
    lines = [f"segment s{i} pass  max_deviation=0  monotone=True" for i in range(checks.N_SEGMENTS)]
    lines += ["heteroclinic census {'sa': 6, 'rs': 10, 'ra': 2} pass",
              "lyapunov upper pass  max_df=-1e-03  zero_set=7",
              "lyapunov lower pass  max_df=-1e-03  zero_set=7", "PASS"]
    (tmp_path / job.out).write_text("\n".join(lines) + "\n")
    assert not _rejected(job, tmp_path)
    lines[checks.N_SEGMENTS] = "heteroclinic census {'sa': 6, 'rs': 9, 'ra': 2} pass"
    (tmp_path / job.out).write_text("\n".join(lines) + "\n")
    assert _rejected(job, tmp_path)


def test_check_rejects_a_changed_fixed_point_class(produced):
    make, outdir = produced
    job = make("fixed-points", "json")
    path = outdir / job.out
    report = json.loads(path.read_text())
    report["fixed_points"][0]["kind"] = "repeller" if report["fixed_points"][0]["kind"] != "repeller" else "saddle"
    path.write_text(json.dumps(report))
    assert _rejected(job, outdir)


def test_check_rejects_a_changed_cycle_count(produced):
    make, outdir = produced
    job = make("simulate", "json")
    path = outdir / job.out
    report = json.loads(path.read_text())
    report["runs"][0]["cycles"] += 1
    path.write_text(json.dumps(report))
    assert _rejected(job, outdir)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_check_rejects_a_trace_missing_a_kick(produced, fmt):
    make, outdir = produced
    job = make("simulate-trace", fmt)
    path = outdir / job.trace_out
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert _rejected(job, outdir)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_runs_are_correct(runs):
    for (workload, trace), (line, detail) in runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, (workload, trace)
        assert detail["error_rate"] == 0.0
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_traced_and_untraced_runs_execute_the_same_list(runs):
    for workload in jobs.WORKLOADS:
        plain = [(r["index"], r["pool"], r["entry"], r["fmt"]) for r in runs[workload, 0][1]["records"]]
        traced = [(r["index"], r["pool"], r["entry"], r["fmt"])
                  for r in runs[workload, 1][1]["records"] if not r["probe"]]
        assert plain == traced
        assert len(plain) == jobs.job_count(workload, 1)


def test_tail_of_a_run_has_ten_jobs_beyond(runs):
    for workload in jobs.WORKLOADS:
        tail = runs[workload, 0][1]["tail"]
        assert tail["jobs_beyond"] >= run.TAIL_BEYOND and tail["jobs"] == jobs.job_count(workload, 1)


# The per-layer metrics each workload must measure through its own jobs.
OWN_METRICS = {
    "basin-raster": ("basin.rasterize_s", "basin.point_iters", "basin.ns_per_point_iter",
                     "basin.decided_ratio", "basin.write_s", "basin.write_bytes",
                     "render.portrait_s", "render.svg_bytes"),
    "analysis-verify": ("analysis.census_s", "analysis.census_samples", "analysis.census_us_per_sample",
                        "analysis.newton_s", "analysis.newton_converged_ratio",
                        "analysis.lyapunov_s", "analysis.invariance_s", "cli.self_s", "cli.out_bytes"),
    "lock-sim": ("events.lock_s", "events.cycles", "events.us_per_cycle", "events.locked_ratio",
                 "events.cycles_per_reported", "events.trace_write_s", "events.trace_bytes",
                 "cli.self_s", "cli.out_bytes"),
}


def test_every_per_layer_metric_is_emitted(runs):
    for workload in jobs.WORKLOADS:
        line, detail = runs[workload, 1]
        for name in run.PER_LAYER_UNITS:
            value = line["metrics"][name]["value"]
            assert isinstance(value, (int, float)) and value == value, (workload, name)
        for name in OWN_METRICS[workload]:
            assert detail["metric_sources"][name] == "workload", (workload, name)
    lock = runs["lock-sim", 1][0]["metrics"]
    # At the seed commit a trace job simulates its run twice.
    assert lock["events.cycles_per_reported"]["value"] == 2.0


def test_each_workload_isolates_its_layer(runs):
    main_layers = {"basin-raster": ("basin", "core"), "analysis-verify": ("analysis",), "lock-sim": ("events",)}
    for workload, layers in main_layers.items():
        share = runs[workload, 1][1]["layer_shares"]["share"]
        assert sum(share[layer] for layer in layers) > 0.5, (workload, share)
        assert share["cli"] < 0.15, (workload, share)
        # core is also the census's kernel, so it is not counted among the others.
        others = [layer for layer in spans.LAYERS if layer not in (*layers, "cli", "core")]
        assert all(share[layer] < 0.05 for layer in others), (workload, share)


def test_span_self_time_subtracts_children():
    parent = spans.Span(0, None, 1, "cli.main", 0, 100, total_ns=100)
    child = spans.Span(1, 0, 1, "basin.rasterize", 10, 80, total_ns=70)
    leaf = spans.Span(2, 1, 1, "core.three_clock_step", 12, 70, calls=5, items=50, total_ns=40)
    assert spans.self_times([parent, child, leaf]) == {0: 30, 1: 30, 2: 40}


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("lock-sim", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_instrumentation_restores_the_program():
    from triclock import basin, events

    originals = (basin.rasterize, basin.three_clock_step, events.run_cycle)
    inst = spans.Instrumentation(spans.Recorder())
    inst.install()
    assert basin.rasterize is not originals[0]
    inst.uninstall()
    assert (basin.rasterize, basin.three_clock_step, events.run_cycle) == originals


def test_pools_record_what_their_jobs_need():
    pools = REFERENCE["pools"]
    assert all(not any(e["expect"]["locked"]) for e in pools["simulate-n4"])
    assert all(all(e["expect"]["locked"]) for e in pools["simulate"])
    kinds = Counter(kind for _, _, kind in REFERENCE["fixed_point_kinds"])
    assert kinds == {"attractor": 2, "repeller": 4, "saddle": 5}
