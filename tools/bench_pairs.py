"""Benchmark two checkouts in alternating pairs and write a ``BENCH_*.json``.

Run from anywhere:

    python3 tools/bench_pairs.py BASE_DIR CHANGE_DIR OUT_JSON \\
        [--workloads basin-raster,analysis-verify,lock-sim] [--seed 7919] \\
        [--pairs 10] [--seconds 20] [--claim WORKLOAD/METRIC]

Before the first pair, ``python3 -m compileall -q src`` runs in both
checkouts with the interpreter that runs this script and the benchmark, so
both start from bytecode caches of their own sources (a cache left on one
side only skews the start-up metrics); standard error says so.  Each pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in BASE_DIR and once in CHANGE_DIR; the pair's order
alternates (base first in even pairs, change first in odd ones) and the
workloads take turns inside each pair, so a drift in host speed falls on
both sides alike.  OUT_JSON gets, per workload and end-to-end metric, the
per-pair values of both sides, their medians and quartiles, and how many
pairs the change won; plus each run's correctness counts, the machine
facts and the ``src/`` line count of both checkouts, as ``run.py`` records
them in ``.perfbench_out/``.  It also gets the host's two-process parallel
ratio, measured before the first pair and after the last: the wall time of
two forked pure-Python spinners over that of one, about 1.0 while the host
runs two processes in parallel and 2.0 while they share one core, so a
claim that rests on the second core shows which state the host was in.
Progress goes to standard error.

The end-to-end metrics, their direction and their bounds come from
BASE_DIR's ``BENCHMARK.json``, which is only read.  Standard output gets
one verdict per workload and metric: ``worse`` when the change's median is
worse than the base's by more than the bound (a share of the base's
median), ``unresolved`` when the base's own quartile spread is wider than
the bound and not every change run beats every base run, ``ok``
otherwise.  With ``--claim WORKLOAD/METRIC`` it also gets whether that
claim holds: the change better in at least 9 of 10 pairs (ties count for
neither) and its median better than the base's by more than the base's
quartile spread.  OUT_JSON keeps the same lines under ``verdicts``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result line plus its recorded facts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = checkout / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    result["facts"] = json.loads(record.read_text(encoding="utf-8"))["facts"]
    return result


def compile_sources(checkout: Path) -> None:
    """Write the bytecode caches of ``checkout``'s ``src`` tree with this interpreter."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def _spinners(count: int, loops: int) -> float:
    """Wall seconds for ``count`` forked children that each count to ``loops``."""
    start = perf_counter()
    pids = []
    for _ in range(count):
        pid = os.fork()
        if pid == 0:
            try:
                n = 0
                while n < loops:
                    n += 1
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return perf_counter() - start


def parallel_ratio(rounds: int = 7, loops: int = 2_000_000) -> dict:
    """Two spinners' time over one's, per round (alternating which runs first), and the median."""
    ratios = []
    for i in range(rounds):
        times = {count: _spinners(count, loops) for count in ((1, 2) if i % 2 == 0 else (2, 1))}
        ratios.append(times[2] / times[1])
    return {"median": statistics.median(ratios), "rounds": ratios}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3]}


def _better(metric: dict, a: float, b: float) -> bool:
    """Whether value ``a`` is strictly better than ``b`` for ``metric``."""
    return a < b if metric["better"] == "lower" else a > b


def regression_verdicts(report: dict, end_to_end: list[dict]) -> list[str]:
    """One line per workload and end-to-end metric: ok, worse or unresolved."""
    lines = []
    for workload, entry in report["workloads"].items():
        for metric in end_to_end:
            values = entry[metric["name"]]
            base, change = values["base"]["median"], values["change"]["median"]
            q1, q3 = values["base"]["quartiles"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (change - base) / base
            spread = (q3 - q1) / base
            runs = values["per_pair"]
            every_run_better = all(_better(metric, c, b) for c in runs["change"] for b in runs["base"])
            if worse_by > metric["bound"]:
                verdict = "worse"
            elif spread > metric["bound"] and not every_run_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"{workload} {metric['name']}: {base:.4g} -> {change:.4g} {metric['unit']} "
                f"({(change - base) / base:+.1%}; may worsen by {metric['bound']:.0%}, base "
                f"spread {spread:.1%}): {verdict}"
            )
    return lines


def claim_verdict(report: dict, workload: str, metric: dict) -> str:
    """Whether the change won ``metric`` on ``workload`` by the pairs rule."""
    values = report["workloads"][workload][metric["name"]]
    runs = values["per_pair"]
    pairs = len(runs["base"])
    wins = sum(_better(metric, c, b) for b, c in zip(runs["base"], runs["change"]))
    needed = math.ceil(0.9 * pairs)
    base, change = values["base"]["median"], values["change"]["median"]
    q1, q3 = values["base"]["quartiles"]
    holds = wins >= needed and _better(metric, change, base) and abs(change - base) > q3 - q1
    return (
        f"claim {workload}/{metric['name']}: change better in {wins}/{pairs} pairs (need "
        f"{needed}); median {base:.4g} -> {change:.4g} {metric['unit']} ({change / base:.3f}x), "
        f"gap {abs(change - base):.4g} against base quartile spread {q3 - q1:.4g}: "
        f"{'holds' if holds else 'NOT MET'}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--workloads", default="basin-raster,analysis-verify,lock-sim")
    parser.add_argument("--seed", type=int, default=7919)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="also judge this claimed gain by the pairs rule")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workloads.split(",")
    benchmark = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = benchmark["end_to_end"]
    claimed = None
    if args.claim is not None:
        claim_workload, _, name = args.claim.partition("/")
        claimed = next((m for m in end_to_end if m["name"] == name), None)
        if claim_workload not in workloads or claimed is None:
            parser.error(f"--claim {args.claim!r}: expected WORKLOAD/METRIC with a workload of "
                         f"--workloads and a metric of {', '.join(m['name'] for m in end_to_end)}")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        compile_sources(checkout)
    print(f"compiled src in both checkouts with {sys.executable} -m compileall", file=sys.stderr)
    parallel = {"before": parallel_ratio()}
    print(f"host parallel ratio before: {parallel['before']['median']:.3f}", file=sys.stderr)
    runs: dict[str, dict[str, list[dict]]] = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, args.seed, args.seconds)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: wall_s {result['metrics']['wall_s']['value']:.3f}"
                      f" correct {result['correct']} failed {result['failed']}", file=sys.stderr)
    parallel["after"] = parallel_ratio()
    print(f"host parallel ratio after: {parallel['after']['median']:.3f}", file=sys.stderr)

    report: dict = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "base first in even pairs, change first in odd pairs",
        "machine": runs[workloads[0]]["base"][0]["facts"]["machine"],
        "host_parallel_ratio": parallel,
        "src_lines": {side: runs[workloads[0]][side][0]["facts"]["code"]["src_lines"]
                      for side in sides},
        "workloads": {},
    }
    for workload in workloads:
        entry: dict = {
            side: {
                "correct": all(r["correct"] for r in runs[workload][side]),
                "attempted": [r["attempted"] for r in runs[workload][side]],
                "failed": [r["failed"] for r in runs[workload][side]],
            }
            for side in sides
        }
        for name in (m["name"] for m in end_to_end):
            base = [r["metrics"][name]["value"] for r in runs[workload]["base"]]
            change = [r["metrics"][name]["value"] for r in runs[workload]["change"]]
            entry[name] = {
                "unit": runs[workload]["base"][0]["metrics"][name]["unit"],
                "base": summary(base),
                "change": summary(change),
                "change_lower_in_pairs": sum(c < b for b, c in zip(base, change)),
                "per_pair": {"base": base, "change": change},
            }
        report["workloads"][workload] = entry
    report["verdicts"] = regression_verdicts(report, end_to_end)
    if claimed is not None:
        report["verdicts"].append(claim_verdict(report, claim_workload, claimed))
    print("\n".join(report["verdicts"]))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
