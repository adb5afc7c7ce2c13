"""Benchmark two checkouts in alternating pairs and write a ``BENCH_*.json``.

Run from anywhere:

    python3 tools/bench_pairs.py BASE_DIR CHANGE_DIR OUT_JSON \\
        [--workloads basin-raster,analysis-verify,lock-sim] [--seed 7919] \\
        [--pairs 10] [--seconds 20]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in BASE_DIR and once in CHANGE_DIR; the pair's order
alternates (base first in even pairs, change first in odd ones) and the
workloads take turns inside each pair, so a drift in host speed falls on
both sides alike.  OUT_JSON gets, per workload and end-to-end metric, the
per-pair values of both sides, their medians and quartiles, and how many
pairs the change won; plus each run's correctness counts, the machine
facts and the ``src/`` line count of both checkouts, as ``run.py`` records
them in ``.perfbench_out/``.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb")


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


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--workloads", default="basin-raster,analysis-verify,lock-sim")
    parser.add_argument("--seed", type=int, default=7919)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workloads.split(",")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs: dict[str, dict[str, list[dict]]] = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, args.seed, args.seconds)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: wall_s {result['metrics']['wall_s']['value']:.3f}"
                      f" correct {result['correct']} failed {result['failed']}", file=sys.stderr)

    report: dict = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "base first in even pairs, change first in odd pairs",
        "machine": runs[workloads[0]]["base"][0]["facts"]["machine"],
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
        for name in METRICS:
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
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
