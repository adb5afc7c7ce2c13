"""Record the job pools and their expected outputs in ``reference.json``.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

Pool parameters are drawn once, from a fixed seed, out of continuous ranges.
Each entry is then run through ``triclock.cli.main`` and its decoded output
is stored, so that the benchmark can check every job exactly without
recomputing it.  A 4-clock start that locks is drawn again, since that job
kind exists to run its full cycle budget; any other entry whose output fails
the benchmark's checks stops the recording.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402

POOL_SEED = 20261017
TWO_PI = 2.0 * math.pi

# Pool sizes: large enough that job lists of different seeds differ.
POOL_SIZES = {
    "basins": 360,
    "verify": 150,
    "fixed-points": 90,
    "simulate": 240,
    "simulate-n4": 48,
    "simulate-trace": 120,
}


def draw_params(pool: str, rng: random.Random) -> dict:
    if pool == "basins":
        return {"eps": round(rng.uniform(0.03, 0.08), 6), "resolution": rng.randint(48, 144)}
    if pool == "verify":
        return {"eps": round(math.exp(rng.uniform(math.log(0.01), math.log(0.11))), 6)}
    if pool == "fixed-points":
        return {"eps": round(rng.uniform(0.01, 0.11), 6), "seed_grid": rng.randint(16, 72)}
    if pool == "simulate":
        return {"eps": round(rng.uniform(0.015, 0.1), 6), "starts": rng.randint(1, 3),
                "seed": rng.randrange(10**6)}
    if pool == "simulate-n4":
        return {"eps": 0.02, "seed": rng.randrange(10**6), "max_cycles": 2000}
    if pool == "simulate-trace":
        phases = sorted(round(rng.uniform(0.05, TWO_PI - 0.05), 4) for _ in range(2))
        return {"eps": round(rng.uniform(0.02, 0.1), 6), "phases": [0.0] + phases}
    raise ValueError(pool)


def record(pool: str, params: dict, outdir: Path) -> dict | None:
    """Run one entry and return its expected output, or None to draw again."""
    from triclock import cli

    fmt = {"basins": "bin", "verify": "json", "simulate-trace": "jsonl"}.get(pool, "json")
    job = jobs.make_job(0, pool, 0, params, fmt)
    rc = cli.main(list(job.argv))
    if rc != 0:
        return None
    out = outdir / job.out
    if pool == "basins":
        labels, iters = checks.decode_basin_binary(out, params["resolution"], params["eps"])
        summary = checks.grid_summary(labels, iters)
        counts = summary["counts"]
        if counts["unresolved"] or counts["upper"] != counts["lower"]:
            return None
        return summary
    report = json.loads(out.read_text(encoding="utf-8"))
    if pool == "verify":
        if not report["passed"] or report["census"]["counts"] != checks.EXPECTED_CENSUS:
            return None
        return {"orbit_lengths": [o["length"] for o in report["census"]["orbits"]]}
    if pool == "fixed-points":
        return {"unconverged": len(report["unconverged_seeds"]), "kinds": _kinds_by_known_point(report)}
    runs = report["runs"]
    expect = {"cycles": [r["cycles"] for r in runs], "locked": [r["locked"] for r in runs]}
    if pool == "simulate-n4":
        return None if any(expect["locked"]) else expect
    if not all(r["locked"] and r["near_splay"] for r in runs):
        return None
    return expect


def _kinds_by_known_point(report: dict) -> list:
    """[x, y, kind] for each known fixed point, in the order of known_fixed_points()."""
    from triclock.analysis import known_fixed_points

    out = []
    for x, y in known_fixed_points().tolist():
        near = [r["kind"] for r in report["fixed_points"]
                if max(abs(r["location"][0] - x), abs(r["location"][1] - y)) < 1e-9]
        out.append([x, y, near[0] if len(near) == 1 else None])
    return out


PROBES = [
    ("basins", {"eps": 0.06, "resolution": 40}, "csv", ["basin"]),
    ("basins", {"eps": 0.06, "resolution": 40}, "bin", ["basin"]),
    ("basins", {"eps": 0.06, "resolution": 40}, "svg", ["basin", "render"]),
    ("verify", {"eps": 0.1}, "json", ["analysis"]),
    ("fixed-points", {"eps": 0.1, "seed_grid": 24}, "json", ["analysis"]),
    ("simulate", {"eps": 0.08, "starts": 2, "seed": 1}, "json", ["events"]),
    ("simulate-trace", {"eps": 0.08, "phases": [0.0, 2.0, 4.5]}, "jsonl", ["events"]),
    ("simulate-trace", {"eps": 0.08, "phases": [0.0, 2.0, 4.5]}, "csv", ["events"]),
]


def main() -> int:
    import numpy as np

    outdir = ROOT / ".perfbench_out" / "make-reference"
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ["TRICLOCK_OUTDIR"] = str(outdir)
    rng = random.Random(POOL_SEED)
    pools: dict[str, list[dict]] = {}
    kinds = None
    try:
        for pool, size in POOL_SIZES.items():
            entries = []
            while len(entries) < size:
                params = draw_params(pool, rng)
                expect = record(pool, params, outdir)
                if expect is None and pool == "simulate-n4":
                    continue
                if expect is None:
                    raise SystemExit(f"{pool} {params} fails its check at this commit")
                if pool == "fixed-points":
                    if kinds is None:
                        kinds = expect["kinds"]
                    if expect.pop("kinds") != kinds:
                        raise SystemExit(f"fixed-point classes depend on {params}")
                entries.append({"params": params, "expect": expect})
            pools[pool] = entries
            print(f"{pool}: {size} entries", file=sys.stderr)
        probes = []
        for pool, params, fmt, layers in PROBES:
            expect = record(pool, params, outdir)
            if expect is None:
                raise SystemExit(f"probe {pool} {params} is not a valid reference job")
            expect.pop("kinds", None)
            probes.append({"pool": pool, "params": params, "fmt": fmt, "layers": layers, "expect": expect})
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    reference = {
        "pool_seed": POOL_SEED,
        "recorded_with": {"python": sys.version.split()[0], "numpy": np.__version__},
        "fixed_point_kinds": kinds,
        "probes": probes,
        "pools": pools,
    }
    text = json.dumps(reference, separators=(",", ":"))
    jobs.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {jobs.REFERENCE_PATH} ({len(text)} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
