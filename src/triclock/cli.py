"""Command-line front end.

Subcommands: ``step``, ``fixed-points``, ``basins``, ``simulate``,
``verify``, ``andronov``, ``portrait``.  Values resolve in the order
command line > config file (flat ``key = value`` lines) > built-in
default.  Exit codes: 0 success, 1 I/O or check failure, 2 usage or
validation failure.  ``TRICLOCK_OUTDIR`` redirects relative output
paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import analysis, basin, events, render
from .core import (
    CouplingParams,
    TWO_PI,
    andronov_fixed_point,
    andronov_step,
)

__all__ = ["main"]

_ENV_OUTDIR = "TRICLOCK_OUTDIR"


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 2."""


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


class _Settings:
    """Layered lookup: parsed args, then config file, then defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.cfg = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, cast: Callable[[str], Any], default: Any = None) -> Any:
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            return value
        if name in self.cfg:
            try:
                return cast(self.cfg[name])
            except ValueError as exc:
                raise UsageError(f"config key {name!r}: {exc}") from exc
        return default

    def require(self, name: str, cast: Callable[[str], Any]) -> Any:
        value = self.get(name, cast)
        if value is None:
            raise UsageError(f"missing required value for --{name}")
        return value


def _analysis_params(settings: _Settings) -> CouplingParams:
    params = CouplingParams(epsilon=settings.require("eps", float))
    params.require_analysis_range()
    return params


def _open_out(settings: _Settings, binary: bool = False):
    path = settings.get("out", str)
    if path is None or path == "-":
        return (sys.stdout.buffer if binary else sys.stdout), False
    return open(_out_path(path), "wb" if binary else "w", encoding=None if binary else "utf-8"), True


def _out_path(path: str) -> Path:
    """Put a relative output path under ``TRICLOCK_OUTDIR`` and create its directory."""
    p = Path(path)
    outdir = os.environ.get(_ENV_OUTDIR)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(settings: _Settings, text: str) -> None:
    stream, close = _open_out(settings)
    try:
        stream.write(text)
    finally:
        if close:
            stream.close()


def _maybe_radians(value: float, settings: _Settings) -> float:
    if getattr(settings.args, "deg", False):
        return math.radians(value)
    return value


def _json_dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def _cmd_step(settings: _Settings) -> int:
    params = _analysis_params(settings)
    x = _maybe_radians(settings.require("x", float), settings)
    y = _maybe_radians(settings.require("y", float), settings)
    count = settings.get("count", int, 1)
    if count < 1:
        raise UsageError("-n must be at least 1")
    line = basin.orbit((x, y), params, count)
    fmt = settings.get("format", str, "csv")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "y"])
        for p in line[1:]:
            writer.writerow([repr(float(p[0])), repr(float(p[1]))])
        _emit(settings, buf.getvalue())
    elif fmt == "json":
        _emit(settings, _json_dumps({"orbit": [[float(p[0]), float(p[1])] for p in line[1:]]}))
    else:
        raise UsageError(f"step cannot emit format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------

def _cmd_fixed_points(settings: _Settings) -> int:
    params = _analysis_params(settings)
    seed_grid = settings.get("seed-grid", int, 50)
    tol = settings.get("tol", float, 1e-12)
    search = analysis.find_fixed_points(seed_grid=seed_grid, tol=tol, params=params)
    fmt = settings.get("format", str, "json")
    if fmt == "json":
        payload = {
            "epsilon": params.epsilon,
            "fixed_points": [rec.to_dict() for rec in search.records],
            "unconverged_seeds": [[float(v) for v in s] for s in search.unconverged_seeds],
        }
        _emit(settings, _json_dumps(payload))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "y", "eig_1", "eig_2", "class"])
        for rec in search.records:
            writer.writerow(
                [
                    repr(float(rec.location[0])),
                    repr(float(rec.location[1])),
                    repr(float(rec.eigenvalues[0])),
                    repr(float(rec.eigenvalues[1])),
                    rec.kind,
                ]
            )
        _emit(settings, buf.getvalue())
    else:
        raise UsageError(f"fixed-points cannot emit format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# basins
# ---------------------------------------------------------------------------

def _cmd_basins(settings: _Settings) -> int:
    params = _analysis_params(settings)
    resolution = settings.get("resolution", int, 200)
    tol = settings.get("tol", float, 1e-6)
    max_iter = settings.get("max-iter", int)
    workers = settings.get("workers", int, 1)
    grid = basin.rasterize(resolution, params, tol=tol, max_iter=max_iter, workers=workers)
    fmt = settings.get("format", str, "csv")
    if fmt == "csv":
        buf = io.StringIO()
        basin.write_grid_csv(grid, buf)
        _emit(settings, buf.getvalue())
    elif fmt == "bin":
        stream, close = _open_out(settings, binary=True)
        try:
            basin.write_grid_binary(grid, stream)
        finally:
            if close:
                stream.close()
    elif fmt == "svg":
        fps = [analysis.classify(p, params) for p in analysis.known_fixed_points()]
        spec = render.PortraitSpec(layers=("basin_background", "fixed_points"))
        _emit(settings, render.render_portrait(spec, grid=grid, fixed_points=fps))
    else:
        raise UsageError(f"basins cannot emit format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _orientation(differences: np.ndarray) -> str | None:
    if differences.size != 2:
        return None
    x, y = float(differences[0]), float(differences[1])
    if x < y:
        return "counterclockwise"
    if x > y:
        return "clockwise"
    return None


def _run_one(
    phases: np.ndarray,
    params: CouplingParams,
    tol: float,
    max_cycles: int,
    splay_tol: float,
    record: bool,
) -> tuple[dict, tuple[events.KickEvent, ...]]:
    ensemble = events.ClockEnsemble(phases, params)
    result = events.run_until_locked(ensemble, tol=tol, max_cycles=max_cycles, record=record)
    # Splay is measured on kick timing: in a locked splay state the kicks are
    # equally spaced within the cycle, while the phase snapshot keeps an
    # O(eps) offset from the received kicks.
    splay_distance = float(np.max(np.abs(result.firing_gaps - TWO_PI / ensemble.n)))
    return {
        "start_phases": [float(v) for v in phases],
        "final_phases": [float(v) for v in result.ensemble.phases],
        "differences": [float(v) for v in result.differences],
        "gaps": [float(v) for v in result.gaps],
        "firing_gaps": [float(v) for v in result.firing_gaps],
        "period": float(result.period),
        "cycles": result.cycles,
        "locked": result.locked,
        "splay_distance": splay_distance,
        "near_splay": bool(splay_distance < splay_tol),
        "orientation": _orientation(result.differences),
    }, result.events


def _cmd_simulate(settings: _Settings) -> int:
    eps = settings.require("eps", float)
    params = CouplingParams(epsilon=eps)
    n = settings.get("n-clocks", int, 3)
    if n < 2:
        raise UsageError("--n-clocks must be at least 2")
    tol = settings.get("tol", float, 1e-8)
    max_cycles = settings.get("max-cycles", int, 2000)
    splay_tol = settings.get("splay-tol", float, 1e-3)
    phases_text = settings.get("phases", str)
    random_starts = settings.get("random-starts", int)
    trace_out = settings.get("trace-out", str)

    starts: list[np.ndarray] = []
    if phases_text is not None and random_starts is not None:
        raise UsageError("give either --phases or --random-starts, not both")
    if phases_text is not None:
        values = [float(v) for v in phases_text.split(",")]
        if len(values) != n:
            raise UsageError(f"--phases lists {len(values)} values for {n} clocks")
        values = [_maybe_radians(v, settings) for v in values]
        starts.append(np.asarray(values))
    else:
        count = 1 if random_starts is None else random_starts
        if count < 1:
            raise UsageError("--random-starts must be at least 1")
        rng = np.random.default_rng(settings.get("seed", int, 0))
        while len(starts) < count:
            psi = np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, size=n - 1)))
            if np.unique(psi).size == n:  # interior start: all phases distinct
                starts.append(psi)

    record = trace_out is not None
    if record and len(starts) != 1:
        raise UsageError("--trace-out needs a single-start run")
    if record and Path(trace_out).suffix not in (".jsonl", ".csv"):
        raise UsageError(f"--trace-out {trace_out!r} must end in .jsonl or .csv")

    outcomes = [_run_one(psi, params, tol, max_cycles, splay_tol, record) for psi in starts]
    runs = [run for run, _ in outcomes]

    if record:
        with open(_out_path(trace_out), "w", encoding="utf-8") as fh:
            if trace_out.endswith(".csv"):
                events.write_events_csv(outcomes[0][1], fh, n)
            else:
                events.write_events_jsonl(outcomes[0][1], fh)

    orientations: dict[str, int] = {}
    for run in runs:
        key = run["orientation"]
        if key is not None and run["near_splay"]:
            orientations[key] = orientations.get(key, 0) + 1
    report = {
        "n_clocks": n,
        "epsilon": eps,
        "tol": tol,
        "max_cycles": max_cycles,
        "splay_tol": splay_tol,
        "splay_gap": TWO_PI / n,
        "runs": runs,
        "summary": {
            "runs": len(runs),
            "locked": sum(1 for r in runs if r["locked"]),
            "near_splay_fraction": sum(1 for r in runs if r["near_splay"]) / len(runs),
            "orientations": orientations,
        },
    }
    fmt = settings.get("format", str, "json")
    if fmt == "json":
        _emit(settings, _json_dumps(report))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cycles", "locked", "near_splay", "splay_distance", "differences"])
        for run in runs:
            writer.writerow(
                [
                    run["cycles"],
                    run["locked"],
                    run["near_splay"],
                    repr(run["splay_distance"]),
                    " ".join(repr(v) for v in run["differences"]),
                ]
            )
        _emit(settings, buf.getvalue())
    else:
        raise UsageError(f"simulate cannot emit format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(settings: _Settings) -> int:
    params = _analysis_params(settings)
    samples = settings.get("samples", int, 1000)
    grid = settings.get("grid", int, 300)

    segment_checks = [
        analysis.verify_invariance(seg, params, samples=samples)
        for seg in analysis.invariant_segments()
    ]
    census = analysis.heteroclinic_census(params)
    scans = [
        analysis.orbital_derivative_scan(region, params, grid=grid)
        for region in ("upper", "lower")
    ]
    census_ok = (
        census.counts.get("sa", 0) == 6
        and census.counts.get("rs", 0) == 10
        and census.counts.get("ra", 0) >= 2
    )
    passed = all(c.passed for c in segment_checks) and census_ok and all(s.passed for s in scans)
    report = {
        "epsilon": params.epsilon,
        "segments": [c.to_dict() for c in segment_checks],
        "census": {
            "counts": census.counts,
            "orbits": [
                {
                    "source": [float(v) for v in orb.source.location],
                    "target": [float(v) for v in orb.target.location],
                    "kind": orb.kind,
                    "length": int(orb.samples.shape[0]),
                }
                for orb in census.orbits
            ],
        },
        "lyapunov": [s.to_dict() | {"zero_set": len(s.zero_set)} for s in scans],
        "passed": passed,
    }
    fmt = settings.get("format", str, "text")
    if fmt == "json":
        _emit(settings, _json_dumps(report))
    elif fmt == "text":
        lines = [f"epsilon = {params.epsilon}"]
        for check in segment_checks:
            lines.append(
                f"segment {check.name:<10} {'pass' if check.passed else 'FAIL'}"
                f"  max_deviation={check.max_deviation:.3e}  monotone={check.monotone}"
            )
        lines.append(f"heteroclinic census {census.counts} {'pass' if census_ok else 'FAIL'}")
        for scan in scans:
            lines.append(
                f"lyapunov {scan.region:<5} {'pass' if scan.passed else 'FAIL'}"
                f"  max_df={scan.max_df:.3e}  zero_set={len(scan.zero_set)}"
            )
        lines.append("PASS" if passed else "FAIL")
        _emit(settings, "\n".join(lines) + "\n")
    else:
        raise UsageError(f"verify cannot emit format {fmt!r}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# andronov
# ---------------------------------------------------------------------------

def _cmd_andronov(settings: _Settings) -> int:
    mu = settings.get("mu", float, 0.1)
    h = settings.get("h", float, 1.0)
    v0 = settings.require("v0", float)
    steps = settings.get("steps", int, 200)
    if steps < 0:
        raise UsageError("--steps must be non-negative")
    params = CouplingParams(epsilon=0.0, mu=mu, h=h)
    if v0 <= 4.0 * mu:
        raise UsageError(
            f"v0={v0} is outside the limit-cycle basin (requires v0 > 4*mu = {4.0 * mu})"
        )
    vf = andronov_fixed_point(params)
    rows = []
    v = v0
    for k in range(steps + 1):
        rows.append((k, v, v - vf))
        if k < steps:
            v = andronov_step(v, params)
    fmt = settings.get("format", str, "csv")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "v", "v_minus_fixed_point"])
        for k, value, gap in rows:
            writer.writerow([k, repr(value), repr(gap)])
        _emit(settings, buf.getvalue())
    elif fmt == "json":
        _emit(
            settings,
            _json_dumps(
                {
                    "mu": mu,
                    "h": h,
                    "fixed_point": vf,
                    "rows": [[k, value, gap] for k, value, gap in rows],
                }
            ),
        )
    else:
        raise UsageError(f"andronov cannot emit format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# portrait
# ---------------------------------------------------------------------------

_SAMPLE_ORBIT_SEEDS = (
    (0.9, 2.1),
    (0.9, 5.0),
    (2.6, 5.8),
    (5.0, 5.9),
    (2.1, 0.9),
    (5.0, 0.9),
    (5.8, 2.6),
    (5.9, 5.0),
)


def _cmd_portrait(settings: _Settings) -> int:
    params = _analysis_params(settings)
    layer_text = settings.get(
        "layers", str, "basin_background,invariant_segments,heteroclinics,fixed_points"
    )
    layers = tuple(name.strip() for name in layer_text.split(",") if name.strip())
    spec = render.PortraitSpec(layers=layers)
    resolution = settings.get("resolution", int, 160)

    grid = None
    if "basin_background" in layers:
        grid = basin.rasterize(resolution, params)
    segments = analysis.invariant_segments() if "invariant_segments" in layers else None
    heteroclinics = None
    if "heteroclinics" in layers:
        heteroclinics = analysis.heteroclinic_census(params).orbits
    fixed_points = None
    if "fixed_points" in layers:
        fixed_points = [analysis.classify(p, params) for p in analysis.known_fixed_points()]
    orbits = None
    if "sample_orbits" in layers:
        length = analysis.default_max_iterations(params)
        orbits = [basin.orbit(seed, params, length) for seed in _SAMPLE_ORBIT_SEEDS]

    _emit(
        settings,
        render.render_portrait(
            spec,
            grid=grid,
            segments=segments,
            heteroclinics=heteroclinics,
            fixed_points=fixed_points,
            orbits=orbits,
        ),
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value settings file")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", help="output format")
    sub.add_argument("--eps", type=float, help="coupling strength")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triclock",
        description="Analyze the phase-difference dynamics of impact-coupled clocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("step", help="iterate the three-clock map from a point")
    _add_common(p)
    p.add_argument("--x", type=float, help="first phase difference (radians)")
    p.add_argument("--y", type=float, help="second phase difference (radians)")
    p.add_argument("-n", "--count", type=int, dest="count", help="number of iterates")
    p.add_argument("--deg", action="store_true", help="interpret --x/--y in degrees")
    p.set_defaults(handler=_cmd_step)

    p = sub.add_parser("fixed-points", help="find and classify all fixed points")
    _add_common(p)
    p.add_argument("--seed-grid", type=int, dest="seed_grid", help="seeds per side")
    p.add_argument("--tol", type=float, help="residual tolerance")
    p.set_defaults(handler=_cmd_fixed_points)

    p = sub.add_parser("basins", help="rasterize the basins of attraction")
    _add_common(p)
    p.add_argument("--resolution", type=int, help="cells per side")
    p.add_argument("--tol", type=float, help="attractor capture tolerance")
    p.add_argument("--max-iter", type=int, dest="max_iter", help="iteration budget per cell")
    p.add_argument("--workers", type=int, help="worker threads (same output for any count)")
    p.set_defaults(handler=_cmd_basins)

    p = sub.add_parser("simulate", help="event-driven simulation of N clocks")
    _add_common(p)
    p.add_argument("--n-clocks", type=int, dest="n_clocks", help="number of clocks")
    p.add_argument("--phases", help="comma-separated start phases (reference first)")
    p.add_argument("--random-starts", type=int, dest="random_starts", help="number of random starts")
    p.add_argument("--seed", type=int, help="random seed for --random-starts")
    p.add_argument("--tol", type=float, help="lock tolerance on difference movement")
    p.add_argument("--max-cycles", type=int, dest="max_cycles", help="cycle budget per run")
    p.add_argument("--splay-tol", type=float, dest="splay_tol", help="near-splay threshold")
    p.add_argument("--trace-out", dest="trace_out", help="write kick events (.jsonl or .csv)")
    p.add_argument("--deg", action="store_true", help="interpret --phases in degrees")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="invariance, census, and Lyapunov checks")
    _add_common(p)
    p.add_argument("--samples", type=int, help="samples per segment")
    p.add_argument("--grid", type=int, help="Lyapunov lattice per side")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("andronov", help="escapement return-map convergence table")
    _add_common(p)
    p.add_argument("--mu", type=float, help="dry friction coefficient")
    p.add_argument("--h", type=float, help="energy-kick velocity scale")
    p.add_argument("--v0", type=float, help="initial section velocity")
    p.add_argument("--steps", type=int, help="iterations to tabulate")
    p.set_defaults(handler=_cmd_andronov)

    p = sub.add_parser("portrait", help="layered SVG phase portrait")
    _add_common(p)
    p.add_argument("--layers", help="comma-separated layer names")
    p.add_argument("--resolution", type=int, help="background raster per side")
    p.set_defaults(handler=_cmd_portrait)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _Settings(args)
        return args.handler(settings)
    except UsageError as exc:
        print(f"triclock: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"triclock: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"triclock: failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"triclock: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
