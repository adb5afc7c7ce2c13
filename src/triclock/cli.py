"""Command-line front end.

Subcommands: ``step``, ``fixed-points``, ``basins``, ``simulate``,
``verify``, ``andronov``, ``portrait``.  Values resolve in the order
command line > config file (flat ``key = value`` lines) > built-in
default; a config file may set any of the subcommand's options except
``--config``, by its long name, and no other key.  Exit codes: 0
success, 1 I/O or check failure, 2 usage or validation failure.
``TRICLOCK_OUTDIR`` redirects relative output paths.

Each subcommand declares its output formats once, default first.  ``main``
resolves ``--format`` and rejects an unknown one before the handler does
any work; the handler returns one writer per format, and one function
(``_write``) puts the chosen one on stdout or ``--out``, and a kick trace
on ``--trace-out``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import IO, Any, Callable, Iterable

import numpy as np

from . import analysis, basin, events, render
from .core import (
    CouplingParams,
    TWO_PI,
    andronov_fixed_point,
    andronov_step,
    default_max_iterations,
    json_data,
)

__all__ = ["main"]

_ENV_OUTDIR = "TRICLOCK_OUTDIR"


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


class _Settings:
    """Layered lookup: parsed args, then config file, then defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.cfg = _read_config(args.config) if args.config else {}
        unknown = sorted(self.cfg.keys() - args.config_keys)
        if unknown:
            raise ValueError(
                f"config file {args.config}: unknown key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(map(repr, unknown))} for {args.command} "
                f"(keys: {', '.join(sorted(args.config_keys))})"
            )

    def get(self, name: str, cast: Callable[[str], Any], default: Any = None) -> Any:
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            return value
        if name in self.cfg:
            try:
                return cast(self.cfg[name])
            except ValueError as exc:
                raise ValueError(f"config key {name!r}: {exc}") from exc
        return default

    def require(self, name: str, cast: Callable[[str], Any]) -> Any:
        value = self.get(name, cast)
        if value is None:
            raise ValueError(f"missing required value for --{name}")
        return value


def _analysis_params(settings: _Settings) -> CouplingParams:
    params = CouplingParams(epsilon=settings.require("eps", float))
    params.require_analysis_range()
    return params


# A writer puts one output format onto an open stream; each handler returns
# one writer per format its subcommand declares, plus the exit code.
Writer = Callable[[IO], None]
Report = tuple[dict[str, Writer], int]


def _write(path: str | None, write: Writer, binary: bool = False) -> None:
    """Run ``write`` on stdout (no path, or ``-``) or on the file at ``path``.

    A relative path lands under ``TRICLOCK_OUTDIR`` when that is set, and
    the file's directory is created.
    """
    if path is None or path == "-":
        write(sys.stdout.buffer if binary else sys.stdout)
        return
    target = Path(path)
    outdir = os.environ.get(_ENV_OUTDIR)
    if outdir and not target.is_absolute():
        target = Path(outdir) / target
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
        write(fh)


def _json(obj: Any) -> Writer:
    return lambda stream: stream.write(json.dumps(obj, indent=2) + "\n")


def _csv(header: list[str], rows: Iterable[list]) -> Writer:
    def write(stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    return write


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _maybe_radians(value: float, settings: _Settings) -> float:
    if settings.get("deg", _boolean, False):
        return math.radians(value)
    return value


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def _cmd_step(settings: _Settings) -> Report:
    params = _analysis_params(settings)
    x = _maybe_radians(settings.require("x", float), settings)
    y = _maybe_radians(settings.require("y", float), settings)
    count = settings.get("count", int, 1)
    if count < 1:
        raise ValueError("-n must be at least 1")
    line = basin.orbit((x, y), params, count)[1:].tolist()
    return {
        "csv": _csv(["x", "y"], ([repr(a), repr(b)] for a, b in line)),
        "json": _json({"orbit": line}),
    }, 0


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------

def _cmd_fixed_points(settings: _Settings) -> Report:
    params = _analysis_params(settings)
    seed_grid = settings.get("seed-grid", int, 50)
    tol = settings.get("tol", float, 1e-12)
    search = analysis.find_fixed_points(seed_grid=seed_grid, tol=tol, params=params)
    payload = {
        "epsilon": params.epsilon,
        "fixed_points": json_data(search.records),
        "unconverged_seeds": search.unconverged_seeds.tolist(),
    }
    rows = (
        [repr(float(v)) for v in (*rec.location, *rec.eigenvalues)] + [rec.kind]
        for rec in search.records
    )
    return {
        "json": _json(payload),
        "csv": _csv(["x", "y", "eig_1", "eig_2", "class"], rows),
    }, 0


# ---------------------------------------------------------------------------
# basins
# ---------------------------------------------------------------------------

def _cmd_basins(settings: _Settings) -> Report:
    params = _analysis_params(settings)
    resolution = settings.get("resolution", int, 200)
    tol = settings.get("tol", float, 1e-6)
    max_iter = settings.get("max-iter", int)
    workers = settings.get("workers", int, 1)
    grid = basin.rasterize(resolution, params, tol=tol, max_iter=max_iter, workers=workers)
    spec = render.PortraitSpec(layers=("basin_background", "fixed_points"))
    return {
        "csv": lambda stream: basin.write_grid_csv(grid, stream),
        "bin": lambda stream: basin.write_grid_binary(grid, stream),
        "svg": lambda stream: stream.write(_portrait_svg(spec, params, grid)),
    }, 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _orientation(differences: np.ndarray) -> str | None:
    if differences.size != 2 or differences[0] == differences[1]:
        return None
    return "counterclockwise" if differences[0] < differences[1] else "clockwise"


def _run_report(start: np.ndarray, result: events.LockResult, splay_tol: float) -> dict:
    # Splay is measured on kick timing: in a locked splay state the kicks are
    # equally spaced within the cycle, while the phase snapshot keeps an
    # O(eps) offset from the received kicks.
    splay_distance = float(np.max(np.abs(result.firing_gaps - TWO_PI / result.ensemble.n)))
    return {
        "start_phases": start.tolist(),
        "final_phases": result.ensemble.phases.tolist(),
        "differences": result.differences.tolist(),
        "gaps": result.gaps.tolist(),
        "firing_gaps": result.firing_gaps.tolist(),
        "period": result.period,
        "cycles": result.cycles,
        "locked": result.locked,
        "splay_distance": splay_distance,
        "near_splay": bool(splay_distance < splay_tol),
        "orientation": _orientation(result.differences),
    }


def _cmd_simulate(settings: _Settings) -> Report:
    eps = settings.require("eps", float)
    params = CouplingParams(epsilon=eps)
    n = settings.get("n-clocks", int, 3)
    if n < 2:
        raise ValueError("--n-clocks must be at least 2")
    tol = settings.get("tol", float, 1e-8)
    max_cycles = settings.get("max-cycles", int, 2000)
    splay_tol = settings.get("splay-tol", float, 1e-3)
    if not (math.isfinite(splay_tol) and splay_tol > 0.0):
        raise ValueError(f"--splay-tol must be finite and > 0, got {splay_tol}")
    phases_text = settings.get("phases", str)
    random_starts = settings.get("random-starts", int)
    trace_out = settings.get("trace-out", str)

    starts: list[np.ndarray] = []
    if phases_text is not None and random_starts is not None:
        raise ValueError("give either --phases or --random-starts, not both")
    if phases_text is None and settings.get("deg", _boolean, False):
        raise ValueError("--deg applies only to --phases; random starts are drawn in radians")
    if phases_text is not None:
        values = [float(v) for v in phases_text.split(",")]
        if len(values) != n:
            raise ValueError(f"--phases lists {len(values)} values for {n} clocks")
        values = [_maybe_radians(v, settings) for v in values]
        starts.append(np.asarray(values))
    else:
        count = 1 if random_starts is None else random_starts
        if count < 1:
            raise ValueError("--random-starts must be at least 1")
        rng = np.random.default_rng(settings.get("seed", int, 0))
        while len(starts) < count:
            psi = np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, size=n - 1)))
            if np.unique(psi).size == n:  # interior start: all phases distinct
                starts.append(psi)

    record = trace_out is not None
    if record and len(starts) != 1:
        raise ValueError("--trace-out needs a single-start run")
    if record and Path(trace_out).suffix not in (".jsonl", ".csv"):
        raise ValueError(f"--trace-out {trace_out!r} must end in .jsonl or .csv")

    results = [
        events.run_until_locked(
            events.ClockEnsemble(psi, params), tol=tol, max_cycles=max_cycles, record=record
        )
        for psi in starts
    ]
    runs = [_run_report(psi, result, splay_tol) for psi, result in zip(starts, results)]

    if record:
        kicks = results[0].events
        if trace_out.endswith(".csv"):
            _write(trace_out, lambda stream: events.write_events_csv(kicks, stream, n))
        else:
            _write(trace_out, lambda stream: events.write_events_jsonl(kicks, stream))

    orientations = Counter(r["orientation"] for r in runs if r["orientation"] and r["near_splay"])
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
    rows = (
        [
            run["cycles"],
            run["locked"],
            run["near_splay"],
            repr(run["splay_distance"]),
            " ".join(repr(v) for v in run["differences"]),
        ]
        for run in runs
    )
    return {
        "json": _json(report),
        "csv": _csv(["cycles", "locked", "near_splay", "splay_distance", "differences"], rows),
    }, 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(settings: _Settings) -> Report:
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
    passed = (
        all(c.passed for c in segment_checks) and census.passed and all(s.passed for s in scans)
    )
    report = {
        "epsilon": params.epsilon,
        "segments": json_data(segment_checks),
        "census": {
            "counts": census.counts,
            "orbits": [
                {
                    "source": orb.source.location.tolist(),
                    "target": orb.target.location.tolist(),
                    "kind": orb.kind,
                    "length": len(orb.samples),
                }
                for orb in census.orbits
            ],
        },
        "lyapunov": [json_data(s) | {"zero_set": len(s.zero_set)} for s in scans],
        "passed": passed,
    }
    # A FAIL line ends with the bounds that the check broke.
    lines = [f"epsilon = {params.epsilon}"]
    for check in segment_checks:
        broke = []
        if not check.passed:
            if not check.max_deviation < analysis.DEVIATION_TOL:
                broke.append(
                    f"max_deviation={check.max_deviation:.3e} >= {analysis.DEVIATION_TOL:g}"
                )
            if not check.monotone:
                broke.append("restriction map not monotone")
        lines.append(
            f"segment {check.name:<10} {'pass' if check.passed else 'FAIL'}"
            f"  max_deviation={check.max_deviation:.3e}  monotone={check.monotone}"
            + _bounds(broke)
        )
    lines.append(
        f"heteroclinic census {census.counts} {'pass' if census.passed else 'FAIL'}"
        + _bounds([] if census.passed else [f"expected {analysis.CENSUS_RULE}"])
    )
    for scan in scans:
        broke = []
        if not scan.passed:
            if not scan.max_df <= analysis.MAX_DF_TOL:
                broke.append(f"max_df={scan.max_df:.3e} > {analysis.MAX_DF_TOL:g}")
            far = analysis.far_zero_points(scan.region, scan.zero_set, scan.cell)
            if far:
                broke.append(
                    f"{far} zero-set points farther than {analysis.ZERO_SET_CELLS} cells"
                    " from a fixed point"
                )
        lines.append(
            f"lyapunov {scan.region:<5} {'pass' if scan.passed else 'FAIL'}"
            f"  max_df={scan.max_df:.3e}  zero_set={len(scan.zero_set)}"
            + _bounds(broke)
        )
    lines.append("PASS" if passed else "FAIL")
    text = "\n".join(lines) + "\n"
    return {"text": lambda stream: stream.write(text), "json": _json(report)}, 0 if passed else 1


def _bounds(broke: list[str]) -> str:
    """The tail of a check's text line: the bounds it broke, if any."""
    return f"  ({'; '.join(broke)})" if broke else ""


# ---------------------------------------------------------------------------
# andronov
# ---------------------------------------------------------------------------

def _cmd_andronov(settings: _Settings) -> Report:
    mu = settings.get("mu", float, 0.1)
    h = settings.get("h", float, 1.0)
    v0 = settings.require("v0", float)
    steps = settings.get("steps", int, 200)
    if steps < 0:
        raise ValueError("--steps must be non-negative")
    params = CouplingParams(epsilon=0.0, mu=mu, h=h)
    if v0 <= 4.0 * mu:
        raise ValueError(
            f"v0={v0} is outside the limit-cycle basin (requires v0 > 4*mu = {4.0 * mu})"
        )
    vf = andronov_fixed_point(params)
    rows = []
    v = v0
    for k in range(steps + 1):
        rows.append((k, v, v - vf))
        if k < steps:
            v = andronov_step(v, params)
    return {
        "csv": _csv(
            ["n", "v", "v_minus_fixed_point"], ([k, repr(v), repr(gap)] for k, v, gap in rows)
        ),
        "json": _json({"mu": mu, "h": h, "fixed_point": vf, "rows": rows}),
    }, 0


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


def _cmd_portrait(settings: _Settings) -> Report:
    params = _analysis_params(settings)
    layer_text = settings.get(
        "layers", str, "basin_background,invariant_segments,heteroclinics,fixed_points"
    )
    layers = tuple(name.strip() for name in layer_text.split(",") if name.strip())
    spec = render.PortraitSpec(layers=layers)
    resolution = settings.get("resolution", int, 160)
    grid = basin.rasterize(resolution, params) if "basin_background" in layers else None
    svg = _portrait_svg(spec, params, grid)
    return {"svg": lambda stream: stream.write(svg)}, 0


def _portrait_svg(
    spec: render.PortraitSpec, params: CouplingParams, grid: basin.BasinGrid | None
) -> str:
    """Render ``spec`` over the basin raster ``grid``, computing the data of
    its other layers."""
    layers = spec.layers
    segments = analysis.invariant_segments() if "invariant_segments" in layers else None
    heteroclinics = None
    if "heteroclinics" in layers:
        heteroclinics = analysis.heteroclinic_census(params).orbits
    fixed_points = None
    if "fixed_points" in layers:
        fixed_points = [analysis.classify(p, params) for p in analysis.known_fixed_points()]
    orbits = None
    if "sample_orbits" in layers:
        length = default_max_iterations(params)
        orbits = [basin.orbit(seed, params, length) for seed in _SAMPLE_ORBIT_SEEDS]
    return render.render_portrait(
        spec,
        grid=grid,
        segments=segments,
        heteroclinics=heteroclinics,
        fixed_points=fixed_points,
        orbits=orbits,
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _subcommand(
    sub: argparse._SubParsersAction,
    name: str,
    summary: str,
    handler: Callable[[_Settings], Report],
    formats: tuple[str, ...],
    eps: bool = True,
) -> argparse.ArgumentParser:
    """Add a subcommand with the common options; ``formats`` lists its output
    formats, default first, and ``eps`` whether it reads a coupling strength."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="flat key = value settings file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", help=f"output format: {', '.join(formats)} (default {formats[0]})")
    if eps:
        p.add_argument("--eps", type=float, help="coupling strength")
    p.set_defaults(handler=handler, formats=formats)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it takes about 2 ms, a fifth of a short
    ``simulate`` call."""
    parser = argparse.ArgumentParser(
        prog="triclock",
        description="Analyze the phase-difference dynamics of impact-coupled clocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "step", "iterate the three-clock map from a point", _cmd_step,
                    ("csv", "json"))
    p.add_argument("--x", type=float, help="first phase difference (radians)")
    p.add_argument("--y", type=float, help="second phase difference (radians)")
    p.add_argument("-n", "--count", type=int, dest="count", help="number of iterates")
    p.add_argument("--deg", action="store_true", default=None,
                   help="interpret --x/--y in degrees")

    p = _subcommand(sub, "fixed-points", "find and classify all fixed points",
                    _cmd_fixed_points, ("json", "csv"))
    p.add_argument("--seed-grid", type=int, dest="seed_grid", help="seeds per side")
    p.add_argument("--tol", type=float, help="residual tolerance")

    p = _subcommand(sub, "basins", "rasterize the basins of attraction", _cmd_basins,
                    ("csv", "bin", "svg"))
    p.add_argument("--resolution", type=int, help="cells per side")
    p.add_argument("--tol", type=float, help="attractor capture tolerance")
    p.add_argument("--max-iter", type=int, dest="max_iter", help="iteration budget per cell")
    p.add_argument("--workers", type=int,
                   help="accepted (at least 1) but changes nothing: the raster runs in one thread")

    p = _subcommand(sub, "simulate", "event-driven simulation of N clocks", _cmd_simulate,
                    ("json", "csv"))
    p.add_argument("--n-clocks", type=int, dest="n_clocks", help="number of clocks")
    p.add_argument("--phases", help="comma-separated start phases (reference first)")
    p.add_argument("--random-starts", type=int, dest="random_starts", help="number of random starts")
    p.add_argument("--seed", type=int, help="random seed for --random-starts")
    p.add_argument("--tol", type=float, help="lock tolerance on difference movement")
    p.add_argument("--max-cycles", type=int, dest="max_cycles", help="cycle budget per run")
    p.add_argument("--splay-tol", type=float, dest="splay_tol", help="near-splay threshold")
    p.add_argument("--trace-out", dest="trace_out", help="write kick events (.jsonl or .csv)")
    p.add_argument("--deg", action="store_true", default=None,
                   help="interpret --phases in degrees")

    p = _subcommand(sub, "verify", "invariance, census, and Lyapunov checks", _cmd_verify,
                    ("text", "json"))
    p.add_argument("--samples", type=int, help="samples per segment")
    p.add_argument("--grid", type=int, help="Lyapunov lattice per side")

    p = _subcommand(sub, "andronov", "escapement return-map convergence table", _cmd_andronov,
                    ("csv", "json"), eps=False)
    p.add_argument("--mu", type=float, help="dry friction coefficient")
    p.add_argument("--h", type=float, help="energy-kick velocity scale")
    p.add_argument("--v0", type=float, help="initial section velocity")
    p.add_argument("--steps", type=int, help="iterations to tabulate")

    p = _subcommand(sub, "portrait", "layered SVG phase portrait", _cmd_portrait, ("svg",))
    p.add_argument("--layers", help="comma-separated layer names")
    p.add_argument("--resolution", type=int, help="background raster per side")

    # A config file may set each of a subcommand's own options by its long name.
    for p in sub.choices.values():
        keys = {action.dest.replace("_", "-") for action in p._actions}
        p.set_defaults(config_keys=keys - {"help", "config"})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _Settings(args)
        # The format is resolved and checked before the handler does any work.
        fmt = settings.get("format", str, args.formats[0])
        if fmt not in args.formats:
            raise ValueError(
                f"{args.command} cannot emit format {fmt!r} (formats: {', '.join(args.formats)})"
            )
        writers, code = args.handler(settings)
        _write(settings.get("out", str), writers[fmt], binary=fmt == "bin")
        return code
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
