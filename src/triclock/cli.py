"""Command-line front end.

Subcommands: ``step``, ``fixed-points``, ``basins``, ``simulate``,
``verify``, ``andronov``, ``portrait``.  ``_COMMANDS`` declares each one's
output formats (default first) and options; both the parser and the config
file layer (flat ``key = value`` lines; any option but ``--config``, by its
long name, and no other key) are built from it.  ``main`` resolves every
option (command line > config file > declared default), taking a number
after a numeric flag as its value even when it reads like a flag
(``--x -1e-3``), and runs each given value's declared check (``--format``
and ``--layers`` too) before the handler does any work.  Every refusal reads
``triclock: error: <origin>: <message>``, the origin being the option's
first flag or ``config key 'k'``; a handler names its own through ``_named``.
The handler returns one writer per format, and one function (``_write``)
puts the chosen one on stdout or ``--out``, and a kick trace on
``--trace-out``.  ``verify`` takes one coupling or several (``--eps
0.01,0.05``) and checks them in turn in one process, so the analysis terms
that do not depend on eps are computed once for the run.  Exit codes: 0
success, 1 I/O or check failure or a run out of memory, 2 usage or
validation failure.  ``TRICLOCK_OUTDIR`` redirects relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import re
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
    json_text,
    require_basin_velocity,
    require_integer,
)

__all__ = ["main"]

_ENV_OUTDIR = "TRICLOCK_OUTDIR"

# A config comment starts at a "#" that opens its line or follows whitespace;
# any other "#" belongs to the value (out = a#b.csv).
_COMMENT = re.compile(r"(?<!\S)#")


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        cfg[key] = value
    return cfg


# A writer puts one output format onto an open stream; each handler returns
# one writer per format its subcommand declares, plus the exit code.
Writer = Callable[[IO], None]
Report = tuple[dict[str, Writer], int]


def _write(path: str, write: Writer, binary: bool = False) -> None:
    """Run ``write`` on stdout (``-``) or on the file at ``path``.

    A relative path lands under ``TRICLOCK_OUTDIR`` when that is set, and
    the file's directory is created.
    """
    if path == "-":
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
    return lambda stream: stream.write(json_text(obj) + "\n")


def _csv(header: list[str], rows: Iterable[list]) -> Writer:
    def write(stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    return write


@contextlib.contextmanager
def _named(args: argparse.Namespace, name: str):
    """Refuse a ``ValueError`` raised inside under ``args.origins[name]``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{args.origins[name]}: {exc}") from exc


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def _cmd_step(o: argparse.Namespace) -> Report:
    params = CouplingParams(epsilon=o.eps)
    start = (math.radians(o.x), math.radians(o.y)) if o.deg else (o.x, o.y)
    with _named(o, "x" if not 0.0 <= start[0] <= TWO_PI else "y"):
        line = basin.orbit(start, params, o.count)[1:].tolist()
    return {
        "csv": _csv(["x", "y"], ([repr(a), repr(b)] for a, b in line)),
        "json": _json({"orbit": line}),
    }, 0


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------

def _cmd_fixed_points(o: argparse.Namespace) -> Report:
    params = CouplingParams(epsilon=o.eps)
    search = analysis.find_fixed_points(seed_grid=o.seed_grid, tol=o.tol, params=params)
    payload = {
        "epsilon": params.epsilon,
        "fixed_points": search.records,
        "unconverged_seeds": search.unconverged_seeds,
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

def _usable_cpus() -> int:
    """The CPUs this process may run on: the raster's process count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_basins(o: argparse.Namespace) -> Report:
    params = CouplingParams(epsilon=o.eps)
    grid = basin.rasterize(o.resolution, params, tol=o.tol, max_iter=o.max_iter,
                           workers=_usable_cpus())
    return {
        "csv": lambda stream: basin.write_grid_csv(grid, stream),
        "bin": lambda stream: basin.write_grid_binary(grid, stream),
        "svg": lambda stream: stream.write(
            render.render_portrait(grid=grid, fixed_points=_fixed_point_records(params))
        ),
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
        "final_phases": result.ensemble.phases,
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


def _cmd_simulate(o: argparse.Namespace) -> Report:
    params = CouplingParams(epsilon=o.eps)
    n = o.n_clocks
    given = o.phases is not None
    count = 1 if o.random_starts is None else o.random_starts
    record = o.trace_out is not None
    suffix = Path(o.trace_out).suffix if record else None
    for name, refused, message in (
        ("random_starts", given and o.random_starts is not None, "cannot be given with --phases"),
        ("deg", not given and o.deg,
         "applies only to --phases; random starts are drawn in radians"),
        ("seed", given and "seed" in o.origins, "applies only to random starts, not to --phases"),
        ("trace_out", record and count != 1, "needs a single-start run"),
        ("trace_out", record and suffix not in (".jsonl", ".csv"),
         f"{o.trace_out!r} must end in .jsonl or .csv"),
    ):
        with _named(o, name):
            if refused:
                raise ValueError(message)

    starts: list[np.ndarray] = []
    if not given:
        rng = np.random.default_rng(o.seed)
        while len(starts) < count:
            psi = np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, size=n - 1)))
            if np.unique(psi).size == n:  # interior start: all phases distinct
                starts.append(psi)
    # --phases is checked against --n-clocks and --deg here; every other input
    # is checked, so the ensemble or the first cycle refuses only the start.
    with _named(o, "phases") if given else contextlib.nullcontext():
        if given:
            values = [float(v) for v in o.phases.split(",")]
            if len(values) != n:
                raise ValueError(f"lists {len(values)} values for {n} clocks")
            starts.append(np.asarray([math.radians(v) for v in values] if o.deg else values))
        ensembles = [events.ClockEnsemble(psi, params) for psi in starts]
        results = [events.run_until_locked(ensemble, tol=o.tol, max_cycles=o.max_cycles,
                                           record=record) for ensemble in ensembles]
    runs = [_run_report(psi, result, o.splay_tol) for psi, result in zip(starts, results)]

    if record:
        kicks = results[0].events
        if suffix == ".csv":
            _write(o.trace_out, lambda stream: events.write_events_csv(kicks, stream, n))
        else:
            _write(o.trace_out, lambda stream: events.write_events_jsonl(kicks, stream))

    orientations = Counter(r["orientation"] for r in runs if r["orientation"] and r["near_splay"])
    report = {
        "n_clocks": n,
        "epsilon": o.eps,
        "tol": o.tol,
        "max_cycles": o.max_cycles,
        "splay_tol": o.splay_tol,
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

def couplings(text: str) -> tuple[float, ...]:
    """``verify``'s ``--eps``, couplings split at commas; argparse's refusal names the type."""
    return tuple(map(float, text.split(",")))


def _cmd_verify(o: argparse.Namespace) -> Report:
    """One report per coupling, in the given order; the JSON of a single
    coupling is its report, of several the list of them.  ``--eps`` checks
    every coupling against the analysis range before any is verified."""
    runs = [CouplingParams(epsilon=eps) for eps in o.eps]
    reports, texts = zip(*(_verify(params, o.samples, o.grid) for params in runs))
    passed = all(report["passed"] for report in reports)
    text = "".join(texts)
    return {
        "text": lambda stream: stream.write(text),
        "json": _json(reports[0] if len(reports) == 1 else list(reports)),
    }, 0 if passed else 1


def _verify(params: CouplingParams, samples: int, grid: int) -> tuple[dict, str]:
    """The JSON report and the text report of ``verify`` at one coupling."""
    segment_checks = analysis.verify_invariance(analysis.invariant_segments(), params,
                                                samples=samples)
    census = analysis.heteroclinic_census(params)
    scans = [
        analysis.orbital_derivative_scan(region, params, grid=grid)
        for region in ("upper", "lower")
    ]
    passed = all(check.passed for check in (*segment_checks, census, *scans))
    report = {
        "epsilon": params.epsilon,
        "segments": segment_checks,
        "census": {
            "counts": census.counts,
            "orbits": [
                {
                    "source": orb.source.location,
                    "target": orb.target.location,
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
        lines.append(
            f"segment {check.name:<10} {'pass' if check.passed else 'FAIL'}"
            f"  max_deviation={check.max_deviation:.3e}  monotone={check.monotone}"
            + _bounds(check)
        )
    lines.append(
        f"heteroclinic census {census.counts} {'pass' if census.passed else 'FAIL'}"
        + _bounds(census)
    )
    for scan in scans:
        lines.append(
            f"lyapunov {scan.region:<5} {'pass' if scan.passed else 'FAIL'}"
            f"  max_df={scan.max_df:.3e}  zero_set={len(scan.zero_set)}"
            + _bounds(scan)
        )
    lines.append("PASS" if passed else "FAIL")
    return report, "\n".join(lines) + "\n"


def _bounds(check: Any) -> str:
    """The tail of a check's text line: the bounds it broke, if it failed."""
    return "" if check.passed else f"  ({'; '.join(check.failures())})"


# ---------------------------------------------------------------------------
# andronov
# ---------------------------------------------------------------------------

def _cmd_andronov(o: argparse.Namespace) -> Report:
    params = CouplingParams(epsilon=0.0, mu=o.mu, h=o.h)
    with _named(o, "v0"):
        require_basin_velocity(o.v0, params)
    with _named(o, "mu" if "mu" in o.origins else "h"):
        vf = andronov_fixed_point(params)
    rows = []
    v = o.v0
    for k in range(o.steps + 1):
        rows.append((k, v, v - vf))
        if k < o.steps:
            v = andronov_step(v, params)
    return {
        "csv": _csv(
            ["n", "v", "v_minus_fixed_point"], ([k, repr(v), repr(gap)] for k, v, gap in rows)
        ),
        "json": _json({"mu": o.mu, "h": o.h, "fixed_point": vf, "rows": rows}),
    }, 0


# ---------------------------------------------------------------------------
# portrait
# ---------------------------------------------------------------------------

# Starts of the sample orbits, four per triangle.
_SAMPLE_ORBIT_SEEDS = ((0.9, 2.1), (0.9, 5.0), (2.6, 5.8), (5.0, 5.9),
                       (2.1, 0.9), (5.0, 0.9), (5.8, 2.6), (5.9, 5.0))


def _layer_names(text: str) -> tuple[str, ...]:
    layers = tuple(name.strip() for name in text.split(",") if name.strip())
    if not layers:
        raise ValueError("a portrait needs at least one layer")
    unknown = [name for name in layers if name not in render.LAYERS]
    if unknown:
        raise ValueError(f"unknown layers: {unknown}; choose from {render.LAYERS}")
    return layers


def _cmd_portrait(o: argparse.Namespace) -> Report:
    params = CouplingParams(epsilon=o.eps)
    layers = _layer_names(o.layers)
    svg = render.render_portrait(
        grid=(basin.rasterize(o.resolution, params, workers=_usable_cpus())
              if "basin_background" in layers else None),
        segments=analysis.invariant_segments() if "invariant_segments" in layers else None,
        heteroclinics=(analysis.heteroclinic_census(params).orbits
                       if "heteroclinics" in layers else None),
        fixed_points=_fixed_point_records(params) if "fixed_points" in layers else None,
        orbits=([basin.orbit(seed, params, default_max_iterations(params))
                 for seed in _SAMPLE_ORBIT_SEEDS] if "sample_orbits" in layers else None),
    )
    return {"svg": lambda stream: stream.write(svg)}, 0


def _fixed_point_records(params: CouplingParams) -> tuple[analysis.FixedPointRecord, ...]:
    return analysis.classify_rows(analysis.known_fixed_points(), params)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# An option is declared once: its flags, type, default and help, and its check
# if it has one: an int option's least value, else a function that raises
# ValueError on a refused value.  Its long flag without the dashes is its config
# key and, with "_" for "-", its name in the handler's namespace.  A type of bool
# makes a switch; a default of _REQUIRED makes the option required.
Option = tuple[str, type, Any, str] | tuple[str, type, Any, str, int | Callable[[Any], object]]
_REQUIRED = object()

_EPS: Option = ("--eps", float, _REQUIRED, "coupling strength",
                lambda eps: CouplingParams(epsilon=eps).require_analysis_range())

# Each subcommand: its summary, handler, output formats (default first) and
# own options.
_COMMANDS = {
    "step": ("iterate the three-clock map from a point", _cmd_step, ("csv", "json"), (
        _EPS,
        ("--x", float, _REQUIRED, "first phase difference (radians)"),
        ("--y", float, _REQUIRED, "second phase difference (radians)"),
        ("-n --count", int, 1, "number of iterates", 1),
        ("--deg", bool, False, "interpret --x/--y in degrees"),
    )),
    "fixed-points": ("find and classify all fixed points", _cmd_fixed_points, ("json", "csv"), (
        _EPS,
        ("--seed-grid", int, 50, "seeds per side", 2),
        ("--tol", float, 1e-12, "residual tolerance", analysis.require_residual_tol),
    )),
    "basins": ("rasterize the basins of attraction", _cmd_basins, ("csv", "bin", "svg"), (
        _EPS,
        ("--resolution", int, 200, "cells per side", 2),
        ("--tol", float, 1e-6, "attractor capture tolerance", basin.require_capture_tol),
        ("--max-iter", int, None, "iteration budget per cell; none sets it from eps", 0),
    )),
    "simulate": ("event-driven simulation of N clocks", _cmd_simulate, ("json", "csv"), (
        ("--eps", float, _REQUIRED, "coupling strength",
         lambda eps: CouplingParams(epsilon=eps).require_simulator_range()),
        ("--n-clocks", int, 3, "number of clocks", 2),
        ("--phases", str, None, "comma-separated start phases (reference first)"),
        ("--random-starts", int, None, "number of random starts; none is 1 without --phases", 1),
        ("--seed", int, 0, "random seed for --random-starts", 0),
        ("--tol", float, 1e-8, "lock tolerance on difference movement", events.require_lock_tol),
        ("--max-cycles", int, 2000, "cycle budget per run", 1),
        ("--splay-tol", float, 1e-3, "near-splay threshold", events.require_lock_tol),
        ("--trace-out", str, None, "write kick events (.jsonl or .csv)"),
        ("--deg", bool, False, "interpret --phases in degrees"),
    )),
    "verify": ("invariance, census, and Lyapunov checks", _cmd_verify, ("text", "json"), (
        ("--eps", couplings, _REQUIRED, "coupling strength, or comma-separated couplings",
         lambda eps: [CouplingParams(epsilon=e).require_analysis_range() for e in eps]),
        ("--samples", int, 1000, "samples per segment", 2),
        ("--grid", int, 300, "Lyapunov lattice per side", 100),
    )),
    "andronov": ("escapement return-map convergence table", _cmd_andronov, ("csv", "json"), (
        ("--mu", float, 0.1, "dry friction coefficient", lambda mu: CouplingParams(0.0, mu=mu)),
        ("--h", float, 1.0, "energy-kick velocity scale", lambda h: CouplingParams(0.0, h=h)),
        ("--v0", float, _REQUIRED, "initial section velocity"),
        ("--steps", int, 200, "iterations to tabulate", 0),
    )),
    "portrait": ("layered SVG phase portrait", _cmd_portrait, ("svg",), (
        _EPS,
        ("--layers", str, "basin_background,invariant_segments,heteroclinics,fixed_points",
         "comma-separated layer names", _layer_names),
        ("--resolution", int, 160, "background raster per side", 2),
    )),
}


def _options(command: str) -> tuple[Option, ...]:
    """Every option of ``command``: the common ones, then its own."""
    _, _, formats, own = _COMMANDS[command]

    def emits(fmt: str) -> None:
        if fmt not in formats:
            raise ValueError(f"{command} cannot emit format {fmt!r}; choose from {formats}")
    return (
        ("--config", str, None, "flat key = value settings file"),
        ("--out", str, "-", "output path, - for stdout"),
        ("--format", str, formats[0], f"output format: {', '.join(formats)}", emits),
        *own,
    )


def _help(text: str, default: Any) -> str:
    """``text``, then ``(required)`` or the default, in lower case."""
    return f"{text} ({'required' if default is _REQUIRED else f'default: {default}'.lower()})"


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
    for command, (summary, *_) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flags, kind, default, text, *_ in _options(command):
            # An absent flag parses to None, so that the config file can fill it in.
            how = {"action": "store_true", "default": None} if kind is bool else {"type": kind}
            p.add_argument(*flags.split(), help=_help(text, default), **how)
    return parser


def _resolve(args: argparse.Namespace) -> None:
    """Set each option of the parsed command line in ``args`` to its flag's value,
    else its config file value cast by its declared type, else its declared
    default; check a given value under its origin in ``args.origins``."""
    options = {flags.split()[-1][2:]: (flags.split()[0], kind, default, check[0] if check else None)
               for flags, kind, default, _, *check in _options(args.command)}
    keys = sorted(options.keys() - {"config"})
    cfg = _read_config(args.config) if args.config else {}
    unknown = sorted(cfg.keys() - set(keys))
    if unknown:
        raise ValueError(
            f"config file {args.config}: unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} for {args.command} (keys: {', '.join(keys)})"
        )
    origins = args.origins = {}
    for key, (flag, kind, default, check) in options.items():
        name = key.replace("-", "_")
        value = getattr(args, name)
        if value is None and key not in cfg:
            if default is _REQUIRED:
                raise ValueError(f"missing required value for --{key}")
            setattr(args, name, default)
            continue
        origins[name] = flag if value is not None else f"config key {key!r}"
        with _named(args, name):
            if value is None:
                value = (_boolean if kind is bool else kind)(cfg[key])
            if isinstance(check, int):
                require_integer(value, name, check)
            elif check:
                check(value)
        setattr(args, name, value)


def _join_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each numeric flag of its command (``int``, ``float`` or
    ``verify``'s couplings) joined to a following argument that ``float`` reads
    (``--x=-1e-3``), which argparse takes for a flag.

    A flag is resolved as argparse resolves it: its exact spelling, else the one
    option string of the command (``-h`` and ``--help`` included) that it
    abbreviates; an ambiguous or unknown flag is left to argparse."""
    command = next((a for a in argv if a in _COMMANDS), None)
    kinds: dict[str, Any] = {"-h": None, "--help": None}  # argparse gives every command these
    if command:
        kinds.update((f, kind) for flags, kind, *_ in _options(command) for f in flags.split())

    def numeric(arg: str) -> bool:
        matches = [arg] if arg in kinds else [f for f in kinds if f.startswith(arg)]
        return len(matches) == 1 and kinds[matches[0]] in (int, float, couplings)

    out: list[str] = []
    for arg in argv:
        if out and numeric(out[-1]):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
    try:
        _resolve(args)
        writers, code = _COMMANDS[args.command][1](args)
        _write(args.out, writers[args.format], binary=args.format == "bin")
        return code
    except ValueError as exc:
        print(f"triclock: error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        print(f"triclock: failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"triclock: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
