"""Output checks: decode each job's output and compare it with the reference.

Checks decode files instead of comparing raw bytes, so a format change that
keeps the content (a new binary header, say) passes, while a changed basin
label, iteration count, fixed-point class or cycle count fails.  A failed
check raises :class:`CheckError` with the reason.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np

LABELS = ("upper", "lower", "boundary", "unresolved")
_LABEL_CODE = {name: code for code, name in enumerate(LABELS)}
# Fill colours of the basin background in the default SVG style.
_SVG_FILL_LABEL = {"#dbe9f6": "upper", "#fbe8d3": "lower", "#b9b9b9": "boundary", "#ffffff": "unresolved"}
_SVG_MARKER_KIND = {"#111111": "attractor", "#ffffff": "repeller", "#808080": "saddle"}
EXPECTED_CENSUS = {"sa": 6, "rs": 10, "ra": 2}
N_SEGMENTS = 10


class CheckError(Exception):
    """An output that does not match the reference."""


def digest(array: np.ndarray, dtype: str) -> str:
    """Short content hash of an integer array in a fixed dtype and layout."""
    data = np.ascontiguousarray(np.asarray(array).astype(dtype)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def grid_summary(labels: np.ndarray, iterations: np.ndarray | None) -> dict:
    """Reference fields of a decoded basin grid (canonical label codes)."""
    out = {
        "labels": digest(labels, "u1"),
        "counts": {name: int(np.count_nonzero(labels == code)) for code, name in enumerate(LABELS)},
    }
    if iterations is not None:
        out["iterations"] = digest(iterations, "<i8")
        out["point_iters"] = int(np.asarray(iterations, dtype=np.int64).sum())
    return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

def decode_basin_csv(text: str, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    lines = text.split("\n")
    _require(len(lines) == 2 * resolution + 2 and lines[resolution] == "" and lines[-1] == "",
             f"basin csv has {len(lines)} lines, expected {2 * resolution + 2}")
    try:
        labels = np.array([[_LABEL_CODE[v] for v in row.split(",")] for row in lines[:resolution]],
                          dtype=np.uint8)
        iters = np.array([[int(v) for v in row.split(",")] for row in lines[resolution + 1:-1]],
                         dtype=np.int64)
    except (KeyError, ValueError) as exc:
        raise CheckError(f"basin csv does not parse: {exc!r}") from None
    _require(labels.shape == (resolution, resolution) and iters.shape == labels.shape,
             f"basin csv matrices have shapes {labels.shape} and {iters.shape}")
    return labels, iters


def decode_basin_binary(path: Path, resolution: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    # The program's own reader, so that a versioned header it can read passes.
    from triclock import basin

    try:
        with open(path, "rb") as fh:
            grid = basin.read_grid_binary(fh)
            trailing = fh.read()
    except (ValueError, OSError) as exc:
        raise CheckError(f"basin binary does not decode: {exc}") from None
    _require(not trailing, f"basin binary has {len(trailing)} trailing bytes")
    _require(grid.resolution == resolution, f"basin binary resolution {grid.resolution} != {resolution}")
    _require(grid.params.epsilon == eps, f"basin binary eps {grid.params.epsilon} != {eps}")
    names = [basin.LABEL_NAMES[int(code)] for code in range(len(basin.LABEL_NAMES))]
    remap = np.array([_LABEL_CODE[name] for name in names], dtype=np.uint8)
    _require(int(grid.labels.max()) < len(remap), "basin binary holds an unknown label code")
    return remap[grid.labels], np.asarray(grid.iterations, dtype=np.int64)


_RECT = re.compile(r'<rect x="[^"]+" y="[^"]+" width="([^"]+)" height="([^"]+)" fill="([^"]+)"')
_CIRCLE = re.compile(r'<circle cx="[^"]+" cy="[^"]+" r="[^"]+" fill="([^"]+)"')


def decode_basin_svg(text: str, resolution: int) -> tuple[np.ndarray, Counter]:
    """Label grid from the background runs, plus the marker kinds drawn."""
    _require(text.startswith("<?xml") and text.rstrip().endswith("</svg>"), "not a complete svg document")
    rows: list[list[int]] = [[]]
    for width, height, fill in _RECT.findall(text):
        _require(fill in _SVG_FILL_LABEL, f"unknown basin fill {fill}")
        run = round(float(width) / float(height))
        if len(rows[-1]) == resolution:
            rows.append([])
        rows[-1].extend([_LABEL_CODE[_SVG_FILL_LABEL[fill]]] * run)
        _require(len(rows[-1]) <= resolution, "svg background row overruns the resolution")
    _require(len(rows) == resolution and all(len(r) == resolution for r in rows),
             f"svg background holds {len(rows)} rows, expected {resolution} full rows")
    markers = Counter(_SVG_MARKER_KIND.get(fill, fill) for fill in _CIRCLE.findall(text))
    return np.array(rows, dtype=np.uint8), markers


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _check_grid_shape(labels: np.ndarray, resolution: int) -> None:
    counts = Counter(labels.ravel().tolist())
    upper, lower = counts.get(0, 0), counts.get(1, 0)
    boundary, unresolved = counts.get(2, 0), counts.get(3, 0)
    _require(upper == lower, f"upper {upper} != lower {lower}")
    _require(boundary == resolution, f"boundary {boundary} != resolution {resolution}")
    _require(unresolved == 0, f"{unresolved} unresolved cells")


def check_basins(job, ref: dict, outdir: Path, fixed_point_kinds: Counter) -> None:
    params, expect = ref["params"], ref["expect"]
    res = params["resolution"]
    path = outdir / job.out
    if job.fmt == "bin":
        labels, iters = decode_basin_binary(path, res, params["eps"])
    elif job.fmt == "csv":
        labels, iters = decode_basin_csv(path.read_text(encoding="utf-8"), res)
    elif job.fmt == "svg":
        labels, markers = decode_basin_svg(path.read_text(encoding="utf-8"), res)
        iters = None
        _require(markers == fixed_point_kinds, f"svg markers {dict(markers)} != {dict(fixed_point_kinds)}")
    else:
        raise CheckError(f"unknown basins format {job.fmt}")
    _check_grid_shape(labels, res)
    got = grid_summary(labels, iters)
    _require(got["labels"] == expect["labels"], "basin labels differ from the reference")
    if iters is not None:
        _require(got["iterations"] == expect["iterations"], "iteration counts differ from the reference")


def check_fixed_points(job, ref: dict, outdir: Path, kinds: dict) -> None:
    report = json.loads((outdir / job.out).read_text(encoding="utf-8"))
    _require(report["epsilon"] == ref["params"]["eps"], "fixed-points epsilon differs")
    records = report["fixed_points"]
    _require(len(records) == len(kinds), f"{len(records)} fixed points, expected {len(kinds)}")
    found = {}
    for rec in records:
        x, y = rec["location"]
        key = min(kinds, key=lambda k: max(abs(k[0] - x), abs(k[1] - y)))
        _require(max(abs(key[0] - x), abs(key[1] - y)) < 1e-9, f"unexpected fixed point {x}, {y}")
        found[key] = rec["kind"]
    _require(found == kinds, "fixed-point classes differ from the reference")
    _require(len(report["unconverged_seeds"]) == ref["expect"]["unconverged"], "unconverged seed count differs")


_CENSUS_LINE = re.compile(r"^heteroclinic census (\{.*\}) pass$", re.M)


def check_verify(job, ref: dict, outdir: Path) -> None:
    text = (outdir / job.out).read_text(encoding="utf-8")
    if job.fmt == "text":
        lines = text.splitlines()
        _require(bool(lines) and lines[-1] == "PASS", "verify did not print PASS")
        match = _CENSUS_LINE.search(text)
        _require(match is not None, "verify text has no passing census line")
        counts = ast.literal_eval(match.group(1))
        seg_pass = sum(1 for line in lines if line.startswith("segment ") and " pass " in line)
        lyap_pass = sum(1 for line in lines if line.startswith("lyapunov ") and " pass " in line)
    else:
        report = json.loads(text)
        _require(report["passed"] is True, "verify json reports passed=false")
        _require(report["epsilon"] == ref["params"]["eps"], "verify epsilon differs")
        counts = report["census"]["counts"]
        orbits = report["census"]["orbits"]
        _require(dict(Counter(o["kind"] for o in orbits)) == counts, "census orbits disagree with counts")
        _require([o["length"] for o in orbits] == ref["expect"]["orbit_lengths"],
                 "census orbit lengths differ from the reference")
        seg_pass = sum(1 for s in report["segments"] if s["passed"])
        lyap_pass = sum(1 for s in report["lyapunov"] if s["passed"])
    _require(counts == EXPECTED_CENSUS, f"census counts {counts} != {EXPECTED_CENSUS}")
    _require(seg_pass == N_SEGMENTS, f"{seg_pass} of {N_SEGMENTS} segments pass")
    _require(lyap_pass == 2, f"{lyap_pass} of 2 Lyapunov scans pass")


def check_simulate(job, ref: dict, outdir: Path) -> None:
    report = json.loads((outdir / job.out).read_text(encoding="utf-8"))
    expect = ref["expect"]
    runs = report["runs"]
    _require([r["cycles"] for r in runs] == expect["cycles"],
             f"cycle counts {[r['cycles'] for r in runs]} != {expect['cycles']}")
    _require([r["locked"] for r in runs] == expect["locked"], "lock flags differ from the reference")
    if report["n_clocks"] == 3:
        _require(all(r["locked"] and r["near_splay"] for r in runs), "a 3-clock run is not a locked splay")
    if job.trace_out is not None:
        n = report["n_clocks"]
        per_cycle = Counter(_trace_cycle_indices(outdir / job.trace_out, job.fmt))
        cycles = runs[0]["cycles"]
        _require(sorted(per_cycle) == list(range(cycles)) and set(per_cycle.values()) == {n},
                 f"trace does not hold {n} kicks in each of {cycles} cycles")


def _trace_cycle_indices(path: Path, fmt: str) -> list[int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if fmt == "csv":
        _require(bool(lines) and lines[0].startswith("cycle_index,kicker,"), "trace csv lacks its header")
        return [int(line.split(",", 1)[0]) for line in lines[1:]]
    return [int(json.loads(line)["cycle_index"]) for line in lines]


def fixed_point_kinds(reference: dict) -> dict:
    return {(float(x), float(y)): kind for x, y, kind in reference["fixed_point_kinds"]}


def check_job(job, ref: dict, outdir: Path, reference: dict) -> None:
    """Raise CheckError unless the job's output files match the reference."""
    kinds = fixed_point_kinds(reference)
    try:
        if job.pool == "basins":
            check_basins(job, ref, outdir, Counter(kinds.values()))
        elif job.pool == "fixed-points":
            check_fixed_points(job, ref, outdir, kinds)
        elif job.pool == "verify":
            check_verify(job, ref, outdir)
        else:
            check_simulate(job, ref, outdir)
    except FileNotFoundError as exc:
        raise CheckError(f"missing output: {exc.filename}") from None
    except (KeyError, TypeError, ValueError, SyntaxError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
