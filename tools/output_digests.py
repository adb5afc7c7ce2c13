"""Digest the outputs of a fixed sweep of ``triclock`` commands and of every
``triclock`` example in README.md.

Run from the root of a checkout:

    python3 tools/output_digests.py OUTFILE

The sweep runs in this one process, against the checkout's ``src``:
``verify`` in text and JSON at 30 couplings spread over [0.01, 0.11),
in JSON with Lyapunov lattices of 100, 101 and 301 per side at couplings
0.011, 0.05 and 0.109 and with ``--samples 17``, in JSON again at
couplings 0.05, 0.011, 0.05 and 0.109, each revisited, with ``--grid``
300, 100 and 300 and then ``--samples`` 1000, 17 and 1000 (so a coupling
meets lattice terms and segment samples that an earlier command kept,
evicted and rebuilt, as calls in one process do), in JSON at coupling
0.05 with ``--samples 2``, the fewest the segment check takes, and at
coupling 0.1111, the top of the analysis range, ``fixed-points`` in JSON
and CSV at 4 couplings and seed grids 16, 33 and 50, ``portrait`` with all
five layers, with each layer alone, with the heteroclinics alone at
couplings 0.02 and 0.1, with the rejected ``--layers ''`` and
``--layers bogus`` and with the rejected ``--resolution 1``, one
refused value for each other size or count option (``step -n 0``,
``simulate --n-clocks 1``, ``--random-starts 0`` and ``--max-cycles 0``,
``andronov --steps -1``, ``fixed-points --seed-grid 1``, ``verify
--samples 1`` and ``--grid 99``, ``basins --resolution 1`` and
``--max-iter -1``), the rejected ``andronov --v0 nan``, the negative
values ``step --x -1e-3`` (as a separate argument and as ``--x=-1e-3``),
``andronov --v0 -inf`` and ``andronov --v0 -1e-3``, and ``basins``:
in binary, CSV and SVG, at resolutions 2, 3, 48 and 144 and couplings
0.011, 0.05 and 0.11, each with the default settings, ``--tol 0`` and
``--max-iter 0`` (which between them draw all four SVG fill colours), and
in binary and CSV also with ``--max-iter 1``, plus one binary grid of
resolution 200.  Then ``basins`` in binary at resolutions 48 and 200 at
the ends of the raster's skip bound, ``--eps 2e-8 --max-iter 40`` and
``--eps 0.1111``, and at the edge of the accepted capture tolerances:
``--tol 0.999`` and the refused ``--tol 1`` and ``--tol 2.5``.  Then
``basins`` in binary at the tight capture tolerances ``--tol 1e-9`` and
``--tol 1e-12``, at couplings 0.0063 and 0.0387 and resolutions 48 and
200, whose iteration counts move in their last steps when the raster's
float arithmetic changes, and the out-of-range ``--tol`` of each command
that takes one: ``basins --tol -1``, ``fixed-points --tol 0`` and
``simulate --tol 0``.  Then
``fixed-points`` in JSON and ``portrait`` with the fixed points alone at
couplings 2e-8 and 0.1111, the two ends of the analysis range.  Then
``simulate``: seeded ``--random-starts`` in JSON at 2, 3, 4 and 5 clocks
and three couplings (and in CSV at one), ``--phases`` in radians and with
``--deg``, a ``--max-cycles`` run that does not lock, the near-tie starts
``0,5e-324,3.0`` and ``0,2.2e-16,3.0``, and ``--trace-out`` to ``.jsonl``
and ``.csv``, also from the start ``0,0,3.0``, whose first kick record
has a clock at exactly ``2*pi`` in ``phases_before``, seeded random
starts at eps 0.9 with ``--tol 1e-12`` in CSV, some of which end in 2+1
clusters with differences near ``(2*pi, pi)`` and ``(pi, pi)``, a 5-clock
``--trace-out`` run to ``.jsonl`` and ``.csv`` at eps 0.5 from
``--phases 0,1.0,2.2,3.9,5.1`` with ``--tol 1e-10`` (730 kicks), and
the refused runs ``--phases 0,nan,3.0``, ``0,7.0,1.0``,
``0,6.283185307179586,1.0`` (a phase at ``2*pi``), ``1.0,2.0,3.0``,
``5e-10,1,3`` and ``6.2831853067,1,3`` (the reference off the threshold,
the last two within 1e-9 of it) and ``--splay-tol 0`` and ``--splay-tol
nan`` at eps 0.05, ``--eps 1 --phases 0,1,2`` and ``--eps -1``, and
``--seed 5`` given with ``--phases``.  Then the refused couplings of the
analysis commands, ``verify --eps 0.2``, ``verify --eps 0.05,0.2``,
``fixed-points --eps -1``, ``basins --eps nan``, ``step --eps 0 --x 1
--y 2`` and ``portrait --eps 5``, the malformed lists ``verify --eps
0.05,,0.06`` and ``simulate --eps 0.05 --phases 0,1,``, the refused
``andronov --mu -1`` and ``--h 0``, the escapements with no finite fixed
point or no limit cycle, ``andronov --mu 0``, ``--h 0.3``, ``--mu 1 --h 1``
with ``--steps`` 3 and 1 and ``--mu 1e-320 --h 1e200``, and three values
refused from a config file: ``eps = 0.2`` for ``fixed-points``, ``tol =
-1`` and ``resolution = 1`` for ``basins`` (``CONFIGS`` holds each file,
which the command's directory gets before it runs).  Then ``step`` from
a config file whose values are followed by a comment and hold a ``#``,
``out = a#b.csv``.  Then the refusals that a handler or a declared check
names by origin: ``simulate`` with ``deg = true`` and without phases,
with ``trace-out = kicks.txt`` and ``--phases`` and with ``trace-out =
kicks.jsonl`` and ``--random-starts 2``, each from a config file, ``step
--x 7 --y 1``, ``step`` with ``format = xml`` from a
config file, and ``basins --resolution 100000000``, whose raster fails at
once for want of memory (after about 1.6 GB of cell centres).  It ends
with the ``triclock`` command lines of the README's ``sh`` blocks, read
from the checkout's README.md, in README order.
Each command runs in an empty temporary directory, with
``TRICLOCK_OUTDIR`` unset.  OUTFILE gets one line per command: one sha256
of its standard output, its standard error and every file it left in that
directory (name and bytes, in sorted name order), then its exit code and
the command itself; a command that ends in argparse's usage error records
that exit code, and one that raises out of ``main`` records
``traceback:`` and the exception's type in its place.  Running the script
in two checkouts and comparing the two OUTFILEs with ``diff`` shows
whether a change altered any of those bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

# The config files that sweep commands name, by name.
CONFIGS = {"eps.cfg": "eps = 0.2\n", "tol.cfg": "tol = -1\n", "resolution.cfg": "resolution = 1\n",
           "deg.cfg": "deg = true\n", "trace-suffix.cfg": "trace-out = kicks.txt\n",
           "trace.cfg": "trace-out = kicks.jsonl\n", "format.cfg": "format = xml\n",
           "hash.cfg": "# step\neps = 0.05  # note\ncount = 2\t# two\nout = a#b.csv\n"}


def readme_examples(readme: str) -> list[list[str]]:
    """The ``triclock`` command lines of the README's ``sh`` blocks, as argv lists."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "triclock":
                commands.append(argv[1:])
    return commands


def sweep(readme: str) -> list[list[str]]:
    """The command lines of the sweep, as argv lists without ``triclock``."""
    commands = []
    for k in range(30):
        eps = str(round(0.01 + k / 300, 6))
        for fmt in ("text", "json"):
            commands.append(["verify", "--eps", eps, "--format", fmt])
    for eps in ("0.011", "0.05", "0.109"):
        for grid in ("100", "101", "301"):
            commands.append(["verify", "--eps", eps, "--grid", grid, "--format", "json"])
    commands.append(["verify", "--eps", "0.05", "--samples", "17", "--format", "json"])
    for eps in ("0.05", "0.011", "0.05", "0.109"):
        for extra in (["--grid", "300"], ["--grid", "100"], ["--grid", "300"],
                      ["--samples", "1000"], ["--samples", "17"], ["--samples", "1000"]):
            commands.append(["verify", "--eps", eps, *extra, "--format", "json"])
    commands.append(["verify", "--eps", "0.05", "--samples", "2", "--format", "json"])
    commands.append(["verify", "--eps", "0.1111", "--format", "json"])
    for eps in ("0.01", "0.035", "0.07", "0.105"):
        for grid in ("16", "33", "50"):
            for fmt in ("json", "csv"):
                commands.append(["fixed-points", "--eps", eps, "--seed-grid", grid,
                                 "--format", fmt])
    layers = ["basin_background", "invariant_segments", "heteroclinics", "fixed_points",
              "sample_orbits"]
    for layer in (",".join(layers), *layers, "", "bogus"):
        commands.append(["portrait", "--eps", "0.05", "--resolution", "64", "--layers", layer])
    for eps in ("0.02", "0.1"):
        commands.append(["portrait", "--eps", eps, "--layers", "heteroclinics"])
    commands.append(["portrait", "--eps", "0.05", "--resolution", "1"])
    # One refused value per other size or count option.
    for refused in (["step", "--eps", "0.05", "--x", "1", "--y", "2", "-n", "0"],
                    ["simulate", "--eps", "0.05", "--n-clocks", "1"],
                    ["simulate", "--eps", "0.05", "--random-starts", "0"],
                    ["simulate", "--eps", "0.05", "--max-cycles", "0"],
                    ["andronov", "--v0", "5", "--steps", "-1"],
                    ["fixed-points", "--eps", "0.05", "--seed-grid", "1"],
                    ["verify", "--eps", "0.05", "--samples", "1"],
                    ["verify", "--eps", "0.05", "--grid", "99"],
                    ["basins", "--eps", "0.05", "--resolution", "1"],
                    ["basins", "--eps", "0.05", "--max-iter", "-1"]):
        commands.append(refused)
    commands.append(["andronov", "--v0", "nan"])
    commands.append(["step", "--eps", "0.05", "--x", "-1e-3", "--y", "1"])
    commands.append(["step", "--eps", "0.05", "--x=-1e-3", "--y", "1"])
    commands.append(["andronov", "--v0", "-inf"])
    commands.append(["andronov", "--v0", "-1e-3"])
    commands.append(["basins", "--eps", "0.05", "--resolution", "200", "--format", "bin"])
    settings = ([], ["--tol", "0"], ["--max-iter", "0"], ["--max-iter", "1"])
    for fmt in ("bin", "csv", "svg"):
        for res in ("2", "3", "48", "144"):
            for eps in ("0.011", "0.05", "0.11"):
                for extra in settings[:3] if fmt == "svg" else settings:
                    commands.append(["basins", "--eps", eps, "--resolution", res,
                                     "--format", fmt, *extra])
    for extra in (["--eps", "2e-8", "--max-iter", "40"], ["--eps", "0.1111"],
                  ["--eps", "0.05", "--tol", "0.999"], ["--eps", "0.05", "--tol", "1"],
                  ["--eps", "0.05", "--tol", "2.5"]):
        for res in ("48", "200"):
            commands.append(["basins", *extra, "--resolution", res, "--format", "bin"])
    for tol in ("1e-9", "1e-12"):
        for eps in ("0.0063", "0.0387"):
            for res in ("48", "200"):
                commands.append(["basins", "--eps", eps, "--tol", tol, "--resolution", res,
                                 "--format", "bin"])
    commands.append(["basins", "--eps", "0.05", "--tol", "-1"])
    commands.append(["fixed-points", "--eps", "0.05", "--tol", "0"])
    commands.append(["simulate", "--eps", "0.05", "--tol", "0"])
    for eps in ("2e-8", "0.1111"):
        commands.append(["fixed-points", "--eps", eps, "--format", "json"])
        commands.append(["portrait", "--eps", eps, "--layers", "fixed_points"])
    for n in ("2", "3", "4", "5"):
        for eps in ("0.02", "0.05", "0.1"):
            commands.append(["simulate", "--eps", eps, "--n-clocks", n, "--random-starts", "6",
                             "--seed", "4", "--format", "json"])
        commands.append(["simulate", "--eps", "0.05", "--n-clocks", n, "--random-starts", "6",
                         "--seed", "9", "--format", "csv"])
    starts = (["--phases", "0,2.0,4.0"], ["--phases", "0,1.1,4.9"], ["--phases", "0,2.0,2.0"],
              ["--n-clocks", "4", "--phases", "0,0.7,2.9,5.1"],
              ["--phases", "0,120,240", "--deg"],
              ["--n-clocks", "4", "--phases", "0,100,250,300", "--deg"],
              ["--phases", "0,5e-324,3.0"], ["--phases", "0,2.2e-16,3.0"])
    for start in starts:
        for extra in (["--tol", "1e-8"], ["--max-cycles", "3", "--tol", "1e-20"],
                      ["--tol", "1e-8", "--trace-out", "trace.jsonl"],
                      ["--tol", "1e-8", "--trace-out", "trace.csv"]):
            commands.append(["simulate", "--eps", "0.1", *start, *extra])
    for trace in ("trace.jsonl", "trace.csv"):
        commands.append(["simulate", "--eps", "0.1", "--phases", "0,0,3.0", "--trace-out", trace])
    commands.append(["simulate", "--eps", "0.9", "--random-starts", "6", "--seed", "4",
                     "--tol", "1e-12", "--format", "csv"])
    for trace in ("trace.jsonl", "trace.csv"):
        commands.append(["simulate", "--eps", "0.5", "--n-clocks", "5",
                         "--phases", "0,1.0,2.2,3.9,5.1", "--tol", "1e-10", "--trace-out", trace])
    for phases in ("0,nan,3.0", "0,7.0,1.0", "0,6.283185307179586,1.0", "1.0,2.0,3.0",
                   "5e-10,1,3", "6.2831853067,1,3"):
        commands.append(["simulate", "--eps", "0.05", "--phases", phases])
    for splay_tol in ("0", "nan"):
        commands.append(["simulate", "--eps", "0.05", "--splay-tol", splay_tol])
    commands.append(["simulate", "--eps", "1", "--phases", "0,1,2"])
    commands.append(["simulate", "--eps", "-1"])
    commands.append(["simulate", "--eps", "0.05", "--phases", "0,2.0,4.0", "--seed", "5"])
    commands.extend([["verify", "--eps", "0.2"], ["verify", "--eps", "0.05,0.2"],
                     ["fixed-points", "--eps", "-1"], ["basins", "--eps", "nan"],
                     ["step", "--eps", "0", "--x", "1", "--y", "2"],
                     ["portrait", "--eps", "5"], ["verify", "--eps", "0.05,,0.06"],
                     ["simulate", "--eps", "0.05", "--phases", "0,1,"],
                     ["andronov", "--v0", "5", "--mu", "-1"], ["andronov", "--v0", "5", "--h", "0"],
                     ["andronov", "--v0", "5", "--mu", "0"], ["andronov", "--v0", "5", "--h", "0.3"],
                     ["andronov", "--v0", "5", "--mu", "1", "--h", "1", "--steps", "3"],
                     ["andronov", "--v0", "5", "--mu", "1", "--h", "1", "--steps", "1"],
                     ["andronov", "--v0", "5", "--mu", "1e-320", "--h", "1e200"],
                     ["fixed-points", "--config", "eps.cfg"],
                     ["basins", "--eps", "0.05", "--config", "tol.cfg"],
                     ["basins", "--eps", "0.05", "--config", "resolution.cfg"],
                     ["step", "--x", "1", "--y", "2", "--config", "hash.cfg"]])
    commands.extend([["simulate", "--eps", "0.05", "--config", "deg.cfg"],
                     ["simulate", "--eps", "0.05", "--phases", "0,2,4", "--config",
                      "trace-suffix.cfg"],
                     ["simulate", "--eps", "0.05", "--random-starts", "2",
                      "--config", "trace.cfg"],
                     ["step", "--eps", "0.05", "--x", "7", "--y", "1"],
                     ["step", "--eps", "0.05", "--x", "1", "--y", "2",
                      "--config", "format.cfg"],
                     ["basins", "--eps", "0.05", "--resolution", "100000000"]])
    commands.extend(readme_examples(readme))
    return commands


def run(main, args: list[str]) -> tuple[str, int | str]:
    """Run ``main(args)`` in an empty directory with stdout and stderr captured;
    one sha256 of those and of every file left in the directory, and the exit code."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in CONFIGS.keys() & set(args):
                Path(name).write_text(CONFIGS[name], encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(args)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
                except Exception as exc:  # a traceback exit
                    code = f"traceback:{type(exc).__name__}"
        finally:
            os.chdir(cwd)
        files = sorted((path.relative_to(tmp).as_posix(), path.read_bytes())
                       for path in Path(tmp).rglob("*") if path.is_file())
    out.flush()
    digest = hashlib.sha256(out.buffer.getvalue())
    digest.update(err.getvalue().encode("utf-8"))
    for name, data in files:
        digest.update(f"\0{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest(), code


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("TRICLOCK_OUTDIR", None)
    from triclock import cli

    lines = []
    for args in sweep((root / "README.md").read_text(encoding="utf-8")):
        digest, code = run(cli.main, args)
        lines.append(f"{digest}  {code}  {shlex.join(['triclock', *args])}\n")
    (root / argv[0]).write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
