"""Time one ``triclock`` command line as a fresh process in two checkouts,
in alternating pairs.

Run from anywhere:

    python3 tools/fresh_pairs.py BASE_DIR CHANGE_DIR [--pairs 10] -- ARGS...

ARGS is the command line without ``triclock``, e.g. ``verify --eps 0.05``.
Before the first pair, ``python3 -m compileall -q src`` runs in both
checkouts, as in ``tools/bench_pairs.py``.  Each pair runs the command once
per checkout, base first in even pairs and change first in odd ones, as a
new interpreter that imports ``triclock.cli`` from that checkout's ``src``,
in an empty temporary directory, with its output captured.  A run's time is
the wall time of the whole process, start-up included.  Standard output
gets each side's median and quartiles in ms, the number of pairs the change
was faster in, and whether the two sides gave the same exit code and the
same output bytes in every pair.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import compile_sources, summary  # noqa: E402

_CLI = "import sys; from triclock.cli import main; raise SystemExit(main(sys.argv[1:]))"


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair ``i`` in the order they run."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def run_once(checkout: Path, args: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and output digest of one fresh-process run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("TRICLOCK_OUTDIR", None)
    with tempfile.TemporaryDirectory() as cwd:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _CLI, *args], cwd=cwd, env=env,
                              capture_output=True)
        seconds = time.perf_counter() - start
    digest = hashlib.sha256(proc.stdout + b"\0" + proc.stderr).hexdigest()
    return seconds, proc.returncode, digest


def report(times: dict[str, list[float]]) -> list[str]:
    """One line per side (median and quartiles in ms) and the change's wins."""
    lines = []
    for side in ("base", "change"):
        s = summary(times[side])
        q1, q3 = s["quartiles"]
        lines.append(f"{side}: median {1e3 * s['median']:.1f} ms, "
                     f"quartiles {1e3 * q1:.1f}-{1e3 * q3:.1f} ms")
    base, change = times["base"], times["change"]
    wins = sum(c < b for b, c in zip(base, change))
    ratio = summary(change)["median"] / summary(base)["median"]
    lines.append(f"change faster in {wins}/{len(base)} pairs; median ratio {ratio:.3f}x")
    return lines


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: fresh_pairs.py BASE_DIR CHANGE_DIR [--pairs N] -- ARGS...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv[:cut])
    command = argv[cut + 1:]
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if not command:
        parser.error("give the triclock command line after --")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        compile_sources(checkout)
    times: dict[str, list[float]] = {"base": [], "change": []}
    same = True
    for i in range(args.pairs):
        outcome = {}
        for side in pair_order(i):
            seconds, code, digest = run_once(sides[side], command)
            times[side].append(seconds)
            outcome[side] = (code, digest)
            print(f"pair {i} {side}: {1e3 * seconds:.1f} ms, exit {code}", file=sys.stderr)
        same = same and outcome["base"] == outcome["change"]
    print(f"triclock {' '.join(command)}: {args.pairs} fresh-process pairs")
    print("\n".join(report(times)))
    print(f"same exit code and output in every pair: {'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
