"""Run every ``triclock`` example in README.md and keep everything it writes.

Run from the root of a checkout:

    python3 tools/readme_examples.py OUTDIR

Example ``NN`` (in README order) runs as ``python -m triclock.cli ...``
with the checkout's ``src`` as ``PYTHONPATH`` and ``OUTDIR/NN`` as
its working directory.  Its standard output, standard error and exit code
go to ``stdout``, ``stderr`` and ``exit`` there, next to any file it names
with ``--out`` or ``--trace-out``; ``command`` holds the example itself.
Running the script in two checkouts and comparing the two OUTDIRs with
``diff -r`` shows whether a change altered any example's output.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path


def readme_examples(readme: str) -> list[list[str]]:
    """The ``triclock`` command lines of the README's ``sh`` blocks, as argv lists."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "triclock":
                commands.append(argv[1:])
    return commands


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path.cwd()
    outdir = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("TRICLOCK_OUTDIR", None)
    examples = readme_examples((root / "README.md").read_text(encoding="utf-8"))
    for i, args in enumerate(examples, start=1):
        workdir = outdir / f"{i:02d}"
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "command").write_text(shlex.join(["triclock", *args]) + "\n", encoding="utf-8")
        with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
            proc = subprocess.run([sys.executable, "-m", "triclock.cli", *args],
                                  cwd=workdir, env=env, stdout=out, stderr=err)
        (workdir / "exit").write_text(f"{proc.returncode}\n", encoding="utf-8")
        print(f"{i:02d} exit {proc.returncode}: triclock {shlex.join(args)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
