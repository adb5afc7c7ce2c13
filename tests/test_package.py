import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(statement):
    """The ``triclock`` modules a fresh interpreter holds after ``statement``."""
    code = (f"import json, sys; {statement}; print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'triclock' or m.startswith('triclock.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "statement, modules",
    [("import triclock", ["triclock"]),
     ("import triclock.core", ["triclock", "triclock.core"]),
     ("import triclock.events", ["triclock", "triclock.core", "triclock.events"])],
)
def test_a_module_loads_only_what_it_imports(statement, modules):
    assert loaded_after(statement) == modules


def test_the_package_holds_only_its_version():
    import triclock

    public = {name for name in vars(triclock) if not name.startswith("_")}
    assert public <= {"core", "events", "analysis", "basin", "render", "cli"}
    assert triclock.__version__ == "0.1.0"
