import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triclock import analysis, basin, events
from triclock.core import CouplingParams

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



P = CouplingParams(epsilon=0.05)


# Every library entry that takes a size or a count, called with ``True`` for
# it.  (``basin.read_grid_binary``'s header resolution, the tenth library
# size, is unpacked from an ``int64`` and so is never a bool.)
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("seed_grid", lambda: analysis.find_fixed_points(seed_grid=True, params=P),
                     id="find_fixed_points-seed_grid"),
        pytest.param("samples", lambda: analysis.verify_invariance(
            analysis.invariant_segments()[0], P, samples=True), id="verify_invariance-samples"),
        pytest.param("grid", lambda: analysis.orbital_derivative_scan("upper", P, grid=True),
                     id="orbital_derivative_scan-grid"),
        pytest.param("resolution", lambda: basin.rasterize(True, P), id="rasterize-resolution"),
        pytest.param("workers", lambda: basin.rasterize(10, P, workers=True),
                     id="rasterize-workers"),
        pytest.param("max_iter", lambda: basin.rasterize(10, P, max_iter=True),
                     id="rasterize-max_iter"),
        pytest.param("max_iter", lambda: basin.classify_point((1.0, 2.0), P, max_iter=True),
                     id="classify_point-max_iter"),
        pytest.param("n", lambda: basin.orbit((1.0, 2.0), P, True), id="orbit-n"),
        pytest.param("max_cycles", lambda: events.run_until_locked(
            events.ClockEnsemble([0.0, 1.0, 2.5], P), 1e-10, max_cycles=True),
            id="run_until_locked-max_cycles"),
    ],
)
def test_every_library_size_refuses_a_bool(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
        call()
