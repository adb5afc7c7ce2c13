"""The verdicts ``tools/bench_pairs.py`` prints from a report of paired runs,
the bytecode it writes before the first pair, and its host parallel ratio."""

import importlib.util
import os
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15}


def report(base, change):
    return {"workloads": {"lock-sim": {"wall_s": {
        "base": bench_pairs.summary(base),
        "change": bench_pairs.summary(change),
        "per_pair": {"base": base, "change": change},
    }}}}


BASE = [5.0, 5.1, 4.9, 5.0, 5.2, 4.8, 5.0, 5.1, 4.9, 5.0]


@pytest.mark.parametrize("change, holds", [
    ([b * 0.85 for b in BASE], True),
    ([b * 0.85 for b in BASE[:8]] + [6.0, 6.0], False),   # 8 of 10 pairs won
    ([b - 0.05 for b in BASE], False),                     # gap within the base's spread
    ([b * 1.2 for b in BASE], False),
])
def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread(change, holds):
    line = bench_pairs.claim_verdict(report(BASE, change), "lock-sim", WALL)
    assert line.endswith(": holds") == holds


@pytest.mark.parametrize("factor, verdict", [(1.0, "ok"), (1.14, "ok"), (1.16, "worse"),
                                             (0.5, "ok")])
def test_regression_against_the_bound(factor, verdict):
    line, = bench_pairs.regression_verdicts(report(BASE, [b * factor for b in BASE]), [WALL])
    assert line.endswith(f": {verdict}")


def test_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 2.0, 1.0, 2.0]
    assert statistics.median(base) == 1.5
    line, = bench_pairs.regression_verdicts(report(base, base), [WALL])
    assert line.endswith(": unresolved")
    line, = bench_pairs.regression_verdicts(report(base, [0.9] * 10), [WALL])
    assert line.endswith(": ok")


def test_compile_sources_writes_the_caches_of_src_only(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    sources = [package / "__init__.py", package / "mod.py"]
    for path in sources:
        path.write_text("VALUE = 1\n")
    (tmp_path / "tools.py").write_text("VALUE = 2\n")
    bench_pairs.compile_sources(tmp_path)
    for path in sources:
        assert Path(importlib.util.cache_from_source(str(path))).is_file()
    assert not (tmp_path / "__pycache__").exists()


def test_parallel_ratio_times_forked_spinners_and_reaps_them():
    ratio = bench_pairs.parallel_ratio(rounds=3, loops=20_000)
    assert len(ratio["rounds"]) == 3 and all(r > 0.0 for r in ratio["rounds"])
    assert ratio["median"] == statistics.median(ratio["rounds"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
