"""The pair order and the summary lines of ``tools/fresh_pairs.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fresh_pairs.py"
_SPEC = importlib.util.spec_from_file_location("fresh_pairs", _PATH)
fresh_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fresh_pairs)


def test_the_side_that_runs_first_alternates():
    assert [fresh_pairs.pair_order(i) for i in range(4)] == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base")]


def test_report_gives_medians_quartiles_and_wins():
    base = [0.030, 0.028, 0.032, 0.029, 0.031]
    change = [0.020, 0.029, 0.021, 0.030, 0.019]
    assert fresh_pairs.report({"base": base, "change": change}) == [
        "base: median 30.0 ms, quartiles 29.0-31.0 ms",
        "change: median 21.0 ms, quartiles 20.0-29.0 ms",
        "change faster in 3/5 pairs; median ratio 0.700x",
    ]
