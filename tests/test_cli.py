import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triclock import analysis, basin, cli, events, render
from triclock.analysis import FixedPointRecord
from triclock.basin import read_grid_binary
from triclock.cli import main
from triclock.core import CouplingParams, json_data
from triclock.events import ClockEnsemble, read_events_jsonl, run_cycle

PI = math.pi
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def subparsers():
    """The subcommands' parsers, by name."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

class TestStep:
    def test_fixed_point_rows_identical_within_rounding(self, capsys):
        code, out, _ = run_cli(
            capsys, "step", "--x", "2.0944", "--y", "4.1888", "--eps", "0.05", "-n", "10"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["x", "y"]
        assert len(rows) == 11
        values = np.array([[float(a), float(b)] for a, b in rows[1:]])
        assert np.max(np.abs(values - values[0])) < 1e-3

    def test_single_step_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "step", "--x", "1.5708", "--y", "4.7124", "--eps", "0.01", "-n", "1"
        )
        assert code == 0
        row = parse_csv(out)[1]
        assert float(row[0]) == pytest.approx(1.5808, abs=1e-4)
        assert float(row[1]) == pytest.approx(4.7024, abs=1e-4)

    def test_missing_coordinate_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "step", "--x", "1.0", "--eps", "0.05")
        assert code == 2
        assert "--y" in err

    def test_start_outside_square_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "step", "--eps", "0.05", "--x", "7", "--y", "-1")
        assert code == 2
        assert out == ""
        assert err == "triclock: error: --x: point (7.0, -1.0) outside the square\n"

    def test_separate_negative_exponent_reaches_the_square_check(self, capsys):
        # argparse alone reads a separate "-1e-3" as an unknown flag.
        code, out, err = run_cli(capsys, "step", "--eps", "0.05", "--x", "-1e-3", "--y", "1")
        assert (code, out) == (2, "")
        assert err == "triclock: error: --x: point (-0.001, 1.0) outside the square\n"

    def test_non_numeric_value_is_still_a_parser_error(self, capsys):
        for value, message in (("--y", "expected one argument"),
                               ("abc", "invalid float value: 'abc'")):
            with pytest.raises(SystemExit) as exc:
                main(["step", "--eps", "0.05", "--x", value, "--y", "1"])
            assert exc.value.code == 2
            assert f"argument --x: {message}" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "step", "--x", "1.0", "--y", "2.0", "--eps", "0.05", "-n", "3",
            "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["orbit"]) == 3

    def test_degrees_flag(self, capsys):
        _, out_rad, _ = run_cli(capsys, "step", "--x", str(PI), "--y", str(PI), "--eps", "0.05")
        _, out_deg, _ = run_cli(
            capsys, "step", "--x", "180", "--y", "180", "--eps", "0.05", "--deg"
        )
        a = [float(v) for v in parse_csv(out_rad)[1]]
        b = [float(v) for v in parse_csv(out_deg)[1]]
        assert a == pytest.approx(b, abs=1e-12)

    def test_unknown_format_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05", "--format", "yaml"
        )
        assert code == 2

    def test_count_of_zero_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05", "-n", "0"
        )
        assert (code, out) == (2, "")
        assert err == "triclock: error: -n: count must be at least 1, got 0\n"


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------

class TestFixedPoints:
    def test_json_census(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--eps", "0.05")
        assert code == 0
        payload = json.loads(out)
        records = payload["fixed_points"]
        assert len(records) == 11
        kinds = [r["kind"] for r in records]
        assert kinds.count("attractor") == 2
        assert kinds.count("repeller") == 4
        assert kinds.count("saddle") == 5
        # lossless report round trip
        for r in records:
            rec = FixedPointRecord.from_dict(r)
            assert json.loads(json.dumps(rec, default=json_data)) == r

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--eps", "0.05", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["x", "y", "eig_1", "eig_2", "class"]
        assert len(rows) == 12

    def test_coupling_bound_refused(self, capsys):
        code, _, err = run_cli(capsys, "fixed-points", "--eps", "0.2")
        assert code == 2
        assert "1/9" in err

    def test_zero_coupling_refused(self, capsys):
        code, _, _ = run_cli(capsys, "fixed-points", "--eps", "0.0")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_meaningless_tolerance_refused(self, capsys, tol):
        code, out, err = run_cli(capsys, "fixed-points", "--eps", "0.05", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol must be finite and > 0" in err

    def test_tolerance_above_the_residual_bound_refused(self, capsys):
        # Newton would stop at roots that classify refuses as fixed points.
        code, out, err = run_cli(capsys, "fixed-points", "--eps", "0.05", "--tol", "1e-6")
        assert code == 2
        assert out == ""
        assert "tol must be finite and > 0 and at most 1e-10, got 1e-06" in err


# ---------------------------------------------------------------------------
# basins
# ---------------------------------------------------------------------------

class TestBasins:
    def test_csv_grid(self, capsys):
        code, out, _ = run_cli(capsys, "basins", "--eps", "0.05", "--resolution", "6")
        assert code == 0
        blocks = out.split("\n\n")
        labels = blocks[0].splitlines()
        assert len(labels) == 6
        assert all(len(r.split(",")) == 6 for r in labels)

    def test_counts_balanced(self, capsys):
        _, out, _ = run_cli(capsys, "basins", "--eps", "0.05", "--resolution", "40")
        labels = [row.split(",") for row in out.split("\n\n")[0].splitlines()]
        flat = [v for row in labels for v in row]
        upper, lower = flat.count("upper"), flat.count("lower")
        assert upper == lower

    def test_binary_output(self, capsys, tmp_path):
        target = tmp_path / "grid.bin"
        code, _, _ = run_cli(
            capsys, "basins", "--eps", "0.05", "--resolution", "8",
            "--format", "bin", "--out", str(target),
        )
        assert code == 0
        with open(target, "rb") as fh:
            grid = read_grid_binary(fh)
        assert grid.resolution == 8

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "-1"), ("--tol", "nan"), ("--max-iter", "-3")],
    )
    def test_meaningless_budget_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "basins", "--eps", "0.05", "--resolution", "6", flag, value
        )
        assert code == 2
        assert out == ""
        assert flag.lstrip("-") in err

    def test_svg_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "basins", "--eps", "0.05", "--resolution", "12", "--format", "svg"
        )
        assert code == 0
        assert out.startswith('<?xml') and "#dbe9f6" in out and "#fbe8d3" in out

    def test_workers_refused(self, capsys, tmp_path):
        # The raster runs in one thread, so basins takes no worker count.
        with pytest.raises(SystemExit) as exc:
            main(["basins", "--eps", "0.05", "--resolution", "6", "--workers", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --workers 2" in captured.err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        code, out, err = run_cli(capsys, "basins", "--eps", "0.05", "--config", str(cfg))
        assert (code, out) == (2, "") and "unknown key 'workers' for basins" in err

    def test_out_of_memory_is_one_failed_line(self, capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.88 PiB for an array")

        monkeypatch.setattr(basin, "rasterize", exhaust)
        code, out, err = run_cli(capsys, "basins", "--eps", "0.05", "--resolution", "100000000")
        assert (code, out, err) == (1, "", "triclock: failed: Unable to allocate 8.88 PiB "
                                           "for an array\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_three_clock_lock_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.0,4.0",
            "--tol", "1e-8", "--splay-tol", "1e-6",
        )
        assert code == 0
        report = json.loads(out)
        run = report["runs"][0]
        assert run["locked"] and run["near_splay"]
        assert run["splay_distance"] < 1e-6
        assert report["summary"]["near_splay_fraction"] == 1.0

    def test_diagonal_start_saddle_configuration(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.5,2.5", "--tol", "1e-8"
        )
        assert code == 0
        run = json.loads(out)["runs"][0]
        assert run["locked"] and not run["near_splay"]
        x, y = run["differences"]
        assert x == y
        assert abs(x - PI) < 1e-3

    def test_five_clock_exploration(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--eps", "0.02", "--n-clocks", "5",
            "--random-starts", "3", "--seed", "1", "--max-cycles", "400",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["runs"]) == 3
        assert all(len(r["differences"]) == 4 for r in report["runs"])

    def test_too_few_clocks(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--eps", "0.05", "--n-clocks", "1")
        assert code == 2

    def test_phases_arity_checked(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--eps", "0.05", "--phases", "0,1.0")
        assert code == 2

    def test_no_random_starts_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--eps", "0.05", "--random-starts", "0")
        assert (code, out) == (2, "")
        assert err == "triclock: error: --random-starts: random_starts must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "extra, config",
        [(["--random-starts", "1", "--deg"], ""), (["--deg"], ""),
         (["--random-starts", "2"], "deg = true\n"), ([], "deg = TRUE\n")],
        ids=["random-flag", "default-flag", "random-config", "default-config"],
    )
    def test_degrees_need_phases(self, capsys, tmp_path, monkeypatch, extra, config):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated random starts given in degrees")

        monkeypatch.setattr(events, "run_until_locked", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = run_cli(capsys, "simulate", "--eps", "0.05", "--max-cycles", "2",
                                 "--config", str(cfg), *extra)
        assert (code, out) == (2, "")
        origin = "config key 'deg'" if config else "--deg"
        assert err == (f"triclock: error: {origin}: applies only to --phases; random starts "
                       "are drawn in radians\n")

    def test_phases_and_random_conflict(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,1,2", "--random-starts", "5"
        )
        assert code == 2

    @staticmethod
    def cycle_by_cycle_events(phases, eps, cycles):
        state = ClockEnsemble(np.array(phases), CouplingParams(epsilon=eps))
        events = []
        for cycle in range(cycles):
            trace = run_cycle(state, cycle_index=cycle, record=True)
            events.extend(trace.events)
            state = trace.end_state
        return events

    def test_trace_jsonl(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.0,4.0",
            "--max-cycles", "5", "--tol", "1e-20", "--trace-out", str(target),
        )
        assert code == 0
        with open(target, encoding="utf-8") as fh:
            events = read_events_jsonl(fh)
        assert len(events) == 15  # 3 kicks per cycle, 5 cycles
        assert events[0].cycle_index == 0 and events[-1].cycle_index == 4
        expected = self.cycle_by_cycle_events([0.0, 2.0, 4.0], 0.05, 5)
        assert [json_data(ev) for ev in events] == [json_data(ev) for ev in expected]

    def test_trace_of_a_locked_run(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            capsys, "simulate", "--eps", "0.02", "--n-clocks", "4", "--phases", "0,1,3,5",
            "--max-cycles", "300", "--trace-out", str(target),
        )
        assert code == 0
        cycles = json.loads(out)["runs"][0]["cycles"]
        with open(target, encoding="utf-8") as fh:
            events = read_events_jsonl(fh)
        expected = self.cycle_by_cycle_events([0.0, 1.0, 3.0, 5.0], 0.02, cycles)
        assert [json_data(ev) for ev in events] == [json_data(ev) for ev in expected]

    def test_trace_csv(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.0,4.0",
            "--max-cycles", "2", "--tol", "1e-20", "--trace-out", str(target),
        )
        assert code == 0
        rows = target.read_text().strip().splitlines()
        assert rows[0] == "cycle_index,kicker,psi_1,psi_2,psi_3"
        assert len(rows) == 7
        expected = self.cycle_by_cycle_events([0.0, 2.0, 4.0], 0.05, 2)
        assert rows[1:] == [
            ",".join([str(ev.cycle_index), str(ev.kicking_clock)]
                     + [repr(float(v)) for v in ev.phases_after])
            for ev in expected
        ]

    def test_trace_lands_under_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TRICLOCK_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.0,4.0",
            "--max-cycles", "2", "--tol", "1e-20", "--trace-out", "sub/trace.csv",
        )
        assert code == 0
        assert (tmp_path / "sub" / "trace.csv").read_text().startswith("cycle_index,")

    def test_trace_suffix_checked(self, capsys, tmp_path):
        target = tmp_path / "trace.txt"
        code, _, err = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.0,4.0",
            "--trace-out", str(target),
        )
        assert code == 2 and ".jsonl or .csv" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "eps, phases", [("5", "0,1,2"), ("1", "0,1,2"), ("0.05", "0,nan,2"), ("0.05", "0,inf,2")]
    )
    def test_meaningless_coupling_or_phases_rejected(self, capsys, eps, phases):
        code, out, _ = run_cli(capsys, "simulate", "--eps", eps, "--phases", phases)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "nan"), ("--tol", "inf"), ("--splay-tol", "nan"), ("--splay-tol", "inf"),
         ("--splay-tol", "0"), ("--splay-tol", "-0.001")],
    )
    def test_meaningless_tolerance_rejected(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "simulate", "--eps", "0.05", "--phases", "0,2.0,4.0", flag, value
        )
        assert code == 2 and out == ""
        assert "tol must be finite and > 0" in err

    def test_trace_needs_single_start(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--eps", "0.05", "--random-starts", "2",
            "--trace-out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    @pytest.mark.parametrize("eps", ["0.05", "0.10"])
    def test_passes_under_coupling_bound(self, capsys, eps):
        code, out, _ = run_cli(
            capsys, "verify", "--eps", eps, "--samples", "400", "--grid", "120"
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--eps", "0.05", "--samples", "200", "--grid", "100",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["census"]["counts"] == {"sa": 6, "rs": 10, "ra": 2}
        assert len(report["segments"]) == 10
        assert json.loads(json.dumps(report)) == report

    def test_zero_coupling_refused(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--eps", "0.0")
        assert code == 2

    def test_several_couplings_give_the_single_reports(self, capsys):
        couplings = ("0.05", "0.1", "0.05")
        opts = ("--samples", "200", "--grid", "100")
        for fmt in ("text", "json"):
            singles = [run_cli(capsys, "verify", "--eps", eps, *opts, "--format", fmt)
                       for eps in couplings]
            code, out, err = run_cli(capsys, "verify", "--eps", ",".join(couplings), *opts,
                                     "--format", fmt)
            assert (code, err) == (0, "")
            if fmt == "text":
                assert out == "".join(single for _, single, _ in singles)
            else:
                assert json.loads(out) == [json.loads(single) for _, single, _ in singles]

    def test_one_failing_coupling_fails_the_run(self, capsys, monkeypatch):
        real = analysis.heteroclinic_census

        def failing(params):
            census = real(params)
            if params.epsilon != 0.1:
                return census
            return dataclasses.replace(census, counts={**census.counts, "sa": 5})

        monkeypatch.setattr(analysis, "heteroclinic_census", failing)
        code, out, _ = run_cli(capsys, "verify", "--eps", "0.05,0.1", "--samples", "200",
                               "--grid", "100")
        assert code == 1
        assert [line for line in out.splitlines() if line in ("PASS", "FAIL")] == ["PASS", "FAIL"]

    @pytest.mark.parametrize("couplings", ["0.05,0.2", "0.05,0", "-0.05"])
    def test_a_coupling_out_of_range_refuses_the_run_before_any_work(
        self, capsys, monkeypatch, couplings
    ):
        calls = []
        monkeypatch.setattr(analysis, "verify_invariance", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "verify", "--eps", couplings)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("triclock: error: ")

    def test_census_names_each_fixed_point_by_the_tables_floats(self, capsys):
        # Every orbit end, traced or a segment root, is spelled as its row of
        # the fixed-point table: eleven points, eleven spellings.
        table = {tuple(map(repr, row)) for row in analysis.known_fixed_points().tolist()}
        opts = ("--samples", "2", "--grid", "100", "--format", "json")
        reports = []
        for eps in ("0.011", "0.05", "0.109"):
            code, out, _ = run_cli(capsys, "verify", "--eps", eps, *opts)
            assert code == 0
            reports.append(json.loads(out))
        code, out, _ = run_cli(capsys, "verify", "--eps", "0.011,0.05,0.109", *opts)
        assert code == 0
        reports.extend(json.loads(out))
        for report in reports:
            ends = {tuple(map(repr, orbit[end])) for orbit in report["census"]["orbits"]
                    for end in ("source", "target")}
            assert ends == table and len(ends) == 11

    @pytest.mark.parametrize("couplings", ["0.05,", "0.05,x", ""])
    def test_a_malformed_coupling_is_a_parser_error(self, capsys, couplings):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--eps", couplings])
        assert exc.value.code == 2
        assert "argument --eps: invalid" in capsys.readouterr().err

    ARGV = ("verify", "--eps", "0.05", "--samples", "200", "--grid", "100")

    def test_failed_segment_names_its_bound(self, capsys, monkeypatch):
        real = analysis.verify_invariance
        broken = {"d1": {"max_deviation": 3e-12}, "c2": {"monotone": False}}

        def failing(segments, params, **kwargs):
            # verify checks all ten segments in one batched call.
            checks = real(segments, params, **kwargs)
            return tuple(dataclasses.replace(check, **broken.get(check.name, {}))
                         for check in checks)

        monkeypatch.setattr(analysis, "verify_invariance", failing)
        code, out, _ = run_cli(capsys, *self.ARGV)
        lines = {line.split()[1]: line for line in out.splitlines() if line.startswith("segment")}
        assert code == 1 and out.endswith("\nFAIL\n")
        assert lines["d1"].endswith(
            "FAIL  max_deviation=3.000e-12  monotone=True  (max_deviation=3.000e-12 >= 1e-12)"
        )
        assert " FAIL " in lines["c2"]
        assert lines["c2"].endswith("monotone=False  (restriction map not monotone)")
        assert " pass " in lines["s0"] and lines["s0"].endswith("monotone=True")

    def test_failed_census_names_the_expected_counts(self, capsys, monkeypatch):
        real = analysis.heteroclinic_census

        def failing(params):
            census = real(params)
            return dataclasses.replace(census, counts={**census.counts, "sa": 5})

        monkeypatch.setattr(analysis, "heteroclinic_census", failing)
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 1
        assert ("heteroclinic census {'sa': 5, 'rs': 10, 'ra': 2} FAIL"
                "  (expected sa == 6, rs == 10, ra >= 2)\n") in out

    def test_failed_scan_names_its_bounds(self, capsys, monkeypatch):
        real = analysis.orbital_derivative_scan
        far = np.array([[2.0, 1.0]])  # in the lower triangle, a radian from any fixed point

        def failing(region, params, **kwargs):
            scan = real(region, params, **kwargs)
            zero_set = np.concatenate((scan.zero_set, far if region == "lower" else far[:, ::-1]))
            max_df = 2.5e-9 if region == "upper" else scan.max_df
            return dataclasses.replace(scan, max_df=max_df, zero_set=zero_set)

        monkeypatch.setattr(analysis, "orbital_derivative_scan", failing)
        code, out, _ = run_cli(capsys, *self.ARGV)
        lines = {line.split()[1]: line for line in out.splitlines() if line.startswith("lyapunov")}
        assert code == 1
        bound = "1 zero-set points farther than 2 cells from a fixed point"
        assert lines["upper"].endswith(
            f"FAIL  max_df=2.500e-09  zero_set=7  (max_df=2.500e-09 > 1e-12; {bound})"
        )
        assert lines["lower"].endswith(f"zero_set=7  ({bound})")


# A refused value names its origin, its flag or its config key, exits 2 and
# writes no --out file.  The argument after "--config" is the file's text.
_RANGE = "outside the analysis range (1e-08, 1/9 ~= 0.111111)"
REFUSED_VALUES = [
    (["verify", "--eps", "0.2"],
     f"triclock: error: --eps: epsilon=0.2 {_RANGE}\n"),
    (["verify", "--eps", "0.05,0.2"],
     f"triclock: error: --eps: epsilon=0.2 {_RANGE}\n"),
    (["fixed-points", "--eps", "-1"],
     "triclock: error: --eps: epsilon must be finite and >= 0, got -1.0\n"),
    (["basins", "--eps", "nan"],
     "triclock: error: --eps: epsilon must be finite and >= 0, got nan\n"),
    (["step", "--eps", "0", "--x", "1", "--y", "2"],
     f"triclock: error: --eps: epsilon=0.0 {_RANGE}\n"),
    (["portrait", "--eps", "5"],
     f"triclock: error: --eps: epsilon=5.0 {_RANGE}\n"),
    (["verify", "--eps", "0.05,,0.06"],
     "triclock verify: error: argument --eps: invalid couplings value: '0.05,,0.06'\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,1,"],
     "triclock: error: --phases: could not convert string to float: ''\n"),
    (["simulate", "--eps", "1", "--phases", "0,1,2"],
     "triclock: error: --eps: the simulator needs eps < 1, got eps=1.0\n"),
    (["simulate", "--eps", "-1"],
     "triclock: error: --eps: epsilon must be finite and >= 0, got -1.0\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,7,1"],
     "triclock: error: --phases: phases must be finite and normalized to [0, 2*pi), "
     "got (0.0, 7.0, 1.0)\n"),
    (["simulate", "--eps", "0.05", "--phases", "1,2,3"],
     "triclock: error: --phases: the reference clock must start at the kick threshold, "
     "got 1.0\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,1"],
     "triclock: error: --phases: lists 2 values for 3 clocks\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,2,4", "--seed", "5"],
     "triclock: error: --seed: applies only to random starts, not to --phases\n"),
    (["andronov", "--v0", "5", "--mu", "-1"],
     "triclock: error: --mu: mu must be finite and >= 0, got -1.0\n"),
    (["andronov", "--v0", "5", "--h", "0"],
     "triclock: error: --h: h must be finite and > 0, got 0.0\n"),
    (["andronov", "--v0", "5", "--mu", "0"],
     "triclock: error: --mu: the escapement fixed point requires mu > 0\n"),
    (["andronov", "--v0", "5", "--h", "0.3"],
     "triclock: error: --h: the escapement has no limit cycle at mu=0.1, h=0.3: "
     "v_f=0.3125 is not above 4*mu = 0.4 (requires h > 4*mu)\n"),
    (["andronov", "--v0", "5", "--mu", "1", "--h", "1", "--steps", "1"],
     "triclock: error: --mu: the escapement has no limit cycle at mu=1.0, h=1.0: "
     "v_f=2.125 is not above 4*mu = 4.0 (requires h > 4*mu)\n"),
    (["andronov", "--v0", "5", "--mu", "1e-320"],
     "triclock: error: --mu: the escapement fixed point overflows at mu=1e-320, h=1.0\n"),
    (["andronov", "--v0", "5", "--h", "1e308"],
     "triclock: error: --h: the escapement fixed point overflows at mu=0.1, h=1e+308\n"),
    (["verify", "--config", "eps = 0.05,0.2"],
     f"triclock: error: config key 'eps': epsilon=0.2 {_RANGE}\n"),
    (["simulate", "--config", "eps = 1"],
     "triclock: error: config key 'eps': the simulator needs eps < 1, got eps=1.0\n"),
    (["simulate", "--eps", "0.05", "--config", "phases = 1,2,3"],
     "triclock: error: config key 'phases': the reference clock must start at the kick "
     "threshold, got 1.0\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,2,4", "--config", "seed = 5"],
     "triclock: error: config key 'seed': applies only to random starts, not to --phases\n"),
    (["simulate", "--eps", "0.05", "--config", "splay-tol = nan"],
     "triclock: error: config key 'splay-tol': tol must be finite and > 0, got nan\n"),
    (["andronov", "--v0", "5", "--config", "mu = -1"],
     "triclock: error: config key 'mu': mu must be finite and >= 0, got -1.0\n"),
    (["andronov", "--v0", "5", "--config", "mu = 0"],
     "triclock: error: config key 'mu': the escapement fixed point requires mu > 0\n"),
    (["andronov", "--v0", "5", "--config", "h = 0.3"],
     "triclock: error: config key 'h': the escapement has no limit cycle at mu=0.1, h=0.3: "
     "v_f=0.3125 is not above 4*mu = 0.4 (requires h > 4*mu)\n"),
    (["andronov", "--v0", "5", "--h", "1", "--config", "mu = 1"],
     "triclock: error: config key 'mu': the escapement has no limit cycle at mu=1.0, h=1.0: "
     "v_f=2.125 is not above 4*mu = 4.0 (requires h > 4*mu)\n"),
    (["andronov", "--v0", "5", "--config", "mu = 1e-320"],
     "triclock: error: config key 'mu': the escapement fixed point overflows at mu=1e-320, "
     "h=1.0\n"),
    (["andronov", "--v0", "5", "--config", "h = 1e308"],
     "triclock: error: config key 'h': the escapement fixed point overflows at mu=0.1, "
     "h=1e+308\n"),
    (["andronov", "--config", "v0 = 0.3"],
     "triclock: error: config key 'v0': v=0.3 is outside the limit-cycle basin "
     "(requires v > 4*mu = 0.4)\n"),
    (["simulate", "--eps", "0.05", "--deg"],
     "triclock: error: --deg: applies only to --phases; random starts are drawn in radians\n"),
    (["simulate", "--eps", "0.05", "--config", "deg = true"],
     "triclock: error: config key 'deg': applies only to --phases; random starts are drawn "
     "in radians\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,2,4", "--random-starts", "2"],
     "triclock: error: --random-starts: cannot be given with --phases\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,2,4", "--config", "random-starts = 2"],
     "triclock: error: config key 'random-starts': cannot be given with --phases\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,2,4", "--trace-out", "k.txt"],
     "triclock: error: --trace-out: 'k.txt' must end in .jsonl or .csv\n"),
    (["simulate", "--eps", "0.05", "--phases", "0,2,4", "--config", "trace-out = k.txt"],
     "triclock: error: config key 'trace-out': 'k.txt' must end in .jsonl or .csv\n"),
    (["simulate", "--eps", "0.05", "--random-starts", "2", "--trace-out", "k.jsonl"],
     "triclock: error: --trace-out: needs a single-start run\n"),
    (["simulate", "--eps", "0.05", "--random-starts", "2", "--config", "trace-out = k.jsonl"],
     "triclock: error: config key 'trace-out': needs a single-start run\n"),
    (["step", "--eps", "0.05", "--x", "7", "--y", "1"],
     "triclock: error: --x: point (7.0, 1.0) outside the square\n"),
    (["step", "--eps", "0.05", "--y", "1", "--config", "x = 7"],
     "triclock: error: config key 'x': point (7.0, 1.0) outside the square\n"),
    (["step", "--eps", "0.05", "--x", "1", "--y", "7"],
     "triclock: error: --y: point (1.0, 7.0) outside the square\n"),
    (["step", "--eps", "0.05", "--x", "1", "--config", "y = 7"],
     "triclock: error: config key 'y': point (1.0, 7.0) outside the square\n"),
    (["portrait", "--eps", "0.05", "--layers", "bogus"],
     f"triclock: error: --layers: unknown layers: ['bogus']; choose from {render.LAYERS}\n"),
    (["portrait", "--eps", "0.05", "--config", "layers = bogus"],
     "triclock: error: config key 'layers': unknown layers: ['bogus']; "
     f"choose from {render.LAYERS}\n"),
    (["step", "--eps", "0.05", "--x", "1", "--y", "2", "--format", "xml"],
     "triclock: error: --format: step cannot emit format 'xml'; choose from ('csv', 'json')\n"),
    (["step", "--eps", "0.05", "--x", "1", "--y", "2", "--config", "format = xml"],
     "triclock: error: config key 'format': step cannot emit format 'xml'; "
     "choose from ('csv', 'json')\n"),
]


@pytest.mark.parametrize("argv, message", REFUSED_VALUES,
                         ids=[shlex.join(argv) for argv, _ in REFUSED_VALUES])
def test_a_refused_value_names_its_flag(argv, message, capsys, tmp_path, monkeypatch):
    if "--config" in argv:
        at = argv.index("--config") + 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[at] + "\n")
        argv = [*argv[:at], str(cfg), *argv[at + 1:]]
    outdir = tmp_path / "out"
    monkeypatch.setenv("TRICLOCK_OUTDIR", str(outdir))
    try:
        code = main([*argv, "--out", "out.txt"])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines(keepends=True)[-1] == message
    assert not outdir.exists()


def test_a_malformed_coupling_in_a_config_file_names_its_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.05,,x\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "triclock: error: config key 'eps': could not convert string to float: ''\n"


# ---------------------------------------------------------------------------
# andronov
# ---------------------------------------------------------------------------

class TestAndronov:
    def test_convergence_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "andronov", "--mu", "0.1", "--h", "1", "--v0", "5", "--steps", "200"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["n", "v", "v_minus_fixed_point"]
        assert float(rows[-1][1]) == pytest.approx(1.45, abs=1e-10)

    def test_fixed_start_is_constant_column(self, capsys):
        _, out, _ = run_cli(
            capsys, "andronov", "--mu", "0.1", "--h", "1", "--v0", "1.45", "--steps", "20"
        )
        values = {row[1] for row in parse_csv(out)[1:]}
        assert len(values) == 1

    def test_basin_boundary_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "andronov", "--mu", "0.1", "--h", "1", "--v0", "0.4")
        assert code == 2
        assert "4*mu" in err

    @pytest.mark.parametrize("v0", ["nan", "inf"])
    def test_non_finite_start_refused(self, capsys, monkeypatch, v0):
        def refuse(*args, **kwargs):
            raise AssertionError("stepped a non-finite start")

        monkeypatch.setattr(cli, "andronov_step", refuse)
        code, out, err = run_cli(capsys, "andronov", "--v0", v0)
        assert (code, out) == (2, "")
        assert err == f"triclock: error: --v0: v={float(v0)} is not finite\n"

    def test_separate_negative_infinity_reaches_the_finite_check(self, capsys):
        code, out, err = run_cli(capsys, "andronov", "--v0", "-inf")
        assert (code, out) == (2, "")
        assert err == "triclock: error: --v0: v=-inf is not finite\n"

    def test_separate_negative_exponent_reaches_the_basin_check(self, capsys):
        code, out, err = run_cli(capsys, "andronov", "--v0", "-1e-3")
        assert (code, out) == (2, "")
        assert err == ("triclock: error: --v0: v=-0.001 is outside the limit-cycle basin "
                       "(requires v > 4*mu = 0.4)\n")

    def test_abbreviated_flag_takes_a_separate_negative_number(self, capsys):
        # argparse reads "--v" as "--v0", the one option it abbreviates.
        code, out, err = run_cli(capsys, "andronov", "--v", "-1e-3")
        assert (code, out) == (2, "")
        assert err == ("triclock: error: --v0: v=-0.001 is outside the limit-cycle basin "
                       "(requires v > 4*mu = 0.4)\n")

    def test_abbreviated_int_flag_takes_a_separate_negative_number(self, capsys):
        code, out, err = run_cli(capsys, "andronov", "--v0", "5", "--st", "-1")
        assert (code, out) == (2, "")
        assert err == "triclock: error: --steps: steps must be at least 0, got -1\n"

    def test_fixed_point_underflowing_friction_refused(self, capsys):
        # h**2 / (8*mu) overflows to inf, which made a -inf column.
        code, out, err = run_cli(capsys, "andronov", "--mu", "1e-320", "--v0", "5")
        assert (code, out) == (2, "")
        assert "the escapement fixed point overflows at mu=1e-320" in err

    def test_fixed_point_overflowing_kick_refused(self, capsys):
        # h**2 raises OverflowError, which ended in a traceback and exit 1.
        code, out, err = run_cli(capsys, "andronov", "--h", "1e308", "--v0", "5")
        assert (code, out) == (2, "")
        assert "the escapement fixed point overflows at mu=0.1, h=1e+308" in err

    def test_negative_steps_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "andronov", "--v0", "5", "--steps", "-1")
        assert (code, out) == (2, "")
        assert err == "triclock: error: --steps: steps must be at least 0, got -1\n"

    def test_coupling_flag_refused(self, capsys):
        # andronov reads no coupling strength, so --eps is not one of its options.
        with pytest.raises(SystemExit) as exc:
            main(["andronov", "--eps", "5", "--v0", "5", "--steps", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --eps 5" in captured.err

    def test_coupling_config_key_refused(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 5\n")
        code, out, err = run_cli(capsys, "andronov", "--v0", "5", "--steps", "1",
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "unknown key 'eps' for andronov" in err

    def test_only_coupled_subcommands_take_eps(self):
        takes_eps = {name for name, p in subparsers().items()
                     if any("--eps" in a.option_strings for a in p._actions)}
        assert takes_eps == {"step", "fixed-points", "basins", "simulate", "verify", "portrait"}


# ---------------------------------------------------------------------------
# portrait
# ---------------------------------------------------------------------------

class TestPortrait:
    def test_deterministic_svg(self, capsys):
        args = ["portrait", "--eps", "0.05", "--resolution", "16",
                "--layers", "basin_background,fixed_points"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_layer_subset(self, capsys):
        code, out, _ = run_cli(capsys, "portrait", "--eps", "0.05", "--layers", "fixed_points")
        assert code == 0
        assert out.count("<circle") == 11 and "<rect" not in out

    def test_sample_orbits_layer(self, capsys):
        code, out, _ = run_cli(
            capsys, "portrait", "--eps", "0.05", "--layers", "fixed_points,sample_orbits"
        )
        assert code == 0
        assert "polyline" in out

    def test_unknown_layer_rejected(self, capsys):
        code, _, err = run_cli(capsys, "portrait", "--eps", "0.05", "--layers", "bogus")
        assert code == 2
        assert err == (f"triclock: error: --layers: unknown layers: ['bogus']; "
                       f"choose from {render.LAYERS}\n")

    @pytest.mark.parametrize("layers", ["", " , ,"], ids=["empty", "blank-names"])
    def test_empty_layers_rejected(self, capsys, layers):
        code, out, err = run_cli(capsys, "portrait", "--eps", "0.05", "--layers", layers)
        assert (code, out) == (2, "")
        assert err == "triclock: error: --layers: a portrait needs at least one layer\n"

    @pytest.mark.parametrize("layers", ["fixed_points", "basin_background", "sample_orbits"])
    @pytest.mark.parametrize("resolution", ["1", "0", "-5"])
    def test_resolution_below_two_rejected_before_work(self, capsys, monkeypatch, layers,
                                                        resolution):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the resolution was checked")

        for module, name in ((basin, "rasterize"), (basin, "orbit"), (analysis, "classify"),
                             (analysis, "classify_rows"), (render, "render_portrait")):
            monkeypatch.setattr(module, name, refuse)
        code, out, err = run_cli(capsys, "portrait", "--eps", "0.05", "--layers", layers,
                                 "--resolution", resolution)
        assert (code, out) == (2, "")
        assert err == ("triclock: error: --resolution: resolution must be at least 2, "
                       f"got {resolution}\n")

    def test_only_svg_format(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "portrait", "--eps", "0.05", "--layers", "fixed_points",
                               "--format", "svg")
        assert code == 0 and out.startswith("<?xml")
        code, out, err = run_cli(capsys, "portrait", "--eps", "0.05", "--format", "json")
        assert (code, out) == (2, "") and "'json'" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.05\nformat = png\n")
        code, out, err = run_cli(capsys, "portrait", "--config", str(cfg))
        assert (code, out) == (2, "") and "'png'" in err


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_ambiguous_abbreviation_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--eps", "0.1", "--s", "-1"])
        assert exc.value.code == 2
        assert "ambiguous option: --s could match --seed, --splay-tol" in capsys.readouterr().err

    def test_abbreviated_text_flag_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--eps", "0.1", "--ph", "-1e-3"])
        assert exc.value.code == 2
        assert "argument --phases: expected one argument" in capsys.readouterr().err

    # Every int option of the CLI: the arguments its command needs, its flags
    # and its least value.
    SIZES = [
        (["step", "--eps", "0.05", "--x", "1", "--y", "2"], "-n --count", 1),
        (["fixed-points", "--eps", "0.05"], "--seed-grid", 2),
        (["basins", "--eps", "0.05"], "--resolution", 2),
        (["basins", "--eps", "0.05"], "--max-iter", 0),
        (["simulate", "--eps", "0.05"], "--n-clocks", 2),
        (["simulate", "--eps", "0.05"], "--random-starts", 1),
        (["simulate", "--eps", "0.05"], "--seed", 0),
        (["simulate", "--eps", "0.05"], "--max-cycles", 1),
        (["verify", "--eps", "0.05"], "--samples", 2),
        (["verify", "--eps", "0.05"], "--grid", 100),
        (["andronov", "--v0", "5"], "--steps", 0),
        (["portrait", "--eps", "0.05"], "--resolution", 2),
    ]

    @pytest.mark.parametrize("argv, flags, least", SIZES,
                             ids=[f"{argv[0]} {flags.split()[0]}" for argv, flags, _ in SIZES])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_a_size_or_count_below_its_least_is_refused_by_its_flag(
            self, capsys, tmp_path, argv, flags, least, via):
        # The value is checked as it is resolved, from the flag or the
        # config file, and the refusal names the option's first flag or its
        # config key, then the library's message, which names the argument.
        flag, key, value = flags.split()[0], flags.split()[-1][2:], least - 1
        if via == "flag":
            argv, origin = [*argv, flag, str(value)], flag
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv, origin = [*argv, "--config", str(cfg)], f"config key '{key}'"
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        name = key.replace("-", "_")
        assert err == f"triclock: error: {origin}: {name} must be at least {least}, got {value}\n"
        assert not target.exists()

    # Each command's --tol, a value its range refuses and the refusal: the
    # range and the message are the library's, named by the flag or config key.
    TOLERANCES = [
        (["basins", "--eps", "0.05", "--resolution", "10"], "-1",
         "tol must be >= 0 and < 1, got -1.0"),
        (["fixed-points", "--eps", "0.05"], "0",
         "tol must be finite and > 0 and at most 1e-10, got 0.0"),
        (["simulate", "--eps", "0.05"], "0", "tol must be finite and > 0, got 0.0"),
    ]

    @pytest.mark.parametrize("argv, value, message", TOLERANCES,
                             ids=[argv[0] for argv, _, _ in TOLERANCES])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_a_tolerance_out_of_range_is_refused_by_its_flag(
            self, capsys, tmp_path, argv, value, message, via):
        if via == "flag":
            argv, origin = [*argv, "--tol", value], "--tol"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"tol = {value}\n")
            argv, origin = [*argv, "--config", str(cfg)], "config key 'tol'"
        target = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"triclock: error: {origin}: {message}\n"
        assert not target.exists()

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.05\ncount = 2\n# a comment\n")
        code, out, _ = run_cli(
            capsys, "step", "--x", "1.0", "--y", "2.0", "--config", str(cfg)
        )
        assert code == 0
        assert len(parse_csv(out)) == 3

    def test_a_hash_starts_a_comment_only_at_a_line_start_or_after_whitespace(
            self, capsys, tmp_path, monkeypatch):
        # Any other '#' belongs to the value: out = a#b.csv names the file
        # a#b.csv, not a.
        outdir = tmp_path / "out"
        monkeypatch.setenv("TRICLOCK_OUTDIR", str(outdir))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\neps = 0.05  # note\ncount = 2\t# two\nout = a#b.csv\n")
        code, out, err = run_cli(capsys, "step", "--x", "1", "--y", "2", "--config", str(cfg))
        assert (code, out, err) == (0, "", "")
        assert [path.name for path in outdir.iterdir()] == ["a#b.csv"]
        run_cli(capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05", "-n", "2",
                "--out", "flags.csv")
        assert (outdir / "a#b.csv").read_bytes() == (outdir / "flags.csv").read_bytes()

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.2\n")
        code, _, _ = run_cli(
            capsys, "fixed-points", "--eps", "0.05", "--config", str(cfg), "--seed-grid", "12"
        )
        assert code == 0

    def test_config_value_used_when_flag_absent(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.2\n")
        code, _, err = run_cli(capsys, "fixed-points", "--config", str(cfg))
        assert code == 2
        assert err == ("triclock: error: config key 'eps': epsilon=0.2 outside the analysis "
                       "range (1e-08, 1/9 ~= 0.111111)\n")

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05",
            "--config", str(tmp_path / "absent.cfg"),
        )
        assert code == 2

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, _ = run_cli(
            capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05", "--config", str(cfg)
        )
        assert code == 2

    def test_repeated_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("eps = 0.05\nresolution = 4\n# resolution = 5\nresolution = 6\n")
        code, out, err = run_cli(capsys, "basins", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}:4: key 'resolution' given twice" in err

    @pytest.mark.parametrize(
        "argv",
        [["step", "--x", "180", "--y", "90", "-n", "2"],
         ["simulate", "--phases", "0,120,240", "--max-cycles", "5"]],
        ids=lambda argv: argv[0],
    )
    def test_degrees_from_config(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.05\ndeg = true\n")
        from_config = run_cli(capsys, *argv, "--config", str(cfg))
        from_flag = run_cli(capsys, *argv, "--eps", "0.05", "--deg")
        assert from_config == from_flag and from_flag[0] == 0
        cfg.write_text("eps = 0.05\ndeg = yes\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "") and "expected true or false, got 'yes'" in err

    @pytest.mark.parametrize("key", ["resolutoin", "n-clocks", "config"])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, monkeypatch, key):
        def refuse(*args, **kwargs):
            raise AssertionError("computed with an unknown config key")

        monkeypatch.setattr(basin, "rasterize", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"eps = 0.05\n{key} = 8\n")
        code, out, err = run_cli(capsys, "basins", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"unknown key '{key}' for basins" in err

    def test_outdir_env_redirects_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TRICLOCK_OUTDIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05", "--out", "orbit.csv"
        )
        assert code == 0
        assert out == ""
        assert (tmp_path / "orbit.csv").exists()

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "step", "--x", "1", "--y", "2", "--eps", "0.05",
            "--out", "/proc/definitely/not/writable.csv",
        )
        assert code == 1

    def test_failed_computation_exits_one(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("the kernel gave up")

        monkeypatch.setattr(events, "run_until_locked", fail)
        code, out, err = run_cli(capsys, "simulate", "--eps", "0.05", "--phases", "0,2,4")
        assert (code, out) == (1, "")
        assert err == "triclock: failed: the kernel gave up\n"

    # The calls that do each subcommand's work.
    ENTRY_POINTS = {
        "step": [(basin, "orbit")],
        "fixed-points": [(analysis, "find_fixed_points")],
        "basins": [(basin, "rasterize")],
        "simulate": [(events, "run_until_locked")],
        "verify": [(analysis, "verify_invariance"), (analysis, "heteroclinic_census")],
        "andronov": [(cli, "andronov_step")],
        "portrait": [(basin, "rasterize"), (render, "render_portrait")],
    }

    @pytest.mark.parametrize(
        "argv",
        [["step", "--x", "1", "--y", "2", "--eps", "0.05"], ["fixed-points", "--eps", "0.05"],
         ["basins", "--resolution", "300", "--eps", "0.05"],
         ["simulate", "--phases", "0,2,4", "--eps", "0.05"], ["verify", "--eps", "0.05"],
         ["andronov", "--v0", "5"], ["portrait", "--eps", "0.05"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_format_checked_before_work(self, capsys, tmp_path, monkeypatch, argv, source):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the format was checked")

        for module, name in self.ENTRY_POINTS[argv[0]]:
            monkeypatch.setattr(module, name, refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n" if source == "config" else "")
        extra = ["--format", "xml"] if source == "flag" else []
        code, out, err = run_cli(
            capsys, *argv, "--config", str(cfg), *extra, "--out", str(tmp_path / "report")
        )
        assert (code, out) == (2, "")
        origin = "--format" if source == "flag" else "config key 'format'"
        assert err == (f"triclock: error: {origin}: {argv[0]} cannot emit format 'xml'; "
                       f"choose from {cli._COMMANDS[argv[0]][2]}\n")
        assert not (tmp_path / "report").exists()

    # Cheap command lines that between them set every option of each
    # subcommand; simulate takes two, since --phases and --random-starts
    # exclude each other.  A value of "true" is a switch.
    EVERY_OPTION = [
        ("step", {"eps": "0.05", "x": "90", "y": "200", "count": "3", "deg": "true",
                  "format": "json", "out": "step.json"}),
        ("fixed-points", {"eps": "0.05", "seed-grid": "8", "tol": "1e-10", "format": "csv",
                          "out": "fp.csv"}),
        ("basins", {"eps": "0.05", "resolution": "8", "tol": "1e-5", "max-iter": "40",
                    "format": "bin", "out": "grid.bin"}),
        ("simulate", {"eps": "0.05", "n-clocks": "3", "phases": "0,100,250", "deg": "true",
                      "tol": "1e-6", "max-cycles": "50", "splay-tol": "1e-2",
                      "trace-out": "kicks.csv", "format": "csv", "out": "sim.csv"}),
        ("simulate", {"eps": "0.02", "n-clocks": "4", "random-starts": "2", "seed": "3",
                      "format": "json", "out": "sim.json"}),
        ("verify", {"eps": "0.05", "samples": "50", "grid": "100", "format": "json",
                    "out": "verify.json"}),
        ("andronov", {"mu": "0.2", "h": "1.5", "v0": "3", "steps": "4", "format": "json",
                      "out": "andronov.json"}),
        ("portrait", {"eps": "0.05", "layers": "fixed_points,basin_background",
                      "resolution": "8", "format": "svg", "out": "p.svg"}),
    ]

    # Each subcommand's required options, set by flag.
    REQUIRED = {
        "step": {"eps": "0.05", "x": "1", "y": "2"}, "fixed-points": {"eps": "0.05"},
        "basins": {"eps": "0.05"}, "simulate": {"eps": "0.05"}, "verify": {"eps": "0.05"},
        "andronov": {"v0": "5"}, "portrait": {"eps": "0.05"},
    }

    @staticmethod
    def options(parser):
        """The config keys of a subcommand's parser: its long flags but --help
        and --config, without the dashes."""
        return {a.option_strings[-1][2:]: a for a in parser._actions
                if a.option_strings[-1] not in ("--help", "--config")}

    @staticmethod
    def flags(values):
        return [arg for key, value in values.items()
                for arg in ([f"--{key}"] if value == "true" else [f"--{key}", value])]

    def test_every_option_has_a_flag_case(self):
        covered = {}
        for name, values in self.EVERY_OPTION:
            covered.setdefault(name, set()).update(values)
        assert covered == {name: set(self.options(p)) for name, p in subparsers().items()}

    @pytest.mark.parametrize("name, values", EVERY_OPTION,
                             ids=[f"{name}-{i}" for i, (name, _) in enumerate(EVERY_OPTION)])
    def test_config_gives_what_flags_give(self, capsys, tmp_path, monkeypatch, name, values):
        def run(argv, outdir):
            monkeypatch.setenv("TRICLOCK_OUTDIR", str(outdir))
            code, out, err = run_cli(capsys, *argv)
            files = {p.relative_to(outdir).as_posix(): p.read_bytes()
                     for p in outdir.rglob("*") if p.is_file()}
            return code, out, err, files

        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        from_flags = run([name, *self.flags(values)], tmp_path / "flags")
        assert from_flags[0] == 0 and from_flags[3]
        assert run([name, "--config", str(cfg)], tmp_path / "config") == from_flags

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_uncastable_config_value_refused_before_work(self, capsys, tmp_path, monkeypatch,
                                                         name):
        def refuse(*args, **kwargs):
            raise AssertionError("computed with an uncastable config value")

        for module, attr in self.ENTRY_POINTS[name]:
            monkeypatch.setattr(module, attr, refuse)
        typed = [key for key, action in self.options(subparsers()[name]).items()
                 if action.type in (int, float) or action.const is True]
        assert typed
        cfg = tmp_path / "run.cfg"
        for key in typed:
            cfg.write_text(f"{key} = abc\n")
            given = {k: v for k, v in self.REQUIRED[name].items() if k != key}
            code, out, err = run_cli(capsys, name, *self.flags(given), "--config", str(cfg))
            assert (code, out) == (2, ""), key
            assert f"triclock: error: config key '{key}': " in err

    def test_help_shows_each_declared_default(self):
        parsers = subparsers()
        assert set(parsers) == set(cli._COMMANDS)
        helps = {}
        for name, (_, _, formats, _) in cli._COMMANDS.items():
            helps[name] = {a.option_strings[-1]: a.help for a in parsers[name]._actions}
            declared = cli._options(name)
            assert set(helps[name]) == {"--help"} | {flags.split()[-1] for flags, *_ in declared}
            for flags, _, default, text, *_ in declared:
                shown = "required" if default is cli._REQUIRED else f"default: {default}".lower()
                assert helps[name][flags.split()[-1]] == f"{text} ({shown})"
            assert helps[name]["--format"].endswith(f"(default: {formats[0]})")
        assert helps["step"]["--eps"] == "coupling strength (required)"
        assert helps["step"]["--deg"] == "interpret --x/--y in degrees (default: false)"
        assert helps["basins"]["--tol"] == "attractor capture tolerance (default: 1e-06)"
        assert helps["simulate"]["--trace-out"].endswith("(default: none)")

    def test_every_declared_default_passes_its_check(self):
        # _resolve checks given values only, so each default must pass.
        for name in cli._COMMANDS:
            for flags, _, default, _, *check in cli._options(name):
                if check and default not in (None, cli._REQUIRED):
                    if isinstance(check[0], int):
                        assert default >= check[0], (name, flags)
                    else:
                        check[0](default)

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        """Calls in one process, sharing one parser, give the stdout, files
        and exit codes that each call gives with a parser of its own, as in
        a fresh process."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.05\nformat = csv\n")
        calls = [
            ["step", "--x", "3", "--y", "5", "--eps", "0.01", "--deg", "-n", "2"],
            ["step", "--x", "3", "--y", "5", "--eps", "0.01", "-n", "2"],
            ["simulate", "--eps", "0.05", "--phases", "0,1,2", "--deg", "--max-cycles", "3",
             "--trace-out", "a.jsonl"],
            ["simulate", "--eps", "0.05", "--phases", "0,1,2", "--max-cycles", "3",
             "--trace-out", "b.jsonl"],
            ["fixed-points", "--eps", "0.05", "--seed-grid", "8", "--format", "csv",
             "--out", "fp.csv"],
            ["fixed-points", "--config", str(cfg), "--seed-grid", "8", "--out", "fp2.csv"],
            ["fixed-points", "--eps", "0.05", "--seed-grid", "8", "--out", "fp.json"],
            ["step", "--x", "1", "--y", "2", "--bogus"],
            ["step", "--x", "1", "--y", "2", "--eps", "0.05", "--format", "json"],
            ["step", "--x", "1", "--y", "2", "--eps", "0.05"],
        ]

        def run(argv, outdir):
            monkeypatch.setenv("TRICLOCK_OUTDIR", str(outdir))
            try:
                return run_case(argv, outdir)
            except SystemExit as exc:  # argparse's usage errors
                return {"exit": exc.code}

        separate = []
        for argv in calls:
            cli._build_parser.cache_clear()
            separate.append(run(argv, tmp_path / "separate"))
        together = [run(argv, tmp_path / "together") for argv in calls]
        assert together == separate
        assert [r["exit"] for r in together] == [0] * 7 + [2, 0, 0]
        assert cli._build_parser() is cli._build_parser()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "triclock.cli", "step", "--x", "1.0", "--y", "2.0",
             "--eps", "0.05"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,y")


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

# Every subcommand x format, on stdout, --out and --trace-out, plus a few
# rejections.  tests/data/cli_outputs.json holds, per command line, the exit
# code and the sha256 of stdout and of each file it names, recorded at commit
# b4095c3 (before the CLI's report path was unified) with ``run_case`` below.
PINNED_CASES = [
    ["step", "--x", "1.5708", "--y", "4.7124", "--eps", "0.01", "-n", "10"],
    ["step", "--x", "90", "--y", "270", "--eps", "0.01", "--deg", "-n", "3", "--format", "json"],
    ["step", "--x", "1", "--y", "2", "--eps", "0.05", "-n", "5", "--out", "step.csv"],
    ["step", "--x", "1", "--y", "2", "--eps", "0.05", "-n", "5", "--format", "json",
     "--out", "step.json"],
    ["step", "--x", "1", "--y", "2", "--eps", "0.05", "-n", "2", "--out", "-"],
    ["fixed-points", "--eps", "0.05"],
    ["fixed-points", "--eps", "0.013", "--seed-grid", "33", "--format", "csv", "--out", "fp.csv"],
    ["fixed-points", "--eps", "0.1", "--seed-grid", "45", "--format", "json", "--out", "fp.json"],
    ["basins", "--eps", "0.05", "--resolution", "40"],
    ["basins", "--eps", "0.05", "--resolution", "40", "--format", "bin"],
    ["basins", "--eps", "0.07", "--resolution", "31", "--format", "csv", "--out", "grid.csv"],
    ["basins", "--eps", "0.07", "--resolution", "31", "--format", "bin", "--out", "grid.bin"],
    ["basins", "--eps", "0.05", "--resolution", "24", "--max-iter", "30", "--format", "svg",
     "--out", "sub/grid.svg"],
    ["basins", "--eps", "0.03", "--resolution", "20", "--format", "svg"],
    ["simulate", "--eps", "0.05", "--phases", "0,2.0,4.0", "--tol", "1e-8"],
    ["simulate", "--eps", "0.02", "--n-clocks", "4", "--random-starts", "10", "--seed", "4",
     "--format", "csv", "--out", "sim.csv"],
    ["simulate", "--eps", "0.05", "--phases", "0,2.0,4.0", "--max-cycles", "3", "--tol", "1e-20",
     "--trace-out", "kicks.jsonl"],
    ["simulate", "--eps", "0.05", "--phases", "0,2.0,4.0", "--max-cycles", "3", "--tol", "1e-20",
     "--trace-out", "sub/kicks.csv", "--format", "csv", "--out", "sim2.csv"],
    ["simulate", "--eps", "0.1", "--phases", "0,100,200", "--deg", "--out", "sim.json"],
    ["verify", "--eps", "0.05", "--samples", "200", "--grid", "120"],
    ["verify", "--eps", "0.10", "--samples", "200", "--grid", "120", "--format", "json",
     "--out", "verify.json"],
    ["verify", "--eps", "0.05", "--format", "json"],
    ["andronov", "--mu", "0.1", "--h", "1", "--v0", "5", "--steps", "20"],
    ["andronov", "--mu", "0.2", "--h", "1.5", "--v0", "3", "--steps", "10", "--format", "json",
     "--out", "andronov.json"],
    ["portrait", "--eps", "0.05", "--resolution", "24"],
    ["portrait", "--eps", "0.05", "--resolution", "20", "--layers",
     "basin_background,invariant_segments,heteroclinics,fixed_points,sample_orbits",
     "--out", "portrait.svg"],
    ["portrait", "--eps", "0.05", "--layers", "fixed_points,sample_orbits", "--format", "svg",
     "--out", "p2.svg"],
    ["step", "--x", "1", "--y", "2", "--eps", "0.05", "--format", "yaml"],
    ["fixed-points", "--eps", "0.2", "--out", "none.json"],
    ["simulate", "--eps", "5", "--phases", "0,1,2"],
    ["verify", "--eps", "0"],
    ["basins", "--eps", "0.05", "--resolution", "10", "--tol", "-1", "--out", "none.csv"],
    ["andronov", "--v0", "0.3"],
]


def _named_files(argv):
    return [argv[i + 1] for i, a in enumerate(argv[:-1])
            if a in ("--out", "--trace-out") and argv[i + 1] != "-"]


def run_case(argv, outdir):
    """Run one command line in-process with relative outputs under ``outdir``
    (via TRICLOCK_OUTDIR, which the caller sets); return its exit code and the
    sha256 of its stdout bytes and of each file it names (None if absent)."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    stdout.flush()
    files = {}
    for name in _named_files(argv):
        path = outdir / name
        files[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"exit": code, "stdout": hashlib.sha256(stdout.buffer.getvalue()).hexdigest(),
            "files": files}


@pytest.mark.parametrize("argv", PINNED_CASES, ids=lambda argv: " ".join(argv))
def test_outputs_match_the_recorded_bytes(argv, tmp_path, monkeypatch):
    recorded = json.loads((DATA / "cli_outputs.json").read_text(encoding="utf-8"))
    monkeypatch.setenv("TRICLOCK_OUTDIR", str(tmp_path))
    assert run_case(argv, tmp_path) == recorded[shlex.join(argv)]
