"""Command-line interface, exercised in-process through main()."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_config import AGARD_AMP_DEG, AGARD_K, AGARD_MEAN_DEG, config_doc
from test_io import fuzzed_monitor_texts
from truth import JONES_POLES, jones_c, theodorsen_c, theodorsen_loads

import dynderiv
from dynderiv import (
    DomainError,
    cli,
    identify,
    make_schedule,
    parse_case_config,
    parse_monitor_table,
    plants,
    render_case_config,
    scenarios,
    simulate,
    validate,
)
from dynderiv.cli import main
from dynderiv.validate import ALL_CHECKS


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(config_doc(), indent=2))
    return path


def table_to_dict(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = {
            name: (float(cell) if cell else None) for name, cell in zip(header[1:], cells[1:])
        }
    return rows


class TestVersionHelp:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "dynderiv" in capsys.readouterr().out

    def test_version_from_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(Path(dynderiv.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "dynderiv.cli", "--version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("dynderiv ")

    def test_help(self, capsys):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 2


class TestSimulate:
    def test_to_stdout(self, config_file, capsys):
        assert main(["simulate", str(config_file)]) == 0
        out = capsys.readouterr().out
        series = parse_monitor_table(out)
        assert len(series) == 3 * 720
        assert series.CL is not None

    def test_to_file_and_mode_choice(self, config_file, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["simulate", str(config_file), "--out", str(out), "--mode", "q"]) == 0
        series = parse_monitor_table(out.read_text())
        # flow-path mode holds the incidence constant: CL has no sin component
        omega = 2 * AGARD_K * 100.0 / 0.2299
        from dynderiv import fit_harmonic

        fit = fit_harmonic(series.times, series.CL, omega)
        assert abs(fit.in_phase) < 1e-12

    def test_a_mode_the_config_does_not_list_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "case.json"
        doc = config_doc()
        doc["oscillation"]["modes"] = ["alpha"]
        config.write_text(json.dumps(doc))
        assert main(["simulate", str(config), "--mode", "q"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: mode 'q' is not listed in the config's modes"]

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        config = tmp_path / "case.json"
        config.write_text(json.dumps(config_doc(), indent=2), encoding="utf-8-sig")
        assert main(["simulate", str(config)]) == 0
        assert len(parse_monitor_table(capsys.readouterr().out)) == 3 * 720

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_huge_sample_count_is_one_line(self, tmp_path, capsys, command):
        doc = config_doc()
        doc["oscillation"]["samples_per_cycle"] = 10**30
        config = tmp_path / "case.json"
        config.write_text(json.dumps(doc, indent=2))
        argv = [command, str(config)] + (["--out-dir", str(tmp_path)] if command == "sweep" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        line = next(i for i, row in enumerate(json.dumps(doc, indent=2).splitlines(), start=1)
                    if '"samples_per_cycle"' in row)
        assert err == [
            "error: 'oscillation.samples_per_cycle' must keep cycles * samples_per_cycle"
            f" <= 1000000, got {10**30} (line {line})"
        ]


LIFT_FLAGS = ["--k", "0.1", "--mode", "alpha", "--amplitude-deg", "1.0"]


def _lift_export():
    """One period whose only lift header is 'lift', which no built-in alias reads."""
    t = np.arange(720) / 720.0
    lines = ["t,lift"] + [f"{float(ti)!r},{float(v)!r}" for ti, v in zip(t, np.sin(2 * math.pi * t))]
    return "\n".join(lines) + "\n"


class TestIdentify:
    def _write_fixture(self, tmp_path, mode="alpha"):
        """Quasi-steady series in period-based time units (omega = 2*pi)."""
        amp = math.radians(AGARD_AMP_DEG)
        mean = math.radians(AGARD_MEAN_DEG)
        t = np.arange(3 * 720) / 720.0
        omega = 2.0 * math.pi
        sin_p, cos_p = np.sin(omega * t), np.cos(omega * t)
        rate_amp = AGARD_K * amp
        if mode == "alpha":
            alpha = mean + amp * sin_p
            qhat = rate_amp * cos_p
            adot = qhat
        else:
            alpha = np.full_like(t, mean)
            qhat = rate_amp * cos_p
            adot = np.zeros_like(t)
        cl = 0.2 + 5.0 * alpha + 4.0 * qhat + 6.0 * adot
        cd = 0.02 + 0.3 * alpha + 0.1 * qhat
        cm = -0.05 - 1.2 * alpha - 3.0 * qhat - 1.2 * adot
        lines = ["t,CL,CD,CM"]
        for row in zip(t, cl, cd, cm):
            lines.append(",".join(repr(float(v)) for v in row))
        path = tmp_path / f"loops_{mode}.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_alpha_mode_table(self, tmp_path, capsys):
        path = self._write_fixture(tmp_path, "alpha")
        code = main([
            "identify", str(path),
            "--k", str(AGARD_K), "--mode", "alpha", "--amplitude-deg", str(AGARD_AMP_DEG),
        ])
        assert code == 0
        rows = table_to_dict(capsys.readouterr().out)
        assert rows["CL"]["C_alpha"] == pytest.approx(5.0, rel=1e-9)
        assert rows["CL"]["damping_sum"] == pytest.approx(10.0, rel=1e-9)
        assert rows["Cm"]["damping_sum"] == pytest.approx(-4.2, rel=1e-9)
        assert rows["CL"]["C_q"] is None

    def test_q_mode_table(self, tmp_path, capsys):
        path = self._write_fixture(tmp_path, "q")
        code = main([
            "identify", str(path),
            "--k", str(AGARD_K), "--mode", "q", "--amplitude-deg", str(AGARD_AMP_DEG),
            "--mean-deg", str(AGARD_MEAN_DEG),
        ])
        assert code == 0
        rows = table_to_dict(capsys.readouterr().out)
        assert rows["Cm"]["C_q"] == pytest.approx(-3.0, rel=1e-9)
        assert rows["Cm"]["contamination"] == pytest.approx(0.0, abs=1e-12)

    def test_dimensional_time_via_chord_and_speed(self, config_file, tmp_path, capsys):
        series_file = tmp_path / "sim.csv"
        assert main(["simulate", str(config_file), "--out", str(series_file)]) == 0
        code = main([
            "identify", str(series_file),
            "--k", str(AGARD_K), "--mode", "alpha", "--amplitude-deg", str(AGARD_AMP_DEG),
            "--chord", "0.2299", "--speed", "100.0",
        ])
        assert code == 0
        rows = table_to_dict(capsys.readouterr().out)
        assert rows["CL"]["C_alpha"] == pytest.approx(5.0, rel=1e-9)

    def test_explicit_omega(self, config_file, tmp_path, capsys):
        series_file = tmp_path / "sim.csv"
        assert main(["simulate", str(config_file), "--out", str(series_file)]) == 0
        omega = 2 * AGARD_K * 100.0 / 0.2299
        code = main([
            "identify", str(series_file),
            "--k", str(AGARD_K), "--mode", "alpha", "--amplitude-deg", str(AGARD_AMP_DEG),
            "--omega", repr(omega),
        ])
        assert code == 0
        rows = table_to_dict(capsys.readouterr().out)
        assert rows["Cm"]["C_alpha"] == pytest.approx(-1.2, rel=1e-9)

    def test_alias_flag(self, tmp_path, capsys):
        path = tmp_path / "alias.csv"
        path.write_text(_lift_export())
        code = main(["identify", str(path), *LIFT_FLAGS, "--alias", "lift=CL"])
        assert code == 0
        assert "CL" in capsys.readouterr().out

    def test_alias_header_is_matched_as_header_cells_are(self, tmp_path, capsys):
        path = tmp_path / "alias.csv"
        path.write_text(_lift_export())
        code = main(["identify", str(path), *LIFT_FLAGS, "--alias", " Lift =CL"])
        assert code == 0
        assert "CL" in capsys.readouterr().out

    def test_the_last_alias_for_a_header_wins(self, tmp_path, capsys):
        path = tmp_path / "alias.csv"
        path.write_text(_lift_export())
        code = main(["identify", str(path), *LIFT_FLAGS, "--alias", "lift=CD",
                     "--alias", " LIFT =time", "--alias", "lift=CL"])
        assert code == 0
        assert "CL" in capsys.readouterr().out

    def test_domain_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t,CL\n0.0,1.0\n0.2,2.0\n0.4,3.0\n")
        code = main([
            "identify", str(path), "--k", "0.1", "--mode", "alpha", "--amplitude-deg", "1.0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,CL\n0,1\n")
        assert main(["identify", str(path), "--mode", "alpha", "--amplitude-deg", "1"]) == 2

    def test_negative_skip_is_usage_error(self, tmp_path, capsys):
        path = self._write_fixture(tmp_path, "alpha")
        code = main([
            "identify", str(path), "--k", str(AGARD_K), "--mode", "alpha",
            "--amplitude-deg", str(AGARD_AMP_DEG), "--skip", "-1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --skip must be >= 0"]

    @pytest.mark.parametrize("flags", [
        ["--k", "nan"], ["--k", "inf"], ["--amplitude-deg", "nan"], ["--mean-deg", "inf"],
        ["--omega", "inf"], ["--chord", "nan", "--speed", "10"], ["--alias", "t=bogus"],
        ["--omega", "6.283185307179586", "--chord", "0.2", "--speed", "50"],
        ["--omega", "1", "--speed", "50"],
    ])
    def test_non_finite_or_unknown_flag_is_one_line_usage_error(self, tmp_path, capsys, flags):
        path = self._write_fixture(tmp_path, "alpha")
        argv = ["identify", str(path), "--k", str(AGARD_K), "--mode", "alpha",
                "--amplitude-deg", str(AGARD_AMP_DEG)]
        assert main(argv + flags) == 2      # argparse keeps the last --k / --amplitude-deg
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flags[0]}")

    @pytest.mark.parametrize("flags, rule", [
        (["--k", "0"], "--k must be > 0; rate scaling is undefined at 0, got 0.0"),
        (["--amplitude-deg", "0"],
         "--amplitude-deg must be > 0; a zero-amplitude case has no motion, got 0.0"),
    ], ids=["k", "amplitude-deg"])
    def test_zero_flag_quotes_the_spec_rule(self, tmp_path, capsys, flags, rule):
        path = self._write_fixture(tmp_path, "alpha")
        argv = ["identify", str(path), "--k", str(AGARD_K), "--mode", "alpha",
                "--amplitude-deg", str(AGARD_AMP_DEG)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {rule}"]

    @pytest.mark.parametrize("flags, code, err", [
        (["--mean-deg", "-1e-05"], 0, []),
        (["--mean-deg", "-.5E+1"], 0, []),
        (["--k", "-1E2"], 2, ["error: --k must be > 0, got -100.0"]),
        (["--amplitude-deg", "-inf"], 2, ["error: --amplitude-deg must be > 0, got -inf"]),
    ], ids=["mean-exponent", "mean-point-exponent", "k-exponent", "amplitude-inf"])
    def test_a_negative_value_in_any_float_form_is_read_as_a_value(self, tmp_path, capsys,
                                                                   flags, code, err):
        # argparse alone takes '-1e-05' after a flag for an option and exits 2
        path = self._write_fixture(tmp_path, "alpha")
        argv = ["identify", str(path), "--k", str(AGARD_K), "--mode", "alpha",
                "--amplitude-deg", str(AGARD_AMP_DEG)]
        assert main(argv + flags) == code
        assert capsys.readouterr().err.splitlines() == err

    @pytest.mark.parametrize("skip", [3, 1000, 10**400], ids=["3", "1000", "10**400"])
    def test_too_large_skip_is_one_line(self, tmp_path, capsys, skip):
        path = self._write_fixture(tmp_path, "alpha")
        argv = ["identify", str(path), "--k", str(AGARD_K), "--mode", "alpha",
                "--amplitude-deg", str(AGARD_AMP_DEG), "--skip", str(skip)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: no whole period left after skipping {skip} cycles (span 3 s, period 1 s)"]

    @pytest.mark.parametrize("flags, code, message", [
        (["--k", "5e-324"], 2,
         "--k must keep the rate scale k * amplitude finite and > 0, got 5e-324"),
        (["--k", "1e308", "--amplitude-deg", "1e306"], 2,
         "--k must keep the rate scale k * amplitude finite and > 0, got 1e+308"),
        (["--omega", "1e308"], 1, "times up to 2.99861 s at omega 1e+308 rad/s are out of range"),
        (["--omega", "5e-324"], 1, "times up to 2.99861 s at omega 4.94066e-324 rad/s are out of"),
    ], ids=["k-underflow", "k-overflow", "omega-huge", "omega-tiny"])
    def test_extreme_flag_is_one_line(self, tmp_path, capsys, flags, code, message):
        path = self._write_fixture(tmp_path, "alpha")
        argv = ["identify", str(path), "--k", str(AGARD_K), "--mode", "alpha",
                "--amplitude-deg", str(AGARD_AMP_DEG)]
        assert main(argv + flags) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("omega", ["100", "1e100"])
    def test_two_or_fewer_samples_per_period_is_one_line(self, tmp_path, capsys, omega):
        path = tmp_path / "export.csv"
        path.write_text(_periodic_export())          # 3 periods of 16 samples at omega = 2*pi
        argv = ["identify", str(path), "--k", "0.1", "--mode", "alpha", "--amplitude-deg", "1"]
        assert main(argv + ["--omega", repr(2 * math.pi)]) == 0
        rows = table_to_dict(capsys.readouterr().out)
        assert rows["CL"]["C_alpha"] == pytest.approx(math.degrees(1.0), rel=1e-12)
        assert main(argv + ["--omega", omega]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: only ")
        assert err[0].endswith("need more than 2 per period")

    def test_export_with_a_byte_order_mark(self, tmp_path, capsys):
        t = np.arange(2 * 64) / 64.0
        cl = 0.1 + 0.05 * np.sin(2 * math.pi * t)
        rows = [f"{ti!r},{v!r}" for ti, v in zip(t.tolist(), cl.tolist())]
        path = tmp_path / "export.csv"
        path.write_text("\n".join(["flow-time,cl-coefficient", *rows]) + "\n", encoding="utf-8-sig")
        argv = ["identify", str(path), "--k", "0.1", "--mode", "alpha", "--amplitude-deg", "1"]
        assert main(argv) == 0
        assert table_to_dict(capsys.readouterr().out)["CL"]["trim"] == pytest.approx(0.1)

    def test_bad_alias_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("t,CL\n0,1\n1,2\n")
        code = main([
            "identify", str(path), "--k", "0.1", "--mode", "alpha",
            "--amplitude-deg", "1", "--alias", "nonsense",
        ])
        assert code == 2


class TestSweep:
    def test_writes_report_pair(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["sweep", str(config_file), "--out-dir", str(out_dir)]) == 0
        machine = (out_dir / "report.csv").read_text()
        human = (out_dir / "report.txt").read_text()
        assert machine.splitlines()[0].startswith("scenario,channel")
        assert "STATIC_ONLY" in machine
        assert "mid-transition" in human

    def test_writes_loop_data_for_flying_scenarios(self, config_file, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["sweep", str(config_file), "--out-dir", str(out_dir)]) == 0
        # no loops for hover; loop plot data for the two flying scenarios
        assert not (out_dir / "loops_transition-beginning.csv").exists()
        for name in ("mid-transition", "transition-end"):
            text = (out_dir / f"loops_{name}.csv").read_text()
            header, first = text.splitlines()[:2]
            assert header == "alpha_deg,CL,CD,CM"
            alpha0 = float(first.split(",")[0])
            assert alpha0 == pytest.approx(AGARD_MEAN_DEG, rel=1e-9)

    @pytest.mark.parametrize("kind", ["quasi-steady", "flat-plate", "indicial"])
    def test_loop_table_closes_to_the_reported_loop_area(self, kind, tmp_path):
        """The last cycle of each loops_<name>.csv is the loop whose area report.csv gives."""
        doc = config_doc() if kind == "quasi-steady" else config_doc(plant={"kind": kind})
        osc = doc["oscillation"]
        cycles, spc = osc["cycles"], osc["samples_per_cycle"]
        assert cycles >= 3 and spc == 720
        config, out_dir = tmp_path / "case.json", tmp_path / "results"
        config.write_text(json.dumps(doc))
        assert main(["sweep", str(config), "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "report.csv", newline="") as fh:
            areas = {(r["scenario"], r["channel"]): r["loop_area"] for r in csv.DictReader(fh)}
        flying = ("mid-transition", "transition-end")
        for name in flying:
            table = np.loadtxt(out_dir / f"loops_{name}.csv", delimiter=",", skiprows=1)
            assert table.shape == (cycles * spc, 4)
            last = table[-spc:]
            x = np.radians(last[:, 0])
            for column, channel in enumerate(("CL", "CD", "Cm"), start=1):
                y = last[:, column]
                # the closed trapezoid of y dx, as loop_metrics forms it
                area = float((0.5 * (y + np.roll(y, -1)) * (np.roll(x, -1) - x)).sum())
                # loop_metrics' zero threshold, plus the degrees round trip of x
                tol = 64 * spc * np.finfo(float).eps * np.abs(x).max() * np.abs(y).max()
                assert abs(area - float(areas[name, channel])) <= tol, (name, channel)
        assert {s for s, _ in areas} - set(flying) == {"transition-beginning"}

    def test_writes_metadata_sidecar(self, config_file, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["sweep", str(config_file), "--out-dir", str(out_dir)]) == 0
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["assumptions"]["altitude_unit"].startswith("m")
        assert [s["status"] for s in meta["scenarios"]] == ["STATIC_ONLY", "OK", "OK"]
        assert meta["scenarios"][1]["vertical_velocity_m_s"] == 2.5

    def test_failed_scenario_exits_one_after_writing_reports(self, tmp_path, monkeypatch):
        # transition-end (66 m/s) breaks a range rule while it runs
        identify_modes = scenarios.identify_modes

        def failing_at_66(plant, spec, cond, *args):
            if cond.freestream_speed == 66.0:
                raise DomainError("freestream_speed", "must be flyable here", 66.0)
            return identify_modes(plant, spec, cond, *args)

        monkeypatch.setattr(scenarios, "identify_modes", failing_at_66)
        config = tmp_path / "case.json"
        config.write_text(json.dumps(config_doc()))
        out_dir = tmp_path / "results"
        assert main(["sweep", str(config), "--out-dir", str(out_dir)]) == 1
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert [s["status"] for s in meta["scenarios"]] == ["STATIC_ONLY", "OK", "FAILED"]
        assert "FAILED(DomainError: freestream_speed must be flyable here; got 66.0)" \
            in (out_dir / "report.csv").read_text()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "loops_mid-transition.csv").exists()

    @pytest.mark.parametrize("oscillation, plant, skip", [
        ({"skip_cycles": 3, "cycles": 3}, None, 3),
        ({"cycles": 2}, {"kind": "indicial"}, 2),   # the indicial plant skips 2 by default
    ])
    def test_skip_leaving_no_cycle_exits_one(self, tmp_path, capsys, oscillation, plant, skip):
        doc = config_doc()
        doc["oscillation"].update(oscillation)
        if plant is not None:
            doc["plant"] = plant
        config = tmp_path / "case.json"
        text = json.dumps(doc, indent=2)
        config.write_text(text)
        assert main(["sweep", str(config), "--out-dir", str(tmp_path / "results")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"oscillation.skip_cycles is {skip}" in err[0]
        assert f"oscillation.cycles is {oscillation['cycles']}" in err[0]
        # skip_cycles is written (null when the plant's default applies), so its line is cited
        line = next(i for i, row in enumerate(text.splitlines(), start=1) if '"skip_cycles"' in row)
        assert err[0].endswith(f"no cycle is left to fit (line {line})")

    @pytest.mark.parametrize("kind", ["flat-plate", "indicial"])
    def test_out_of_range_pitch_axis_is_one_line(self, tmp_path, capsys, kind):
        doc = config_doc(plant={"kind": kind, "pitch_axis": 5.0})
        config = tmp_path / "case.json"
        config.write_text(json.dumps(doc, indent=2))
        assert main(["sweep", str(config), "--out-dir", str(tmp_path / "results")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 'plant.pitch_axis' ")
        assert "got 5.0 (line " in err[0]

    @pytest.mark.parametrize("speed_basis", ["forward", "total"])
    def test_supersonic_scenario_is_one_line_before_any_report(self, tmp_path, capsys,
                                                              speed_basis):
        # 300 m/s forward with a 200 m/s climb is 360 m/s in total, against 340 m/s
        forward = 400.0 if speed_basis == "forward" else 300.0
        scenarios = [{"name": "slow", "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
                      "forward_velocity_m_s": 50.0},
                     {"name": "fast", "altitude_m": 10.0, "vertical_velocity_m_s": 200.0,
                      "forward_velocity_m_s": forward}]
        doc = config_doc(scenarios=scenarios, speed_basis=speed_basis)
        doc["condition"]["sound_speed_m_s"] = 340.0
        config = tmp_path / "case.json"
        config.write_text(json.dumps(doc, indent=2))
        out_dir = tmp_path / "results"
        assert main(["sweep", str(config), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 'scenarios[1].forward_velocity_m_s' ")
        assert "Mach must be < 1" in err[0] and "(line " in err[0]
        assert not out_dir.exists()

    @pytest.mark.parametrize("names", [["a,b"], ["a b", "a_b"], ["x", "x"]])
    def test_unsafe_or_repeated_scenario_name_is_one_line(self, tmp_path, capsys, names):
        # either would lose data: a 12-cell row, or two scenarios writing one loops file
        scenarios = [{"name": name, "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
                      "forward_velocity_m_s": 20.0 + i} for i, name in enumerate(names)]
        config = tmp_path / "case.json"
        config.write_text(json.dumps(config_doc(scenarios=scenarios), indent=2))
        out_dir = tmp_path / "results"
        assert main(["sweep", str(config), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: 'scenarios")
        assert not out_dir.exists()

    def test_missing_config(self, capsys):
        code = main(["sweep", "missing.cfg"])
        assert code == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_byte_identical_outputs(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(config_file), "--out-dir", str(a)]) == 0
        assert main(["sweep", str(config_file), "--out-dir", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenReport:
    """report.csv and report.txt of a fixed flat-plate sweep, byte for byte.

    Its CD rows carry loop areas of exactly zero, which must print as
    numbers, not as the empty cell of an absent value.  The digest of the
    plant's series tells a platform that samples the case differently from
    a change in the pipeline.
    """

    SERIES = "5e9bcb44430a7518016518c8f6b7c7b8a1df67994d3d3adb6da5ea63d82cb880"
    REPORT_CSV = "35e0e2cd76c049f4a14d4d901fc945def04533d7ea85ca4c226da6171e038934"
    REPORT_TXT = "34791a94f728b1497a06f29d65dc0eccb372e0734c5c1e2c3d41fc2e817a2ad5"

    def test_golden_digests(self, tmp_path):
        doc = config_doc(plant={"kind": "flat-plate", "pitch_axis": -0.5})
        doc["oscillation"].update(reduced_frequency=0.1, cycles=2, samples_per_cycle=64)
        text = json.dumps(doc, indent=2)
        plan = parse_case_config(text)
        series = hashlib.sha256()
        for scenario in plan.scenarios:
            cond = plan.scenario_condition(scenario)
            if cond.freestream_speed > 0.0:
                for mode in plan.modes:
                    schedule = make_schedule(plan.oscillation.with_mode(mode), cond)
                    for values in simulate(plan.plant, schedule, cond).channels().values():
                        series.update(values.tobytes())
        if series.hexdigest() != self.SERIES:
            pytest.skip("this platform samples the case differently")
        config = tmp_path / "case.json"
        config.write_text(text)
        assert main(["sweep", str(config), "--out-dir", str(tmp_path)]) == 0
        machine = (tmp_path / "report.csv").read_bytes()
        cd_rows = [row for row in machine.splitlines() if b",CD," in row and row.endswith(b",OK")]
        assert len(cd_rows) == 2
        assert all(row.endswith(b",0.0000000000000000,OK") for row in cd_rows)
        assert _sha256(machine) == self.REPORT_CSV
        assert _sha256((tmp_path / "report.txt").read_bytes()) == self.REPORT_TXT


class TestUnusableFiles:
    IDENTIFY_FLAGS = ["--k", "0.1", "--mode", "alpha", "--amplitude-deg", "1"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--out-dir", "afile"],
        ["simulate", "--out", "nodir/x.csv"],
        ["simulate", "--out", "."],
    ], ids=["out-dir-is-a-file", "out-in-missing-dir", "out-is-a-dir"])
    def test_unwritable_output_is_one_line_usage_error(self, config_file, tmp_path,
                                                        monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        assert main([argv[0], str(config_file), *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write '{argv[-1]}': ")
        assert not list(tmp_path.rglob(".tmp-*~"))

    @pytest.mark.parametrize("command", ["identify", "simulate", "sweep"])
    def test_non_utf8_input_is_one_line_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xef\xbb\xbft,CL\n0,\xff\n")          # offsets count the BOM
        argv = [command, str(path)] + (self.IDENTIFY_FLAGS if command == "identify" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read '{path}': not UTF-8 text (byte 0xff at offset 10)"
        ]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_cr_line_ends_read_as_newlines(self, tmp_path, capsys, newline):
        doc = config_doc()
        doc["condition"]["chord_m"] = -1.0
        path = tmp_path / "case.json"
        path.write_bytes(json.dumps(doc, indent=2).replace("\n", newline).encode())
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: 'condition.chord_m' must be > 0, got -1.0 (line 6)\n"


class TestRepeatedCalls:
    """main() may be called many times in one process; the shared parser keeps no state."""

    @pytest.fixture
    def identify_argv(self, tmp_path):
        path = tmp_path / "lift.csv"
        path.write_text(_lift_export())
        return ["identify", str(path), *LIFT_FLAGS]

    def test_an_alias_does_not_carry_over_to_the_next_call(self, identify_argv):
        assert run_warning_free(identify_argv + ["--alias", "lift=CL"])[0] == 0
        code, out, err = run_warning_free(identify_argv)
        assert (code, out) == (1, "")
        assert err == "error: no lift/drag/moment column among ['t', 'lift'] (line 1)\n"

    @pytest.mark.parametrize("first, first_code", [
        (["--version"], 0), (["--help"], 0), (["identify", "--k", "oops"], 2),
    ], ids=["version", "help", "usage-error"])
    def test_an_early_exit_leaves_the_next_call_intact(self, identify_argv, first, first_code):
        argv = identify_argv + ["--alias", "lift=CL"]
        expected = run_warning_free(argv)
        assert expected[0] == 0 and expected[2] == ""
        assert run_warning_free(first)[0] == first_code
        assert run_warning_free(argv) == expected

    def test_a_second_call_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        assert main(["--version"]) == 0
        assert built                        # the first call builds the parser tree
        built.clear()
        assert main(["--version"]) == 0
        assert main([]) == 2
        assert built == []


class TestDeckDigests:
    def test_two_interpreters_print_the_same_digests(self):
        """Reruns are byte-identical across processes, whatever the string hash seed."""
        # --against runs the second interpreter under hash seed 1 beside this one's 0; both
        # turn a read or write in the locale's encoding into an error
        root = Path(__file__).resolve().parents[1]
        src = str(root / "src")
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONWARNDEFAULTENCODING="1",
                   PYTHONWARNINGS="error::EncodingWarning")
        proc = subprocess.run([sys.executable, str(root / "tools" / "deck_digests.py"),
                               "--src", src, "--against", src, "--seeds", "3"],
                              env=env, cwd=root, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "")
        assert proc.stderr.count("dynderiv from ") == 2


def _scaled(module, name, factor):
    """Setup that makes ``module.name`` return ``factor`` times its value."""
    def setup(monkeypatch):
        true_fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: factor * true_fn(*args))
    return setup


def _slower_wagner_lag(monkeypatch):
    true_lag = plants._wagner_lag
    monkeypatch.setattr(plants, "_wagner_lag", lambda d_ae, r: true_lag(d_ae, r**1.02))


def _extract_over_1_001_k_amp(monkeypatch):
    true_extract = scenarios.extract
    monkeypatch.setattr(scenarios, "extract", lambda fits, spec, cond=None: true_extract(
        {name: replace(fit, out_phase=fit.out_phase / 1.001) for name, fit in fits.items()},
        spec, cond))


def _adot_with_cq_off_by_1e_6(monkeypatch):
    monkeypatch.setattr(identify.ChannelDerivatives, "aoa_rate_derivative",
                        property(lambda ch: ch.damping_sum - 1.000001 * ch.rate_derivative))


# One fault per case in the code a check covers, each small against what
# the check's bound forgives elsewhere: the acceptance run must report it.
VALIDATE_FAULTS = {
    "series-hankel-ratio": ("lift-deficiency limits",
                            _scaled(plants, "_hankel_ratio_series", 1.0 + 1e-12)),
    "asymptotic-hankel-ratio": ("lift-deficiency limits",
                                _scaled(plants, "_hankel_ratio_asymptotic", 1.05)),
    "jones-a1": ("jones cross-check",
                 lambda monkeypatch: monkeypatch.setattr(plants, "WAGNER_A1", 0.2)),
    "wagner-lag-decay": ("indicial consistency", _slower_wagner_lag),
    "extract-ka-divisor": ("round-trip recovery", _extract_over_1_001_k_amp),
    "adot-cq": ("rate separation vs analytic loads", _adot_with_cq_off_by_1e_6),
    "loop-area": ("loop-area identity", _scaled(validate, "loop_metrics", 1.001)),
}


class TestValidate:
    def test_exits_zero_and_reports_checks(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(ALL_CHECKS) == 6
        assert [line.partition(": ")[0] for line in lines] == [
            f"[PASS] {name}" for name in ALL_CHECKS]
        assert all(line.partition(": ")[2] for line in lines)

    def test_a_loop_of_the_wrong_orientation_fails_its_check(self, capsys, monkeypatch):
        true_area = validate.loop_metrics
        monkeypatch.setattr(validate, "loop_metrics", lambda *args: -true_area(*args))
        passed, detail = validate.check_loop_identity()
        assert not passed and detail.startswith("orientation mismatch for b=")
        assert float(detail.rpartition("=")[2]) != 0.0
        assert main(["validate"]) == 1
        assert f"[FAIL] loop-area identity: {detail}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("fault", VALIDATE_FAULTS)
    def test_a_fault_in_what_a_check_covers_fails_it(self, fault, capsys, monkeypatch):
        name, setup = VALIDATE_FAULTS[fault]
        assert ALL_CHECKS[name]()[0]
        setup(monkeypatch)
        passed, detail = ALL_CHECKS[name]()
        assert not passed
        assert main(["validate"]) == 1
        assert f"[FAIL] {name}: {detail}" in capsys.readouterr().out.splitlines()


class TestNoScipy:
    def test_validate_and_theodorsen_sweep_leave_scipy_unimported(self, tmp_path):
        """numpy is the only runtime dependency; a fresh interpreter shows what gets imported."""
        doc = tiny_doc("flat-plate")
        doc["plant"]["kernel"] = "theodorsen"
        config = tmp_path / "case.json"
        config.write_text(json.dumps(doc))
        script = ("import sys\n"
                  "from dynderiv.cli import main\n"
                  "codes = (main(['validate']),\n"
                  "         main(['sweep', sys.argv[1], '--out-dir', sys.argv[2]]))\n"
                  "print(codes, 'scipy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(dynderiv.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "(0, 0) False"


class TestEncoding:
    def test_outputs_are_written_as_utf8_not_in_the_locale_encoding(self, tmp_path):
        """Under warn_default_encoding a file opened in the locale's encoding is an error."""
        config = tmp_path / "case.json"
        config.write_text(json.dumps(tiny_doc("quasi-steady")), encoding="utf-8")
        script = ("import sys\n"
                  "from dynderiv.cli import main\n"
                  "case, out = sys.argv[1:]\n"
                  "codes = (main(['simulate', case, '--out', out + '/s.csv', '--mode', 'alpha']),\n"
                  "         main(['identify', out + '/s.csv', '--k=0.1', '--mode=alpha',\n"
                  "               '--amplitude-deg=1', '--chord=0.3', '--speed=40', '--out',\n"
                  "               out + '/d.csv']),\n"
                  "         main(['sweep', case, '--out-dir', out]))\n"
                  "print(codes)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(dynderiv.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", script,
                               str(config), str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "(0, 0, 0)"
        assert (tmp_path / "d.csv").read_text(encoding="utf-8").startswith("channel,")


def run_warning_free(argv):
    """main(argv) with stdout and stderr captured; fails on any warning or traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _periodic_export():
    t = np.arange(3 * 16) / 16.0
    cl, cm = 0.1 + np.sin(2 * math.pi * t), np.cos(2 * math.pi * t)
    return "t,CL,CM\n" + "".join(f"{row[0]!r},{row[1]!r},{row[2]!r}\n"
                                  for row in zip(t.tolist(), cl.tolist(), cm.tolist()))


_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324",
                     "1" + "0" * 400, "-" + "9" * 400, "x", ""]),
    st.floats(0.01, 100.0).map(repr),
    st.floats().map(repr),
)
_FLAG_VALUES = {
    "--k": _NUMBERS, "--amplitude-deg": _NUMBERS, "--mean-deg": _NUMBERS,
    "--omega": _NUMBERS, "--chord": _NUMBERS, "--speed": _NUMBERS,
    "--skip": st.one_of(st.integers(-2, 4).map(str), st.integers().map(str),
                        st.sampled_from(["1" + "0" * 400, "-" + "9" * 400, "nan", "1.5", ""])),
    "--mode": st.sampled_from(["alpha", "q", "pitch"]),
    "--alias": st.sampled_from(["lift=CL", "t=time", "cl=Cm", "x", "a=bogus", "=CL"]),
}


@st.composite
def identify_argvs(draw):
    """identify flags with random values: required ones now and then missing, any one repeated."""
    required = [("--k", "0.1"), ("--mode", "alpha"), ("--amplitude-deg", "1")]
    flags = [(flag, draw(_FLAG_VALUES[flag]) if not draw(st.integers(0, 3)) else value)
             for flag, value in required if draw(st.integers(0, 9))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(_FLAG_VALUES)))
        flags.append((flag, draw(_FLAG_VALUES[flag])))
    flags = draw(st.permutations(flags))
    if draw(st.integers(0, 2)):
        text, aliases = draw(fuzzed_monitor_texts())
        flags += [("--alias", f"{header}={target}") for header, target in (aliases or {}).items()]
    else:
        text = _periodic_export()
    return text, [arg for pair in flags for arg in pair]


class TestIdentifyArgv:
    @pytest.fixture(scope="class")
    def series_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("argv") / "series.csv"

    @given(identify_argvs())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_one_line_errors(self, series_path, case):
        text, flags = case
        series_path.write_text(text)
        code, out, err = run_warning_free(["identify", str(series_path), *flags])
        lines = err.splitlines()
        if code == 0:
            assert lines == [] and out.startswith("channel,")
        elif lines[:1] and lines[0].startswith("error: "):
            assert code in (1, 2) and len(lines) == 1
        else:                                  # argparse: its usage, then one error line
            assert code == 2 and lines[0].startswith("usage: ")
            assert len([line for line in lines if "error: " in line]) == 1


def tiny_doc(kind="flat-plate"):
    """Flat plate (or ``kind``) at k 0.1, 0.3 m chord, 3 cycles x 16 samples, one scenario."""
    doc = config_doc(plant={"kind": kind}, scenarios=[
        {"name": "s", "altitude_m": 10.0, "vertical_velocity_m_s": 0.0,
         "forward_velocity_m_s": 40.0}])
    doc["condition"].update(speed_m_s=40.0, chord_m=0.3)
    doc["oscillation"].update(reduced_frequency=0.1, cycles=3, samples_per_cycle=16)
    return doc


class TestNumericExtremes:
    """Configs that parse but overflow numpy fail with one line, never a warning."""

    @pytest.mark.parametrize("command, kind, block, key, value, reason", [
        ("sweep", "flat-plate", "scenario", "forward_velocity_m_s", 1e-308,
         "DomainError: omega must keep every time stamp finite"),
        ("simulate", "indicial", "condition", "speed_m_s", 1e-308,
         "omega must keep every time stamp finite"),
        ("simulate", "indicial", "oscillation", "reduced_frequency", 1e300,
         "omega must keep the pitch acceleration omega^2 * amplitude finite"),
        ("sweep", "indicial", "scenario", "forward_velocity_m_s", 1e-300,
         "NonFiniteData: channel CL contains non-finite values"),
        ("simulate", "quasi-steady", "plant", "CL_alpha", 1e300,
         "channel CD contains non-finite values"),
    ], ids=["period", "period-indicial", "omega-squared", "semichord-time-squared",
            "induced-drag"])
    def test_one_line_and_no_warning(self, tmp_path, command, kind, block, key, value, reason):
        doc = tiny_doc(kind)
        if kind == "quasi-steady":
            doc["plant"]["induced_drag_factor"] = 0.05
        {"scenario": doc["scenarios"][0], "condition": doc["condition"],
         "oscillation": doc["oscillation"], "plant": doc["plant"]}[block][key] = value
        config = tmp_path / "case.json"
        config.write_text(json.dumps(doc))
        out_dir = tmp_path / "results"
        out = ["--out-dir", str(out_dir)] if command == "sweep" else ["--out", str(tmp_path / "s")]
        code, _, err = run_warning_free([command, str(config), *out])
        assert code == 1
        if command == "simulate":
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {reason}")
        else:
            assert err == ""
            assert f"FAILED({reason}" in (out_dir / "report.csv").read_text()

    @pytest.mark.parametrize("case, code, message", [
        ("config", 1, "'oscillation.amplitude_deg' must be >= 2.2250738585072014e-308 rad, "
                      "the smallest normal float, got 1e-320"),
        ("flag", 2, "--amplitude-deg must be >= 2.2250738585072014e-308 rad, "
                    "the smallest normal float, got 1e-320"),
        ("export", 1, "CL: in-phase / A and out-of-phase / (k*A) must be finite, got inf and "),
    ])
    def test_a_scale_below_the_smallest_normal_float_fails(self, tmp_path, case, code, message):
        # each exited 0, with C_alpha 5.14 for an injected 5, or inf, in its report
        if case == "config":
            doc = config_doc()
            doc["oscillation"]["amplitude_deg"] = 1e-320
            (tmp_path / "case.json").write_text(json.dumps(doc))
            argv = ["sweep", str(tmp_path / "case.json"), "--out-dir", str(tmp_path / "out")]
        else:
            t = np.arange(3 * 16) / 16.0
            cl = np.sin(2 * math.pi * t) * (1.0 if case == "flag" else 1e150)
            rows = "".join(f"{ti!r},{v!r}\n" for ti, v in zip(t.tolist(), cl.tolist()))
            (tmp_path / "export.csv").write_text("t,CL\n" + rows)
            amp = "1e-320" if case == "flag" else "1e-300"
            argv = ["identify", str(tmp_path / "export.csv"), "--k", "1", "--mode", "alpha",
                    "--amplitude-deg", amp]
        code_, out, err = run_warning_free(argv)
        assert (code_, out) == (code, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")

    def test_theodorsen_plate_at_huge_k_simulates(self, tmp_path):
        doc = tiny_doc("flat-plate")
        doc["plant"]["kernel"] = "theodorsen"
        doc["oscillation"]["reduced_frequency"] = 1e17
        config = tmp_path / "case.json"
        config.write_text(json.dumps(doc))
        assert run_warning_free(["simulate", str(config), "--out", str(tmp_path / "s")]) \
            == (0, "", "")


_EXTREMES = st.sampled_from([0, -0.0, 5e-324, 1e-308, 1e300, 1e308, -1, -1e300, 10**400,
                             -(10**400), "x", "", None])
# the keys a tiny config may carry, by block; the plant's depend on its kind
_DRAG_KEYS = ("CD0", "CD_alpha", "CD_q", "induced_drag_factor")
_PLANT_KEYS = {
    "quasi-steady": ("CL0", "CL_alpha", "CL_q", "CL_alphadot", "Cm0", "Cm_alpha", "Cm_q",
                     "Cm_alphadot") + _DRAG_KEYS,
    "flat-plate": ("pitch_axis",),
    "indicial": ("pitch_axis",) + _DRAG_KEYS,
}
_BLOCK_KEYS = {
    "condition": ("speed_m_s", "sound_speed_m_s", "density_kg_m3", "chord_m", "span_m",
                  "area_m2"),
    "oscillation": ("mean_incidence_deg", "amplitude_deg", "reduced_frequency", "cycles",
                    "samples_per_cycle", "skip_cycles"),
    "scenario": ("altitude_m", "vertical_velocity_m_s", "forward_velocity_m_s"),
}


@st.composite
def tiny_case_argvs(draw):
    """A tiny config (<= 4 cycles x 32 samples) with a few values drawn from the extremes."""
    kind = draw(st.sampled_from(sorted(_PLANT_KEYS)))
    doc = tiny_doc(kind)
    osc = doc["oscillation"]
    osc.update(cycles=draw(st.integers(1, 4)), samples_per_cycle=draw(st.integers(8, 32)),
               skip_cycles=draw(st.sampled_from([None, 0, 1])),
               modes=draw(st.sampled_from([["alpha"], ["q"], ["alpha", "q"], ["q", "alpha"]])))
    doc["speed_basis"] = draw(st.sampled_from(["forward", "total"]))
    if kind == "flat-plate":
        doc["plant"]["kernel"] = draw(st.sampled_from(["theodorsen", "jones"]))
    if kind == "quasi-steady":
        doc["plant"].update(CL_alpha=5.0, Cm_q=-3.0, mach_scaling=draw(st.booleans()))
    doc["scenarios"].append({"name": "hover", "altitude_m": 5.0, "vertical_velocity_m_s": 1.0,
                             "forward_velocity_m_s": 0.0})
    blocks = {"condition": doc["condition"], "oscillation": osc, "scenario": doc["scenarios"][0],
              "plant": doc["plant"]}
    keys = [(block, key) for block, names in _BLOCK_KEYS.items() for key in names]
    keys += [("plant", key) for key in _PLANT_KEYS[kind]]
    for block, key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        blocks[block][key] = draw(_EXTREMES)
    return draw(st.sampled_from(["simulate", "sweep"])), doc


class TestCaseArgv:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("case-argv")

    @given(tiny_case_argvs())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_and_one_line_errors(self, work, case):
        command, doc = case
        config, out_dir = work / "case.json", work / "results"
        config.write_text(json.dumps(doc))
        shutil.rmtree(out_dir, ignore_errors=True)
        out = ["--out-dir", str(out_dir)] if command == "sweep" else ["--out", str(work / "s")]
        code, _, err = run_warning_free([command, str(config), *out])
        lines = err.splitlines()
        assert code in (0, 1, 2)
        if code == 0:
            assert lines == []
        elif command == "sweep" and code == 1 and (out_dir / "report.csv").exists():
            assert lines == [] and "FAILED(" in (out_dir / "report.csv").read_text()
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")


# Zero or at least 1e-6 in size: near the underflow limit no float pipeline keeps
# the relative precision the checks ask for.
_COEFFICIENTS = st.floats(-20.0, 20.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
# Flown speeds are 0 (hover) or at least 0.5 m/s: near 1e-300 m/s the time stamps
# overflow and the scenario fails, which TestNumericExtremes covers.
_FORWARD = st.one_of(st.just(0.0), st.floats(1.0, 150.0))
_CLIMB = st.one_of(st.just(0.0), st.floats(0.5, 10.0), st.floats(-10.0, -0.5))


def _sweep_doc(draw, plant, reduced_frequency):
    """An accepted config for ``plant``: both modes, 1-4 scenarios, hover and climbs among them."""
    scenarios = [{"name": f"s{i}", "altitude_m": 10.0, "forward_velocity_m_s": draw(_FORWARD),
                  "vertical_velocity_m_s": draw(_CLIMB)} for i in range(draw(st.integers(1, 4)))]
    doc = config_doc(plant=plant, scenarios=scenarios,
                     speed_basis=draw(st.sampled_from(["forward", "total"])))
    doc["condition"]["sound_speed_m_s"] = draw(st.sampled_from([None, 340.0]))
    cycles = draw(st.integers(1, 3))
    doc["oscillation"].update(
        mean_incidence_deg=draw(st.floats(-10.0, 10.0)), amplitude_deg=draw(st.floats(0.1, 10.0)),
        reduced_frequency=draw(reduced_frequency), cycles=cycles,
        samples_per_cycle=draw(st.integers(8, 64)),
        skip_cycles=draw(st.one_of(st.none(), st.integers(0, cycles - 1))))
    return doc


@st.composite
def quasi_steady_docs(draw):
    """An accepted quasi-steady config, every coefficient drawn."""
    plant = {key: draw(_COEFFICIENTS) for key in _PLANT_KEYS["quasi-steady"]}
    plant.update(kind="quasi-steady", mach_scaling=draw(st.booleans()),
                 induced_drag_factor=draw(st.one_of(st.none(), st.floats(0.0, 2.0))))
    return _sweep_doc(draw, plant, st.floats(0.01, 2.0))


def quasi_steady_report(doc):
    """report.csv's cells by (scenario, channel), in closed form from the config.

    In incidence mode CL = c0 + c1 sin(wt) + c2 cos(wt).  The induced drag kappa*CL^2
    adds 2*kappa*c0 times CL's in-phase and out-of-phase parts to CD's, and
    kappa*(c0^2 + (c1^2 + c2^2)/2) to its mean.  The closed trapezoid over the N
    samples of one cycle gives the loop area pi*A*b*sin(h)/h, with b the
    out-of-phase coefficient and h = 2*pi/N.  Each row's "size" bounds its channel's
    coefficient history, which sets the rounding a fit of it may carry.
    """
    p, osc = doc["plant"], doc["oscillation"]
    k, sound = osc["reduced_frequency"], doc["condition"]["sound_speed_m_s"]
    amp, alpha0 = math.radians(osc["amplitude_deg"]), math.radians(osc["mean_incidence_deg"])
    kappa = p["induced_drag_factor"] or 0.0
    h = 2.0 * math.pi / osc["samples_per_cycle"]
    cells = {}
    for s in doc["scenarios"]:
        v = s["forward_velocity_m_s"]
        if doc["speed_basis"] == "total":
            v = math.sqrt(v * v + s["vertical_velocity_m_s"] ** 2)
        f = 1.0 / math.sqrt(1.0 - (v / sound) ** 2) if p["mach_scaling"] and sound else 1.0
        # channel -> (trim, C_alpha, C_q, C_alphadot), and the size of its history
        truth, size = {}, {}
        for ch in ("CL", "CD", "Cm"):
            x0, slope, rate, adot = (p[f"{ch}0"], f * p[f"{ch}_alpha"], f * p[f"{ch}_q"],
                                     f * p.get(f"{ch}_alphadot", 0.0))
            truth[ch] = (x0 + slope * alpha0, slope, rate, adot)
            size[ch] = (abs(x0) + abs(slope) * (abs(alpha0) + amp)
                        + (abs(rate) + abs(adot)) * k * amp)
        c0, cla, clq, clad = truth["CL"]
        c1, c2 = cla * amp, (clq + clad) * k * amp
        size["CD"] += kappa * (abs(c0) + abs(c1) + abs(c2)) ** 2
        if v == 0.0:
            trims = {"CL": c0, "CD": truth["CD"][0] + kappa * c0 * c0, "Cm": truth["Cm"][0]}
            for ch, trim in trims.items():
                cells[s["name"], ch] = {"V": 0.0, "trim": trim, "status": "STATIC_ONLY",
                                        "size": size[ch]}
            continue
        cd0, cda, cdq, cdad = truth["CD"]
        truth["CD"] = (cd0 + kappa * (c0 * c0 + (c1 * c1 + c2 * c2) / 2.0),
                       cda + 2.0 * kappa * c0 * cla, cdq + 2.0 * kappa * c0 * clq,
                       cdad + 2.0 * kappa * c0 * clad)
        for ch, (trim, slope, rate, adot) in truth.items():
            b = (rate + adot) * k * amp
            cells[s["name"], ch] = {
                "V": v, "k": k, "C_alpha": slope, "C_q": rate, "C_alphadot": adot,
                "damping_sum": rate + adot, "trim": trim,
                "loop_area": math.pi * amp * b * math.sin(h) / h, "status": "OK",
                "size": size[ch]}
    return cells


def check_sweep_report(work, doc, truth):
    """Run ``doc`` through ``dynderiv sweep`` and hold every report.csv cell to ``truth``.

    ``truth`` maps (scenario, channel) to the row's cells, its status, the
    "size" that bounds its channel's coefficient history and, for a plant
    that only approximates its truth, the "error" a fit of that history may
    carry on top of rounding, in the units of the trim.
    """
    config, out_dir = work / "case.json", work / "results"
    config.write_text(json.dumps(doc))
    shutil.rmtree(out_dir, ignore_errors=True)
    code, _, err = run_warning_free(["sweep", str(config), "--out-dir", str(out_dir)])
    assert (code, err) == (0, "")
    with open(out_dir / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["scenario"], r["channel"]) for r in rows] == list(truth)
    osc = doc["oscillation"]
    amp, k = math.radians(osc["amplitude_deg"]), osc["reduced_frequency"]
    # extract divides a fitted part by A or by k*A; the loop area is a sum of y*dx
    per = {"trim": 1.0, "C_alpha": amp, "loop_area": 1.0 / amp}
    # loop_metrics returns an area under 32*N*eps*max|x|*max|y| as 0
    zeroed = 32 * osc["samples_per_cycle"] * np.finfo(float).eps * (
        abs(math.radians(osc["mean_incidence_deg"])) + amp)
    for row in rows:
        want = truth[row["scenario"], row["channel"]]
        assert row["status"] == want["status"]
        for column in ("V", "k", "C_alpha", "C_q", "C_alphadot", "damping_sum", "trim",
                       "loop_area"):
            got = float(row[column]) if row[column] else None
            if column not in want:
                assert got is None, column
            elif column in ("V", "k"):
                assert math.isclose(got, want[column], rel_tol=1e-15), column
            else:
                tol = (1e-13 * want["size"] + want.get("error", 0.0)) / per.get(column, k * amp)
                if column == "loop_area":
                    tol += zeroed * (want["size"] + want.get("error", 0.0))
                assert abs(got - want[column]) <= tol, (column, row)


def _loop_under_its_rounding():
    """A quasi-steady config whose CD loop area (1e-13) is under loop_metrics' zero bound."""
    plant = dict.fromkeys(_PLANT_KEYS["quasi-steady"], 0.0)
    plant.update(kind="quasi-steady", CD0=20.0, CD_q=1e-6, mach_scaling=False,
                 induced_drag_factor=None)
    doc = config_doc(plant=plant, speed_basis="forward", scenarios=[
        {"name": "s0", "altitude_m": 10.0, "forward_velocity_m_s": 100.0,
         "vertical_velocity_m_s": 0.0}])
    doc["oscillation"].update(mean_incidence_deg=10.0, amplitude_deg=0.1, reduced_frequency=0.01,
                              cycles=1, samples_per_cycle=64)
    return doc


class TestQuasiSteadySweepTruth:
    """Whole sweeps through the CLI against closed forms, over the configs it accepts."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("quasi-steady-sweep")

    @given(quasi_steady_docs())
    @example(_loop_under_its_rounding())
    @settings(max_examples=100, deadline=None)
    def test_every_report_cell(self, work, doc):
        check_sweep_report(work, doc, quasi_steady_report(doc))


class TestRunMeta:
    """run_meta.json lists each scenario as the canonical config renders it, with its status."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("run-meta")

    @given(quasi_steady_docs())
    @example(config_doc())                  # the builtin scenarios
    @settings(max_examples=25, deadline=None)
    def test_scenarios_are_the_rendered_plans(self, work, doc):
        config, out_dir = work / "case.json", work / "results"
        config.write_text(json.dumps(doc))
        assert main(["sweep", str(config), "--out-dir", str(out_dir)]) == 0
        plan = parse_case_config(config.read_text())
        statuses = [r.status.value for r in scenarios.run_sweep(plan).results]
        rendered = json.loads(render_case_config(plan))["scenarios"]
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["scenarios"] == [{**entry, "status": status}
                                     for entry, status in zip(rendered, statuses, strict=True)]


@st.composite
def flat_plate_docs(draw):
    """An accepted flat-plate config: either kernel, any pitch axis within two semichords.

    k reaches past 3 and 18, where theodorsen_function changes its method.
    """
    plant = {"kind": "flat-plate", "pitch_axis": draw(st.floats(-2.0, 2.0)),
             "kernel": draw(st.sampled_from(["theodorsen", "jones"]))}
    return _sweep_doc(draw, plant, st.one_of(st.floats(0.01, 3.0), st.floats(3.0, 25.0)))


def flat_plate_report(doc):
    """report.csv's cells by (scenario, channel), from Theodorsen's loads in each mode.

    The response to pitch A sin(wt) is A (Re H sin(wt) + Im H cos(wt)), so
    C_alpha = Re H_alpha, damping sum = Im H_alpha / k, C_q = Im H_q / k,
    and the loop area is pi*A*b*sin(h)/h with b = A Im H_alpha and h = 2*pi/N.
    The trims are the steady loads (s = 0, C = 1) at the mean incidence, and
    the drag channel is zero.
    """
    p, osc = doc["plant"], doc["oscillation"]
    a, k = p["pitch_axis"], osc["reduced_frequency"]
    amp, alpha0 = math.radians(osc["amplitude_deg"]), math.radians(osc["mean_incidence_deg"])
    c = (theodorsen_c if p["kernel"] == "theodorsen" else jones_c)(k)
    h = 2.0 * math.pi / osc["samples_per_cycle"]
    (cl_p, cm_p), (cl_q, cm_q) = (theodorsen_loads(a, 1j * k, c, 0.0, 0.0),
                                  theodorsen_loads(a, 1j * k, c, -1.0, -1j * k))
    cl_0, cm_0 = theodorsen_loads(a, 0.0, 1.0, 0.0, 0.0)
    # channel -> (trim, incidence-mode H, flow-path-mode H)
    truth = {"CL": (alpha0 * cl_0, cl_p, cl_q), "CD": (0.0, 0j, 0j),
             "Cm": (alpha0 * cm_0, cm_p, cm_q)}
    cells = {}
    for s in doc["scenarios"]:
        v = s["forward_velocity_m_s"]
        if doc["speed_basis"] == "total":
            v = math.sqrt(v * v + s["vertical_velocity_m_s"] ** 2)
        for ch, (trim, hp, hq) in truth.items():
            size = abs(trim) + amp * max(abs(hp.real) + abs(hp.imag), abs(hq.real) + abs(hq.imag))
            row = {"V": v, "trim": trim, "status": "STATIC_ONLY", "size": size}
            if v != 0.0:
                row.update(k=k, C_alpha=hp.real, C_q=hq.imag / k, damping_sum=hp.imag / k,
                           C_alphadot=(hp.imag - hq.imag) / k, status="OK",
                           loop_area=math.pi * amp * amp * hp.imag * math.sin(h) / h)
            cells[s["name"], ch] = row
    return cells


class TestFlatPlateSweepTruth:
    """Whole flat-plate sweeps through the CLI against Theodorsen's loads from ``truth``."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("flat-plate-sweep")

    @given(flat_plate_docs())
    @settings(max_examples=100, deadline=None)
    def test_every_report_cell(self, work, doc):
        check_sweep_report(work, doc, flat_plate_report(doc))


@st.composite
def indicial_docs(draw):
    """An accepted indicial config: any pitch axis and drag polar, a skip the run leaves room for.

    Past the drawn skip (None: the plant's default) the run fits 1-2 cycles
    of 32-256 samples each.
    """
    plant = {key: draw(_COEFFICIENTS) for key in _DRAG_KEYS[:3]}
    plant.update(kind="indicial", pitch_axis=draw(st.floats(-2.0, 2.0)),
                 induced_drag_factor=draw(st.one_of(st.none(), st.floats(0.0, 2.0))))
    doc = _sweep_doc(draw, plant, st.floats(0.01, 1.0))
    skip = draw(st.one_of(st.none(), st.integers(0, 8)))
    skipped = scenarios.DEFAULT_SKIP_TRANSIENT if skip is None else skip
    doc["oscillation"].update(skip_cycles=skip, samples_per_cycle=draw(st.integers(32, 256)),
                              cycles=skipped + draw(st.integers(1, 2)))
    return doc


def indicial_report(doc):
    """report.csv's cells by (scenario, channel): the Jones flat plate, and its error bound.

    After its start-up transient the indicial plant is the flat plate with
    C(k) = jones_c(k), and its drag is CD0 + CD_alpha*alpha + CD_q*qhat +
    kappa*CL^2, handled as in quasi_steady_report.  The plant differs from
    that truth, pointwise over the fit window, by at most
    2*pi * sum_j A_j * (lag error_j + start-up_j) in CL, where with ds =
    2*pi/(k*spc) semichords per sample, ae the amplitude of the 3/4-chord
    incidence and s = 2*pi*skip/k the semichords skipped:

    * lag error_j <= ds^2 * ae * (k^2/12 + b_j*k*exp(b_j*ds/2)/24).  Each
      step puts its incidence increment at the step's midpoint; the midpoint
      rule's remainder over one step is ds^3 * (b_j*|alpha''|/12 +
      b_j^2*|alpha'|*exp(b_j*ds/2)/24) times the lag weight, the weights of
      all past steps sum to at most 1/(b_j*ds), and |alpha'| <= ae*k,
      |alpha''| <= ae*k^2 per semichord.  The C of C*(2*pi/(k*spc))^2 is thus
      derived, not fitted; the apparent-mass terms use exact rates.
    * start-up_j <= exp(-b_j*s) * (|alpha0| + 2*ae): the lag state starts
      at alpha_e(0), and its periodic part is at most ae (|ik/(ik+b)| <= 1).
      The slow pole, A1*exp(-2*pi*b1*skip/k), dominates past the first cycle.

    Cm's circulatory part is (a + 1/2)/2 times CL's, and CD's error is
    kappa*(2*|CL| + d)*d for a CL error d.  A fit turns a pointwise error d
    into at most d in the mean, 2d in each harmonic part (so 4d in the
    damping-sum difference C_alphadot) and 4*A*d in the loop area: each cell's
    "error" is 4d.
    """
    p, osc = doc["plant"], doc["oscillation"]
    a, k, spc = p["pitch_axis"], osc["reduced_frequency"], osc["samples_per_cycle"]
    amp, alpha0 = math.radians(osc["amplitude_deg"]), math.radians(osc["mean_incidence_deg"])
    kappa = p["induced_drag_factor"] or 0.0
    skip = scenarios.DEFAULT_SKIP_TRANSIENT if osc["skip_cycles"] is None else osc["skip_cycles"]
    ds, ae = 2.0 * math.pi / (k * spc), amp * (1.0 + abs(0.5 - a) * k)
    d_cl = 2.0 * math.pi * sum(
        aj * (ds * ds * ae * (k * k / 12.0 + bj * k * math.exp(bj * ds / 2.0) / 24.0)
              + math.exp(-bj * 2.0 * math.pi * skip / k) * (abs(alpha0) + 2.0 * ae))
        for aj, bj in JONES_POLES)
    cells = flat_plate_report({**doc, "plant": {"kind": "flat-plate", "pitch_axis": a,
                                                "kernel": "jones"}})
    c = jones_c(k)
    (cl_p, _), (cl_q, _) = (theodorsen_loads(a, 1j * k, c, 0.0, 0.0),
                            theodorsen_loads(a, 1j * k, c, -1.0, -1j * k))
    c0, c1, c2 = 2.0 * math.pi * alpha0, amp * cl_p.real, amp * cl_p.imag
    cl_size = abs(c0) + amp * max(abs(cl_p.real) + abs(cl_p.imag), abs(cl_q.real) + abs(cl_q.imag))
    error = {"CL": 4.0 * d_cl, "Cm": 4.0 * abs(a + 0.5) / 2.0 * d_cl,
             "CD": 4.0 * kappa * (2.0 * cl_size + d_cl) * d_cl}
    cd_size = (abs(p["CD0"]) + abs(p["CD_alpha"]) * (abs(alpha0) + amp) + abs(p["CD_q"]) * k * amp
               + kappa * cl_size * cl_size)
    for (name, ch), row in cells.items():
        if ch == "CD":
            row.update(size=cd_size, trim=p["CD0"] + p["CD_alpha"] * alpha0 + kappa * c0 * c0)
        if row["status"] != "OK":
            continue
        row["error"] = error[ch]
        if ch == "CD":
            damping = p["CD_q"] + 2.0 * kappa * c0 * cl_p.imag / k
            rate = p["CD_q"] + 2.0 * kappa * c0 * cl_q.imag / k
            h = 2.0 * math.pi / spc
            row.update(trim=row["trim"] + kappa * (c1 * c1 + c2 * c2) / 2.0,
                       C_alpha=p["CD_alpha"] + 2.0 * kappa * c0 * cl_p.real,
                       damping_sum=damping, C_q=rate, C_alphadot=damping - rate,
                       loop_area=math.pi * amp * amp * k * damping * math.sin(h) / h)
    return cells


class TestIndicialSweepTruth:
    """Whole indicial sweeps through the CLI against the Jones flat plate, within its error bound."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("indicial-sweep")

    @given(indicial_docs())
    @settings(max_examples=100, deadline=None)
    def test_every_report_cell(self, work, doc):
        check_sweep_report(work, doc, indicial_report(doc))


@st.composite
def template_docs(draw):
    """A drawn config of any plant, flying one scenario at the template speed with the plant's
    default skip."""
    doc = draw(st.one_of(quasi_steady_docs(), flat_plate_docs(), indicial_docs()))
    skip = scenarios.DEFAULT_SKIP_TRANSIENT if doc["plant"]["kind"] == "indicial" else 0
    osc, speed = doc["oscillation"], draw(st.floats(1.0, 150.0))
    osc.update(skip_cycles=None, cycles=max(osc["cycles"], skip + 1))
    doc["condition"]["speed_m_s"] = speed
    doc["scenarios"] = [{"name": "template", "altitude_m": 10.0, "forward_velocity_m_s": speed,
                         "vertical_velocity_m_s": 0.0}]
    return doc, skip


_REPORTS = {"quasi-steady": quasi_steady_report, "flat-plate": flat_plate_report,
            "indicial": indicial_report}


class TestCommandPaths:
    """simulate --out, then identify, gives the row sweep reports for the same flight."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("command-paths")

    @given(template_docs())
    @settings(max_examples=50, deadline=None)
    def test_identify_of_each_export_matches_the_sweep_row(self, work, drawn):
        doc, skip = drawn
        config, out_dir = work / "case.json", work / "results"
        config.write_text(json.dumps(doc))
        shutil.rmtree(out_dir, ignore_errors=True)
        code, _, err = run_warning_free(["sweep", str(config), "--out-dir", str(out_dir)])
        assert (code, err) == (0, "")
        with open(out_dir / "report.csv", newline="") as fh:
            sweep = {row["channel"]: row for row in csv.DictReader(fh)}
        osc, cond = doc["oscillation"], doc["condition"]
        tables = {}
        for mode in ("alpha", "q"):
            export = work / f"{mode}.csv"
            code, _, err = run_warning_free(["simulate", str(config), "--mode", mode,
                                             "--out", str(export)])
            assert (code, err) == (0, "")
            code, out, err = run_warning_free([   # flag=value: a value may start with '-'
                "identify", str(export), "--mode", mode, f"--k={osc['reduced_frequency']!r}",
                f"--amplitude-deg={osc['amplitude_deg']!r}",
                f"--mean-deg={osc['mean_incidence_deg']!r}", f"--chord={cond['chord_m']!r}",
                f"--speed={cond['speed_m_s']!r}", f"--skip={skip}"])
            assert (code, err) == (0, "")
            tables[mode] = table_to_dict(out)
        # the sweep fits on the phase grid and identify on the file's times, so the two differ
        # by rounding: 1e-13 of the row's largest derivative (as TestSweepBasis), or of the
        # history's size over the cell's divisor where a channel barely oscillates
        size = {ch: cells["size"] for (_, ch), cells in
                _REPORTS[doc["plant"]["kind"]](doc).items()}
        amp = math.radians(osc["amplitude_deg"])
        per = {"trim": 1.0, "C_alpha": amp, "damping_sum": osc["reduced_frequency"] * amp}
        per["C_q"] = per["damping_sum"]
        for channel, row in sweep.items():
            got = {column: tables["alpha"][channel][column]
                   for column in ("trim", "C_alpha", "damping_sum")}
            got["C_q"] = tables["q"][channel]["C_q"]
            largest = max(abs(float(row[c])) for c in ("C_alpha", "C_q", "C_alphadot",
                                                        "damping_sum"))
            for column, value in got.items():
                tol = 1e-13 * max(largest, size[channel] / per[column])
                assert abs(value - float(row[column])) <= tol, (channel, column, value, row)
