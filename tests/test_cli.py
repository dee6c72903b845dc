"""Command-line interface, exercised in-process through main()."""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_io import fuzzed_monitor_texts

from dynderiv import DomainError, parse_monitor_table, scenarios
from dynderiv.cli import main

AGARD_K = 0.0811
AGARD_AMP_DEG = 4.59
AGARD_MEAN_DEG = 3.16


def config_doc(**overrides):
    doc = {
        "condition": {
            "speed_m_s": 100.0,
            "sound_speed_m_s": None,
            "density_kg_m3": 1.225,
            "chord_m": 0.2299,
            "span_m": 0.6096,
            "area_m2": 0.1238,
        },
        "oscillation": {
            "modes": ["alpha", "q"],
            "mean_incidence_deg": AGARD_MEAN_DEG,
            "amplitude_deg": AGARD_AMP_DEG,
            "reduced_frequency": AGARD_K,
            "cycles": 3,
            "samples_per_cycle": 720,
            "skip_cycles": None,
        },
        "plant": {
            "kind": "quasi-steady",
            "CL0": 0.2, "CL_alpha": 5.0, "CL_q": 4.0, "CL_alphadot": 6.0,
            "CD0": 0.02, "CD_alpha": 0.3, "CD_q": 0.1,
            "Cm0": -0.05, "Cm_alpha": -1.2, "Cm_q": -3.0, "Cm_alphadot": -1.2,
        },
        "scenarios": "builtin",
    }
    doc.update(overrides)
    return doc


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
        t = np.arange(720) / 720.0
        lines = ["t,lift"] + [f"{float(ti)!r},{float(v)!r}" for ti, v in zip(t, np.sin(2 * math.pi * t))]
        path = tmp_path / "alias.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "identify", str(path), "--k", "0.1", "--mode", "alpha",
            "--amplitude-deg", "1.0", "--alias", "lift=CL",
        ])
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
        config.write_text(json.dumps(doc))
        assert main(["sweep", str(config), "--out-dir", str(tmp_path / "results")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"oscillation.skip_cycles is {skip}" in err[0]
        assert f"oscillation.cycles is {oscillation['cycles']}" in err[0]

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


class TestValidate:
    def test_exits_zero_and_reports_checks(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out


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
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["identify", str(series_path), *flags])
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert lines == [] and out.getvalue().startswith("channel,")
        elif lines[:1] and lines[0].startswith("error: "):
            assert code in (1, 2) and len(lines) == 1
        else:                                  # argparse: its usage, then one error line
            assert code == 2 and lines[0].startswith("usage: ")
            assert len([line for line in lines if "error: " in line]) == 1
