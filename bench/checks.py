"""Checks of every command's output against independent truth.

Run outside the timed region, once per deck command; later runs of the same
command must reproduce the checked bytes exactly.

Truth sources and tolerances:

* quasi-steady plants and noise-free exports: the injected coefficients,
  1e-9 relative (floor 1 per rad);
* flat-plate plants: the Theodorsen frequency-domain loads, 1e-9;
* indicial plants: the flat-plate loads with the Jones deficiency function
  built here from the R. T. Jones constants (the exact transform pair of
  the two-pole Wagner kernel).  The tolerance is 2e-4 of |H| for the time
  stepping (at most 4.1e-5 measured over the workload's parameter range)
  plus a bound on what the start-up transient can still leave in
  the fit window after the skipped cycles: each lag state starts at most
  |alpha_e(0)| + (alpha_e amplitude) from its periodic state and decays as
  exp(-b_j s), and its projection on the harmonic basis is bounded by the
  integral of that envelope over the window;
* noisy exports: the injected coefficients, within six standard errors of
  a least-squares fit with the injected noise level.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynderiv.config import parse_case_config
from dynderiv.kinematics import make_schedule
from dynderiv.plants import (
    pitch_oscillation_loads,
    q_mode_oscillation_loads,
    simulate,
    theodorsen_function,
)

EXACT_TOL = 1e-9
INDICIAL_STEP_TOL = 2e-4
NOISE_SIGMAS = 6.0
DEFAULT_INDICIAL_SKIP = 2
# two-pole Wagner kernel, R. T. Jones constants (A1, b1), (A2, b2)
WAGNER_POLES = ((0.165, 0.0455), (0.335, 0.3))
CHANNELS = ("CL", "CD", "Cm")
SERIES_HEADER = "t,CL,CD,CM"
LOOP_HEADER = "alpha_deg,CL,CD,CM"


def jones_deficiency(k: float) -> complex:
    """C_J(k) = 1 - sum A_j ik / (ik + b_j): the transform of the two-pole Wagner kernel."""
    ik = 1j * k
    return 1.0 - sum(a_j * ik / (ik + b_j) for a_j, b_j in WAGNER_POLES)


class CheckFailed(Exception):
    pass


class Tally:
    """Largest relative error seen where the truth is exact."""

    def __init__(self) -> None:
        self.max_exact_err = 0.0

    def exact(self, what: str, value: float, truth: float, scale: float = 1.0) -> None:
        err = abs(value - truth) / max(abs(truth), scale)
        self.max_exact_err = max(self.max_exact_err, err)
        if not err <= EXACT_TOL:
            raise CheckFailed(f"{what}: {value!r} vs truth {truth!r} (rel err {err:.3g})")

    @staticmethod
    def within(what: str, error: float, tol: float) -> None:
        if not error <= tol:
            raise CheckFailed(f"{what}: error {error:.3g} exceeds tolerance {tol:.3g}")


def _cell(row: dict, key: str) -> float | None:
    text = row[key]
    return None if text == "" else float(text)


def _prandtl_glauert(speed: float, sound: float) -> float:
    mach = speed / sound
    return 1.0 / math.sqrt(1.0 - mach * mach)


@dataclass(frozen=True)
class ChannelTruth:
    """First-harmonic truth for one channel: H per radian of body pitch in each mode.

    ``exact`` truths are compared at EXACT_TOL; the others within the
    absolute tolerances on |dH| and on the trim value.
    """

    h_alpha: complex
    h_q: complex
    trim: float
    exact: bool
    tol_alpha: float = 0.0
    tol_q: float = 0.0
    tol_trim: float = 0.0


def _transient_bounds(mode: str, a: float, k: float, amp: float, alpha0: float,
                      cycles: int, skip: int) -> tuple[float, float]:
    """Bounds on the start-up residue in (|dH| of CL, mean of CL) after ``skip`` cycles."""
    rate = (0.5 - a) * k * amp                  # rate part of the 3/4-chord incidence
    excursion = amp * math.hypot(1.0, (0.5 - a) * k) if mode == "alpha" else abs(rate)
    offset = abs(alpha0 + rate) + excursion    # lag state start vs its periodic state
    window = cycles - skip
    envelope = 0.0                              # (1/(window T)) * integral of |residue|
    for a_j, b_j in WAGNER_POLES:
        mu = 2.0 * math.pi * b_j / k            # decay exponent per period
        envelope += 2.0 * math.pi * a_j * offset * math.exp(-mu * skip) / (window * mu)
    return math.sqrt(2.0) * 2.0 * envelope / amp, envelope


def plant_truth(plant: dict, k: float, amp: float, alpha0: float, speed: float,
                cycles: int, skip: int) -> dict[str, ChannelTruth]:
    kind = plant["kind"]
    if kind == "quasi-steady":
        f = _prandtl_glauert(speed, plant["_sound"]) if plant.get("mach_scaling") and speed > 0 else 1.0
        out = {}
        for ch in CHANNELS:
            p = lambda name: plant.get(f"{ch}_{name}", 0.0) * f  # noqa: E731
            slope, q, adot = p("alpha"), p("q"), p("alphadot")
            out[ch] = ChannelTruth(complex(slope, k * (q + adot)), complex(0.0, k * q),
                                   plant.get(f"{ch}0", 0.0) + slope * alpha0, exact=True)
        return out
    a = plant.get("pitch_axis", -0.5)
    if kind == "flat-plate":
        la = pitch_oscillation_loads(k, a, deficiency=theodorsen_function)
        lq = q_mode_oscillation_loads(k, a, deficiency=theodorsen_function)
        return {
            "CL": ChannelTruth(la.lift, lq.lift, 2.0 * math.pi * alpha0, exact=True),
            "CD": ChannelTruth(0j, 0j, 0.0, exact=True),
            "Cm": ChannelTruth(la.moment, lq.moment, math.pi * (a + 0.5) * alpha0, exact=True),
        }
    la = pitch_oscillation_loads(k, a, deficiency=jones_deficiency)
    lq = q_mode_oscillation_loads(k, a, deficiency=jones_deficiency)
    dh_a, mean_a = _transient_bounds("alpha", a, k, amp, alpha0, cycles, skip)
    dh_q, _ = _transient_bounds("q", a, k, amp, alpha0, cycles, skip)
    moment_share = abs(a + 0.5) / 2.0           # circulatory lift share in the moment
    cd_slope, cd_q = plant.get("CD_alpha", 0.0), plant.get("CD_q", 0.0)
    return {
        "CL": ChannelTruth(la.lift, lq.lift, 2.0 * math.pi * alpha0, exact=False,
                           tol_alpha=INDICIAL_STEP_TOL * abs(la.lift) + dh_a,
                           tol_q=INDICIAL_STEP_TOL * abs(lq.lift) + dh_q,
                           tol_trim=INDICIAL_STEP_TOL * amp * abs(la.lift) + mean_a),
        "CD": ChannelTruth(complex(cd_slope, k * cd_q), complex(0.0, k * cd_q),
                           plant.get("CD0", 0.0) + cd_slope * alpha0, exact=True),
        "Cm": ChannelTruth(la.moment, lq.moment, math.pi * (a + 0.5) * alpha0, exact=False,
                           tol_alpha=INDICIAL_STEP_TOL * abs(la.moment) + moment_share * dh_a,
                           tol_q=INDICIAL_STEP_TOL * abs(lq.moment) + moment_share * dh_q,
                           tol_trim=INDICIAL_STEP_TOL * amp * abs(la.moment) + moment_share * mean_a),
    }


def _static_truth(plant: dict, alpha0: float) -> dict[str, float]:
    kind = plant["kind"]
    if kind == "quasi-steady":
        return {ch: plant.get(f"{ch}0", 0.0) + plant.get(f"{ch}_alpha", 0.0) * alpha0 for ch in CHANNELS}
    a = plant.get("pitch_axis", -0.5)
    cd = plant.get("CD0", 0.0) + plant.get("CD_alpha", 0.0) * alpha0 if kind == "indicial" else 0.0
    return {"CL": 2.0 * math.pi * alpha0, "CD": cd, "Cm": math.pi * (a + 0.5) * alpha0}


def _check_sweep_row(tally: Tally, where: str, row: dict, truth: ChannelTruth,
                     k: float, amp: float, spc: int) -> None:
    c_alpha, c_q = _cell(row, "C_alpha"), _cell(row, "C_q")
    damping, c_adot = _cell(row, "damping_sum"), _cell(row, "C_alphadot")
    trim, area = _cell(row, "trim"), _cell(row, "loop_area")
    if None in (c_alpha, c_q, damping, c_adot, trim, area):
        raise CheckFailed(f"{where}: empty derivative cell in an OK row")
    if c_adot != damping - c_q:
        raise CheckFailed(f"{where}: C_alphadot != damping_sum - C_q")
    # trapezoidal loop integral of a first harmonic over one sampled cycle
    area_factor = amp * amp * (spc / 2.0) * math.sin(2.0 * math.pi / spc)
    area_truth = area_factor * truth.h_alpha.imag
    if truth.exact:
        tally.exact(f"{where} C_alpha", c_alpha, truth.h_alpha.real)
        tally.exact(f"{where} damping_sum", damping, truth.h_alpha.imag / k)
        tally.exact(f"{where} C_q", c_q, truth.h_q.imag / k)
        tally.exact(f"{where} trim", trim, truth.trim)
        tally.exact(f"{where} loop_area", area, area_truth, scale=area_factor * k)
    else:
        tally.within(f"{where} H(alpha mode)", abs(complex(c_alpha, k * damping) - truth.h_alpha),
                     truth.tol_alpha)
        tally.within(f"{where} Im H(q mode)", abs(k * c_q - truth.h_q.imag), truth.tol_q)
        tally.within(f"{where} trim", abs(trim - truth.trim), truth.tol_trim)
        tally.within(f"{where} loop_area", abs(area - area_truth), math.pi * amp * amp * truth.tol_alpha)


def check_sweep(tally: Tally, doc: dict, out_dir: Path, stdout: str) -> None:
    osc, plant = doc["oscillation"], dict(doc["plant"], _sound=doc["condition"]["sound_speed_m_s"])
    k, cycles, spc = osc["reduced_frequency"], osc["cycles"], osc["samples_per_cycle"]
    amp, alpha0 = math.radians(osc["amplitude_deg"]), math.radians(osc["mean_incidence_deg"])
    skip = osc["skip_cycles"]
    if skip is None:
        skip = DEFAULT_INDICIAL_SKIP if plant["kind"] == "indicial" else 0
    scenarios = doc["scenarios"]
    dynamic = [s for s in scenarios if s["forward_velocity_m_s"] > 0.0]

    expected_files = {"report.csv", "report.txt", "run_meta.json"}
    expected_files |= {f"loops_{s['name']}.csv" for s in dynamic}
    present = {p.name for p in out_dir.iterdir()}
    if present != expected_files:
        raise CheckFailed(f"output files {sorted(present)} != expected {sorted(expected_files)}")
    if stdout != (out_dir / "report.txt").read_text(encoding="utf-8"):
        raise CheckFailed("stdout differs from report.txt")

    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 3 * len(scenarios):
        raise CheckFailed(f"report.csv has {len(rows)} rows, expected {3 * len(scenarios)}")
    static = _static_truth(plant, alpha0)
    for i, scenario in enumerate(scenarios):
        speed = scenario["forward_velocity_m_s"]
        truth = plant_truth(plant, k, amp, alpha0, speed, cycles, skip) if speed > 0 else None
        for j, ch in enumerate(CHANNELS):
            row = rows[3 * i + j]
            where = f"{scenario['name']}/{ch}"
            if row["scenario"] != scenario["name"] or row["channel"] != ch:
                raise CheckFailed(f"{where}: row order differs ({row['scenario']}/{row['channel']})")
            if float(row["V"]) != speed:
                raise CheckFailed(f"{where}: V {row['V']} != {speed}")
            if truth is None:
                if row["status"] != "STATIC_ONLY" or any(
                        row[c] for c in ("k", "C_alpha", "C_q", "C_alphadot", "damping_sum", "loop_area")):
                    raise CheckFailed(f"{where}: hover row must be STATIC_ONLY with trim only")
                tally.exact(f"{where} trim", _cell(row, "trim"), static[ch])
                continue
            if row["status"] != "OK" or float(row["k"]) != k:
                raise CheckFailed(f"{where}: status {row['status']!r}, k {row['k']!r}")
            _check_sweep_row(tally, where, row, truth[ch], k, amp, spc)

    meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
    statuses = [(s["name"], s["status"]) for s in meta["scenarios"]]
    want = [(s["name"], "OK" if s["forward_velocity_m_s"] > 0 else "STATIC_ONLY") for s in scenarios]
    if statuses != want:
        raise CheckFailed(f"run_meta.json statuses {statuses} != {want}")
    for s in dynamic:
        data = (out_dir / f"loops_{s['name']}.csv").read_bytes()
        if not data.startswith(LOOP_HEADER.encode() + b"\n") or data.count(b"\n") != cycles * spc + 1:
            raise CheckFailed(f"loops_{s['name']}.csv: wrong header or row count")


def check_simulate(config: Path, mode: str, series_file: Path) -> None:
    """The written series must parse back bit-exactly to what the plant produced."""
    plan = parse_case_config(config.read_text(encoding="utf-8"))
    spec = next(s for s in (plan.oscillation.with_mode(m) for m in plan.modes) if s.mode.value == mode)
    series = simulate(plan.plant, make_schedule(spec, plan.condition), plan.condition)
    lines = series_file.read_text(encoding="utf-8").splitlines()
    if lines[0] != SERIES_HEADER:
        raise CheckFailed(f"series header {lines[0]!r} != {SERIES_HEADER!r}")
    parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    want = np.column_stack([series.times, series.CL, series.CD, series.Cm])
    if parsed.shape != want.shape or not np.array_equal(parsed, want):
        raise CheckFailed("series file does not parse back bit-exactly")


def _read_table(path: Path) -> dict[str, dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["channel"]: row for row in csv.DictReader(fh)}


def check_identify(tally: Tally, truth: dict, table: Path) -> None:
    rows = _read_table(table)
    mode = truth["mode"]
    if truth["source"] == "plant":
        doc = truth["config"]
        osc, cond = doc["oscillation"], doc["condition"]
        k, amp = osc["reduced_frequency"], math.radians(osc["amplitude_deg"])
        alpha0 = math.radians(osc["mean_incidence_deg"])
        plant = dict(doc["plant"], _sound=cond["sound_speed_m_s"])
        channels = plant_truth(plant, k, amp, alpha0, cond["speed_m_s"], osc["cycles"], 0)
        noise = 0.0
    else:
        k, amp, alpha0, noise = truth["k"], truth["amplitude"], truth["mean"], truth["noise"]
        channels = {}
        for ch, p in truth["coefficients"].items():
            channels[ch] = ChannelTruth(
                complex(p["X_alpha"], k * (p["X_q"] + p["X_alphadot"])),
                complex(0.0, k * p["X_q"]),
                p["X0"] + p["X_alpha"] * alpha0, exact=True)
    if set(rows) != set(channels):
        raise CheckFailed(f"table channels {sorted(rows)} != {sorted(channels)}")

    se = noise * math.sqrt(2.0 / truth["window_rows"]) if noise else 0.0
    for ch, t in channels.items():
        row = rows[ch]
        h = t.h_alpha if mode == "alpha" else t.h_q
        present = ("trim", "C_alpha", "damping_sum") if mode == "alpha" else ("trim", "C_q", "contamination")
        for col in ("trim", "C_alpha", "C_q", "C_alphadot", "damping_sum", "contamination"):
            if (row[col] != "") != (col in present):
                raise CheckFailed(f"{ch}: column {col} presence is wrong for {mode} mode")
        rate_col = "damping_sum" if mode == "alpha" else "C_q"
        static_col = "C_alpha" if mode == "alpha" else "contamination"
        values = {
            "trim": (_cell(row, "trim"), t.trim, se / math.sqrt(2.0)),
            static_col: (_cell(row, static_col), h.real, se / amp),
            rate_col: (_cell(row, rate_col), h.imag / k, se / (k * amp)),
        }
        for col, (value, want, std) in values.items():
            if noise:
                tally.within(f"{ch} {col}", abs(value - want), NOISE_SIGMAS * std + EXACT_TOL)
            else:
                tally.exact(f"{ch} {col}", value, want)


def check_command(tally: Tally, command, stdout: str) -> None:
    """Raise CheckFailed when the command's output misses its truth."""
    if command.kind == "sweep":
        check_sweep(tally, command.truth["config"], command.outputs[0], stdout)
    elif command.kind == "simulate":
        check_simulate(Path(command.argv[1]), command.truth["mode"], command.outputs[0])
    else:
        check_identify(tally, command.truth, command.outputs[0])
