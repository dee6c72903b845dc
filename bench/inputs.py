"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, directory)`` writes every case config and
monitor export the workload needs into ``directory`` and returns the deck:
the CLI commands of one pass, each with the truth its output is checked
against.  The program under test sees only these files and arguments.

Sizes follow a fixed ladder: a deck of D commands covers the workload's
size range in D steps, and each pass holds the same mix of file styles.
The seed draws everything else: plant parameters, reduced frequency,
pitch axis, speeds, scenario lists, headers, which input gets which size
and style, and the order.  So every seed runs different inputs while the
work of a pass, and with it the median command time, stays the same from
seed to seed.

Run ``python3 bench/inputs.py --workload sweep-indicial --seed 1 --out DIR``
to inspect the files of one seed.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-indicial", "sweep-linear", "series-io")

SOUND_SPEED = 340.0
_SCENARIO_WORDS = ("climb", "cruise", "transition", "approach", "dash", "loiter", "outbound")
# header spellings a flow solver might export; all are documented aliases
_TIME_HEADERS = ("t", "time", "flow-time", "Time")
_CHANNEL_HEADERS = {
    "CL": ("CL", "cl", "lift-coeff", "C_L"),
    "CD": ("CD", "cd", "drag-coeff", "Drag-Coeff"),
    "Cm": ("CM", "Cm", "pitch-mom-coeff", "c_m"),
}


# Export i of a pass is written in style i, so every pass parses the same mix.
_EXPORT_STYLES = (
    dict(comma=True, uniform=True, periods=True, noisy=False, drag=True, alias=False, format="%.17g"),
    dict(comma=False, uniform=False, periods=False, noisy=True, drag=True, alias=False, format="%.16e"),
    dict(comma=True, uniform=False, periods=False, noisy=False, drag=False, alias=True, format="%.15e"),
    dict(comma=False, uniform=True, periods=True, noisy=True, drag=True, alias=False, format="%.17g"),
    dict(comma=True, uniform=True, periods=False, noisy=True, drag=True, alias=False, format="%.16e"),
    dict(comma=False, uniform=False, periods=True, noisy=False, drag=False, alias=True, format="%.15e"),
)


@dataclass
class Command:
    """One CLI invocation of a deck, plus what its output is checked against."""

    name: str
    kind: str                       # "sweep" | "simulate" | "identify"
    argv: list[str]
    outputs: list[Path]             # files (or, for sweeps, the out dir) to check and hash
    rows: int                       # coefficient-history rows identified by this command
    truth: dict = field(default_factory=dict)


@dataclass
class Deck:
    commands: list[Command]
    first_config: Path              # the first case config, parsed when set-up is timed




def _condition(rng: np.random.Generator) -> dict:
    return {
        "speed_m_s": round(float(rng.uniform(30.0, 90.0)), 3),
        "sound_speed_m_s": SOUND_SPEED,
        "density_kg_m3": 1.225,
        "chord_m": round(float(rng.uniform(0.1, 1.0)), 4),
        "span_m": 1.5,
        "area_m2": 0.6,
    }


def _oscillation(rng: np.random.Generator, cycles: int, spc: int, k_range: tuple[float, float]) -> dict:
    return {
        "modes": ["alpha", "q"],
        "mean_incidence_deg": float(rng.uniform(0.0, 4.0)),
        "amplitude_deg": float(rng.uniform(1.0, 5.0)),
        "reduced_frequency": float(rng.uniform(*k_range)),
        "cycles": cycles,
        "samples_per_cycle": spc,
        "skip_cycles": None,
    }


def _scenarios(rng: np.random.Generator, n_dynamic: int) -> list[dict]:
    """Hover plus n_dynamic forward-flight snapshots, hover at a random place."""
    words = rng.permutation(len(_SCENARIO_WORDS))
    out = []
    for j in range(n_dynamic):
        out.append({
            "name": f"{_SCENARIO_WORDS[words[j % len(words)]]}-{j}",
            "altitude_m": round(float(rng.uniform(20.0, 600.0)), 1),
            "vertical_velocity_m_s": round(float(rng.uniform(-3.0, 3.0)), 2),
            "forward_velocity_m_s": round(float(rng.uniform(15.0, 95.0)), 3),
        })
    hover = {"name": "hover", "altitude_m": 15.0, "vertical_velocity_m_s": 0.0,
             "forward_velocity_m_s": 0.0}
    out.insert(int(rng.integers(0, n_dynamic + 1)), hover)
    return out


def _quasi_steady(rng: np.random.Generator) -> dict:
    u = rng.uniform
    return {
        "kind": "quasi-steady",
        "CL0": float(u(0.0, 0.3)), "CL_alpha": float(u(3.0, 6.5)),
        "CL_q": float(u(2.0, 8.0)), "CL_alphadot": float(u(0.0, 3.0)),
        "CD0": float(u(0.005, 0.03)), "CD_alpha": float(u(0.0, 0.5)), "CD_q": float(u(-0.5, 0.5)),
        "Cm0": float(u(-0.05, 0.05)), "Cm_alpha": float(u(-2.0, 0.0)),
        "Cm_q": float(u(-8.0, -1.0)), "Cm_alphadot": float(u(-3.0, 0.0)),
        "mach_scaling": bool(rng.integers(0, 2)),
    }


def _flat_plate(rng: np.random.Generator) -> dict:
    return {"kind": "flat-plate", "pitch_axis": float(rng.uniform(-0.6, 0.4)), "kernel": "theodorsen"}


def _indicial(rng: np.random.Generator) -> dict:
    return {
        "kind": "indicial",
        "pitch_axis": float(rng.choice([-0.5, 0.0, 0.25])),
        "CD0": float(rng.uniform(0.005, 0.03)),
        "CD_alpha": float(rng.uniform(0.0, 0.5)),
        "CD_q": float(rng.uniform(-0.5, 0.5)),
    }


def _write_config(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _sweep_command(directory: Path, name: str, doc: dict) -> Command:
    cfg = directory / f"{name}.json"
    _write_config(cfg, doc)
    out_dir = directory / f"{name}-out"
    osc = doc["oscillation"]
    n_dynamic = sum(1 for s in doc["scenarios"] if s["forward_velocity_m_s"] > 0.0)
    rows = n_dynamic * len(osc["modes"]) * osc["cycles"] * osc["samples_per_cycle"]
    return Command(name, "sweep", ["sweep", str(cfg), "--out-dir", str(out_dir)],
                   [out_dir], rows, {"config": doc})


def _sweep_indicial(rng: np.random.Generator, directory: Path, tiny: bool) -> list[list[Command]]:
    n = 2 if tiny else 17
    groups = []
    for i in range(n):
        cycles = 3 if tiny else 6 + i                 # 6..22 cycles
        doc = {
            "condition": _condition(rng),
            "oscillation": _oscillation(rng, cycles, 720, (0.05, 0.3)),
            "plant": _indicial(rng),
            "scenarios": _scenarios(rng, 1),
        }
        groups.append([_sweep_command(directory, f"indicial-{i}", doc)])
    return groups


def _sweep_linear(rng: np.random.Generator, directory: Path, tiny: bool) -> list[list[Command]]:
    n = 2 if tiny else 10
    kinds = rng.permutation(["quasi-steady", "flat-plate"] * (n // 2))
    groups = []
    for i in range(n):
        cycles = 1 if tiny else 2 + i // 2            # 2..6 cycles, two sweeps each
        plant = _quasi_steady(rng) if kinds[i] == "quasi-steady" else _flat_plate(rng)
        doc = {
            "condition": _condition(rng),
            "oscillation": _oscillation(rng, cycles, 720, (0.05, 0.5)),
            "plant": plant,
            "scenarios": _scenarios(rng, 2 if tiny else 5),
        }
        groups.append([_sweep_command(directory, f"linear-{i}", doc)])
    return groups


def _simulate_pair(rng: np.random.Generator, directory: Path, i: int, cycles: int, spc: int) -> list[Command]:
    """simulate --out on a cheap plant, then identify on the written file."""
    plant = _quasi_steady(rng) if i % 2 == 0 else _flat_plate(rng)
    doc = {
        "condition": _condition(rng),
        "oscillation": _oscillation(rng, cycles, spc, (0.05, 0.5)),
        "plant": plant,
        "scenarios": "builtin",
    }
    osc, cond = doc["oscillation"], doc["condition"]
    mode = str(rng.choice(["alpha", "q"]))
    cfg = directory / f"sim-{i}.json"
    _write_config(cfg, doc)
    series = directory / f"sim-{i}.csv"
    table = directory / f"sim-{i}-table.csv"
    rows = cycles * spc
    simulate = Command(f"sim-{i}", "simulate",
                       ["simulate", str(cfg), "--out", str(series), "--mode", mode],
                       [series], 0, {"config": doc, "mode": mode})
    identify = Command(
        f"sim-{i}-identify", "identify",
        ["identify", str(series), "--k", repr(osc["reduced_frequency"]), "--mode", mode,
         "--amplitude-deg", repr(osc["amplitude_deg"]), "--mean-deg", repr(osc["mean_incidence_deg"]),
         "--chord", repr(cond["chord_m"]), "--speed", repr(cond["speed_m_s"]), "--out", str(table)],
        [table], rows,
        {"source": "plant", "config": doc, "mode": mode},
    )
    return [simulate, identify]


def _external_export(rng: np.random.Generator, directory: Path, i: int, cycles: int, spc: int,
                     style: dict) -> Command:
    """A monitor export in the style of an external flow solver, from injected coefficients."""
    k = float(rng.uniform(0.05, 0.5))
    amp_deg = float(rng.uniform(1.0, 5.0))
    mean_deg = float(rng.uniform(-2.0, 4.0))
    mode = str(rng.choice(["alpha", "q"]))
    channels = ["CL", "CD", "Cm"] if style["drag"] else ["CL", "Cm"]
    coeffs = {
        ch: {
            "X0": float(rng.uniform(-0.1, 0.3)),
            "X_alpha": float(rng.uniform(-2.0, 6.0)),
            "X_q": float(rng.uniform(-8.0, 8.0)),
            "X_alphadot": float(rng.uniform(-3.0, 3.0)),
        }
        for ch in channels
    }
    noise = 2e-4 if style["noisy"] else 0.0
    skip = int(rng.integers(0, 2)) if cycles >= 3 else 0
    # time column: oscillation periods (default omega) or seconds with --omega
    periods = style["periods"]
    omega = 2.0 * math.pi if periods else float(rng.uniform(5.0, 60.0))

    n = cycles * spc
    dt = (2.0 * math.pi / omega) / spc
    jitter = np.zeros(n) if style["uniform"] else np.concatenate([[0.0], rng.uniform(-0.3, 0.3, n - 1)])
    t = (np.arange(n) + jitter) * dt
    amp = math.radians(amp_deg)
    alpha0 = math.radians(mean_deg)
    s, c = np.sin(omega * t), np.cos(omega * t)
    alpha = alpha0 + amp * s if mode == "alpha" else np.full(n, alpha0)
    qhat = k * amp * c
    adot = qhat if mode == "alpha" else np.zeros(n)
    columns = {"time": t}
    for ch in channels:
        p = coeffs[ch]
        y = p["X0"] + p["X_alpha"] * alpha + p["X_q"] * qhat + p["X_alphadot"] * adot
        if noise:
            y = y + rng.normal(0.0, noise, n)
        columns[ch] = y

    headers = {"time": str(rng.choice(_TIME_HEADERS))}
    for ch in channels:
        headers[ch] = str(rng.choice(_CHANNEL_HEADERS[ch]))
    alias_args: list[str] = []
    if style["alias"]:
        headers["CL"] = "lift_total"
        alias_args = ["--alias", "lift_total=CL"]
    order = ["time"] + channels + ["iter"]
    columns["iter"] = np.arange(1, n + 1)
    fmt = style["format"]
    sep = ", " if style["comma"] else "  "

    lines = [f"# monitor export {i}: forced pitch oscillation, {mode} mode",
             "# columns: " + " ".join(headers.get(key, key) for key in order),
             sep.join(headers.get(key, key) for key in order)]
    comment_every = int(rng.integers(200, 2000))
    for r in range(n):
        cells = [str(int(columns["iter"][r])) if key == "iter" else fmt % columns[key][r] for key in order]
        lines.append(sep.join(cells))
        if r % comment_every == comment_every - 1:
            lines.append(f"# checkpoint at row {r + 1}")
    path = directory / f"export-{i}.dat"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    table = directory / f"export-{i}-table.csv"
    argv = ["identify", str(path), "--k", repr(k), "--mode", mode,
            "--amplitude-deg", repr(amp_deg), "--mean-deg", repr(mean_deg),
            "--skip", str(skip), "--out", str(table)] + alias_args
    if not periods:
        argv += ["--omega", repr(omega)]
    truth = {
        "source": "export", "mode": mode, "k": k, "amplitude": amp, "mean": alpha0,
        "coefficients": coeffs, "noise": noise, "window_rows": (cycles - skip) * spc,
    }
    return Command(f"export-{i}", "identify", argv, [table], n, truth)


def _series_io(rng: np.random.Generator, directory: Path, tiny: bool) -> list[list[Command]]:
    n = 1 if tiny else 6
    groups = []
    for i in range(n):
        cycles = 2 if tiny else 2 + i                 # 2..7 cycles of 600 samples
        groups.append(_simulate_pair(rng, directory, i, cycles, 600))
    for i in range(n):
        cycles = 3 if tiny else 3 + i                 # 3..8 cycles of 500 samples
        groups.append([_external_export(rng, directory, i, cycles, 500, _EXPORT_STYLES[i])])
    return groups


_GENERATORS = {
    "sweep-indicial": _sweep_indicial,
    "sweep-linear": _sweep_linear,
    "series-io": _series_io,
}


def generate(workload: str, seed: int, directory: Path, tiny: bool = False) -> Deck:
    """Write the inputs of one pass of ``workload`` for ``seed`` into ``directory``.

    ``tiny`` shrinks the deck to a few minimum-size commands for self-tests.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    groups = _GENERATORS[workload](rng, directory, tiny)
    first_config = Path(groups[0][0].argv[1])
    # groups are shuffled whole: an identify follows the simulate that writes its file
    commands = [c for j in rng.permutation(len(groups)) for c in groups[j]]
    return Deck(commands, first_config)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    deck = generate(args.workload, args.seed, Path(args.out))
    for command in deck.commands:
        print(" ".join(["dynderiv"] + command.argv))


if __name__ == "__main__":
    main()
