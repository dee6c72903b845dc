"""Outside-in benchmark of the dynderiv command line.

    python3 bench/run.py --workload sweep-indicial --seed 1 --seconds 25 --trace 0

Builds nothing: it imports dynderiv from ``src/`` next to this directory and
calls ``dynderiv.cli.main`` in-process as a closed loop with one client
(the next command starts when the previous one returns), BLAS pinned to one
thread.  The inputs are generated from the seed (``inputs.py``); every
command's output is checked against independent truth outside the timed
region (``checks.py``) and every repeat must write the same bytes.

Times are reported at a fixed reference CPU speed.  A shared virtual
machine can alternate between a fast state and one about 1.6x slower, for
seconds to minutes at a time, with every kind of work slowing alike (on a
2-vCPU x86_64 VM, raw medians of whole 25 s runs spread by 25-50%).  So a
fixed calibration kernel (``calibration_kernel``) is timed after every
command, and each command's wall time is scaled by CAL_REF_S over the
mean kernel time just before and just after it (a wider window tracks the
host worse: its speed changes within a second).  A change to dynderiv cannot move the kernel; raw
wall times stay in the run record.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same commands and reports per-layer
numbers from spans at the layer boundaries (``tracing.py``).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Run artifacts go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep-indicial", "sweep-linear", "series-io")
# Tail percentile per workload: the highest one that keeps at least ten
# commands beyond it at the minimum command count every run reaches, so
# the metric means the same thing on every run and every commit.
TAIL = {"sweep-indicial": (90, 100), "sweep-linear": (90, 100), "series-io": (95, 200)}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# the measuring loop stops after this many times --seconds of wall time even
# if commands fail too fast to fill the run, so a run always ends in time
MAX_WALL_FACTOR = 6
CAL_REF_S = 2.0e-3      # calibration kernel time that defines the reference CPU speed

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dynderiv
t1 = time.perf_counter()
from dynderiv.config import parse_case_config
with open(sys.argv[2], encoding="utf-8") as fh:
    parse_case_config(fh.read())
print(t1 - t0)
"""


def calibration_kernel() -> float:
    """Fixed mix of interpreter, float-text and small-array work, like dynderiv's own."""
    x, parts = 0.1234567, []
    for _ in range(1500):
        x = (x * 1.0000001 + 0.5) % 7.0
        parts.append("%.17g" % x)
    a = np.asarray([float(v) for v in ",".join(parts).split(",")])
    for _ in range(30):
        a = np.sin(a) * 1.0001 + np.cos(a)
    return float(a.sum())


def speed_probe() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "dynderiv").rglob("*.py"))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        "src_lines": src_lines(),
        "machine": platform.machine(),
    }


def measure_setup(config: Path, repeats: int) -> tuple[list[float], list[float], list[float]]:
    """Fresh interpreters that import dynderiv and parse ``config``.

    Returns (whole-process wall seconds, the same at reference speed,
    in-child import seconds at reference speed).
    """
    walls, scaled, imports = [], [], []
    probe = speed_probe()
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        after = speed_probe()
        factor = CAL_REF_S / (0.5 * (probe + after))
        probe = after
        walls.append(wall)
        scaled.append(wall * factor)
        imports.append(float(proc.stdout) * factor)
    return walls, scaled, imports


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _clear(paths: list[Path]) -> None:
    for path in paths:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


class Runner:
    """Runs deck commands through dynderiv.cli.main and judges each one.

    The first run of a command is checked against truth; every later run
    must reproduce its output bytes.  A command fails when it exits
    non-zero or raises, misses its truth, or writes different bytes.
    A calibration probe follows every command; ``scale`` maps each
    command id to CAL_REF_S over the mean of the probes just before and
    just after it, which turns its wall time into time at the reference
    speed.
    """

    def __init__(self, deck, cli, checks, tracer=None):
        self.deck, self.cli, self.checks, self.tracer = deck, cli, checks, tracer
        self.tally = checks.Tally()
        self.reference: dict[int, tuple[str, str | None]] = {}
        self.timed: list[tuple[int, int, float]] = []   # (command id, pass, wall seconds)
        self.scale: dict[int, float] = {}
        self.rows = 0
        self.failures: list[str] = []
        self.commands_run = 0
        self.passes_run = 0
        self._probe = speed_probe()

    def execute(self, index: int, pass_no: int | None = None, traced: bool = False) -> None:
        """Run deck command ``index``; pass_no None means untimed (warm-up)."""
        command = self.deck.commands[index]
        command_id = self.commands_run
        self.commands_run += 1
        _clear(command.outputs)
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if traced:
                    rc = self.tracer.run_command(command_id, self.cli.main, command.argv)
                else:
                    rc = self.cli.main(command.argv)
            except Exception as exc:  # noqa: BLE001 - a traceback is a failed command
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        after = speed_probe()
        self.scale[command_id] = CAL_REF_S / (0.5 * (self._probe + after))
        self._probe = after
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[-300:]}"
        else:
            digest = _digest(command.outputs)
            if index not in self.reference:
                try:
                    self.checks.check_command(self.tally, command, out.getvalue())
                    verdict = None
                except self.checks.CheckFailed as exc:
                    verdict = str(exc)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    verdict = f"malformed output: {type(exc).__name__}: {exc}"
                self.reference[index] = (digest, verdict)
            ref_digest, verdict = self.reference[index]
            problem = verdict or (None if digest == ref_digest else "output bytes differ from the first run")
        if pass_no is not None:
            self.timed.append((command_id, pass_no, elapsed))
            self.rows += command.rows
            if problem:
                self.failures.append(f"{command.name}: {problem}")

    def run_pass(self, traced: bool = False) -> int:
        pass_no = self.passes_run
        self.passes_run += 1
        for i in range(len(self.deck.commands)):
            self.execute(i, pass_no, traced)
        return pass_no

    def warm_up(self) -> None:
        """Run the first command of each kind once, untimed: imports and lazy set-up finish here."""
        seen = set()
        for i, command in enumerate(self.deck.commands):
            if command.kind not in seen:
                seen.add(command.kind)
                self.execute(i)

    def wall_busy(self) -> float:
        return sum(elapsed for _, _, elapsed in self.timed)

    def pass_busy(self) -> dict[int, float]:
        """Command time of each pass at the reference speed."""
        busy: dict[int, float] = {}
        for command_id, pass_no, elapsed in self.timed:
            busy[pass_no] = busy.get(pass_no, 0.0) + elapsed * self.scale[command_id]
        return busy


def _nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Generate, warm up, measure and check one workload; return the result record."""
    import checks
    import inputs
    import tracing
    from dynderiv import cli

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        deck = inputs.generate(workload, seed, workdir / "inputs", tiny=tiny)
        tracer = tracing.Tracer() if trace else None
        runner = Runner(deck, cli, checks, tracer)
        runner.warm_up()
        # objects alive after warm-up live for the whole run; freezing them keeps the
        # collection before each command (outside the timed region) cheap
        gc.collect()
        gc.freeze()
        record: dict = {"workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
                        "deck_commands": len(deck.commands)}
        deadline = time.perf_counter() + MAX_WALL_FACTOR * seconds
        if not trace:
            pct, min_commands = TAIL[workload]
            if tiny:
                min_commands = 0
            walls, scaled, _ = measure_setup(deck.first_config, 1 if tiny else SETUP_REPEATS)
            passes = []
            while not passes or (runner.wall_busy() < seconds or len(runner.timed) < min_commands) \
                    and time.perf_counter() < deadline:
                passes.append(runner.run_pass())
            times = [elapsed * runner.scale[c] for c, _, elapsed in runner.timed]
            wall_times = [elapsed for _, _, elapsed in runner.timed]
            pass_busy = list(runner.pass_busy().values())
            rows_per_pass = runner.rows / len(passes)
            tail = _nearest_rank(times, pct)
            metrics = {
                "op_p50_ms": 1e3 * statistics.median(times),
                "op_tail_ms": 1e3 * tail,
                "samples_per_s": statistics.median([rows_per_pass / b for b in pass_busy]),
                "setup_s": statistics.median(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(passes=len(passes), pass_busy_s=pass_busy, tail={
                "percentile": pct, "commands": len(times), "beyond": sum(1 for t in times if t > tail)})
            record["wall"] = {
                "op_p50_ms": 1e3 * statistics.median(wall_times),
                "op_tail_ms": 1e3 * _nearest_rank(wall_times, pct),
                "samples_per_s": runner.rows / sum(wall_times),
                "setup_s": statistics.median(walls),
            }
        else:
            _, _, imports = measure_setup(deck.first_config, 1 if tiny else IMPORT_REPEATS)
            plain, traced = [], []
            while not plain or runner.wall_busy() < seconds and time.perf_counter() < deadline:
                # alternate which side goes first so drift over the run cancels
                for side in ((plain, traced) if len(plain) % 2 == 0 else (traced, plain)):
                    if side is plain:
                        plain.append(runner.run_pass())
                        continue
                    tracer.install()
                    try:
                        traced.append(runner.run_pass(traced=True))
                    finally:
                        tracer.uninstall()
            busy = runner.pass_busy()
            busy_plain, busy_traced = sum(busy[p] for p in plain), sum(busy[p] for p in traced)
            commands = len(traced) * len(deck.commands)
            metrics = tracing.per_layer_metrics(tracer.spans, len(traced), commands, runner.scale)
            metrics["identify.max_rel_err"] = runner.tally.max_exact_err
            metrics["setup.import_ms"] = 1e3 * statistics.median(imports)
            metrics["trace.overhead_ratio"] = busy_traced / busy_plain
            layer_ms = tracing.layer_self_ms_per_op(tracer.spans, commands, runner.scale)
            record.update(passes=len(plain) + len(traced), absent=sorted(set(tracer.absent)),
                          pass_busy_untraced_s=[busy[p] for p in plain],
                          pass_busy_traced_s=[busy[p] for p in traced],
                          layer_share={layer: ms * commands / (1e3 * busy_traced) for layer, ms in layer_ms.items()})
        attempted, failed = len(runner.timed), len(runner.failures)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        record.update(
            env=environment(),
            speed_factor_median=statistics.median(runner.scale.values()),
            rows=runner.rows,
            error_rate=failed / attempted,
            failures=runner.failures[:20],
            result={
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                            for m in spec["per_layer" if trace else "end_to_end"]},
            },
        )
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
        if trace:
            tracer.write(results / f"{stem}-spans.jsonl")
        (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        return record
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def summary_lines(record: dict) -> list[str]:
    res = record["result"]
    lines = [f"env {json.dumps(record['env'], sort_keys=True)}",
             f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{res['attempted']} commands in {record['passes']} passes of {record['deck_commands']}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    lines.append(f"  {'error_rate':<44} {record['error_rate']:>16.6g} ratio "
                 f"({res['failed']} of {res['attempted']} commands failed)")
    if "tail" in record:
        t = record["tail"]
        lines.append(f"  op_tail_ms is p{t['percentile']} of {t['commands']} commands "
                     f"({t['beyond']} beyond it)")
    if "layer_share" in record:
        shares = sorted(record["layer_share"].items(), key=lambda kv: -kv[1])
        lines.append("  self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
        lines.append(f"  absent wrapped names: {', '.join(record['absent']) or 'none'}")
    lines += [f"  FAILED {f}" for f in record["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of the dynderiv CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dynderiv" / "__init__.py").is_file():
        print(f"error: no dynderiv sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dynderiv
    if SRC not in Path(dynderiv.__file__).resolve().parents:
        print(f"error: imported dynderiv from {dynderiv.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
