"""Spans around the public functions at each layer boundary of dynderiv.

Each function is wrapped where it is looked up: in the module that calls
it (``dynderiv.cli.run_sweep``, ``dynderiv.scenarios.simulate``, ...), so
calls made inside the package are seen.  A span records name, start, end,
parent span and command id, plus the work it did (samples, rows, bytes) so
rates are computed where the work happens.  Spans stay in memory until the
run ends.  A wrapped name the package no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Boundary:
    span: str                          # span name, "<layer>.<function>"
    layer: str
    sites: tuple[tuple[str, str], ...]  # (module, attribute) where callers look the function up


BOUNDARIES = (
    Boundary("config.parse_case_config", "config", (("cli", "parse_case_config"),)),
    Boundary("kinematics.make_schedule", "kinematics",
             (("cli", "make_schedule"), ("scenarios", "make_schedule"))),
    Boundary("plants.simulate", "plants", (("cli", "run_plant"), ("scenarios", "simulate"))),
    Boundary("identify.fit_series", "identify", (("cli", "fit_series"), ("scenarios", "fit_series"))),
    Boundary("identify.fit_harmonic", "identify", (("identify", "fit_harmonic"),)),
    Boundary("identify.loop_metrics", "identify", (("scenarios", "loop_metrics"),)),
    Boundary("identify.extract", "identify",
             (("cli", "extract_alpha_mode"), ("cli", "extract_q_mode"),
              ("scenarios", "extract_alpha_mode"), ("scenarios", "extract_q_mode"))),
    Boundary("identify.separate_rates", "identify", (("scenarios", "separate_rates"),)),
    Boundary("scenarios.run_sweep", "scenarios", (("cli", "run_sweep"),)),
    Boundary("io.write_series", "io-write", (("cli", "write_series"),)),
    Boundary("io.write_loop_table", "io-write", (("cli", "write_loop_table"),)),
    Boundary("io.write_report", "io-write", (("cli", "write_report"),)),
    Boundary("io.write_derivative_table", "io-write", (("cli", "write_derivative_table"),)),
    Boundary("io.atomic_write", "io-write", (("cli", "atomic_write"),)),
    Boundary("io.parse_monitor_table", "io-read", (("cli", "parse_monitor_table"),)),
)
ROOT_SPAN = "cli.main"
LAYERS = ("cli", "config", "kinematics", "plants", "identify", "scenarios", "io-write", "io-read")


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "n", "tag", "bytes")

    def __init__(self, name: str, start: float, parent: int, command: int):
        self.name, self.start, self.end = name, start, start
        self.parent, self.command = parent, command
        self.n, self.tag, self.bytes = 0, "", 0


def _record_work(name: str, span: Span, args: tuple, result) -> None:
    """Work counts for the spans whose rate or volume is reported."""
    if name == "plants.simulate":
        span.n, span.tag = len(args[1]), args[0].name
    elif name in ("io.write_series", "io.write_loop_table"):
        span.n = len(args[-1])
    elif name == "io.parse_monitor_table":
        span.n, span.bytes = len(result), len(args[0])
    elif name == "config.parse_case_config":
        span.bytes = len(args[0])
    elif name == "io.atomic_write":
        span.bytes = len(args[1])
    elif name == "scenarios.run_sweep":
        span.tag = ",".join(r.status.value for r in result.results)


class Tracer:
    """Collects spans while a command is active; patches and restores the wrapped names."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.command < 0:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            try:
                _record_work(name, tracer.spans[index], args, result)
            except (AttributeError, IndexError, TypeError):
                pass                    # a changed signature loses the work count, not the span
            return result

        return traced

    def install(self) -> None:
        for boundary in BOUNDARIES:
            for module_name, attr in boundary.sites:
                module = importlib.import_module(f"dynderiv.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(boundary.span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def run_command(self, command_id: int, fn, *args):
        """Run fn(*args) as the root span of one command."""
        self.command = command_id
        index = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.command = -1

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "command": s.command, "n": s.n,
                                     "tag": s.tag, "bytes": s.bytes}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_of(name: str) -> str:
    if name == ROOT_SPAN:
        return "cli"
    return next(b.layer for b in BOUNDARIES if b.span == name)


def per_layer_metrics(spans: list[Span], passes: int, commands: int,
                      scale: dict[int, float]) -> dict[str, float]:
    """Per-layer numbers of the traced passes; absent spans give 0.

    ``.ms`` is mean inclusive time per call, ``self_ms`` mean self time per
    call, counts and bytes are per deck pass, and ``<layer>.self_ms_per_op``
    is the layer's self time per command.  Times are multiplied by their
    command's factor in ``scale`` (command id -> reference-speed factor).
    """
    selfs = [t * scale[s.command] for t, s in zip(self_times(spans), spans)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(i: int) -> float:
        return (spans[i].end - spans[i].start) * scale[spans[i].command]

    def mean_ms(name: str) -> float:
        ids = by_name.get(name, [])
        return 1e3 * sum(dur(i) for i in ids) / len(ids) if ids else 0.0

    def ns_per(name: str, tag: str | None = None) -> float:
        ids = [i for i in by_name.get(name, []) if tag is None or spans[i].tag == tag]
        work = sum(spans[i].n for i in ids)
        return 1e9 * sum(dur(i) for i in ids) / work if work else 0.0

    def per_pass(name: str) -> float:
        return len(by_name.get(name, [])) / passes

    def self_ms(name: str) -> float:
        ids = by_name.get(name, [])
        return 1e3 * sum(selfs[i] for i in ids) / len(ids) if ids else 0.0

    statuses = [tag for i in by_name.get("scenarios.run_sweep", []) for tag in spans[i].tag.split(",") if tag]
    m = {
        "plants.simulate.indicial.ns_per_sample": ns_per("plants.simulate", "indicial"),
        "plants.simulate.flat-plate.ns_per_sample": ns_per("plants.simulate", "flat-plate"),
        "plants.simulate.quasi-steady.ns_per_sample": ns_per("plants.simulate", "quasi-steady"),
        "plants.simulate.calls": per_pass("plants.simulate"),
        "identify.fit_series.ms": mean_ms("identify.fit_series"),
        "identify.fit_harmonic.calls": per_pass("identify.fit_harmonic"),
        "identify.loop_metrics.ms": mean_ms("identify.loop_metrics"),
        "identify.extract.ms": mean_ms("identify.extract"),
        "identify.separate_rates.ms": mean_ms("identify.separate_rates"),
        "io.write_loop_table.ns_per_row": ns_per("io.write_loop_table"),
        "io.write_series.ns_per_row": ns_per("io.write_series"),
        "io.parse_monitor_table.ns_per_row": ns_per("io.parse_monitor_table"),
        "io.write_report.ms": mean_ms("io.write_report"),
        "io.atomic_write.ms": mean_ms("io.atomic_write"),
        "io.bytes_written": sum(spans[i].bytes for i in by_name.get("io.atomic_write", [])) / passes,
        "io.bytes_read": sum(spans[i].bytes for i in by_name.get("io.parse_monitor_table", [])
                             + by_name.get("config.parse_case_config", [])) / passes,
        "kinematics.make_schedule.ms": mean_ms("kinematics.make_schedule"),
        "kinematics.make_schedule.calls": per_pass("kinematics.make_schedule"),
        "scenarios.run_sweep.self_ms": self_ms("scenarios.run_sweep"),
        "scenarios.ok": statuses.count("OK") / passes,
        "scenarios.static_only": statuses.count("STATIC_ONLY") / passes,
        "scenarios.failed": statuses.count("FAILED") / passes,
        "config.parse_case_config.ms": mean_ms("config.parse_case_config"),
        "cli.main.self_ms": self_ms(ROOT_SPAN),
    }
    for layer, ms in layer_self_ms_per_op(spans, commands, scale).items():
        if layer != "cli":                  # the same number as cli.main.self_ms
            m[f"{layer}.self_ms_per_op"] = ms
    return m


def layer_self_ms_per_op(spans: list[Span], commands: int, scale: dict[int, float]) -> dict[str, float]:
    """Each layer's self time per command."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, self_times(spans)):
        out[layer_of(span.name)] += 1e3 * t * scale[span.command] / commands
    return out
