"""Deterministic CSV serialization of traces and sweep results.

Floats are written with repr, the shortest decimal form that round-trips,
so files are locale independent and byte identical across runs.
"""

from __future__ import annotations

from pathlib import Path

from .spring_design import SweepPoint, Trace
from .takeoff import TakeoffTrace

DESIGN_TRACE_HEADER = [
    "t", "aircraft_position", "aircraft_speed", "spring_compression",
    "spring_speed", "winch_angle", "winch_speed", "tether_force",
    "tether_length",
]

TAKEOFF_TRACE_HEADER = [
    "t", "slide_angle", "slide_speed", "winch_angle", "winch_speed",
    "spring_compression", "aircraft_distance", "aircraft_speed",
    "tether_length", "tether_force", "slide_torque", "winch_torque",
    "slide_power", "winch_power", "zone", "phase",
]

SWEEP_HEADER = [
    "travel", "stiffness", "feasible", "min_speed", "t_at_min", "t_star",
    "timed_out", "compression_cycles", "error",
]


def _quote(text: str) -> str:
    """`text` as csv.writer's minimal quoting writes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_rows(path: str | Path, header: list[str], columns) -> None:
    """Write one CSV file from its columns, header row first. A column
    that is a memoryview of doubles is written with repr, the text _cell
    gives a float, without a call per cell."""
    cells = [map(repr, c.tolist())
             if isinstance(c, memoryview) and c.format == "d"
             else map(_cell, c) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(map(_quote, header)) + "\r\n")
        for row in zip(*cells):
            handle.write(",".join(row) + "\r\n")


def write_design_trace(trace: Trace, path: str | Path) -> None:
    """Serialize a sizing-study trace, one row per integration step."""
    write_rows(path, DESIGN_TRACE_HEADER,
               [trace.times, *map(trace.column, range(6)), trace.force,
                trace.length])


def write_takeoff_trace(trace: TakeoffTrace, path: str | Path) -> None:
    """Serialize a take-off trace, one row per controller step."""
    write_rows(path, TAKEOFF_TRACE_HEADER, [
        trace.t, trace.slide_angle, trace.slide_speed, trace.winch_angle,
        trace.winch_speed, trace.spring_pos, trace.distance, trace.speed,
        trace.tether_length, trace.tether_force, trace.slide_torque,
        trace.winch_torque, trace.slide_power, trace.winch_power,
        trace.zone, trace.phase])


def write_sweep_csv(points: list[SweepPoint], path: str | Path) -> None:
    """Serialize sweep results, one row per grid point."""
    outcome = ("feasible", "min_speed", "t_at_min", "t_star", "timed_out",
               "compression_cycles")
    write_rows(path, SWEEP_HEADER, [
        [p.travel for p in points], [p.stiffness for p in points],
        *([None if p.result is None else getattr(p.result, name)
           for p in points] for name in outcome),
        [p.error for p in points]])
