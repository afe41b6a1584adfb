"""Deterministic CSV serialization of traces and sweep results.

Floats are written with repr, the shortest decimal form that round-trips,
so files are locale independent and byte identical across runs.
"""

from __future__ import annotations

import csv
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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_rows(path: str | Path, header: list[str], rows) -> None:
    """Write one CSV file (RFC 4180 style, header row first)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_design_trace(trace: Trace, path: str | Path) -> None:
    """Serialize a sizing-study trace, one row per integration step."""
    rows = zip(trace.times, trace.pos, trace.vel, trace.spring_pos,
               trace.spring_vel, trace.winch_angle, trace.winch_speed,
               trace.force, trace.length)
    write_rows(path, DESIGN_TRACE_HEADER, rows)


def write_takeoff_trace(trace: TakeoffTrace, path: str | Path) -> None:
    """Serialize a take-off trace, one row per controller step."""
    rows = zip(trace.t, trace.slide_angle, trace.slide_speed,
               trace.winch_angle, trace.winch_speed, trace.spring_pos,
               trace.distance, trace.speed, trace.tether_length,
               trace.tether_force, trace.slide_torque, trace.winch_torque,
               trace.slide_power, trace.winch_power,
               (str(z) for z in trace.zone), (str(p) for p in trace.phase))
    write_rows(path, TAKEOFF_TRACE_HEADER, rows)


def write_sweep_csv(points: list[SweepPoint], path: str | Path) -> None:
    """Serialize sweep results, one row per grid point."""
    def rows():
        for p in points:
            r = p.result
            if r is None:
                yield (p.travel, p.stiffness, None, None, None, None, None,
                       None, p.error)
            else:
                yield (p.travel, p.stiffness, r.feasible, r.min_speed,
                       r.t_at_min, r.t_star, r.timed_out,
                       r.compression_cycles, p.error)
    write_rows(path, SWEEP_HEADER, rows())
