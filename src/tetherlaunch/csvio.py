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

BLOCK = 1024  # rows written, and float text kept, per string


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


def _shared(old: bytes, new: bytes) -> int:
    """How many leading doubles of `new` equal those of `old` bit for bit."""
    lo, hi = 0, min(len(old), len(new)) // 8
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if old[:8 * mid] == new[:8 * mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _float_text(column: memoryview, old) -> tuple[bytes, list[str]]:
    """The bytes of a column of doubles and the repr of its values, one
    newline-joined string per BLOCK rows. The text of the leading values
    that equal those of `old`, the same pair for a previous column, is
    reused."""
    data = column.tobytes()
    blocks, start = [], 0
    if old is not None:
        shared = _shared(old[0], data)
        whole, part = divmod(shared, BLOCK)
        blocks, start = old[1][:whole], whole * BLOCK
        if part:
            head = old[1][whole].split("\n", part)[:part]
            blocks.append("\n".join(head + list(map(
                repr, column[start + part:start + BLOCK].tolist()))))
            start += BLOCK
    blocks += ["\n".join(map(repr, column[s:s + BLOCK].tolist()))
               for s in range(start, len(column), BLOCK)]
    return data, blocks


def write_rows(path: str | Path, header: list[str], columns,
               previous: list | None = None) -> list:
    """Write one CSV file from its columns, header row first, BLOCK rows at
    a time, and return the texts to pass as `previous` to the next call.

    A column that is a memoryview of doubles is written with repr, the
    text _cell gives a float, without a call per cell; its text is reused
    for the leading values that equal, bit for bit, those of the same
    column in the call that returned `previous`. The bytes written do not
    depend on `previous`.
    """
    rows = min(map(len, columns), default=0)
    previous = previous or []
    texts = [_float_text(c[:rows], previous[j] if j < len(previous) else None)
             if isinstance(c, memoryview) and c.format == "d" else None
             for j, c in enumerate(columns)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(map(_quote, header)) + "\r\n")
        for b, s in enumerate(range(0, rows, BLOCK)):
            cells = [list(map(_cell, c[s:s + BLOCK])) if text is None
                     else text[1][b].split("\n")
                     for c, text in zip(columns, texts)]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
    return texts


def write_design_trace(trace: Trace, path: str | Path,
                       previous: list | None = None) -> list:
    """Serialize a sizing-study trace, one row per integration step, and
    return write_rows' texts; pass the previous trace's texts as
    `previous` to reuse the text of the steps the two runs share."""
    return write_rows(path, DESIGN_TRACE_HEADER,
                      [trace.times, *map(trace.column, range(6)),
                       trace.force, trace.length], previous)


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
