"""Deterministic CSV serialization of traces and sweep results.

Floats are written with repr, the shortest decimal form that round-trips,
so files are locale independent and byte identical across runs. Each
float is formatted at most once per file, and one block of cells is held
at a time.
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

# Rows per block: the cells held and written at a time, and per string of
# a float column's returned text.
BLOCK = 1024


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


def write_rows(path: str | Path, header: list[str], columns,
               previous: list | None = None) -> list:
    """Write one CSV file from its columns, header row first, BLOCK rows at
    a time, and return the texts to pass as `previous` to the next call.

    A column that is a memoryview of doubles is written with repr, the
    text _cell gives a float, without a call per cell; its text is reused
    for the leading values that equal, bit for bit, those of the same
    column in the call that returned `previous`, and is returned as the
    column's bytes and one newline-joined string per block. Each value is
    formatted at most once per file, and one block of cells is held at a
    time. A column whose values are all str is quoted once per distinct
    value; any other column goes through _cell. The bytes written do not
    depend on `previous`.
    """
    rows = min(map(len, columns), default=0)
    previous = previous or []
    texts, reuse = [], []  # reuse: (values shared, the previous blocks)
    cells_of = []  # per column not of doubles: value -> cell text
    for j, c in enumerate(columns):
        text = old = None
        cell = _cell
        if isinstance(c, memoryview) and c.format == "d":
            text = (c[:rows].tobytes(), [])
            old = previous[j] if j < len(previous) else None
        elif set(map(type, c)) == {str}:
            # Only str keys, so no two values that compare equal (0.0 and
            # -0.0, 1 and True) share a cell text.
            cell = {v: _quote(v) for v in set(c)}.__getitem__
        cells_of.append(cell)
        texts.append(text)
        reuse.append((0, ()) if old is None
                     else (_shared(old[0], text[0]), old[1]))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(map(_quote, header)) + "\r\n")
        for b, s in enumerate(range(0, rows, BLOCK)):
            end = min(s + BLOCK, rows)
            cells = []
            for c, text, (shared, old), cell in zip(columns, texts, reuse,
                                                    cells_of):
                if text is None:
                    cells.append(list(map(cell, c[s:s + BLOCK])))
                    continue
                # The leading cells the previous text holds.
                n = max(min(shared, end) - s, 0)
                if n == BLOCK:
                    block = old[b]
                    cells.append(block.split("\n"))
                else:
                    new = old[b].split("\n", n)[:n] if n else []
                    new += map(repr, c[s + n:end].tolist())
                    block = "\n".join(new)
                    cells.append(new)
                text[1].append(block)
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
