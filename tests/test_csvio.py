"""CSV serialization: the cell text, csv.writer's bytes from the
column-wise writer, the same bytes when the previous file's text is
reused, the sweep's error column read back, and one `write_rows` call
per file."""

import builtins
import csv
import math
import struct
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherlaunch import csvio
from tetherlaunch.csvio import (
    _cell,
    _quote,
    write_design_trace,
    write_rows,
    write_sweep_csv,
    write_takeoff_trace,
)
from tetherlaunch.model import default_system_params
from tetherlaunch.spring_design import (
    SweepPoint,
    default_sizing_config,
    sweep,
)
from tetherlaunch.takeoff import run_takeoff


def reference_cell(value) -> str:
    """The cell text the row-wise writer gave csv.writer to quote."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def reference_write_rows(path, header, columns) -> None:
    """The row-wise csv.writer serialization `write_rows` replaces."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([reference_cell(v) for v in row])


@pytest.mark.parametrize("value, text", [
    (None, ""),
    (True, "true"),
    (False, "false"),
    (0, "0"),
    (-7, "-7"),
    (12345678901234567890, "12345678901234567890"),
    (0.1, "0.1"),
    (np.float64(0.1), "0.1"),
    (np.float64(-2.5e-7), "-2.5e-07"),
    (math.nan, "nan"),
    (np.float64("nan"), "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (1e16, "1e+16"),
    (9999999999999998.0, "9999999999999998.0"),
    ("plain", "plain"),
    ("", ""),
])
def test_cell(value, text):
    assert _cell(value) == text


@pytest.mark.parametrize("text, quoted", [
    ("", ""),
    ("a b", "a b"),
    ("a,b", '"a,b"'),
    ('say "hi"', '"say ""hi"""'),
    ('"', '""""'),
    ("line\nbreak", '"line\nbreak"'),
    ("cr\r", '"cr\r"'),
])
def test_quote(text, quoted):
    assert _quote(text) == quoted


TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n ab9.-é')), max_size=6)
FLOAT64 = st.floats(width=64, allow_nan=True, allow_infinity=True,
                    allow_subnormal=True)
OBJECT = st.one_of(st.none(), st.booleans(), st.integers(), FLOAT64,
                   FLOAT64.map(np.float64), TEXT)


def columns(rows: int, values=FLOAT64):
    floats = st.lists(values, min_size=rows, max_size=rows)
    return st.one_of(
        floats.map(lambda v: memoryview(array("d", v))),  # as a Trace's
        floats.map(tuple),  # as the take-off's float columns
        st.lists(TEXT, min_size=rows, max_size=rows),
        # as the take-off's zones
        st.lists(TEXT, min_size=rows, max_size=rows).map(tuple),
        st.lists(OBJECT, min_size=rows, max_size=rows),
    )


@st.composite
def tables(draw, values=FLOAT64):
    # At least two columns: csv.writer writes a row of one empty cell as
    # '""', and every table this package writes has nine or more columns.
    width = draw(st.integers(2, 5))
    rows = draw(st.integers(0, 12))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    return header, [draw(columns(rows, values)) for _ in range(width)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(table=tables())
def test_write_rows_matches_csv_writer(tmp_path_factory, table):
    header, cols = table
    folder = tmp_path_factory.mktemp("table")
    write_rows(folder / "columns.csv", header, cols)
    reference_write_rows(folder / "reference.csv", header, cols)
    assert ((folder / "columns.csv").read_bytes()
            == (folder / "reference.csv").read_bytes())


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def from_bits(word: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", word))[0]


# NaNs of distinct payloads and signs; each is written as "nan".
NANS = [from_bits(word) for word in (0x7FF8000000000000, 0x7FF8000000000001,
                                     0xFFF8000000000000, 0x7FF0000000000001)]
# FLOAT64 with zeros and NaNs drawn often: the values that have a twin
# differing from them in its bits alone.
DOUBLES = FLOAT64 | st.sampled_from([0.0, -0.0, *NANS])


def twin(value: float) -> float:
    """A value that differs from `value` in its bits alone where one
    exists (-0.0 for 0.0, a NaN of another payload for a NaN), else the
    next float up."""
    if math.isnan(value):
        return next(n for n in NANS if bits(n) != bits(value))
    if value == 0.0:
        return -value
    return math.nextafter(value, math.inf)


def float_values(column) -> list[float]:
    """The values of a column of floats alone, else no values."""
    values = list(column)
    return values if all(type(v) is float for v in values) else []


def is_double_view(column) -> bool:
    return isinstance(column, memoryview) and column.format == "d"


@st.composite
def table_pairs(draw):
    """A table, and a second one whose float columns share a drawn prefix
    with the same column of the first, then differ; the first table may
    have fewer or more columns and rows."""
    first = draw(tables(DOUBLES))
    width = draw(st.integers(2, 5))
    rows = draw(st.integers(0, 12))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    cols = []
    for j in range(width):
        if draw(st.integers(0, 4)) == 0:
            cols.append(draw(columns(rows)))
            continue
        base = float_values(first[1][j]) if j < len(first[1]) else []
        shared = draw(st.integers(0, min(len(base), rows)))
        tail = draw(st.lists(DOUBLES,
                             min_size=rows - shared, max_size=rows - shared))
        if tail and shared < len(base) and draw(st.booleans()):
            tail[0] = twin(base[shared])
        values = base[:shared] + tail
        cols.append(memoryview(array("d", values))
                    if draw(st.integers(0, 3)) else tuple(values))
    return first, (header, cols)


def shared_cells(previous_cols, cols) -> int:
    """Cells of double views whose leading values equal, bit for bit, the
    same column of the previous table when that is a double view too."""
    count = 0
    for old, new in zip(previous_cols, cols):
        if is_double_view(old) and is_double_view(new):
            for a, b in zip(old, new):
                if bits(a) != bits(b):
                    break
                count += 1
    return count


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(pair=table_pairs(), block=st.sampled_from([1, 2, 5, csvio.BLOCK]))
def test_reused_text_writes_fresh_bytes(tmp_path_factory, pair, block):
    """write_rows(b, previous=write_rows(a)) writes what a fresh
    write_rows(b) and csv.writer write, at any block size, and calls repr
    once less for each leading double of b's views that a's same view
    shares bit for bit; any other column reuses no text."""
    (header_a, cols_a), (header, cols) = pair
    folder = tmp_path_factory.mktemp("pair")
    calls = [0]

    def counted(value):
        calls[0] += 1
        return builtins.repr(value)

    def reprs(name, *previous):
        """The texts write_rows returns for b, and its calls of repr."""
        start = calls[0]
        texts = write_rows(folder / name, header, cols, *previous)
        return texts, calls[0] - start

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvio, "BLOCK", block)
        patch.setattr(csvio, "repr", counted, raising=False)
        previous = write_rows(folder / "a.csv", header_a, cols_a)
        chained, chained_calls = reprs("chained.csv", previous)
        fresh, fresh_calls = reprs("fresh.csv")
    reference_write_rows(folder / "reference.csv", header, cols)
    written = (folder / "chained.csv").read_bytes()
    assert written == (folder / "fresh.csv").read_bytes()
    assert written == (folder / "reference.csv").read_bytes()
    assert chained == fresh
    assert fresh_calls - chained_calls == shared_cells(cols_a, cols)


def test_strided_float_columns_match_csv_writer(tmp_path):
    """A trace's state columns are strided views of one (n, 6) buffer."""
    states = np.random.default_rng(3).normal(size=(50, 6)) * 1e3
    flat = memoryview(array("d", states.ravel().tolist()))
    cols = [flat[j::6] for j in range(6)]
    write_rows(tmp_path / "columns.csv", list("uvwxyz"), cols)
    reference_write_rows(tmp_path / "reference.csv", list("uvwxyz"), cols)
    assert ((tmp_path / "columns.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def failed_point() -> SweepPoint:
    """A grid point whose integration blows up in the first steps."""
    params = default_system_params()
    params = replace(params, spring=replace(
        params.spring, endstop_gain=1e300, free_friction=1e10))
    (point,) = sweep(params, default_sizing_config(), (0.2,),
                     (70.0,)).values()
    return point


def test_sweep_error_round_trips(tmp_path):
    blown = failed_point()
    assert blown.error.startswith("non-finite state component in "
                                  "DesignState(pos=")
    quoted = SweepPoint(0.35, 80.0, None,
                        error='tether "length" <= 0,\r\nat t=0.1 s')
    write_sweep_csv([blown, quoted], tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["error"] for row in rows] == [blown.error, quoted.error]
    assert [row["travel"] for row in rows] == ["0.2", "0.35"]
    assert all(row[name] == "" for row in rows
               for name in csvio.SWEEP_HEADER[2:-1])


@pytest.fixture
def write_rows_calls(monkeypatch):
    """Count the calls of csvio.write_rows, still writing each file."""
    calls = []

    def counted(path, header, columns, previous=None):
        calls.append(path)
        return write_rows(path, header, columns, previous)

    monkeypatch.setattr(csvio, "write_rows", counted)
    return calls


def test_each_writer_calls_write_rows_once(tmp_path, write_rows_calls,
                                           sizing_runs, takeoff_default):
    trace, verdict = sizing_runs[0][0.2]
    write_design_trace(trace, tmp_path / "design.csv")
    write_takeoff_trace(takeoff_default[0].trace, tmp_path / "takeoff.csv")
    write_sweep_csv([SweepPoint(0.2, 70.0, verdict), failed_point()],
                    tmp_path / "sweep.csv")
    assert write_rows_calls == [tmp_path / "design.csv",
                                tmp_path / "takeoff.csv",
                                tmp_path / "sweep.csv"]


def test_string_columns_quote_each_value_once(tmp_path, monkeypatch,
                                              takeoff_default):
    """The take-off trace's zone and phase columns, all str, quote each
    distinct value once and call _cell for no cell (test_takeoff pins
    the file's bytes)."""
    trace = takeoff_default[0].trace
    calls = []

    def counted(name, function):
        def call(value):
            calls.append(name)
            return function(value)
        monkeypatch.setattr(csvio, name, call)

    counted("_cell", _cell)
    counted("_quote", _quote)
    write_takeoff_trace(trace, tmp_path / "takeoff.csv")
    monkeypatch.undo()
    distinct = len(set(trace.zone)) + len(set(trace.phase))
    assert calls == ["_quote"] * (len(csvio.TAKEOFF_TRACE_HEADER) + distinct)
    assert distinct == 5


def test_takeoff_numbers_written_as_floats(tmp_path, config):
    """An integer that a parameter passes into the take-off trace, here
    the saturated slide torque, is kept, and so written, as the float it
    equals."""
    takeoff = replace(config.takeoff, duration=0.5)
    slide = config.control.slide
    whole = replace(config.control, slide=replace(
        slide, torque_limit=int(slide.torque_limit)))
    for name, control in (("float.csv", config.control),
                          ("int.csv", whole)):
        result = run_takeoff(takeoff, config.system, control)
        write_takeoff_trace(result.trace, tmp_path / name)
    assert set(map(type, result.trace.slide_torque)) == {float}
    assert ((tmp_path / "int.csv").read_bytes()
            == (tmp_path / "float.csv").read_bytes())
