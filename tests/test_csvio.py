"""CSV serialization: the cell text, csv.writer's bytes from the
column-wise writer, the sweep's error column read back, and one
`write_rows` call per file."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def columns(rows: int):
    return st.one_of(
        hnp.arrays(np.float64, rows, elements=FLOAT64),
        st.lists(TEXT, min_size=rows, max_size=rows),
        hnp.arrays("U6", rows, elements=TEXT),  # as the take-off's zones
        st.lists(OBJECT, min_size=rows, max_size=rows),
    )


@st.composite
def tables(draw):
    # At least two columns: csv.writer writes a row of one empty cell as
    # '""', and every table this package writes has nine or more columns.
    width = draw(st.integers(2, 5))
    rows = draw(st.integers(0, 12))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    return header, [draw(columns(rows)) for _ in range(width)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(table=tables())
def test_write_rows_matches_csv_writer(tmp_path_factory, table):
    header, cols = table
    folder = tmp_path_factory.mktemp("table")
    write_rows(folder / "columns.csv", header, cols)
    reference_write_rows(folder / "reference.csv", header, cols)
    assert ((folder / "columns.csv").read_bytes()
            == (folder / "reference.csv").read_bytes())


def test_strided_float_columns_match_csv_writer(tmp_path):
    """A trace's state columns are strided views of one (n, 6) array."""
    states = np.random.default_rng(3).normal(size=(50, 6)) * 1e3
    cols = list(states.T)
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

    def counted(path, header, columns):
        calls.append(path)
        write_rows(path, header, columns)

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
