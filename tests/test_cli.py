"""CLI tests: workflows produce the promised files, runs are
reproducible byte for byte, and errors exit nonzero with a machine
readable stderr line."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from tetherlaunch.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestTakeoffCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        assert main(["takeoff", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "liftoff_time" in out
        summary = json.loads((tmp_path / "takeoff_summary.json").read_text())
        assert summary["liftoff_time"] == pytest.approx(0.38, rel=0.05)
        rows = read_csv(tmp_path / "takeoff_trace.csv")
        assert rows[0]["t"] == "0.0"
        assert rows[0]["phase"] == "on_slide"
        assert rows[-1]["phase"] == "airborne"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["takeoff", "--out", str(a), "--quiet"]) == 0
        assert main(["takeoff", "--out", str(b), "--quiet"]) == 0
        assert ((a / "takeoff_trace.csv").read_bytes()
                == (b / "takeoff_trace.csv").read_bytes())
        assert ((a / "takeoff_summary.json").read_bytes()
                == (b / "takeoff_summary.json").read_bytes())

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        assert main(["takeoff", "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_simulation_error_exits_nonzero(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"controller": {"ffwd_gain": 0.0}}))
        code = main(["takeoff", "--out", str(tmp_path), "--quiet",
                     "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: simulation:")


@pytest.mark.parametrize("command, values, files", [
    (["takeoff"], {"dt": "1e-4", "duration": "0.8"},
     ["takeoff_trace.csv", "takeoff_summary.json"]),
    (["spring-compare", "--travels", "0.35"], {"dt": "1e-3"},
     ["spring_compare_travel_0p35.csv", "spring_compare_summary.csv"]),
])
def test_flags_match_config_keys(tmp_path, command, values, files):
    """--dt and --duration give the files their simulation keys give."""
    flags, keys = tmp_path / "flags", tmp_path / "keys"
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"simulation": {key: float(v) for key, v in values.items()}}))
    argv = [f"--{key}={value}" for key, value in values.items()]
    assert main(command + ["--out", str(flags), "--quiet"] + argv) == 0
    assert main(command + ["--out", str(keys), "--quiet",
                           "--config", str(config)]) == 0
    for name in files:
        assert (flags / name).read_bytes() == (keys / name).read_bytes()


class TestSpringCompareCommand:
    def test_writes_traces_and_summary(self, tmp_path, capsys):
        assert main(["spring-compare", "--out", str(tmp_path)]) == 0
        for label in ("0p05", "0p2", "0p35"):
            assert (tmp_path / f"spring_compare_travel_{label}.csv").exists()
        rows = read_csv(tmp_path / "spring_compare_summary.csv")
        assert [r["travel"] for r in rows] == ["0.05", "0.2", "0.35"]
        # the short travel fails the cruise-speed floor, the long one holds
        assert rows[0]["feasible"] == "false"
        assert float(rows[0]["min_speed"]) < 7.0
        assert rows[2]["feasible"] == "true"
        assert float(rows[2]["min_speed"]) >= 7.0
        assert "feasible" in capsys.readouterr().out

    def test_dt_override_changes_grid(self, tmp_path):
        fine, coarse = tmp_path / "fine", tmp_path / "coarse"
        assert main(["spring-compare", "--out", str(fine), "--quiet",
                     "--travels", "0.35"]) == 0
        assert main(["spring-compare", "--out", str(coarse), "--quiet",
                     "--travels", "0.35", "--dt", "1e-3"]) == 0
        n_fine = len(read_csv(fine / "spring_compare_travel_0p35.csv"))
        n_coarse = len(read_csv(coarse / "spring_compare_travel_0p35.csv"))
        assert n_fine > 5 * n_coarse

    @pytest.mark.parametrize("travels", ["", "inf", "nan", "-1", "0.2,0"],
                             ids=["empty", "inf", "nan", "negative", "zero"])
    def test_rejects_empty_travels(self, tmp_path, capsys, travels):
        with pytest.raises(SystemExit) as exc:
            main(["spring-compare", "--out", str(tmp_path),
                  f"--travels={travels}"])
        assert exc.value.code == 2
        assert "argument --travels" in capsys.readouterr().err
        assert not (tmp_path / "spring_compare_summary.csv").exists()

    @pytest.mark.parametrize("travels", ["0.2,0.2000001", "0.35,0.05,0.35"],
                             ids=["same-label", "repeat"])
    def test_rejects_travels_sharing_a_file(self, tmp_path, capsys, travels):
        # %g names both travels of the first pair 0p2.
        out = tmp_path / "out"
        code = main(["spring-compare", "--out", str(out), "--quiet",
                     f"--travels={travels}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: --travels: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestSweepCommand:
    def test_singleton_matches_spring_compare(self, tmp_path):
        assert main(["spring-compare", "--out", str(tmp_path), "--quiet",
                     "--travels", "0.35"]) == 0
        assert main(["sweep", "--out", str(tmp_path), "--quiet",
                     "--travels", "0.35"]) == 0
        compare = read_csv(tmp_path / "spring_compare_summary.csv")
        swept = read_csv(tmp_path / "sweep.csv")
        assert len(swept) == 1
        for key in ("travel", "stiffness", "feasible", "min_speed",
                    "t_at_min", "t_star", "compression_cycles"):
            assert swept[0][key] == compare[0][key]

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        args = ["sweep", "--quiet", "--stiffness", "60,70"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
        assert ((serial / "sweep.csv").read_bytes()
                == (parallel / "sweep.csv").read_bytes())

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_rejects_bad_worker_count(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path), "--workers", workers])
        assert exc.value.code == 2
        assert "argument --workers" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag, values", [
        pytest.param("--travels", "", id="--travels"),
        pytest.param("--stiffness", "", id="--stiffness"),
        pytest.param("--travels", "inf", id="--travels-inf"),
        pytest.param("--travels", "nan", id="--travels-nan"),
        pytest.param("--travels", "-1", id="--travels-negative"),
        pytest.param("--stiffness", "70,inf", id="--stiffness-inf"),
        pytest.param("--stiffness", "0", id="--stiffness-zero"),
    ])
    def test_rejects_empty_list(self, tmp_path, capsys, flag, values):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path), f"{flag}={values}"])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_failed_points_recorded(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), "--quiet",
                     "--travels", "0.0015,0.35"]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0]["error"] != ""
        assert rows[0]["feasible"] == ""
        assert rows[1]["error"] == ""


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8
        golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
        assert (hashlib.sha256(out.encode()).hexdigest()
                == golden["validate"]["files"]["stdout"])


class TestErrorHandling:
    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"spring": {"max_travel": -1.0}}))
        code = main(["takeoff", "--out", str(tmp_path), "--config",
                     str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "max_travel" in err

    def test_bad_dt_flag(self, tmp_path, capsys):
        code = main(["takeoff", "--out", str(tmp_path), "--dt", "-1"])
        assert code == 2
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    @pytest.mark.parametrize("flag", ["--dt", "--duration"])
    def test_bad_simulation_flag(self, tmp_path, capsys, flag, value):
        code = main(["takeoff", "--out", str(tmp_path), "--quiet",
                     f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: simulation")
        assert err.count("\n") == 1
        assert not (tmp_path / "takeoff_trace.csv").exists()

    def test_slide_lighter_than_aircraft(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"slide": {"equivalent_mass": 1.0}}))
        code = main(["takeoff", "--out", str(tmp_path / "out"), "--quiet",
                     "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: config: slide.equivalent_mass: must be > aircraft.mass "
            "(got 1.0 <= 1.2)\n")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["takeoff", "--out", str(tmp_path), "--config",
                     str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: config: {missing}: No such file or directory\n"
