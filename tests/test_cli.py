"""CLI tests: workflows produce the promised files, runs are
reproducible byte for byte, and errors exit nonzero with a machine
readable stderr line."""

import builtins
import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tetherlaunch
from tetherlaunch import cli, csvio, spring_design
from tetherlaunch.cli import main
from tetherlaunch.config import _section_defaults, default_app_config

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

    def test_judges_each_travel_once(self, tmp_path, monkeypatch):
        # Each travel's verdict is the one its run judged while stepping;
        # nothing reduces the kept trace again.
        calls = []
        for module, name in ((cli, "assess_trace"),
                             (spring_design, "count_compression_cycles")):
            run = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, run=run: (
                calls.append(args) or run(*args)))
        assert main(["spring-compare", "--out", str(tmp_path), "--quiet"]) == 0
        assert calls == []

    def test_traces_match_single_travel_runs(self, tmp_path):
        # A run resumes from the largest travel's, and a trace reuses the
        # text of the steps it shares with the previous travel's; in any
        # order of the travels, the bytes are those of a run of its travel
        # alone.
        travels = ["0.05", "0.2", "0.35"]
        for travel in travels:
            assert main(["spring-compare", "--out", str(tmp_path / travel),
                         "--quiet", "--travels", travel]) == 0
        for order in (travels, travels[::-1], ["0.2", "0.05", "0.35"]):
            out = tmp_path / "-".join(order)
            assert main(["spring-compare", "--out", str(out), "--quiet",
                         "--travels", ",".join(order)]) == 0
            for travel in travels:
                name = cli._trace_name(float(travel))
                assert ((out / name).read_bytes()
                        == (tmp_path / travel / name).read_bytes())

    def test_reuses_shared_float_text(self, tmp_path, monkeypatch):
        # The benchmark's ten seed-0 travels: of the 217,449 float cells
        # their traces write, 137,068 repeat the previous trace's text in
        # the same column's leading steps, and only the rest call repr.
        travels = [round(0.05 + i * 0.3 / 9, 6) for i in range(10)]
        calls, writing = [0], [False]

        def counted(value):
            calls[0] += writing[0]
            return builtins.repr(value)

        def write_design_trace(*args):
            writing[0] = True
            try:
                return csvio.write_design_trace(*args)
            finally:
                writing[0] = False

        monkeypatch.setattr(csvio, "repr", counted, raising=False)
        monkeypatch.setattr(cli, "write_design_trace", write_design_trace)
        assert main(["spring-compare", "--out", str(tmp_path), "--quiet",
                     "--travels", ",".join(map(repr, travels))]) == 0
        rows = sum(len(read_csv(tmp_path / cli._trace_name(t)))
                   for t in travels)
        assert 9 * rows == 217_449
        assert calls[0] == 217_449 - 137_068

    @pytest.mark.parametrize("travels, got", [
        ("0.05,0.2,0.35", "-6.0227738264635065"),
        ("0.35,0.2,0.05", "-0.08629986307498427"),
    ], ids=["ascending", "descending"])
    def test_reports_the_first_failing_travel(self, tmp_path, capsys,
                                              travels, got):
        # Every travel's run fails at this stiffness and step; the error
        # is that of the first travel in the given order, although the
        # largest travel runs first.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"spring": {"stiffness": 10000.0}}),
                          encoding="utf-8")
        out = tmp_path / "out"
        code = main(["spring-compare", "--config", str(config), "--dt",
                     "0.05", "--out", str(out), "--travels", travels])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: simulation: tether length must be > 0 (got {got})\n")
        assert {path.name: path.stat().st_size for path in out.iterdir()} == {
            "spring_compare_summary.csv": 0,
            "spring_compare_travel_0p05.csv": 0,
            "spring_compare_travel_0p2.csv": 0,
            "spring_compare_travel_0p35.csv": 0}

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

    def test_rejects_bad_travel_before_running_any(self, tmp_path, capsys):
        # 0.001 m cannot host the 0.001 m endstop margins; 0.2 comes first
        # and must not be run.
        out = tmp_path / "out"
        out.mkdir()
        code = main(["spring-compare", "--out", str(out), "--quiet",
                     "--travels", "0.2,0.001"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: config: --travels: endstop_margin must be in "
                       "(0, max_travel/2) (got 0.001 with max_travel 0.001)\n")
        assert list(out.iterdir()) == []


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

    @pytest.mark.parametrize("flag", [["--out", "results"], ["--quiet"]],
                             ids=["out", "quiet"])
    def test_rejects_output_flags(self, capsys, flag):
        # validate writes no file and prints only its check lines.
        with pytest.raises(SystemExit) as exc:
            main(["validate", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def package_env() -> dict:
    """The environment with this package first on PYTHONPATH."""
    package_root = str(Path(tetherlaunch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_import_leaves_process_pool_unloaded():
    subprocess.run(
        [sys.executable, "-c",
         "import sys, tetherlaunch.cli; "
         "assert 'concurrent.futures' not in sys.modules"],
        env=package_env(), check=True)


def test_set_up_compiles_no_kernel_and_a_sweep_each_once(tmp_path):
    """The plant, the fused sizing step and the take-off's fused control
    step are compiled on first use, not at import or config load; a
    sweep of several runs and columns compiles each of its texts once,
    and two take-offs in one process compile theirs once."""
    for kernels, runs in (
        (["model.py", "spring_design.py"],
         [["sweep", "--travels", "0.2,0.35", "--stiffness", "40,70",
           "--quiet"]]),
        (["takeoff.py"], [["takeoff", "--quiet", "--out", "first"],
                          ["takeoff", "--quiet", "--out", "second"]]),
    ):
        subprocess.run(
            [sys.executable, "-c",
             "import builtins, json, sys\n"
             "compiled = []\n"
             "compile_ = builtins.compile\n"
             "def counted(source, filename, *args, **kwargs):\n"
             "    compiled.append(str(filename))\n"
             "    return compile_(source, filename, *args, **kwargs)\n"
             "builtins.compile = counted\n"
             "import tetherlaunch.cli\n"
             "from tetherlaunch.config import load_config\n"
             "load_config(None)\n"
             "kernels = lambda: sorted(f for f in compiled\n"
             "                         if f.startswith('<tetherlaunch'))\n"
             "assert kernels() == [], kernels()\n"
             "expected, runs = json.loads(sys.argv[1])\n"
             "for argv in runs:\n"
             "    assert tetherlaunch.cli.main(argv) == 0\n"
             "assert kernels() == ['<tetherlaunch generated>/' + name\n"
             "                     for name in expected], kernels()\n",
             json.dumps([kernels, runs])],
            env=package_env(), cwd=tmp_path, capture_output=True,
            check=True)


@pytest.mark.parametrize("argv", [
    ["spring-compare", "--travels", "0.2", "--quiet"],
    ["sweep", "--travels", "0.2", "--quiet"],
    ["takeoff", "--quiet"],
    ["validate"],
], ids=["spring-compare", "sweep", "takeoff", "validate"])
def test_command_leaves_numpy_unloaded(tmp_path, argv):
    # Each command, run to its end, writing into the working directory.
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from tetherlaunch.cli import main; "
         "code = main(sys.argv[1:]); "
         "assert 'numpy' not in sys.modules; sys.exit(code)", *argv],
        env=package_env(), cwd=tmp_path, capture_output=True, check=True)


@pytest.mark.parametrize("argv", [
    ["spring-compare", "--travels", "0.2", "--quiet"],
    ["sweep", "--travels", "0.2", "--quiet"],
    ["takeoff", "--quiet"],
], ids=["spring-compare", "sweep", "takeoff"])
def test_command_leaves_property_suite_unloaded(tmp_path, argv):
    # Only validate runs the property suite, so only it imports it.
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from tetherlaunch.cli import main; "
         "code = main(sys.argv[1:]); "
         "assert 'tetherlaunch.properties' not in sys.modules; "
         "sys.exit(code)", *argv],
        env=package_env(), cwd=tmp_path, capture_output=True, check=True)


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

    @pytest.mark.parametrize("flag, value", [
        *((flag, value) for flag in ("--dt", "--duration")
          for value in ("inf", "nan", "-1", "0")),
        ("--dt", "3e-4"),  # does not divide the controller sample period
    ])
    def test_bad_simulation_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code = main(["takeoff", "--out", str(out), "--quiet",
                     f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: simulation")
        assert err.count("\n") == 1
        assert not out.exists()

    # The take-off's rules hold only where a take-off runs: this spring
    # is too short for the reel-out zone, and the sizing commands run
    # their own travels anyway.
    @pytest.mark.parametrize("argv, code, err", [
        (["spring-compare", "--travels", "0.2"], 0, ""),
        (["sweep", "--travels", "0.2"], 0, ""),
        (["validate"], 0, ""),
        (["takeoff"], 2, "error: config: controller.zone_high: must be < "
                         "spring.max_travel (got 0.1 >= 0.08)\n"),
    ], ids=["spring-compare", "sweep", "validate", "takeoff"])
    def test_takeoff_rules_only_for_takeoff(self, tmp_path, capsys, argv,
                                            code, err):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"spring": {"max_travel": 0.08}}))
        out = tmp_path / "out"
        if argv[0] != "validate":
            argv = [*argv, "--quiet", "--out", str(out)]
        assert main([*argv, "--config", str(config)]) == code
        assert capsys.readouterr().err == err
        if code:
            assert not out.exists()

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

    # Every command checks the step budget before it creates --out: a
    # denormal step once ended in an OverflowError traceback, and a run
    # that never releases went on to its max_time.
    @pytest.mark.parametrize("argv, sections, text", [
        *(([command, "--dt", "1e-320"], {},
           "simulation: max_time / dt must be <= 2000000 steps (got inf)")
          for command in ("spring-compare", "sweep", "takeoff", "validate")),
        (["spring-compare", "--travels", "0.2"],
         {"simulation": {"max_time": 1e9, "speed_deficit": 0.0}},
         "simulation: max_time / dt must be <= 2000000 steps (got 1e+13)"),
        (["takeoff"], {"simulation": {"duration": 1e7}},
         "simulation.duration / simulation.dt: must be <= 2000000 steps "
         "(got 1e+11)"),
        (["takeoff", "--dt", "1e-12"], {},
         "simulation: max_time / dt must be <= 2000000 steps (got 1e+13)"),
        (["takeoff"],
         {"controller": {"sample_period": 1e-320}, "simulation": {"dt": 1e-320}},
         "simulation: max_time / dt must be <= 2000000 steps (got inf)"),
    ], ids=["spring-compare-dt", "sweep-dt", "takeoff-dt", "validate-dt",
            "max-time", "duration", "dt-1e-12", "sample-period"])
    def test_step_budget(self, tmp_path, capsys, argv, sections, text):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(sections))
        out = tmp_path / "out"
        if argv[0] != "validate":
            argv = [*argv, "--quiet", "--out", str(out)]
        assert main([*argv, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: config: {text}\n"
        assert not out.exists()

    def test_tenth_of_the_step_within_budget(self, tmp_path):
        # The README's dt/10 check still runs at the default max_time.
        assert main(["spring-compare", "--dt", "1e-5", "--travels", "0.2",
                     "--quiet", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, out, named, code", [
        (["takeoff"], "afile", "afile", errno.EEXIST),
        (["spring-compare", "--travels", "0.2"], "afile/sub", "afile/sub",
         errno.ENOTDIR),
        (["sweep", "--travels", "0.2"], "o3", "o3/sweep.csv", errno.EISDIR),
        (["spring-compare", "--travels", "0.2,0.35"], "o4",
         "o4/spring_compare_travel_0p35.csv", errno.EISDIR),
        (["takeoff"], "o5", "o5/takeoff_summary.json", errno.EISDIR),
    ], ids=["takeoff-file", "spring-compare-under-file", "sweep-csv-dir",
            "spring-compare-later-trace-dir", "takeoff-summary-dir"])
    def test_unusable_out(self, tmp_path, capsys, monkeypatch, argv, out,
                          named, code):
        (tmp_path / "afile").write_text("")
        (tmp_path / "o3" / "sweep.csv").mkdir(parents=True)
        (tmp_path / "o4" / "spring_compare_travel_0p35.csv").mkdir(
            parents=True)
        (tmp_path / "o5" / "takeoff_summary.json").mkdir(parents=True)
        # An unusable output is found before any grid point, travel or
        # take-off runs, and no earlier output is written.
        evaluated = []
        for module, name in ((spring_design, "evaluate_spring"),
                             (cli, "simulate_design"), (cli, "run_takeoff")):
            run = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, run=run: (
                evaluated.append(args) or run(*args)))
        assert main([*argv, "--quiet", "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config: --out: {tmp_path / named}: "
            f"{os.strerror(code)}\n")
        assert evaluated == []
        written = [path for path in (tmp_path / out).rglob("*")
                   if path.is_file() and path.stat().st_size]
        assert written == []

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["takeoff", "--out", str(tmp_path), "--config",
                     str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: config: {missing}: No such file or directory\n"


# The config keys the run fuzz scales: all but the step, the time spans
# and the sample period, which it draws itself to keep every run short.
DEFAULTS = _section_defaults(default_app_config())
SCALED_KEYS = [
    (section, key) for section, values in DEFAULTS.items() for key in values
    if key not in ("dt", "max_time", "duration", "sample_period")]
FUZZ_STEP = 1e-3
# Steps over the budget at any drawn time span, denormal ones included.
BAD_STEPS = (1e-12, 1e-310, 1e-320, 5e-324)

RUNS = st.fixed_dictionaries({
    "command": st.sampled_from(["spring-compare", "takeoff"]),
    "travel": st.floats(0.01, 0.5),
    # One draw in three takes a bad step.
    "step": st.sampled_from((FUZZ_STEP,) * 8 + BAD_STEPS),
    "max_time": st.floats(0.01, 1.0),
    # Lift-off comes at 0.38 s in the default set-up.
    "duration": st.floats(0.3, 0.6),
    # Each scaled key's default is multiplied by 10**exponent.
    "scaled": st.dictionaries(st.sampled_from(SCALED_KEYS),
                              st.floats(-8.0, 8.0), max_size=3),
})


class TestRunFuzz:
    """The run path keeps the CLI contract on drawn configs: exit 0, 1 or
    2, one `error: ` line on failure, no numpy warning (the suite raises
    warnings as errors), and the trace invariants in the written files."""

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=RUNS)
    def test_run_keeps_the_contract(self, tmp_path, capsys, run):
        sections = {"simulation": {"max_time": run["max_time"],
                                   "duration": run["duration"]}}
        for (section, key), exponent in run["scaled"].items():
            sections.setdefault(section, {})[key] = (
                DEFAULTS[section][key] * 10.0 ** exponent)
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            config = Path(scratch) / "c.json"
            config.write_text(json.dumps(sections))
            out = Path(scratch) / "out"
            argv = [run["command"], "--quiet", "--config", str(config),
                    "--dt", repr(run["step"]), "--out", str(out)]
            if run["command"] == "spring-compare":
                argv += ["--travels", repr(run["travel"])]
                travel = run["travel"]
            else:
                travel = sections.get("spring", {}).get(
                    "max_travel", DEFAULTS["spring"]["max_travel"])
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            if run["step"] != FUZZ_STEP:
                assert code == 2 and not out.exists()
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1
                return
            assert err == ""
            (trace,) = (out.glob("spring_compare_travel_*.csv")
                        if run["command"] == "spring-compare"
                        else [out / "takeoff_trace.csv"])
            for row in read_csv(trace):
                assert float(row["tether_force"]) >= 0.0
                assert 0.0 <= float(row["spring_compression"]) <= travel
