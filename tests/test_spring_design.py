"""Spring sizing tests: feasibility verdicts, cycle counting, the sweep
machinery including its step reuse and parallel execution, the step
reuse of kept runs, and the rule that reuse rests on."""

import concurrent.futures
import importlib.util
import json
import math
import re
import sys
import tracemalloc
from dataclasses import asdict, astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherlaunch import csvio, properties, spring_design
from tetherlaunch.cli import main
from tetherlaunch.config import load_config
from tetherlaunch.csvio import write_design_trace
from tetherlaunch.integrator import MAX_STEPS
from tetherlaunch.model import SpringParams, airborne_plant
from tetherlaunch.spring_design import (
    SizingConfig,
    SweepPoint,
    assess_trace,
    count_compression_cycles,
    evaluate_spring,
    initial_state,
    simulate_design,
    step_count,
    sweep,
)


def with_design(params, travel, stiffness=70.0):
    spring = replace(params.spring, max_travel=travel, stiffness=stiffness)
    return replace(params, spring=spring)


class TestCycleCounting:
    def test_empty_and_flat(self):
        assert count_compression_cycles([], 0.001) == 0
        assert count_compression_cycles([0.0] * 10, 0.001) == 0

    def test_monotone_compression_is_not_a_cycle(self):
        assert count_compression_cycles([0.0, 0.1, 0.2, 0.3], 0.001) == 0

    def test_single_cycle(self):
        assert count_compression_cycles([0.0, 0.1, 0.2, 0.1, 0.0], 0.001) == 1

    def test_two_cycles(self):
        series = [0.0, 0.2, 0.05, 0.25, 0.1]
        assert count_compression_cycles(series, 0.001) == 2

    def test_chatter_below_margin_ignored(self):
        series = [0.1, 0.1004, 0.0996, 0.1003, 0.0997]
        assert count_compression_cycles(series, 0.001) == 0

    def test_extension_first_not_counted(self):
        assert count_compression_cycles([0.2, 0.1, 0.0], 0.001) == 0

    def test_move_of_exactly_margin_confirms(self):
        # Quarters are exact doubles: each move equals the margin.
        assert count_compression_cycles([0.0, 0.25, 0.0], 0.25) == 1
        assert count_compression_cycles([0.0, 0.5, 0.25], 0.25) == 1
        assert count_compression_cycles([0.5, 0.25, 0.5, 0.25], 0.25) == 1

    def test_move_just_short_of_margin_does_not(self):
        short = math.nextafter(0.25, 0.0)
        assert count_compression_cycles([0.0, short, 0.0], 0.25) == 0
        assert count_compression_cycles(
            [0.0, 0.5, math.nextafter(0.25, 1.0)], 0.25) == 0
        assert count_compression_cycles(
            [0.5, 0.25, math.nextafter(0.5, 0.0), 0.25], 0.25) == 0


class TestEvaluate:
    def test_reference_design_is_feasible(self, config):
        result = evaluate_spring(config.system, config.sizing)
        assert result.feasible
        assert not result.timed_out
        assert result.t_star == pytest.approx(0.3322, abs=2e-3)
        assert result.min_speed == pytest.approx(7.8844, abs=2e-3)
        assert result.min_speed >= config.system.aircraft.min_cruise_speed
        assert result.t_at_min <= result.t_star
        assert result.compression_cycles == 1

    def test_short_travel_dips_below_cruise(self, config):
        result = evaluate_spring(with_design(config.system, 0.05),
                                 config.sizing)
        assert not result.feasible
        assert result.min_speed < config.system.aircraft.min_cruise_speed

    def test_no_deficit_is_trivially_feasible(self, config):
        sizing = SizingConfig(20.0, 10.0, 0.0, max_time=2.0)
        result = evaluate_spring(config.system, sizing)
        assert result.timed_out and result.t_star is None
        assert result.feasible
        assert result.min_speed == 10.0
        assert result.compression_cycles == 0

    def test_unresolved_timeout_is_conservative(self, config):
        # The tension transient starts but the window closes before the
        # winch provably catches up: judged infeasible even though the
        # observed minimum stayed above the cruise threshold.
        result = evaluate_spring(config.system,
                                 replace(config.sizing, max_time=0.05))
        assert result.timed_out and result.t_star is None
        assert result.min_speed > config.system.aircraft.min_cruise_speed
        assert not result.feasible

    @pytest.mark.parametrize("deficit", [4.0, 0.0],
                             ids=["default", "no-deficit"])
    def test_resume_from_the_start(self, config, deficit):
        # A fresh run starts from this loop state: the steps taken, the
        # six states, whether the force was seen and the release fired,
        # the minimum speed and its step, and the cycle counter's trend,
        # extreme and count. Resumed from it, the run is the fresh run.
        params = config.system
        sizing = replace(config.sizing, speed_deficit=deficit, max_time=1.0)
        init = initial_state(sizing, params.winch)
        force = airborne_plant(params, [params.winch.max_torque])(*init)[6]
        start = (0, tuple(init), force > sizing.force_tolerance, False,
                 init.vel, 0, 0, init.spring_pos, 0)
        assert (exact(evaluate_spring(params, sizing, start=start))
                == exact(evaluate_spring(params, sizing)))

    def test_infinite_step(self, config):
        # Once judged feasible, with t_at_min = nan.
        with pytest.raises(ValueError, match="dt must be finite"):
            evaluate_spring(config.system, replace(config.sizing, dt=math.inf))

    def test_infinite_time_limit(self, config):
        # Once an OverflowError.
        with pytest.raises(ValueError, match="max_time must be finite"):
            simulate_design(config.system,
                            replace(config.sizing, max_time=math.inf))


def exact(result):
    """The fields of a FeasibilityResult with their types, floats by hex."""
    return [(type(v).__name__, v.hex() if isinstance(v, float) else v)
            for v in astuple(result)]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def grid_of(argv, flags=("--travels", "--stiffness")):
    """The travels and stiffness values of sweep arguments `argv`, or the
    values of the other `flags`."""
    return [[float(v) for v in argv[argv.index(flag) + 1].split(",")]
            for flag in flags]


def benchmark_grid():
    """The travels and stiffness values of the benchmark's seed-0 sweep."""
    golden = json.loads((PERFBENCH / "goldens.json").read_text(
        encoding="utf-8"))
    return grid_of(golden["sweep-10x10"]["argv"])


class TestOnlineVerdict:
    """evaluate_spring reduces the run as it steps and keeps no step;
    simulate_design keeps every step and attaches the same reduction as
    the trace's result; assess_trace reduces the kept columns. All three
    give the same result, bit for bit and with types."""

    def assert_same(self, params, sizing):
        online = evaluate_spring(params, sizing)
        trace = simulate_design(params, sizing)
        assert exact(trace.result) == exact(online)
        assert exact(assess_trace(trace, params)) == exact(online)
        return online

    def test_benchmark_grid(self, config):
        travels, stiffness = benchmark_grid()
        assert len(travels) == len(stiffness) == 10
        verdicts = {self.assert_same(with_design(config.system, travel, k),
                                     config.sizing).feasible
                    for travel in travels for k in stiffness}
        assert verdicts == {True, False}

    def test_loaded_timeout(self, config):
        result = self.assert_same(config.system,
                                  replace(config.sizing, max_time=0.05))
        assert result.timed_out and not result.feasible

    def test_unloaded_timeout(self, config):
        result = self.assert_same(config.system,
                                  SizingConfig(20.0, 10.0, 0.0, max_time=1.0))
        assert result.timed_out and result.feasible

    def test_tied_minimum_is_the_first(self, config):
        # Thrust equal to the drag at 10 m/s and no deficit: the speed
        # stays exactly 10 m/s, so every step ties for the minimum.
        system = config.system
        aircraft = system.aircraft
        drag_factor = (0.5 * system.ambient.air_density * aircraft.drag_coeff
                       * aircraft.effective_area)
        cruise = replace(system, aircraft=replace(
            aircraft, max_thrust=drag_factor * 10.0 * 10.0))
        result = self.assert_same(cruise,
                                  SizingConfig(20.0, 10.0, 0.0, max_time=0.05))
        assert result.min_speed == 10.0 and result.t_at_min == 0.0

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(travel=st.floats(0.1, 0.6), stiffness=st.floats(10.0, 5e3),
           deficit=st.sampled_from([0.0, 2.0, 4.0, 8.0]),
           dt=st.sampled_from([1e-4, 1e-3, 4e-3]),
           margin=st.sampled_from([0.001, 0.01, 0.03]),
           tolerance=st.sampled_from([1e-6, 1e9]))
    def test_online_cycles_are_the_array_count(self, config, travel,
                                               stiffness, deficit, dt,
                                               margin, tolerance):
        """The sizing run counts cycles inline as it steps; the array
        reference counts them over the kept compression column. The
        hysteresis is the stop band's width, so wider bands test it on
        the run's own swings; a run that never releases swings for the
        whole second."""
        params = with_design(config.system, travel, stiffness)
        params = replace(params, spring=replace(params.spring,
                                                endstop_margin=margin))
        sizing = replace(config.sizing, dt=dt, max_time=1.0,
                         speed_deficit=deficit, force_tolerance=tolerance)
        trace = simulate_design(params, sizing)
        assert (evaluate_spring(params, sizing).compression_cycles
                == count_compression_cycles(trace.spring_pos.tolist(),
                                            params.spring.endstop_margin))

    def test_raising_point(self, config):
        # The winch reels in faster than the aircraft flies out.
        sizing = SizingConfig(0.5, 1.0, 40.0, max_time=1.0)
        with pytest.raises(ValueError) as online:
            evaluate_spring(config.system, sizing)
        with pytest.raises(ValueError) as kept:
            simulate_design(config.system, sizing)
        assert type(online.value) is type(kept.value)
        assert str(online.value) == str(kept.value)
        assert str(online.value).startswith("tether length must be > 0")

    def test_keeps_no_step(self, config):
        # 10,000 steps to the timeout; kept, they peak near 3.2 MB.
        sizing = SizingConfig(20.0, 10.0, 0.0, max_time=1.0)
        # A short run first: traced cold, the loop ran up to 5x slower.
        evaluate_spring(config.system, replace(sizing, max_time=0.01))
        tracemalloc.start()
        try:
            result = evaluate_spring(config.system, sizing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.timed_out
        assert peak < 1_000_000


class TestStepBudget:
    @pytest.mark.parametrize("dt, max_time, got", [
        (1e-320, 10.0, "inf"), (1e-12, 10.0, "1e+13"), (1e-4, 1e9, "1e+13"),
    ], ids=["denormal", "tiny-step", "long-run"])
    def test_record_rejects(self, config, dt, max_time, got):
        message = f"max_time / dt must be <= 2000000 steps (got {got})"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(config.sizing, dt=dt, max_time=max_time)

    def test_budget_is_inclusive(self, config):
        sizing = replace(config.sizing, dt=1e-4, max_time=200.0)
        assert step_count(sizing) == MAX_STEPS


class TestSweep:
    def test_grid_validation(self, config):
        with pytest.raises(ValueError, match="empty"):
            sweep(config.system, config.sizing, (), (70.0,))
        with pytest.raises(ValueError, match="> 0"):
            sweep(config.system, config.sizing, (0.35,), (-70.0,))

    def test_singleton_equals_direct_evaluation(self, config):
        points = sweep(config.system, config.sizing, (0.35,), (70.0,))
        assert list(points) == [(0.35, 70.0)]
        direct = evaluate_spring(with_design(config.system, 0.35),
                                 config.sizing)
        assert points[(0.35, 70.0)].result == direct

    def test_duplicate_point_collapses_identically(self, config):
        points = sweep(config.system, config.sizing, (0.35, 0.35), (70.0,))
        assert len(points) == 1
        direct = evaluate_spring(with_design(config.system, 0.35),
                                 config.sizing)
        assert points[(0.35, 70.0)].result == direct

    def test_repeated_values_run_once(self, config, monkeypatch):
        distinct = sweep(config.system, config.sizing, (0.2, 0.35), (70.0,))
        calls = []

        def counting(params, *args, **kwargs):
            calls.append((params.spring.max_travel, params.spring.stiffness))
            return evaluate_spring(params, *args, **kwargs)

        monkeypatch.setattr(spring_design, "evaluate_spring", counting)
        points = sweep(config.system, config.sizing, (0.2, 0.2, 0.35),
                       (70.0, 70.0))
        # The largest travel of a column runs first.
        assert sorted(calls) == [(0.2, 70.0), (0.35, 70.0)]
        assert list(points) == list(distinct)
        assert points == distinct

    def test_invalid_point_recorded_and_sweep_continues(self, config):
        # 0.0015 m travel cannot host the 0.001 m endstop margins
        points = sweep(config.system, config.sizing, (0.0015, 0.35), (70.0,))
        bad = points[(0.0015, 70.0)]
        assert bad.result is None
        assert "endstop_margin" in bad.error
        good = points[(0.35, 70.0)]
        assert good.error is None and good.result.feasible

    def test_parallel_equals_serial(self, config):
        grid = (config.system, config.sizing, (0.05, 0.2, 0.35), (60.0, 70.0))
        serial = sweep(*grid, workers=1)
        parallel = sweep(*grid, workers=2)
        assert list(serial) == list(parallel)
        assert serial == parallel

    @pytest.mark.parametrize("travels, stiffness", [
        ((0.35,), (70.0,)), ((0.35,), (60.0, 70.0, 80.0)),
        ((0.05, 0.2, 0.35), (70.0,)),
    ], ids=["one-point", "three-points", "three-travels"])
    def test_pool_capped_at_grid_size(self, config, monkeypatch, travels,
                                      stiffness):
        # A process per stiffness column at most: a column is one job.
        # The pool class is looked up when the pool is built, so the fake
        # below replaces it and no process is started.
        assert not hasattr(spring_design, "ProcessPoolExecutor")
        started = []

        class FakePool:
            """Records max_workers and maps the jobs in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        grid = (config.system, config.sizing, travels, stiffness)
        assert sweep(*grid, workers=100_000_000) == sweep(*grid)
        assert started == [len(stiffness)]

    def test_points_carry_grid_coordinates(self, config):
        points = sweep(config.system, config.sizing, (0.2,), (55.0,))
        point = points[(0.2, 55.0)]
        assert isinstance(point, SweepPoint)
        assert point.travel == 0.2 and point.stiffness == 55.0
        assert point.result.feasible in (True, False)


def perfbench_argv(monkeypatch, workload, seed):
    """The CLI arguments of the benchmark's `workload` at `seed`, from
    perfbench/run.py's workload inputs."""
    modules = {}
    for name in ("worker", "run"):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        if name == "run":
            # perfbench/run.py imports the worker under the name `worker`.
            monkeypatch.setitem(sys.modules, "worker", modules["worker"])
        spec.loader.exec_module(modules[name])
    return modules["run"].workload_inputs(workload, seed, False,
                                          PERFBENCH)["argv"]


def perfbench_sweep_grid(monkeypatch, seed):
    """The travels and stiffness values of the benchmark's sweep at
    `seed`."""
    return grid_of(perfbench_argv(monkeypatch, "sweep-10x10", seed))


def perfbench_travels(monkeypatch, seed):
    """The travels of the benchmark's spring-compare at `seed`."""
    (travels,) = grid_of(perfbench_argv(monkeypatch, "spring-compare-10",
                                        seed), ("--travels",))
    return travels


@pytest.fixture
def rk4_calls(monkeypatch):
    """A one-item list counting the RK4 steps the sizing runs take: the
    calls of the steppers that spring_design.rk4_stepper returns."""
    calls = [0]
    stepper = spring_design.rk4_stepper

    def counting_stepper(f, dt):
        step = stepper(f, dt)

        def counting(*args):
            calls[0] += 1
            return step(*args)

        return counting

    monkeypatch.setattr(spring_design, "rk4_stepper", counting_stepper)
    return calls


def plain_point(params, sizing, travel, stiffness):
    """A grid point as one plain evaluate_spring call from the start
    gives it: (exact result or None, error text or None)."""
    try:
        design = with_design(params, travel, stiffness)
        return exact(evaluate_spring(design, sizing)), None
    except (ValueError, RuntimeError) as exc:
        return None, str(exc)


class TestSweepReuse:
    """A column's smaller travels resume from the largest travel's run.
    That is exact only while travel enters the sizing run through the
    upper stop band and the clamp alone: every point must equal a plain
    evaluate_spring call from the start, bit for bit and with types, and
    a failed point its error text."""

    def assert_plain(self, params, sizing, travels, stiffness):
        points = sweep(params, sizing, travels, stiffness)
        assert list(points) == [(t, k) for t in dict.fromkeys(travels)
                                for k in dict.fromkeys(stiffness)]
        for (travel, k), point in points.items():
            assert (point.travel, point.stiffness) == (travel, k)
            got = (None if point.result is None else exact(point.result),
                   point.error)
            assert got == plain_point(params, sizing, travel, k)
        return points

    def test_benchmark_grid(self, config):
        self.assert_plain(config.system, config.sizing, *benchmark_grid())

    def test_held_out_benchmark_grid(self, config, monkeypatch):
        travels, stiffness = perfbench_sweep_grid(monkeypatch, 401)
        assert len(travels) == len(stiffness) == 10
        self.assert_plain(config.system, config.sizing, travels, stiffness)

    def test_unsorted_travels_with_repeats(self, config):
        self.assert_plain(config.system, config.sizing,
                          (0.2, 0.05, 0.35, 0.2, 0.1, 0.05), (70.0, 55.0))

    def test_travels_never_reached(self, config):
        # The spring stops short of 0.5 m at 70 N/m: both resume from the
        # 1.0 m run's final state.
        points = self.assert_plain(config.system, config.sizing,
                                   (0.35, 0.5, 1.0), (70.0,))
        assert (points[(0.5, 70.0)].result
                == points[(1.0, 70.0)].result)

    def test_invalid_travel(self, config):
        points = self.assert_plain(config.system, config.sizing,
                                   (0.0015, 0.35, 0.2), (70.0,))
        assert "endstop_margin" in points[(0.0015, 70.0)].error

    def test_failing_reference_run(self, config):
        sizing = replace(config.sizing, dt=0.05)
        points = self.assert_plain(config.system, sizing,
                                   (0.05, 0.2, 0.35), (1e4,))
        errors = {p.error for p in points.values()}
        assert len(errors) == 3
        assert all(e.startswith("tether length must be > 0") for e in errors)

    def test_integration_error(self, config):
        sizing = replace(config.sizing, dt=0.1)
        points = self.assert_plain(config.system, sizing,
                                   (0.05, 0.2, 0.35), (70.0,))
        assert all(p.error.startswith("non-finite state component")
                   for p in points.values())

    def test_clamp_on_the_step_before_the_band(self, config):
        # At this coarse step one step takes the 0.464 m run from below
        # 0.272 m to above 0.273 m: a 0.273 m run clamps there, so it
        # cannot resume from the state after that step.
        sizing = replace(config.sizing, dt=0.02, max_time=1.0,
                         speed_deficit=8.0)
        points = self.assert_plain(config.system, sizing, (0.273, 0.464),
                                   (3000.0,))
        assert (points[(0.273, 3000.0)].result.min_speed
                != points[(0.464, 3000.0)].result.min_speed)

    def test_timeout(self, config):
        points = self.assert_plain(config.system,
                                   replace(config.sizing, max_time=0.05),
                                   (0.05, 0.2, 0.35), (70.0,))
        assert all(p.result.timed_out for p in points.values())

    def test_no_deficit(self, config):
        sizing = SizingConfig(20.0, 10.0, 0.0, max_time=1.0)
        points = self.assert_plain(config.system, sizing,
                                   (0.05, 0.2, 0.35), (70.0,))
        assert all(p.result.feasible for p in points.values())

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(travels=st.lists(st.floats(0.001, 0.6), min_size=1, max_size=5),
           stiffness=st.floats(10.0, 5e3),
           dt=st.sampled_from([1e-4, 1e-3, 4e-3, 0.02, 0.05]),
           deficit=st.sampled_from([0.0, 4.0, 8.0]))
    def test_property(self, config, travels, stiffness, dt, deficit):
        sizing = replace(config.sizing, dt=dt, max_time=0.5,
                         speed_deficit=deficit)
        self.assert_plain(config.system, sizing, travels, (stiffness,))

    @pytest.mark.parametrize("grid, parent, steps", [
        (benchmark_grid(), 235_768, 162_816),
        (((0.05, 0.2, 0.35), (70.0,)), 6_770, 5_655),
    ], ids=["benchmark-grid", "reference-travels"])
    def test_steps_saved(self, config, rk4_calls, grid, parent, steps):
        """RK4 steps of one sweep: `parent` when every point runs from the
        start, `steps` as the sweep runs them. A resumed point takes only
        the steps after its hold; each hold costs the reference run one
        more call, for the step it broke off and runs again."""
        travels, stiffness = grid
        for travel in travels:
            for k in stiffness:
                evaluate_spring(with_design(config.system, travel, k),
                                config.sizing)
        assert rk4_calls[0] == parent
        rk4_calls[0] = 0
        sweep(config.system, config.sizing, travels, stiffness)
        assert rk4_calls[0] == steps


def kept(trace):
    """What a kept run gives: the bytes of every column, `loaded` and the
    exact result."""
    return ([getattr(trace, name).tobytes()
             for name in ("times", "states", "force", "length")],
            trace.loaded, exact(trace.result))


def kept_alone(design, sizing):
    """What a kept run of `design` alone gives, or its error's type and
    text."""
    try:
        return kept(simulate_design(design, sizing))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def kept_column(designs, sizing):
    """Run the kept runs of one column as spring-compare does."""
    return spring_design.column_runs(simulate_design, designs, sizing)


class TestKeptReuse:
    """spring-compare and validate's trace-bounds check run their travels
    through column_runs: the largest travel's kept run first, holding the
    loop state for every smaller travel, and then each smaller travel, in
    the given order, copies the largest trace's rows up to its hold as
    bytes and resumes from it. Every trace must equal a run of its travel
    alone: the same bytes in every column, the same `loaded` and an exact
    result; a failing run must fail alike."""

    def assert_fresh(self, params, sizing, travels, stiffness=70.0):
        """The traces in the given order, None for a failed run. A failure
        ends the runner, which then starts anew on the travels after it."""
        designs = [with_design(params, travel, stiffness)
                   for travel in travels]
        traces = []
        while len(traces) < len(designs):
            rest = designs[len(traces):]
            try:
                for design, trace in zip(rest, kept_column(rest, sizing)):
                    assert kept(trace) == kept_alone(design, sizing)
                    traces.append(trace)
            except (ValueError, RuntimeError) as exc:
                assert ((type(exc), str(exc))
                        == kept_alone(designs[len(traces)], sizing))
                traces.append(None)
        return traces

    @pytest.mark.parametrize("seed", [0, 403])
    def test_benchmark_travels(self, config, monkeypatch, seed):
        travels = perfbench_travels(monkeypatch, seed)
        assert len(travels) == 10 and travels == sorted(travels)
        self.assert_fresh(config.system, config.sizing, travels)

    @pytest.mark.parametrize("travels", [
        (0.35, 0.2, 0.05), (0.2, 0.05, 0.35, 0.1, 0.3, 0.3)],
        ids=["descending", "unsorted"])
    def test_travel_order(self, config, travels):
        # A repeated travel runs again from the start.
        self.assert_fresh(config.system, config.sizing, travels)

    def test_travels_never_reached(self, config):
        # The spring stops short of 0.5 m at 70 N/m: the 1.0 m run holds
        # its final state for the 0.5 m run, which takes no step of its
        # own.
        _, middle, long = self.assert_fresh(config.system, config.sizing,
                                            (0.35, 0.5, 1.0))
        assert middle.result == long.result
        assert len(middle.force) == len(long.force)

    def test_clamp_on_the_parting_step(self, config):
        # At this coarse step one step takes the 0.464 m run from below
        # 0.272 m to above 0.273 m, where the two runs part: the 0.273 m
        # run clamps there, so it resumes from the state before that step.
        sizing = replace(config.sizing, dt=0.02, max_time=1.0,
                         speed_deficit=8.0)
        short, long = self.assert_fresh(config.system, sizing,
                                        (0.273, 0.464), 3000.0)
        assert short.result.min_speed != long.result.min_speed

    def test_timeout(self, config):
        traces = self.assert_fresh(config.system,
                                   replace(config.sizing, max_time=0.05),
                                   (0.05, 0.2, 0.35))
        assert all(trace.result.timed_out for trace in traces)

    def test_no_deficit(self, config):
        traces = self.assert_fresh(
            config.system, SizingConfig(20.0, 10.0, 0.0, max_time=1.0),
            (0.05, 0.2, 0.35))
        assert all(trace.result.feasible for trace in traces)

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(travels=st.lists(st.floats(0.0021, 0.6), min_size=1,
                            max_size=5),
           stiffness=st.floats(10.0, 5e3),
           dt=st.sampled_from([1e-4, 1e-3, 4e-3, 0.02, 0.05]),
           deficit=st.sampled_from([0.0, 4.0, 8.0]))
    def test_property(self, config, travels, stiffness, dt, deficit):
        sizing = replace(config.sizing, dt=dt, max_time=0.5,
                         speed_deficit=deficit)
        self.assert_fresh(config.system, sizing, travels, stiffness)

    def test_failing_run(self, config):
        # Every travel fails alike; the 0.35 m run's failure, found
        # first, is raised at its turn, and the smaller travels run from
        # the start, since no trace holds their rows.
        sizing = replace(config.sizing, dt=0.05)
        traces = self.assert_fresh(config.system, sizing, (0.05, 0.2, 0.35),
                                   1e4)
        assert traces == [None] * 3

    @staticmethod
    def spied_column(designs, sizing, run=simulate_design):
        """column_runs over `designs`: each run's travel and whether it got
        a start or holds, what the runner yielded, and its error's type and
        text, or None."""
        runs, results = [], []

        def spy(design, sizing, start=None, holds=None):
            runs.append((design.spring.max_travel, start is not None,
                         holds is not None))
            return run(design, sizing, start, holds)

        try:
            for result in spring_design.column_runs(spy, designs, sizing):
                results.append(result)
        except (ValueError, RuntimeError) as exc:
            return runs, results, (type(exc), str(exc))
        return runs, results, None

    @pytest.mark.parametrize("travels, runs", [
        ((0.05, 0.2, 0.35), [(0.35, False, True), (0.05, False, False)]),
        ((0.35, 0.2, 0.05), [(0.35, False, True), (0.35, False, False)]),
    ], ids=["ascending", "descending"])
    def test_failing_run_keeps_nothing(self, config, travels, runs):
        # test_failing_run's set-up: every travel fails. The largest run
        # keeps nothing of its failure, so the first travel in the given
        # order runs from the start and raises its own error: the largest
        # runs again at its own turn.
        sizing = replace(config.sizing, dt=0.05)
        designs = [with_design(config.system, travel, 1e4)
                   for travel in travels]
        assert self.spied_column(designs, sizing) == (
            runs, [], kept_alone(designs[0], sizing))

    def test_failing_largest_runs_twice(self, config):
        # Where the largest run alone fails, every other design runs once
        # from the start and yields its fresh trace; the largest runs
        # again at its turn and raises.
        designs = [with_design(config.system, travel)
                   for travel in (0.05, 0.2, 0.35)]

        def run(design, sizing, start, holds):
            if design.spring.max_travel == 0.35:
                raise RuntimeError("largest")
            return kept(simulate_design(design, sizing, start, holds))

        assert self.spied_column(designs, config.sizing, run) == (
            [(0.35, False, True), (0.05, False, False), (0.2, False, False),
             (0.35, False, False)],
            [kept_alone(design, config.sizing) for design in designs[:2]],
            (RuntimeError, "largest"))

    def test_steps_saved(self, config, monkeypatch, rk4_calls):
        """RK4 steps of the seed-0 spring-compare travels: 24,151 as each
        runs from the start, kept or not, and 16,977 through column_runs
        in ascending, descending and unsorted order. A resumed run takes
        only the steps after its hold; each hold costs the largest
        travel's run one more call, for the step it broke off and runs
        again."""
        travels = perfbench_travels(monkeypatch, 0)
        designs = [with_design(config.system, travel) for travel in travels]
        for run in (evaluate_spring, simulate_design):
            rk4_calls[0] = 0
            for design in designs:
                run(design, config.sizing)
            assert rk4_calls[0] == 24_151
        for order in (designs, designs[::-1], designs[1::2] + designs[::2]):
            rk4_calls[0] = 0
            for _ in kept_column(order, config.sizing):
                pass
            assert rk4_calls[0] == 16_977

    def test_trace_bounds_steps(self, config, rk4_calls):
        """validate's trace-bounds check runs the reference travels as one
        column, in the sweep's 5,655 steps; run apart they take 6,770
        (TestSweepReuse)."""
        assert properties.check_trace_bounds(config).passed
        assert rk4_calls[0] == 5_655

    def test_resumed_run_peaks_lower(self, config):
        # The 0.3 m run shares 1,296 of its 3,366 rows with the 0.35 m
        # run; resumed from that run's hold, it appends floats for the
        # other rows alone.
        design = with_design(config.system, 0.3)
        holds = {0.3: None}
        larger = simulate_design(with_design(config.system, 0.35),
                                 config.sizing, holds=holds)
        peaks = []
        for start in (None, (larger, holds[0.3])):
            tracemalloc.start()
            try:
                simulate_design(design, config.sizing, start=start)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        fresh, resumed = peaks
        assert resumed < fresh

    @staticmethod
    def assert_peak_as_fresh_runs(tmp_path, simulation, travels):
        """spring-compare over `travels`, in that order, with the
        `simulation` config section peaks no higher than the same travels
        run fresh in the same order, keeping only the float text between
        them."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"simulation": simulation}),
                        encoding="utf-8")
        config = load_config(str(path))
        argv = ["spring-compare", "--config", str(path), "--quiet",
                "--out", str(tmp_path), "--travels"]
        # A short run first: traced cold, the loop ran up to 5x slower.
        assert main(argv + ["0.01"]) == 0
        tracemalloc.start()
        try:
            assert main(argv + [",".join(map(str, travels))]) == 0
            compare = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            texts = None
            for travel in travels:
                trace = simulate_design(with_design(config.system, travel),
                                        config.sizing)
                texts = write_design_trace(trace, tmp_path / "fresh.csv",
                                           texts)
                del trace
            fresh = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # The command's own objects (parser, config) take about 40 kB; a
        # trace kept past its last use took 323 kB (parting early) or
        # 576 kB more.
        assert compare <= fresh + 100_000

    def test_descending_travels_peak_as_fresh_runs(self, tmp_path):
        """A travel after a longer one resumes from the longer travel's
        run, whose trace, 72 B a step, spring-compare keeps only while a
        travel still needs it: the comparison peaks no higher than two
        fresh runs that keep only the float text between them (8,001
        steps each, no deficit)."""
        self.assert_peak_as_fresh_runs(
            tmp_path, {"speed_deficit": 0.0, "max_time": 0.8}, (0.35, 0.3))

    def test_descending_travels_parting_early_peak_as_fresh_runs(
            self, tmp_path, monkeypatch):
        """Once the longer travel's turn has passed, spring-compare keeps
        only the rows of its trace that a pending travel copies. With no
        release the 0.05 m run parts from the 0.35 m one after 269 of its
        5,001 rows. The writer's 1,024-row blocks, about 1 MB while a file
        is written, would hide the 360 kB of a kept trace at this length,
        so the blocks are smaller; the bytes written do not depend on
        them."""
        monkeypatch.setattr(csvio, "BLOCK", 64)
        self.assert_peak_as_fresh_runs(
            tmp_path, {"force_tolerance": 1e9, "max_time": 0.5},
            (0.35, 0.05))


class RecordingSpring(SpringParams):
    """SpringParams that adds to `reads`, while it is a set, the module
    and function of each read of `max_travel`."""

    reads = None

    def __getattribute__(self, name):
        if name == "max_travel" and RecordingSpring.reads is not None:
            caller = sys._getframe(1)
            RecordingSpring.reads.add((caller.f_globals["__name__"],
                                       caller.f_code.co_name))
        return super().__getattribute__(name)


def test_travel_enters_through_band_and_clamp_alone(config, monkeypatch):
    """Step reuse rests on one rule: travel enters a sizing run only
    through the upper stop band, which airborne_plant sets, and the clamp
    limit, which _run_sizing reads. Every read of max_travel in a kept or
    unkept run, fresh or resumed, must come from those two."""
    spring = asdict(config.system.spring)
    large, small = (replace(config.system, spring=RecordingSpring(
        **{**spring, "max_travel": travel})) for travel in (0.35, 0.2))
    reads = set()
    monkeypatch.setattr(RecordingSpring, "reads", reads)
    holds = {0.2: None}
    trace = simulate_design(large, config.sizing, holds=holds)
    simulate_design(small, config.sizing, start=(trace, holds[0.2]))
    unkept = {0.2: None}
    evaluate_spring(large, config.sizing, holds=unkept)
    evaluate_spring(small, config.sizing, start=unkept[0.2])
    assert holds[0.2] is not None and unkept[0.2] is not None
    assert reads == {("tetherlaunch.model", "airborne_plant"),
                     ("tetherlaunch.spring_design", "_run_sizing")}
