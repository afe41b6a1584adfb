"""Spring sizing tests: feasibility verdicts, cycle counting, and the
sweep machinery including parallel execution."""

import concurrent.futures
import json
import math
import re
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from tetherlaunch import spring_design
from tetherlaunch.integrator import MAX_STEPS
from tetherlaunch.spring_design import (
    SizingConfig,
    SweepPoint,
    assess_trace,
    count_compression_cycles,
    evaluate_spring,
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


def benchmark_grid():
    """The travels and stiffness values of the benchmark's seed-0 sweep."""
    golden = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                         / "goldens.json").read_text(encoding="utf-8"))
    argv = golden["sweep-10x10"]["argv"]
    return [[float(v) for v in argv[argv.index(flag) + 1].split(",")]
            for flag in ("--travels", "--stiffness")]


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

        def counting(params, *args):
            calls.append((params.spring.max_travel, params.spring.stiffness))
            return evaluate_spring(params, *args)

        monkeypatch.setattr(spring_design, "evaluate_spring", counting)
        points = sweep(config.system, config.sizing, (0.2, 0.2, 0.35),
                       (70.0, 70.0))
        assert calls == [(0.2, 70.0), (0.35, 70.0)]
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

    @pytest.mark.parametrize("travels", [(0.35,), (0.05, 0.2, 0.35)],
                             ids=["one-point", "three-points"])
    def test_pool_capped_at_grid_size(self, config, monkeypatch, travels):
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
        grid = (config.system, config.sizing, travels, (70.0,))
        assert sweep(*grid, workers=100_000_000) == sweep(*grid)
        assert started == [len(travels)]

    def test_points_carry_grid_coordinates(self, config):
        points = sweep(config.system, config.sizing, (0.2,), (55.0,))
        point = points[(0.2, 55.0)]
        assert isinstance(point, SweepPoint)
        assert point.travel == 0.2 and point.stiffness == 55.0
        assert point.result.feasible in (True, False)
