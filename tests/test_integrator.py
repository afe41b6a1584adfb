"""Integrator tests: accuracy on a known system, the flat stepper against
the generic one, and the binding of the sizing kernel and of the
controller laws; and the sizing run built on the kernel: its release
stop, trace bookkeeping, and determinism."""

import gc
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherlaunch.controller import (
    default_control_params,
    outer_law,
    outer_zone,
    slide_law,
    winch_law,
)
from tetherlaunch.integrator import IntegrationError, rk4_step, rk4_stepper
from tetherlaunch.model import (
    DesignState,
    airborne_plant,
    clamp_spring_travel,
    default_system_params,
    design_derivatives,
    tether_stiffness,
)
from tetherlaunch.spring_design import (
    DEFAULT_FORCE_TOL,
    SizingConfig,
    _watched,
    default_sizing_config,
    initial_state,
    simulate,
)


def limits(dt: float = 1e-4, max_time: float = 10.0) -> SizingConfig:
    """The default sizing record with step `dt` and time limit
    `max_time`."""
    return replace(default_sizing_config(), dt=dt, max_time=max_time)


def harmonic(state):
    return (state.vel, -state.pos, 0.0, 0.0, 0.0, 0.0)


def integrate_harmonic(steps: int) -> float:
    dt = 2.0 * math.pi / steps
    state = DesignState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for _ in range(steps):
        state = rk4_step(harmonic, state, dt)
    return state.pos


class TestRk4Step:
    def test_one_period_returns_home(self):
        steps = round(2.0 * math.pi / 1e-3)
        assert abs(integrate_harmonic(steps) - 1.0) < 1e-9

    def test_observed_order(self):
        coarse = abs(integrate_harmonic(314) - 1.0)
        fine = abs(integrate_harmonic(628) - 1.0)
        assert math.log2(coarse / fine) >= 3.9

    def test_zero_derivative_identity(self):
        state = DesignState(1.0, 2.0, 0.1, -0.2, 3.0, 4.0)
        zero = lambda s: (0.0,) * 6
        assert rk4_step(zero, state, 0.1) == state

    def test_rejects_nonpositive_step(self):
        state = DesignState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="dt"):
            rk4_step(harmonic, state, 0.0)

    def test_blowup_raises(self):
        state = DesignState(1e200, 0.0, 0.0, 0.0, 0.0, 0.0)
        grow = lambda s: (s.pos * s.pos, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(IntegrationError):
            for _ in range(10):
                state = rk4_step(grow, state, 1.0)


class TestRk4Stepper:
    """The stepper the plants run: rk4_step's operations, bound once."""

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(pos=st.floats(5.0, 40.0), vel=st.floats(0.0, 20.0),
           spring_pos=st.floats(0.0, 0.35), spring_vel=st.floats(-3.0, 3.0),
           stretch=st.floats(-0.05, 0.5), winch_speed=st.floats(0.0, 200.0),
           stiffness=st.floats(10.0, 5e3), dt=st.floats(1e-6, 1e-3))
    def test_sizing_plant_matches_rk4_step(self, pos, vel, spring_pos,
                                           spring_vel, stretch, winch_speed,
                                           stiffness, dt):
        """One step of the sizing plant from a drawn state, as the sizing
        run takes it, equals the generic step bit for bit. `stretch` is
        the position minus the deployed line, which stays positive."""
        params = default_system_params()
        params = replace(params, spring=replace(params.spring,
                                                stiffness=stiffness))
        derivs = airborne_plant(params, [params.winch.max_torque])
        winch_angle = (pos - stretch - 2.0 * spring_pos) / params.winch.radius
        y = (pos, vel, spring_pos, spring_vel, winch_angle, winch_speed)
        flat = rk4_stepper(derivs, dt)(*y, derivs(*y))
        generic = rk4_step(lambda s: derivs(*s)[:6], DesignState(*y), dt)
        assert list(map(float.hex, flat)) == list(map(float.hex, generic))


def _sizing_plant():
    params = default_system_params()
    return airborne_plant(params, [params.winch.max_torque])


@pytest.mark.parametrize("build", [
    _sizing_plant,
    lambda: rk4_stepper(_sizing_plant(), 1e-4),
    lambda: _watched(_sizing_plant(), 0.2),
], ids=["plant", "stepper", "watched"])
def test_sizing_kernel_reads_no_free_variable(build):
    """The sizing kernel's closures take what they read as defaults, so
    each call reads fast locals and no closure cell."""
    assert build().__code__.co_freevars == ()


@pytest.mark.parametrize("build", [
    lambda control: slide_law(control.slide),
    lambda control: winch_law(control.winch),
    lambda control: outer_law(control.outer),
    lambda control: outer_zone(control.outer),
], ids=["slide", "winch", "outer", "zone"])
def test_controller_laws_read_no_free_variable(build):
    """The controller laws, called every control step and about a million
    times by validate, take their constants as defaults too."""
    assert build(default_control_params()).__code__.co_freevars == ()


def test_outer_law_returns_a_bare_float():
    """The outer step returns the reference alone, in every zone; the
    zone comes from outer_zone."""
    outer = default_control_params().outer
    step, zone = outer_law(outer), outer_zone(outer)
    compressions = (0.0, 0.075, 0.35)
    assert [zone(c) for c in compressions] == ["a", "b", "c"]
    assert [type(step(0.0, c)) for c in compressions] == [float] * 3


@pytest.fixture(scope="module")
def release_trace():
    params = default_system_params()
    init = initial_state(default_sizing_config(), params.winch)
    return simulate(params, init, limits()), params


class TestSimulate:

    def test_rejects_bad_limits(self):
        # simulate takes its limits from the record, which checks them.
        with pytest.raises(ValueError, match="max_time"):
            limits(1e-4, max_time=0.0)
        with pytest.raises(ValueError, match="max_time must be finite"):
            limits(1e-4, max_time=math.inf)
        with pytest.raises(ValueError, match="dt must be finite"):
            limits(math.inf, max_time=1.0)

    def test_spring_clamp_applied(self):
        # A carriage too heavy to feel its spring coasts at 10 m/s on a
        # slack line: one 0.1 s step carries it from 0.3 m to 1.3 m, which
        # a 0.35 m travel stops at its end. The line stays slack, so the
        # release never fires and the run is that one step.
        params = default_system_params()
        heavy = replace(params.spring, carriage_mass=1e9)
        state = DesignState(1.0, 0.0, 0.3, 10.0, 100.0, 0.0)
        out = simulate(replace(params, spring=replace(heavy, max_travel=0.35)),
                       state, limits(0.1, max_time=0.1))
        assert out.spring_pos[-1] == 0.35
        out = simulate(replace(params, spring=replace(heavy, max_travel=2.0)),
                       state, limits(0.1, max_time=0.1))
        assert out.spring_pos[-1] == pytest.approx(1.3)

    def test_transient_shape(self, release_trace):
        # Tension rises from zero, slows the aircraft, then releases.
        trace, params = release_trace
        assert trace.force[0] < 1e-9
        assert np.asarray(trace.force).max() > 1.0
        assert np.asarray(trace.vel).min() < trace.vel[0]
        assert not trace.result.timed_out

    def test_release_instant_condition(self, release_trace):
        trace, params = release_trace
        assert trace.force[-1] < 1e-6
        assert params.winch.radius * trace.winch_speed[-1] >= trace.vel[-1]
        assert (np.asarray(trace.force) > 1e-6).any()

    def test_release_instant_step_insensitive(self, release_trace):
        trace, params = release_trace
        init = initial_state(default_sizing_config(), params.winch)
        finer = simulate(params, init, limits(1e-5))
        assert abs(trace.times[-1] - finer.times[-1]) <= 1e-3

    def test_min_speed_step_convergence(self, release_trace):
        trace, params = release_trace
        init = initial_state(default_sizing_config(), params.winch)
        coarse = simulate(params, init, limits(1e-3))
        fine_min = np.asarray(trace.vel).min()
        rel = abs(np.asarray(coarse.vel).min() - fine_min) / fine_min
        assert rel < 0.005

    def test_uniform_grid(self, release_trace):
        trace, _ = release_trace
        steps = np.diff(np.asarray(trace.times))
        assert np.allclose(steps, 1e-4, rtol=1e-9, atol=0.0)
        assert len(trace.times) == len(trace.states)

    def test_columns_are_read_only_doubles(self, release_trace):
        # 8 bytes a value, as perfbench/worker.py counts a kept trace's
        # bytes from these four columns' nbytes.
        trace, _ = release_trace
        n = len(trace.times)
        assert trace.states.shape == (n, 6)
        for column, values in ((trace.times, n), (trace.states, 6 * n),
                               (trace.force, n), (trace.length, n)):
            assert column.format == "d" and column.readonly
            assert column.nbytes == 8 * values
        states = np.asarray(trace.states)
        for j, column in ((1, trace.vel), (2, trace.spring_pos),
                          (5, trace.winch_speed)):
            assert np.shares_memory(np.asarray(column), states)
            assert np.array_equal(np.asarray(column), states[:, j])

    def test_kept_run_triggers_no_collection(self):
        # A kept step holds floats alone, which the cyclic garbage
        # collector does not track, so thousands of steps start none.
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)
        collections = []

        def count(phase, info):
            collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            trace = simulate(params, init, limits())
        finally:
            gc.callbacks.remove(count)
        assert len(trace.times) > 3000
        assert collections == []

    def test_spring_stays_inside_travel(self):
        params = default_system_params()
        from dataclasses import replace
        tight = replace(params, spring=replace(params.spring, max_travel=0.05))
        init = initial_state(default_sizing_config(), tight.winch)
        trace = simulate(tight, init, limits())
        spring_pos = np.asarray(trace.spring_pos)
        assert spring_pos.min() >= 0.0
        assert spring_pos.max() <= 0.05

    def test_no_deficit_times_out_without_force(self):
        params = default_system_params()
        sizing = SizingConfig(20.0, 10.0, 0.0, max_time=0.5)
        trace = simulate(params, initial_state(sizing, params.winch), sizing)
        assert trace.result.timed_out
        assert np.asarray(trace.force).max() < 1e-9

    def test_short_window_tags_timeout(self):
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)
        trace = simulate(params, init, limits(1e-4, max_time=0.05))
        assert trace.result.timed_out
        assert trace.times[-1] == pytest.approx(0.05, abs=1e-4)

    def test_bit_identical_across_runs_and_threads(self):
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)

        def run(_):
            return simulate(params, init, limits())

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(run, range(2))
        assert np.array_equal(np.asarray(first.states),
                              np.asarray(second.states))
        assert np.array_equal(np.asarray(first.force),
                              np.asarray(second.force))
        assert np.array_equal(np.asarray(first.length),
                              np.asarray(second.length))


def reference_simulate(params, init, dt, max_time,
                       force_tol=DEFAULT_FORCE_TOL):
    """simulate written as the generic loop: rk4_step on DesignState,
    design_derivatives, then clamp_spring_travel; tension recomputed from
    tether_stiffness and the deployed length written out."""

    def force_and_length(state):
        length = (params.winch.radius * state.winch_angle
                  + 2.0 * state.spring_pos)
        stiffness = tether_stiffness(params.tether, length)
        return max(0.0, stiffness * (state.pos - length)), length

    state = init
    force, length = force_and_length(state)
    rows, forces, lengths = [state], [force], [length]
    force_seen = force > force_tol
    fired = False
    for _ in range(int(math.ceil(max_time / dt - 1e-9))):
        state = rk4_step(lambda s: design_derivatives(s, params), state, dt)
        spring_pos, spring_vel = clamp_spring_travel(
            state.spring_pos, state.spring_vel, params.spring.max_travel)
        state = state._replace(spring_pos=spring_pos, spring_vel=spring_vel)
        force, length = force_and_length(state)
        rows.append(state)
        forces.append(force)
        lengths.append(length)
        if force > force_tol:
            force_seen = True
        elif (force_seen and params.winch.radius * state.winch_speed
              >= state.vel):
            fired = True
            break
    return (np.array(rows), np.array(forces), np.array(lengths), not fired)


class TestSimulateMatchesReference:
    """The flat stepper gives the generic RK4 loop's results bit for bit."""

    @staticmethod
    def assert_same(params, init, dt, max_time):
        trace = simulate(params, init, limits(dt, max_time))
        states, force, length, timed_out = reference_simulate(
            params, init, dt, max_time)
        assert np.array_equal(np.asarray(trace.states), states)
        assert np.array_equal(np.asarray(trace.force), force)
        assert np.array_equal(np.asarray(trace.length), length)
        assert trace.result.timed_out == timed_out
        assert trace.loaded == bool((force > DEFAULT_FORCE_TOL).any())
        return trace

    @pytest.mark.parametrize("travel", [0.05, 0.2, 0.35])
    def test_reference_travels(self, travel):
        params = default_system_params()
        params = replace(params, spring=replace(params.spring,
                                                max_travel=travel))
        init = initial_state(default_sizing_config(), params.winch)
        self.assert_same(params, init, 1e-4, max_time=10.0)

    def test_max_time_stop(self):
        # The release comes later than 0.05 s, so the time limit ends it.
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)
        trace = self.assert_same(params, init, 1e-4, max_time=0.05)
        assert len(trace.times) == 501

    def test_endstop_clamp(self):
        # The short travel runs into its end stop and is clamped there.
        params = default_system_params()
        params = replace(params, spring=replace(params.spring,
                                                max_travel=0.02))
        init = initial_state(default_sizing_config(), params.winch)
        trace = self.assert_same(params, init, 1e-4, max_time=10.0)
        assert (np.asarray(trace.spring_pos) == 0.02).any()

    def test_same_error_when_non_finite(self):
        params = default_system_params()
        params = replace(params, spring=replace(
            params.spring, endstop_gain=1e300, free_friction=1e10))
        init = initial_state(default_sizing_config(), params.winch)
        with pytest.raises(IntegrationError) as flat:
            simulate(params, init, limits())
        with pytest.raises(IntegrationError) as generic:
            reference_simulate(params, init, 1e-4, 10.0)
        assert str(flat.value) == str(generic.value)
        assert str(flat.value).startswith(
            "non-finite state component in DesignState(")
