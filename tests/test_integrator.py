"""Integrator tests: accuracy on a known system; and the sizing run built
on it: its release stop, trace bookkeeping, and determinism."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from tetherlaunch.integrator import IntegrationError, rk4_step
from tetherlaunch.model import (
    DesignState,
    clamp_spring_travel,
    default_system_params,
    design_derivatives,
    tether_stiffness,
)
from tetherlaunch.spring_design import (
    DEFAULT_FORCE_TOL,
    SizingConfig,
    default_sizing_config,
    initial_state,
    simulate,
)


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


@pytest.fixture(scope="module")
def release_trace():
    params = default_system_params()
    init = initial_state(default_sizing_config(), params.winch)
    return simulate(params, init, 1e-4, max_time=10.0), params


class TestSimulate:

    def test_rejects_bad_limits(self):
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)
        with pytest.raises(ValueError, match="max_time"):
            simulate(params, init, 1e-4, max_time=0.0)
        with pytest.raises(ValueError, match="max_time must be finite"):
            simulate(params, init, 1e-4, max_time=math.inf)
        with pytest.raises(ValueError, match="dt must be finite"):
            simulate(params, init, math.inf, max_time=1.0)

    def test_spring_clamp_applied(self):
        # A carriage too heavy to feel its spring coasts at 10 m/s on a
        # slack line: one 0.1 s step carries it from 0.3 m to 1.3 m, which
        # a 0.35 m travel stops at its end. The line stays slack, so the
        # release never fires and the run is that one step.
        params = default_system_params()
        heavy = replace(params.spring, carriage_mass=1e9)
        state = DesignState(1.0, 0.0, 0.3, 10.0, 100.0, 0.0)
        out = simulate(replace(params, spring=replace(heavy, max_travel=0.35)),
                       state, 0.1, max_time=0.1)
        assert out.spring_pos[-1] == 0.35
        out = simulate(replace(params, spring=replace(heavy, max_travel=2.0)),
                       state, 0.1, max_time=0.1)
        assert out.spring_pos[-1] == pytest.approx(1.3)

    def test_transient_shape(self, release_trace):
        # Tension rises from zero, slows the aircraft, then releases.
        trace, params = release_trace
        assert trace.force[0] < 1e-9
        assert trace.force.max() > 1.0
        assert trace.vel.min() < trace.vel[0]
        assert not trace.timed_out

    def test_release_instant_condition(self, release_trace):
        trace, params = release_trace
        assert trace.force[-1] < 1e-6
        assert params.winch.radius * trace.winch_speed[-1] >= trace.vel[-1]
        assert (trace.force > 1e-6).any()

    def test_release_instant_step_insensitive(self, release_trace):
        trace, params = release_trace
        init = initial_state(default_sizing_config(), params.winch)
        finer = simulate(params, init, 1e-5, max_time=10.0)
        assert abs(trace.times[-1] - finer.times[-1]) <= 1e-3

    def test_min_speed_step_convergence(self, release_trace):
        trace, params = release_trace
        init = initial_state(default_sizing_config(), params.winch)
        coarse = simulate(params, init, 1e-3, max_time=10.0)
        rel = abs(coarse.vel.min() - trace.vel.min()) / trace.vel.min()
        assert rel < 0.005

    def test_uniform_grid(self, release_trace):
        trace, _ = release_trace
        steps = np.diff(trace.times)
        assert np.allclose(steps, 1e-4, rtol=1e-9, atol=0.0)
        assert len(trace.times) == len(trace.states)

    def test_spring_stays_inside_travel(self):
        params = default_system_params()
        from dataclasses import replace
        tight = replace(params, spring=replace(params.spring, max_travel=0.05))
        init = initial_state(default_sizing_config(), tight.winch)
        trace = simulate(tight, init, 1e-4, max_time=10.0)
        assert trace.spring_pos.min() >= 0.0
        assert trace.spring_pos.max() <= 0.05

    def test_no_deficit_times_out_without_force(self):
        params = default_system_params()
        init = initial_state(SizingConfig(20.0, 10.0, 0.0), params.winch)
        trace = simulate(params, init, 1e-4, max_time=0.5)
        assert trace.timed_out
        assert trace.force.max() < 1e-9

    def test_short_window_tags_timeout(self):
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)
        trace = simulate(params, init, 1e-4, max_time=0.05)
        assert trace.timed_out
        assert trace.times[-1] == pytest.approx(0.05, abs=1e-4)

    def test_bit_identical_across_runs_and_threads(self):
        params = default_system_params()
        init = initial_state(default_sizing_config(), params.winch)

        def run(_):
            return simulate(params, init, 1e-4, max_time=10.0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(run, range(2))
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.force, second.force)
        assert np.array_equal(first.length, second.length)


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
        trace = simulate(params, init, dt, max_time)
        states, force, length, timed_out = reference_simulate(
            params, init, dt, max_time)
        assert np.array_equal(trace.states, states)
        assert np.array_equal(trace.force, force)
        assert np.array_equal(trace.length, length)
        assert trace.timed_out == timed_out
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
        assert (trace.spring_pos == 0.02).any()

    def test_same_error_when_non_finite(self):
        params = default_system_params()
        params = replace(params, spring=replace(
            params.spring, endstop_gain=1e300, free_friction=1e10))
        init = initial_state(default_sizing_config(), params.winch)
        with pytest.raises(IntegrationError) as flat:
            simulate(params, init, 1e-4, 10.0)
        with pytest.raises(IntegrationError) as generic:
            reference_simulate(params, init, 1e-4, 10.0)
        assert str(flat.value) == str(generic.value)
        assert str(flat.value).startswith(
            "non-finite state component in DesignState(")
