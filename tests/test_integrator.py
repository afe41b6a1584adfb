"""Integrator tests: accuracy on a known system, the sizing run's fused
step and the take-off's fused control step against the generic step, the
binding of the kernels and of the controller laws, and the generated
kernels' tracebacks; and the sizing run built on the kernel: its release
stop, trace bookkeeping, and determinism."""

import gc
import math
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherlaunch import takeoff
from tetherlaunch.config import load_config
from tetherlaunch.controller import (
    default_control_params,
    outer_law,
    outer_zone,
    slide_law,
    winch_law,
)
from tetherlaunch.integrator import IntegrationError, rk4_step
from tetherlaunch.model import (
    DesignState,
    airborne_plant,
    clamp_spring_travel,
    default_system_params,
    design_derivatives,
    plant_constants,
    tether_stiffness,
)
from tetherlaunch.spring_design import (
    DEFAULT_FORCE_TOL,
    SizingConfig,
    _Crossing,
    _sizing_stepper,
    default_sizing_config,
    initial_state,
    simulate,
)
from tetherlaunch.takeoff import (
    _control_stepper,
    default_takeoff_config,
    run_takeoff,
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


def reference_sizing_step(derivs, y, a, dt, level, limit):
    """The fused sizing step written as its parts: rk4_step over `derivs`
    with `a` as its first stage, raising _Crossing before a stage 2-4
    whose compression exceeds `level`, then the clamp at `limit`, then
    `derivs` at the new state."""
    stages = []

    def stage(state):
        if not stages:
            stages.append(state)
            return a
        if state.spring_pos > level:
            raise _Crossing(state.spring_pos)
        return derivs(*state)[:6]

    out = rk4_step(stage, DesignState(*y), dt)
    spring_pos, spring_vel = clamp_spring_travel(out.spring_pos,
                                                 out.spring_vel, limit)
    out = out._replace(spring_pos=spring_pos, spring_vel=spring_vel)
    return (*out, *derivs(*out))


def step_outcome(step):
    """What step() gives: its values as float.hex, or the exception it
    raises, by type and text (a crossing by its compression)."""
    try:
        return [float.hex(value) for value in step()]
    except _Crossing as crossing:
        (reached,) = crossing.args
        return "_Crossing", float.hex(reached)
    except (IntegrationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestSizingStep:
    """The sizing run's fused step against the composition it replaces."""

    @staticmethod
    def outcomes(y, dt=1e-4, level=math.inf, travel=0.35, stiffness=70.0,
                 a=None):
        params = default_system_params()
        params = replace(params, spring=replace(
            params.spring, max_travel=travel, stiffness=stiffness))
        derivs = airborne_plant(params, params.winch.max_torque)
        if a is None:
            a = derivs(*y)[:6]
        fused = step_outcome(
            lambda: _sizing_stepper(params, dt)(*y, *a, level))
        reference = step_outcome(
            lambda: reference_sizing_step(derivs, y, a, dt, level, travel))
        return fused, reference

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(pos=st.floats(5.0, 40.0), vel=st.floats(0.0, 20.0),
           spring_pos=st.floats(0.0, 0.35), spring_vel=st.floats(-3.0, 3.0),
           stretch=st.floats(-0.05, 0.5), winch_speed=st.floats(0.0, 200.0),
           stiffness=st.floats(10.0, 5e3), dt=st.floats(1e-6, 1e-3),
           travel=st.floats(0.05, 0.35),
           gap=st.one_of(st.none(), st.floats(-1e-3, 1e-3)))
    def test_matches_rk4_step_clamp_and_plant(self, pos, vel, spring_pos,
                                              spring_vel, stretch,
                                              winch_speed, stiffness, dt,
                                              travel, gap):
        """From a drawn state, bit for bit or by the same exception. `gap`
        puts the watched level near the compression (None: no level);
        `stretch` is the position minus the deployed line."""
        winch_angle = (pos - stretch - 2.0 * spring_pos) / 0.1
        y = (pos, vel, spring_pos, spring_vel, winch_angle, winch_speed)
        level = math.inf if gap is None else spring_pos + gap
        fused, reference = self.outcomes(y, dt, level, travel, stiffness)
        assert fused == reference

    # At the compression 0.2 with the carriage moving at 1 m/s, the stage
    # compressions at dt = 1e-4 are about 0.2 + 5e-5 (stages 2 and 3) and
    # 0.2 + 1e-4 (stage 4).
    @pytest.mark.parametrize("level, stage", [(0.2, 2), (0.2 + 7.5e-5, 4)],
                             ids=["stage-2", "stage-4"])
    def test_a_crossing_stage_takes_no_step(self, level, stage):
        y = (20.0, 10.0, 0.2, 1.0, 196.0, 60.0)
        fused, reference = self.outcomes(y, level=level)
        assert fused == reference
        name, reached = fused
        reached = float.fromhex(reached)
        assert name == "_Crossing" and reached > level
        assert (stage == 2) == (reached < 0.2 + 7.5e-5)

    def test_a_non_finite_update_is_an_integration_error(self):
        """The winch angle's update overflows to -inf, where the plant
        would raise its tether-length ValueError; the finite check comes
        first, as in the run."""
        y = (20.0, 10.0, 0.1, 0.0, 1e305, -1e308)
        fused, reference = self.outcomes(y)
        assert fused == reference
        assert fused[0] == "IntegrationError"
        assert fused[1].startswith("non-finite state component in "
                                   "DesignState(")

    # 0.1 m of line out, reeled in fast enough that stage 2 (first stage
    # the drum speed) or stage 4 (first stage at rest) has none left.
    @pytest.mark.parametrize("winch_speed, a", [
        (-1e5, None), (-1.5e4, (0.0,) * 6),
    ], ids=["stage-2", "stage-4"])
    def test_a_deployed_length_at_or_below_zero(self, winch_speed, a):
        y = (1.0, 0.0, 0.0, 0.0, 1.0, winch_speed)
        fused, reference = self.outcomes(y, a=a)
        assert fused == reference
        assert fused[0] == "ValueError"
        assert fused[1].startswith("tether length must be > 0 (got ")


def reference_slide_plant(system, torque, u_slide, slack, climb_angle_deg):
    """The take-off's slide plant as a closure, as run_takeoff had it
    before the fused control step: the slide train under the slide
    torque `u_slide`, on the line, carriage and winch of the airborne
    plant under the winch torque `torque`, whose aircraft acceleration
    the train's replaces."""
    slide = system.slide
    drum_radius = slide.drum_radius
    slide_inertia_full = slide.equivalent_mass * drum_radius ** 2
    in_flight = airborne_plant(system, torque, slack, climb_angle_deg)
    constants = plant_constants(system)
    thrust, drag_factor = constants["thrust"], constants["drag_factor"]

    def on_slide(slide_angle, slide_speed, spring_pos, spring_vel,
                 winch_angle, winch_speed):
        speed = drum_radius * slide_speed
        _, _, _, spring_accel, _, winch_accel, force, length = in_flight(
            drum_radius * slide_angle, speed, spring_pos, spring_vel,
            winch_angle, winch_speed)
        train_force = (u_slide / drum_radius + thrust
                       - drag_factor * speed * speed - force
                       - slide.rot_friction * slide_speed / drum_radius)
        return (slide_speed, train_force * drum_radius / slide_inertia_full,
                spring_vel, spring_accel, winch_speed, winch_accel, force,
                length)

    return on_slide


class SlideState(NamedTuple):
    angle: float  # slide drum angle [rad]
    speed: float  # slide drum speed [rad/s]


def reference_control_step(cfg, system, substeps, y, slide_angle,
                           slide_speed, u_slide, torque, flying):
    """The fused control step written as its parts: each substep is
    rk4_step over the airborne plant in flight, or over the slide plant
    on the slide, then, in flight, rk4_step over the empty slide, the
    clamp and, on the slide, the lift-off test. A non-finite state is an
    IntegrationError naming the phase alone."""
    slide = system.slide
    drum_radius = slide.drum_radius
    empty_inertia = ((slide.equivalent_mass - system.aircraft.mass)
                     * drum_radius ** 2)
    in_flight = airborne_plant(system, torque, cfg.initial_slack,
                               cfg.climb_angle_deg)
    on_slide = reference_slide_plant(system, torque, u_slide,
                                     cfg.initial_slack, cfg.climb_angle_deg)

    def empty_slide(state):
        return (state.speed,
                (u_slide - slide.rot_friction * state.speed) / empty_inertia)

    state = DesignState(*y)
    lifted, distance = None, 0.0
    for j in range(substeps):
        plant, phase = ((in_flight, "airborne") if flying
                        else (on_slide, "on_slide"))
        if not j:
            force, deployed = plant(*state)[6:]
        try:
            state = rk4_step(lambda s: plant(*s)[:6], state, cfg.dt)
            if flying:
                slide_angle, slide_speed = rk4_step(
                    empty_slide, SlideState(slide_angle, slide_speed),
                    cfg.dt)
        except IntegrationError:
            raise IntegrationError(
                f"non-finite state component in {phase} state") from None
        if not flying:
            slide_angle, slide_speed = state.pos, state.vel
        spring_pos, spring_vel = clamp_spring_travel(
            state.spring_pos, state.spring_vel, system.spring.max_travel)
        state = state._replace(spring_pos=spring_pos, spring_vel=spring_vel)
        if not flying and drum_radius * slide_speed >= cfg.takeoff_speed:
            flying, lifted = True, j
            distance = drum_radius * slide_angle
            state = state._replace(pos=distance,
                                   vel=drum_radius * slide_speed)
    return (*state, slide_angle, slide_speed, deployed, force, lifted,
            distance)


def control_step_outcome(step):
    """What step() gives: its floats as float.hex and the lift-off
    substep as is, or the exception it raises by type and text, a
    non-finite state's text up to the state itself."""
    try:
        return [float.hex(value) if isinstance(value, float) else value
                for value in step()]
    except IntegrationError as exc:
        return "IntegrationError", str(exc).partition(" {")[0]
    except ValueError as exc:
        return "ValueError", str(exc)


class TestTakeoffStep:
    """The take-off's fused control step against the composition it
    replaces."""

    @staticmethod
    def outcomes(y, slide=(0.0, 0.0), torques=(0.0, 0.0), flying=True,
                 substeps=10, **changes):
        system = default_system_params()
        cfg = replace(default_takeoff_config(), **changes)
        args = (*y, *slide, *torques, flying)
        fused = control_step_outcome(
            lambda: _control_stepper(cfg, system, substeps)(*args))
        reference = control_step_outcome(
            lambda: reference_control_step(cfg, system, substeps, y, *slide,
                                           *torques, flying))
        return fused, reference

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(flying=st.booleans(), x=st.floats(0.0, 40.0),
           v=st.floats(0.0, 20.0), gap=st.floats(-0.05, 0.002),
           spring_pos=st.floats(0.0, 0.35), spring_vel=st.floats(-5.0, 5.0),
           stretch=st.floats(-0.5, 0.01), winch_speed=st.floats(-50.0, 200.0),
           slide_angle=st.floats(0.0, 48.0), slide_speed=st.floats(-5.0, 100.0),
           u_slide=st.floats(-26.0, 26.0), u_winch=st.floats(-13.0, 13.0),
           slack=st.floats(0.2, 2.0), climb=st.floats(0.0, 60.0),
           takeoff_speed=st.floats(7.5, 10.0), dt=st.floats(1e-5, 1e-3),
           substeps=st.integers(1, 10))
    def test_matches_rk4_step_clamp_and_liftoff(
            self, flying, x, v, gap, spring_pos, spring_vel, stretch,
            winch_speed, slide_angle, slide_speed, u_slide, u_winch, slack,
            climb, takeoff_speed, dt, substeps):
        """From a drawn state, bit for bit or by the same exception. In
        flight (x, v) is the path position and speed; on the slide it is
        the drum angle, and the drum speed is `gap` from take-off speed,
        so that some draws lift off within the control step. `stretch` is
        the position minus the deployed line."""
        radius = default_system_params().slide.drum_radius
        if not flying:
            x, v = x / 10.0 / radius, (takeoff_speed + gap) / radius
            slide_angle, slide_speed = x, v
        pos = x if flying else radius * x
        winch_angle = (pos - stretch - 2.0 * spring_pos - slack) / 0.1
        y = (x, v, spring_pos, spring_vel, winch_angle, winch_speed)
        fused, reference = self.outcomes(
            y, (slide_angle, slide_speed), (u_slide, u_winch), flying,
            substeps, initial_slack=slack, climb_angle_deg=climb,
            takeoff_speed=takeoff_speed, dt=dt)
        assert fused == reference

    @pytest.mark.parametrize("takeoff_speed, substep", [
        (9.0, 0), (8.0, 1), (8.6, 8), (8.02, 9),
    ])
    def test_the_runs_liftoff_steps(self, monkeypatch, takeoff_speed,
                                    substep):
        """The control step on which a run lifts off, from that run's
        own inputs: at 8.02 m/s on its last substep, so that no substep
        of it flies."""
        config = load_config(None)
        cfg = replace(config.takeoff, takeoff_speed=takeoff_speed)
        steps = []
        build = takeoff._control_stepper

        def recording(*built):
            control_step = build(*built)

            def recorded(*args):
                out = control_step(*args)
                if out[10] is not None:
                    steps.append((built, args))
                return out

            return recorded

        monkeypatch.setattr(takeoff, "_control_stepper", recording)
        run_takeoff(cfg, config.system, config.control)
        ((cfg, system, substeps), args), = steps
        fused = control_step_outcome(
            lambda: _control_stepper(cfg, system, substeps)(*args))
        reference = control_step_outcome(
            lambda: reference_control_step(cfg, system, substeps, args[:6],
                                           *args[6:]))
        assert fused == reference
        assert fused[10] == substep

    @pytest.mark.parametrize("flying, phase", [
        (False, "on_slide"), (True, "airborne"),
    ], ids=["on_slide", "airborne"])
    def test_a_non_finite_update_is_an_integration_error(self, flying,
                                                          phase):
        """The winch angle's update overflows to -inf."""
        y = (20.0, 10.0, 0.1, 0.0, 1e305, -1e308)
        fused, reference = self.outcomes(y, flying=flying)
        assert fused == reference == (
            "IntegrationError", f"non-finite state component in {phase} "
            "state")

    @pytest.mark.parametrize("flying", [False, True],
                             ids=["on_slide", "airborne"])
    def test_a_deployed_length_at_or_below_zero(self, flying):
        y = (1.0, 0.0, 0.0, 0.0, -10.0, 0.0)  # 1 m of slack, reeled in
        fused, reference = self.outcomes(y, flying=flying)
        assert fused == reference
        assert fused[0] == "ValueError"
        assert fused[1].startswith("tether length must be > 0 (got ")


@pytest.mark.parametrize("kernel, filename", [
    (lambda params: airborne_plant(params, 0.0),
     "<tetherlaunch generated>/model.py"),
    (lambda params: lambda *y: _sizing_stepper(params, 1e-4)(
        *y, *(0.0,) * 6, math.inf),
     "<tetherlaunch generated>/spring_design.py"),
    (lambda params: lambda *y: _control_stepper(
        default_takeoff_config(), params, 10)(*y, 0.0, 0.0, 0.0, 0.0, True),
     "<tetherlaunch generated>/takeoff.py"),
], ids=["plant", "sizing-step", "control-step"])
def test_tracebacks_show_the_generated_lines(kernel, filename):
    """Each kernel is compiled under a file name of its own whose text
    linecache holds, so a traceback shows the line that raised. The
    plant keeps the name derivs. The take-off's line starts with its 1 m
    of slack."""
    state = (1.0, 0.0, 0.0, 0.0, -10.0, 0.0)  # no line deployed
    with pytest.raises(ValueError) as raised:
        kernel(default_system_params())(*state)
    frame = traceback.extract_tb(raised.value.__traceback__)[-1]
    assert frame.filename == filename
    assert frame.name == {"model.py": "derivs",
                          "spring_design.py": "sizing_step",
                          "takeoff.py": "control_step"}[
        filename.rpartition("/")[2]]
    assert frame.line == ('raise ValueError(f"tether length must be > 0 '
                          '(got {deployed})")')


def _sizing_plant():
    params = default_system_params()
    return airborne_plant(params, params.winch.max_torque)


@pytest.mark.parametrize("build", [
    _sizing_plant,
    lambda: _sizing_stepper(default_system_params(), 1e-4),
    lambda: _control_stepper(default_takeoff_config(),
                             default_system_params(), 10),
], ids=["plant", "sizing-step", "control-step"])
def test_sizing_kernel_reads_no_free_variable(build):
    """The kernels' functions (the sizing run's and the take-off's) take
    what they read as defaults, so each call reads fast locals and no
    closure cell; and no default is a list or a dict, so a kernel shares
    no mutable state with its caller: the take-off passes its winch
    torque as an argument."""
    function = build()
    assert function.__code__.co_freevars == ()
    assert not [value for value in function.__defaults__
                if isinstance(value, (list, dict))]


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
        assert params.winch.radius * trace.column(5)[-1] >= trace.vel[-1]
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
                          (5, trace.column(5))):
            assert np.shares_memory(np.asarray(column), states)
            assert np.array_equal(np.asarray(column), states[:, j])

    def test_kept_run_triggers_no_collection(self):
        # A kept step is written as C doubles, which the cyclic garbage
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
    """The sizing run gives the generic RK4 loop's results bit for bit."""

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
