"""Unit tests of the launch model: parameter validation, element laws,
derivatives, and the structural coupling between the elements."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tetherlaunch.model import (
    AircraftParams,
    AmbientParams,
    DesignState,
    SlidePlantParams,
    SpringParams,
    TetherParams,
    WinchParams,
    airborne_plant,
    clamp_spring_travel,
    default_system_params,
    design_derivatives,
    line_length,
    spring_friction,
    tether_stiffness,
)
from tetherlaunch.spring_design import (
    SizingConfig,
    default_sizing_config,
    initial_state,
    simulate,
)


@pytest.fixture
def params():
    return default_system_params()


@pytest.fixture
def plant(params):
    """The airborne plant of the sizing study, under the torque in a
    one-element list to be given: its seventh value is the tether force."""
    return lambda torque: airborne_plant(params, [torque])


@pytest.fixture
def length(params):
    return line_length(params.winch)


def tension_on(plant, distance, length):
    """The line's tension with `length` deployed, all of it by the
    carriage (halving is exact, so the length is too)."""
    return plant(0.0)(distance, 0.0, length / 2.0, 0.0, 0.0, 0.0)[6]


class TestValidation:
    def test_aircraft_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="mass must be > 0"):
            AircraftParams(0.3, 0.05, 0.0, 10.0, 7.0)

    def test_tether_elongation_bounds(self):
        with pytest.raises(ValueError, match="breaking_elongation"):
            TetherParams(4500.0, 1.5)
        with pytest.raises(ValueError, match="breaking_elongation"):
            TetherParams(4500.0, 0.0)

    def test_spring_margin_must_fit_travel(self):
        with pytest.raises(ValueError, match="endstop_margin"):
            SpringParams(70.0, 2.0, 1e-4, 1e6, 0.2, 0.35)

    def test_spring_endstop_gain_floor(self):
        with pytest.raises(ValueError, match="endstop_gain"):
            SpringParams(70.0, 2.0, 1e-4, 2.0, 0.001, 0.35)
        with pytest.raises(ValueError, match="endstop_gain must be >= 10"):
            SpringParams(70.0, 2.0, 1e-4, math.nan, 0.001, 0.35)

    def test_positive_fields_must_be_finite(self):
        with pytest.raises(ValueError, match="mass must be finite"):
            AircraftParams(0.3, 0.05, math.inf, 10.0, 7.0)
        with pytest.raises(ValueError, match=r"mass must be > 0 \(got -inf\)"):
            AircraftParams(0.3, 0.05, -math.inf, 10.0, 7.0)

    @pytest.mark.parametrize("friction", [-1e-4, math.nan])
    def test_spring_free_friction_floor(self, friction):
        with pytest.raises(ValueError, match="free_friction must be >= 0"):
            SpringParams(70.0, 2.0, friction, 1e6, 0.001, 0.35)

    def test_winch_slide_ambient_positive(self):
        with pytest.raises(ValueError, match="radius"):
            WinchParams(0.0, 13.0, 0.1, 0.01)
        with pytest.raises(ValueError, match="equivalent_mass"):
            SlidePlantParams(0.1, -1.0, 0.01)
        with pytest.raises(ValueError, match="air_density"):
            AmbientParams(0.0)

    def test_init_conditions_positive(self):
        with pytest.raises(ValueError, match="position"):
            SizingConfig(0.0, 10.0, 4.0)
        with pytest.raises(ValueError, match="max_time must be > 0"):
            SizingConfig(20.0, 10.0, 4.0, max_time=0.0)
        SizingConfig(20.0, 10.0, -1.0)  # negative deficit is allowed


class TestTetherStiffness:
    def test_reference_length(self, params):
        assert tether_stiffness(params.tether, 20.0) == pytest.approx(11250.0)

    def test_halves_when_length_doubles(self, params):
        assert tether_stiffness(params.tether, 40.0) == pytest.approx(5625.0)

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_degenerate_length(self, params, length):
        with pytest.raises(ValueError, match="tether length"):
            tether_stiffness(params.tether, length)

    def test_strictly_decreasing_in_length(self, params):
        lengths = np.linspace(0.5, 200.0, 100)
        values = [tether_stiffness(params.tether, l) for l in lengths]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestTetherForce:
    def test_slack_line_cannot_push(self, plant):
        assert tension_on(plant, 19.0, 20.0) == 0.0

    def test_zero_elongation(self, plant):
        assert tension_on(plant, 20.0, 20.0) == 0.0

    def test_taut_line(self, plant):
        # 4500 / (0.02 * 20) * 0.1 = 1125 N
        force = tension_on(plant, 20.1, 20.0)
        assert force == pytest.approx(1125.0, rel=1e-12)

    def test_never_negative(self, plant):
        for pos in np.linspace(0.1, 40.0, 50):
            assert tension_on(plant, pos, 20.0) >= 0.0


class TestLineModel:
    """The plant's line, carriage and winch agree bit for bit with the
    element laws: its force at [6], carriage and drum accelerations at
    [3] and [5]."""

    def test_tension_is_stiffness_times_elongation(self, params, plant):
        for length in (0.5, 20.0, 20.7, 150.0):
            for distance in np.linspace(0.1, 1.01 * length, 25):
                stiffness = tether_stiffness(params.tether, length)
                assert tension_on(plant, distance, length) == max(
                    0.0, stiffness * (distance - length))

    def test_tension_is_the_force_of_dynamics(self, plant):
        # The tension a take-off logs, with no torque and at rest, is the
        # force of the evaluation it steps with.
        for spring_pos in (0.0, 0.1, 0.35):
            for distance in (19.0, 20.5, 20.75):
                force = plant(13.0)(distance, 8.0, spring_pos, 0.5, 200.0,
                                    60.0)[6]
                assert plant(0.0)(distance, 0.0, spring_pos, 0.0, 200.0,
                                  0.0)[6] == force

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_degenerate_length(self, plant, length):
        with pytest.raises(ValueError, match="tether length"):
            tension_on(plant, 20.0, length)
        with pytest.raises(ValueError, match="tether length"):
            plant(13.0)(20.0, 8.0, length / 2.0, 0.5, 0.0, 60.0)

    def test_carriage_uses_spring_friction(self, params, plant):
        spring = params.spring
        for spring_pos in (0.0, 0.0005, 0.001, 0.1, 0.349, 0.3495, 0.35):
            for spring_vel in (-0.5, -0.0, 0.0, 0.5):
                friction = spring_friction(spring, spring_pos, spring_vel)
                d = plant(13.0)(20.75, 8.0, spring_pos, spring_vel, 200.0,
                                60.0)
                force, carriage_accel = d[6], d[3]
                assert force > 0.0
                assert carriage_accel == (
                    (2.0 * force - friction * spring_vel
                     - spring.stiffness * spring_pos) / spring.carriage_mass)

    def test_winch_torque_and_pull_add(self, plant):
        d = plant(13.0)(20.75, 8.0, 0.1, 0.0, 200.0, 60.0)
        force, winch_accel = d[6], d[5]
        assert force > 0.0
        assert winch_accel == (13.0 + 0.1 * force - 0.01 * 60.0) / 0.1
        d = plant(-13.0)(19.0, 8.0, 0.0, 0.0, 200.0, 0.0)
        assert (d[6], d[5]) == (0.0, -130.0)


class TestEffectiveLength:
    """The deployed length: slack, drum payout and twice the compression."""

    def test_spring_at_rest(self, length):
        assert length(200.0, 0.0) == pytest.approx(20.0)

    def test_compression_doubles(self, length):
        assert length(200.0, 0.35) == pytest.approx(20.7)

    def test_zero(self, length):
        assert length(0.0, 0.0) == 0.0

    def test_slack_adds(self, params):
        assert line_length(params.winch, 1.0)(200.0, 0.35) == pytest.approx(
            21.7)
        slack = airborne_plant(params, [0.0], 1.0)
        assert slack(21.7, 0.0, 0.35, 0.0, 200.0, 0.0)[6] == pytest.approx(
            0.0, abs=1e-9)

    def test_numpy_columns_match_floats(self, params):
        slack = 0.7
        length = line_length(params.winch, slack)
        rng = np.random.default_rng(7)
        winch_angle = rng.uniform(-10.0, 400.0, 1000)
        spring_pos = rng.uniform(0.0, 0.35, 1000)
        column = length(winch_angle, spring_pos)
        floats = [slack + params.winch.radius * a + 2.0 * x
                  for a, x in zip(winch_angle.tolist(), spring_pos.tolist())]
        assert column.tobytes() == np.array(floats).tobytes()


class TestSpringFriction:
    def test_free_zone(self, params):
        assert spring_friction(params.spring, 0.1, 5.0) == pytest.approx(1e-4)
        assert spring_friction(params.spring, 0.1, -5.0) == pytest.approx(1e-4)

    def test_lower_stop_moving_in(self, params):
        value = spring_friction(params.spring, 0.0005, -0.1)
        assert value == pytest.approx(100.0, rel=1e-12)

    def test_lower_stop_moving_away(self, params):
        assert spring_friction(params.spring, 0.0005, 0.1) == pytest.approx(1e-4)

    def test_upper_stop_moving_in(self, params):
        value = spring_friction(params.spring, 0.3499, 0.1)
        assert value == pytest.approx(100.0, rel=1e-12)

    def test_upper_stop_moving_away(self, params):
        assert spring_friction(params.spring, 0.3499, -0.1) == pytest.approx(1e-4)


class TestDerivatives:
    def test_slack_tether_from_rest(self, params):
        state = DesignState(19.0, 0.0, 0.0, 0.0, 200.0, 60.0)
        d = design_derivatives(state, params)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(10.0 / 1.2)        # thrust only
        assert d[3] == 0.0                               # spring untouched
        assert d[5] == pytest.approx((13.0 - 0.01 * 60.0) / 0.1)  # 124

    def test_thrust_drag_equilibrium(self, params):
        speed = math.sqrt(2.0 * 10.0 / (1.2 * 0.05 * 0.3))
        state = DesignState(19.0, speed, 0.0, 0.0, 200.0, 60.0)
        d = design_derivatives(state, params)
        assert d[1] == pytest.approx(0.0, abs=1e-9)

    def test_momentum_coupling(self, params):
        # The same tension decelerates the aircraft, drives the carriage
        # with the pulley doubling, and torques the winch outward.
        taut = DesignState(20.5, 8.0, 0.1, 0.0, 200.0, 60.0)
        slack = DesignState(19.0, 8.0, 0.1, 0.0, 200.0, 60.0)
        force = 4500.0 / (0.02 * 20.2) * (20.5 - 20.2)
        d_taut = design_derivatives(taut, params)
        d_slack = design_derivatives(slack, params)
        assert d_slack[1] - d_taut[1] == pytest.approx(force / 1.2, rel=1e-12)
        assert d_taut[3] - d_slack[3] == pytest.approx(2.0 * force / 2.0, rel=1e-12)
        assert d_taut[5] - d_slack[5] == pytest.approx(0.1 * force / 0.1, rel=1e-12)

    def test_deterministic(self, params):
        state = DesignState(20.5, 8.0, 0.1, -0.3, 200.0, 60.0)
        assert design_derivatives(state, params) == design_derivatives(state, params)

    def test_degenerate_length_propagates(self, params):
        state = DesignState(1.0, 1.0, 0.0, 0.0, -10.0, 0.0)
        with pytest.raises(ValueError, match="tether length"):
            design_derivatives(state, params)


class TestAirbornePlant:
    """One plant flies the sizing run and the climb after lift-off."""

    STATE = (20.5, 8.0, 0.1, -0.3, 200.0, 60.0)

    def test_sizing_case_is_design_derivatives(self, params):
        sizing = airborne_plant(params, [params.winch.max_torque])
        assert sizing(*self.STATE)[:6] == design_derivatives(
            DesignState(*self.STATE), params)

    def test_torque_only_moves_the_drum(self, params):
        torque = [13.0]
        plant = airborne_plant(params, torque)
        held = plant(*self.STATE)
        torque[0] = 0.0
        zero = plant(*self.STATE)
        assert held[:5] == zero[:5]
        assert held[5] - zero[5] == pytest.approx(13.0 / 0.1, rel=1e-12)

    def test_climb_pulls_gravity_along_the_path(self, params):
        level = airborne_plant(params, [0.0], 1.0)(*self.STATE)
        climb = airborne_plant(params, [0.0], 1.0, 30.0)(*self.STATE)
        assert level[1] - climb[1] == pytest.approx(9.81 * 0.5, rel=1e-12)
        assert level[2:] == climb[2:]

    def test_slack_lengthens_the_line(self, params):
        # 20.5 m of flight on 20.2 m of line is taut; 1 m of slack makes
        # it slack, leaving thrust and drag alone.
        slack = airborne_plant(params, [0.0], 1.0)(*self.STATE)
        assert slack[1] == pytest.approx((10.0 - 0.5 * 1.2 * 0.05 * 0.3
                                          * 64.0) / 1.2, rel=1e-12)
        assert slack[3] == pytest.approx((0.3 * 1e-4 - 70.0 * 0.1) / 2.0,
                                         rel=1e-12)


class TestInitialState:
    def test_reference_values(self, params):
        state = initial_state(default_sizing_config(), params.winch)
        assert state.pos == 20.0
        assert state.vel == 10.0
        assert state.spring_pos == 0.0 and state.spring_vel == 0.0
        assert state.winch_angle == pytest.approx(200.0)
        assert state.winch_speed == pytest.approx(60.0)

    @pytest.mark.parametrize("ic", [
        SizingConfig(20.0, 10.0, 4.0),
        SizingConfig(5.0, 8.0, 0.0),
        SizingConfig(33.3, 12.5, -2.0),
    ])
    def test_initial_force_is_zero(self, params, plant, ic):
        state = initial_state(ic, params.winch)
        # exact in real arithmetic; float roundoff leaves < 1e-9 N
        assert plant(params.winch.max_torque)(*state)[6] < 1e-9

    def test_no_deficit_no_force(self, params):
        ic = SizingConfig(20.0, 10.0, 0.0)
        trace = simulate(params, initial_state(ic, params.winch),
                         replace(ic, max_time=1.0))
        assert np.asarray(trace.force).max() < 1e-9


class TestSpringClamp:
    def test_inside_travel_untouched(self):
        assert clamp_spring_travel(0.1, -0.5, 0.35) == (0.1, -0.5)

    def test_below_zero(self):
        assert clamp_spring_travel(-0.01, -0.5, 0.35) == (0.0, 0.0)
        assert clamp_spring_travel(-0.01, 0.5, 0.35) == (0.0, 0.5)

    def test_beyond_travel(self):
        assert clamp_spring_travel(0.4, 0.5, 0.35) == (0.35, 0.0)
        assert clamp_spring_travel(0.4, -0.5, 0.35) == (0.35, -0.5)
