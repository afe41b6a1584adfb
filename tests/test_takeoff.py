"""Closed-loop take-off tests: launch timing, phase logic, power
accounting, and the failure paths."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tetherlaunch.controller import SlideGains
from tetherlaunch.integrator import IntegrationError
from tetherlaunch.takeoff import (
    TakeoffConfig,
    TakeoffError,
    default_takeoff_config,
    run_takeoff,
)


class TestConfigValidation:
    def test_travel_within_rails(self):
        with pytest.raises(ValueError, match="rail_length"):
            TakeoffConfig(5.0, 9.0, 30.0, 1.0, rail_length=4.8)

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="initial_slack"):
            TakeoffConfig(3.7, 9.0, 30.0, 0.0, 4.8)

    def test_climb_angle_range(self):
        with pytest.raises(ValueError, match="climb_angle"):
            TakeoffConfig(3.7, 9.0, 90.0, 1.0, 4.8)

    def test_infinite_duration(self):
        # Once an OverflowError inside run_takeoff.
        with pytest.raises(ValueError, match="duration must be finite"):
            replace(default_takeoff_config(), duration=math.inf)


class TestDefaultRun:
    def test_launch_timing(self, takeoff_default):
        result, _ = takeoff_default
        assert result.liftoff_time == pytest.approx(0.3801, abs=2e-3)
        assert result.liftoff_distance == pytest.approx(1.7211, abs=2e-2)
        assert result.liftoff_distance <= default_takeoff_config().slide_travel

    def test_phase_transition_is_monotone(self, takeoff_default):
        result, _ = takeoff_default
        phase = result.trace.phase
        first_airborne = np.argmax(phase == "airborne")
        assert (phase[:first_airborne] == "on_slide").all()
        assert (phase[first_airborne:] == "airborne").all()

    def test_aircraft_rides_the_slide_exactly(self, takeoff_default):
        result, _ = takeoff_default
        trace = result.trace
        on_slide = trace.phase == "on_slide"
        assert np.array_equal(trace.speed[on_slide],
                              0.1 * trace.slide_speed[on_slide])
        assert np.array_equal(trace.distance[on_slide],
                              0.1 * trace.slide_angle[on_slide])

    def test_spring_stays_inside_travel(self, takeoff_default, config):
        result, _ = takeoff_default
        assert result.trace.spring_pos.min() >= 0.0
        assert result.trace.spring_pos.max() <= config.system.spring.max_travel
        assert result.max_spring_compression <= config.system.spring.max_travel

    def test_force_never_negative(self, takeoff_default):
        result, _ = takeoff_default
        assert result.trace.tether_force.min() >= 0.0

    def test_peak_power_timing(self, takeoff_default):
        # The slide peak lands right around lift-off (the drive is still
        # saturated while the slide is fastest); the winch peak follows
        # during its catch-up.
        result, _ = takeoff_default
        trace = result.trace
        t_slide = trace.t[trace.slide_power.argmax()]
        t_winch = trace.t[trace.winch_power.argmax()]
        assert t_slide <= result.liftoff_time + 0.1
        assert t_winch <= result.liftoff_time + 1.0

    def test_ffwd_dominates_first_then_feedback(self, takeoff_default):
        result, _ = takeoff_default
        trace = result.trace
        dominated = (trace.ffwd_ref >= trace.fbck_ref) & (trace.slide_speed > 0.0)
        handover = np.flatnonzero(~dominated[1:])
        assert len(handover) > 0
        t_handover = trace.t[handover[0] + 1]
        assert 0.0 < t_handover < 1.0

    def test_launch_energy_accounting(self, takeoff_default, config):
        # Work of the slide motor plus the propeller covers the kinetic
        # energy in the 11.2 kg train at lift-off; the difference is the
        # friction, drag, and tether losses, which must not be negative.
        result, _ = takeoff_default
        trace = result.trace
        i_liftoff = np.searchsorted(trace.t, result.liftoff_time)
        work = np.trapezoid(trace.slide_power[:i_liftoff + 1],
                            trace.t[:i_liftoff + 1])
        thrust_work = (config.system.aircraft.max_thrust
                       * result.liftoff_distance)
        kinetic = (0.5 * config.system.slide.equivalent_mass
                   * config.takeoff.takeoff_speed ** 2)
        assert work + thrust_work >= kinetic

    def test_slack_identity(self, takeoff_default):
        result, _ = takeoff_default
        trace = result.trace
        assert np.array_equal(trace.slack,
                              trace.tether_length - trace.distance)

    def test_powers_match_logged_torques_and_speeds(self, takeoff_default):
        result, _ = takeoff_default
        trace = result.trace
        assert np.array_equal(trace.slide_power,
                              trace.slide_torque * trace.slide_speed)
        assert np.array_equal(trace.winch_power,
                              trace.winch_torque * trace.winch_speed)


class TestVariants:
    def test_without_ffwd_spring_reaches_reel_out_zone(self, config):
        # Feedback alone cannot coordinate the launch: the winch lags,
        # the buffer runs deep into the reel-out zone while still on the
        # slide, and take-off speed is never reached.
        control = replace(config.control,
                          outer=replace(config.control.outer, ffwd_gain=0.0))
        with pytest.raises(TakeoffError) as info:
            run_takeoff(config.takeoff, config.system, control)
        trace = info.value.trace
        assert trace is not None
        on_slide = trace.phase == "on_slide"
        assert "c" in set(trace.zone[on_slide])

    def test_tight_slack_flags_stall_risk(self, config):
        cfg = replace(config.takeoff, initial_slack=0.5)
        result = run_takeoff(cfg, config.system, config.control)
        assert result.stall_risk
        assert result.max_spring_compression == config.system.spring.max_travel

    def test_underdamped_slide_overruns_rails(self, config):
        soft = replace(config.control,
                       slide=SlideGains(position_gain=14.0, speed_gain=0.05,
                                        torque_limit=26.0))
        with pytest.raises(TakeoffError, match="overran"):
            run_takeoff(config.takeoff, config.system, soft)

    @pytest.mark.parametrize("part, field, value, phase, entry", [
        # Friction this large overflows the slide state before lift-off.
        ("slide", "rot_friction", 1e308, "on_slide", "'slide_angle': nan"),
        # A line this stiff only bites once the climb takes up the slack.
        ("tether", "breaking_load", 1e9, "airborne", "'path_pos': -inf"),
    ], ids=["on_slide", "airborne"])
    def test_blow_up_names_the_phase_state(self, config, part, field, value,
                                           phase, entry):
        params = replace(getattr(config.system, part), **{field: value})
        system = replace(config.system, **{part: params})
        with pytest.raises(IntegrationError,
                           match="^non-finite state component in "
                           + re.escape(f"{phase} state {{")) as info:
            run_takeoff(config.takeoff, system, config.control)
        assert entry in str(info.value)
        # The path states are named only once the aircraft flies.
        assert ("'path_pos'" in str(info.value)) == (phase == "airborne")

    def test_too_short_duration_errors(self, config):
        cfg = replace(config.takeoff, duration=0.2)
        with pytest.raises(TakeoffError, match="not reached"):
            run_takeoff(cfg, config.system, config.control)

    def test_substep_must_divide_sample_period(self, config):
        cfg = replace(config.takeoff, dt=3e-4)
        with pytest.raises(TakeoffError,
                           match="must divide controller.sample_period"):
            run_takeoff(cfg, config.system, config.control)

    def test_denormal_substep_cannot_divide_sample_period(self, config):
        # Within the step budget, but sample_period / dt overflows to inf.
        cfg = replace(config.takeoff, dt=1e-312, duration=1e-306)
        with pytest.raises(TakeoffError,
                           match="must divide controller.sample_period"):
            run_takeoff(cfg, config.system, config.control)

    def test_takeoff_speed_above_cruise_floor(self, config):
        cfg = replace(config.takeoff, takeoff_speed=6.0)
        with pytest.raises(TakeoffError, match="cruise"):
            run_takeoff(cfg, config.system, config.control)

    @pytest.mark.parametrize("section, key, value, message", [
        ("simulation", "takeoff_speed", 6.5,
         "simulation.takeoff_speed: must be > aircraft.min_cruise_speed "
         "(got 6.5 <= 7.0)"),
        ("slide", "equivalent_mass", 1.0,
         "slide.equivalent_mass: must be > aircraft.mass (got 1.0 <= 1.2)"),
        ("spring", "max_travel", 0.08,
         "controller.zone_high: must be < spring.max_travel "
         "(got 0.1 >= 0.08)"),
        ("spring", "max_travel", 0.1,
         "controller.zone_high: must be < spring.max_travel "
         "(got 0.1 >= 0.1)"),
        ("simulation", "dt", 3e-4,
         "simulation.dt: must divide controller.sample_period evenly "
         "(got 0.0003 and 0.001)"),
        ("simulation", "duration", 1e7,
         "simulation.duration / simulation.dt: must be <= 2000000 steps "
         "(got 1e+11)"),
    ], ids=["takeoff-speed", "slide-mass", "zone-high", "zone-high-equal",
            "dt", "step-budget"])
    def test_load_and_run_reject_alike(self, config, takeoff_rejection,
                                       section, key, value, message):
        # The takeoff command rejects the set-up as a config error with
        # the text run_takeoff raises, for a config file and for a
        # library caller's records alike.
        assert takeoff_rejection({section: {key: value}}) == message
        cfg, system = config.takeoff, config.system
        if section == "simulation":
            cfg = replace(cfg, **{key: value})
        else:
            part = replace(getattr(system, section), **{key: value})
            system = replace(system, **{section: part})
        with pytest.raises(TakeoffError) as ran:
            run_takeoff(cfg, system, config.control)
        assert str(ran.value) == message

    def test_deterministic_reruns(self, config, takeoff_default):
        result, _ = takeoff_default
        again = run_takeoff(config.takeoff, config.system, config.control)
        assert again.liftoff_time == result.liftoff_time
        assert np.array_equal(again.trace.tether_force,
                              result.trace.tether_force)
        assert np.array_equal(again.trace.winch_power,
                              result.trace.winch_power)
