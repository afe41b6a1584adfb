"""Closed-loop take-off tests: launch timing, phase logic, power
accounting, and the failure paths."""

import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tetherlaunch import takeoff
from tetherlaunch.cli import main
from tetherlaunch.config import load_config
from tetherlaunch.controller import SlideGains
from tetherlaunch.integrator import IntegrationError
from tetherlaunch.takeoff import (
    TakeoffConfig,
    TakeoffError,
    default_takeoff_config,
    run_takeoff,
)


def arrays(trace):
    """The trace's columns, and its slack (the tether length less the
    path distance, float by float), as numpy arrays by name."""
    return SimpleNamespace(
        slack=np.array([length - distance for length, distance
                        in zip(trace.tether_length, trace.distance)]),
        **{f.name: np.asarray(getattr(trace, f.name))
           for f in fields(trace)})


def liftoff_outputs(tmp_path, takeoff_speed):
    """The (control step, substep) of a take-off at `takeoff_speed`, and
    the SHA-256 of its trace CSV and summary JSON."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"simulation": {
        "takeoff_speed": takeoff_speed}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["takeoff", "--quiet", "--config", str(path),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "takeoff_summary.json").read_text(
        encoding="utf-8"))
    substeps = round(summary["sample_period"] / summary["dt"])
    return (divmod(round(summary["liftoff_time"] / summary["dt"]) - 1,
                   substeps),
            {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
             for name in ("takeoff_trace.csv", "takeoff_summary.json")})


def test_late_substep_liftoff_keeps_its_bytes(tmp_path):
    """The default run lifts off on substep 0 of its control step; at
    8.6 m/s it lifts off at 0.3629 s, on substep 8 of 10. The trace CSV
    and the summary JSON keep the bytes they had before the slide and
    flight plants shared one state vector, so the switch between them is
    checked at a second substep position."""
    assert liftoff_outputs(tmp_path, 8.6) == ((362, 8), {
        "takeoff_trace.csv":
            "89d4687e701054edc41ff375eb488fb86bae571665215b1c45f1fe9e9d680e50",
        "takeoff_summary.json":
            "8a6222b096c1578d979ad50d8f53780f7e1bcff5b28be1695553c4b87dfb36ca",
    })


def test_last_substep_liftoff_keeps_its_bytes(tmp_path):
    """At 8.02 m/s the slide lifts off on substep 9 of 10, the last, so
    the control step that lifts off leaves no substep to fly and the next
    one starts in flight. The trace CSV and the summary JSON keep the
    bytes they had while each substep was a stepper call."""
    assert liftoff_outputs(tmp_path, 8.02) == ((337, 9), {
        "takeoff_trace.csv":
            "f04f3f718546b36691c47a6c6b58841e5b8d7c52065f44745f8e98d04abdab48",
        "takeoff_summary.json":
            "ba44bc3c6e1be5251b409a3b4a64f01a776efd7973329cefcdca5df9d60ca753",
    })


def test_no_function_runs_per_substep(config):
    """The default run takes 3,000 control steps of 10 substeps, each
    control step one call of the fused control step (see
    takeoff._control_stepper), which runs its substeps' stages, RK4
    updates, checks and clamps inline. So no function is called more
    than 3,001 times, where the stepper's step, the airborne plant's
    derivs and the slide plant ran 30,000, 120,000 and 15,204 times."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_filename, code.co_firstlineno, code.co_name] += 1

    sys.setprofile(count)
    try:
        run_takeoff(config.takeoff, config.system, config.control)
    finally:
        sys.setprofile(None)
    frequent = [(Path(filename).name, name, n)
                for (filename, _, name), n in calls.items() if n > 3_001]
    assert frequent == []
    assert [(filename, n) for (filename, _, name), n in calls.items()
            if name == "control_step"] == [
        ("<tetherlaunch generated>/takeoff.py", 3_000)]


def test_kernel_is_built_once_per_run(config, monkeypatch):
    """One fused control step, compiled from the plant's text, serves the
    whole run; each control step passes it the held torques."""
    calls = Counter()
    built = takeoff.kernel

    def counted(filename, *args):
        calls[filename] += 1
        return built(filename, *args)

    monkeypatch.setattr(takeoff, "kernel", counted)
    run_takeoff(config.takeoff, config.system, config.control)
    assert calls == {"<tetherlaunch generated>/takeoff.py": 1}


@pytest.mark.parametrize("slack, upper, lower, compression, stall_risk", [
    # The four upper hits fall between logged rows.
    (1.0, 4, 2, 0.3499994487501474, False),
    (0.5, 150, 2, 0.35, True),
], ids=["default", "slack-0.5"])
def test_clamp_events(config, monkeypatch, slack, upper, lower, compression,
                      stall_risk):
    """The spring hits its stops as often, and the log shows as much of
    it, as it did while the loop built one flight plant a control step."""
    hits = Counter()
    clamp = takeoff.clamp_spring_travel

    def counted(spring_pos, spring_vel, max_travel):
        hits["upper" if spring_pos > max_travel else "lower"] += 1
        return clamp(spring_pos, spring_vel, max_travel)

    monkeypatch.setattr(takeoff, "clamp_spring_travel", counted)
    cfg = replace(config.takeoff, initial_slack=slack)
    result = run_takeoff(cfg, config.system, config.control)
    assert hits == {"upper": upper, "lower": lower}
    assert result.max_spring_compression == compression
    assert result.stall_risk is stall_risk


def test_winch_peak_follows_the_torque_limit(takeoff_default):
    """README, gap 3: the winch peak power is the drive's torque limit
    times the drum speed it reaches saturated. The feedback ramp
    (reelout_accel) and the reference bound (ref_max) leave the peak
    bit for bit; a 50 % larger torque limit raises it by 81 %."""
    result, _ = takeoff_default
    trace = result.trace
    row = trace.winch_power.tolist().index(result.peak_winch_power)
    assert result.peak_winch_power == 865.9738543707418
    assert (trace.t[row], trace.winch_torque[row]) == (0.53, 13.0)

    def peak(controller):
        config = load_config(None, {"controller": controller})
        return run_takeoff(config.takeoff, config.system,
                           config.control).peak_winch_power

    for controller in ({"reelout_accel": 60.0}, {"reelout_accel": 15.0},
                       {"ref_max": 60.0}):
        assert peak(controller) == result.peak_winch_power
    assert round(peak({"winch_torque_limit": 19.5}), 1) == 1566.5


def test_run_peak_memory(config):
    """The default run's tracemalloc peak stays at or below the 2,049 kB
    it had while each control step's row was a 19-tuple. With the log in
    one array of doubles it peaks at 937 kB (a flat float list peaked at
    1,938 kB). The fused control step is compiled before tracing starts,
    so the peak and the time do not depend on whether an earlier test
    compiled it: a traced compile added 79 kB to the peak and made the
    traced run take about 15 s, against about 0.5 s."""
    takeoff._control_stepper(config.takeoff, config.system, 10)
    tracemalloc.start()
    try:
        run_takeoff(config.takeoff, config.system, config.control)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_049 * 1024


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

    def test_liftoff_matches_closed_form(self, takeoff_default, config):
        # On the slide the drive holds its torque limit and the line stays
        # slack, so the train obeys M v' = A - b v - c v^2: the drive and
        # the thrust, the drum friction and the drag. The right-hand side
        # is c (v1 - v) (v - v2) with roots v1 > 0 > v2, so separating
        # the variables gives the time t* and the distance d* to the
        # take-off speed in closed form. The run detects lift-off at the
        # end of the first substep past t*.
        result, _ = takeoff_default
        trace = arrays(result.trace)
        on_slide = trace.phase == "on_slide"
        torque_limit = config.control.slide.torque_limit
        assert (trace.slide_torque[on_slide] == torque_limit).all()
        assert (trace.tether_force[on_slide] == 0.0).all()

        system, takeoff = config.system, config.takeoff
        slide, aircraft = system.slide, system.aircraft
        mass = slide.equivalent_mass
        drive = torque_limit / slide.drum_radius + aircraft.max_thrust
        friction = slide.rot_friction / slide.drum_radius ** 2
        drag = (0.5 * system.ambient.air_density * aircraft.drag_coeff
                * aircraft.effective_area)
        root = math.sqrt(friction ** 2 + 4.0 * drive * drag)
        v1 = (root - friction) / (2.0 * drag)
        v2 = -(root + friction) / (2.0 * drag)
        k = mass / (drag * (v1 - v2))
        v = takeoff.takeoff_speed
        t_star = k * math.log((v - v2) * v1 / ((v1 - v) * -v2))
        d_star = k * (v2 * math.log((v - v2) / -v2)
                      - v1 * math.log((v1 - v) / v1))
        assert t_star == pytest.approx(0.3800515, abs=1e-7)
        assert d_star == pytest.approx(1.7206909, abs=1e-7)
        assert t_star <= result.liftoff_time <= t_star + takeoff.dt
        assert (d_star <= result.liftoff_distance
                <= d_star + v * takeoff.dt)

    def test_phase_transition_is_monotone(self, takeoff_default):
        result, _ = takeoff_default
        phase = arrays(result.trace).phase
        first_airborne = np.argmax(phase == "airborne")
        assert (phase[:first_airborne] == "on_slide").all()
        assert (phase[first_airborne:] == "airborne").all()

    def test_aircraft_rides_the_slide_exactly(self, takeoff_default):
        result, _ = takeoff_default
        trace = arrays(result.trace)
        on_slide = trace.phase == "on_slide"
        assert np.array_equal(trace.speed[on_slide],
                              0.1 * trace.slide_speed[on_slide])
        assert np.array_equal(trace.distance[on_slide],
                              0.1 * trace.slide_angle[on_slide])

    def test_spring_stays_inside_travel(self, takeoff_default, config):
        result, _ = takeoff_default
        trace = arrays(result.trace)
        assert trace.spring_pos.min() >= 0.0
        assert trace.spring_pos.max() <= config.system.spring.max_travel
        assert result.max_spring_compression <= config.system.spring.max_travel

    def test_force_never_negative(self, takeoff_default):
        result, _ = takeoff_default
        assert arrays(result.trace).tether_force.min() >= 0.0

    def test_peak_power_timing(self, takeoff_default):
        # The slide peak lands right around lift-off (the drive is still
        # saturated while the slide is fastest); the winch peak follows
        # during its catch-up.
        result, _ = takeoff_default
        trace = arrays(result.trace)
        t_slide = trace.t[trace.slide_power.argmax()]
        t_winch = trace.t[trace.winch_power.argmax()]
        assert t_slide <= result.liftoff_time + 0.1
        assert t_winch <= result.liftoff_time + 1.0

    def test_ffwd_dominates_first_then_feedback(self, takeoff_default):
        result, _ = takeoff_default
        trace = arrays(result.trace)
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
        trace = arrays(result.trace)
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
        trace = arrays(result.trace)
        assert np.array_equal(trace.slack,
                              trace.tether_length - trace.distance)

    def test_powers_match_logged_torques_and_speeds(self, takeoff_default):
        result, _ = takeoff_default
        trace = arrays(result.trace)
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
        assert info.value.trace is not None
        trace = arrays(info.value.trace)
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

    @pytest.mark.parametrize("part, field, value, message", [
        # Friction this large overflows the slide state before lift-off.
        ("slide", "rot_friction", 1e308,
         "non-finite state component in on_slide state {'slide_angle': nan, "
         "'slide_speed': nan, 'winch_angle': -9.99996666675e-09, "
         "'winch_speed': -0.00019999900000333332, 'spring_pos': 0.0, "
         "'spring_vel': 0.0}"),
        # A line this stiff only bites once the climb takes up the slack.
        # The slide states come from the empty slide's own RK4 steps after
        # lift-off, which no golden file covers.
        ("tether", "breaking_load", 1e9,
         "non-finite state component in airborne state {'slide_angle': "
         "37.64751460184416, 'slide_speed': -4.387537821133923, "
         "'winch_angle': 177.4798558875662, 'winch_speed': "
         "281.27905219152086, 'spring_pos': 0.0, 'spring_vel': 0.0, "
         "'path_pos': -inf, 'path_vel': -inf}"),
    ], ids=["on_slide", "airborne"])
    def test_blow_up_names_the_phase_state(self, config, part, field, value,
                                           message):
        # The path states are named only once the aircraft flies.
        params = replace(getattr(config.system, part), **{field: value})
        system = replace(config.system, **{part: params})
        with pytest.raises(IntegrationError) as info:
            run_takeoff(config.takeoff, system, config.control)
        assert str(info.value) == message

    def test_columns_are_read_only_doubles(self, config):
        # Also in the trace a failed run attaches, and with an integer
        # torque limit, which the saturated rows hold as a float.
        slide = config.control.slide
        control = replace(config.control, slide=replace(
            slide, torque_limit=int(slide.torque_limit)))
        cfg = replace(config.takeoff, duration=0.2)
        with pytest.raises(TakeoffError, match="not reached") as info:
            run_takeoff(cfg, config.system, control)
        trace = info.value.trace
        for field in fields(trace):
            column = getattr(trace, field.name)
            if field.name in ("zone", "phase"):
                assert type(column) is tuple and len(column) == 200
            else:
                assert column.format == "d" and column.readonly
                assert column.nbytes == 8 * 200
        assert set(map(type, trace.slide_torque)) == {float}

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
        first, second = arrays(result.trace), arrays(again.trace)
        assert np.array_equal(second.tether_force, first.tether_force)
        assert np.array_equal(second.winch_power, first.winch_power)
