"""Closed-loop simulation of a complete take-off maneuver.

At k=0 the slide position loop receives a step to the launch travel and
accelerates the aircraft down the rails; the winch coordinates through the
feedforward/feedback reference generator to pay the line out without
pulling or entangling. When the aircraft reaches take-off speed it leaves
the slide and continues as a point mass on a straight climb ray, with the
tether force taken fully along the path (the worst case for the aircraft):
the airborne plant of the sizing study, with slack, climb and the held
winch torque.
Controllers update at the sample period with zero-order-hold torques; the
plant integrates with a smaller fixed substep. Motor powers are logged as
torque times speed, braking counted negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .controller import (
    ControlParams,
    combine_refs,
    outer_law,
    slide_law,
    winch_ffwd,
    winch_law,
)
from .integrator import DEFAULT_STEP, MAX_STEPS, IntegrationError, rk4_step6
from .model import (
    SystemParams,
    _require_positive,
    airborne_plant,
    clamp_spring_travel,
    line_model,
)
# No longer called here; perfbench/worker.py still looks them up in this
# module.
from .controller import slide_torque, winch_fbck, winch_torque  # noqa: F401
from .integrator import rk4_step  # noqa: F401
from .model import spring_friction, tether_stiffness  # noqa: F401


class TakeoffError(RuntimeError):
    """The maneuver cannot be completed as configured.

    When raised from inside a run, the log up to the failure is attached
    as the `trace` attribute for diagnosis.
    """

    def __init__(self, message: str, trace: "TakeoffTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TakeoffConfig:
    """Maneuver and simulation settings for one take-off run."""

    slide_travel: float      # commanded slide stroke [m]
    takeoff_speed: float     # speed at which the aircraft leaves the slide [m/s]
    climb_angle_deg: float   # climb ray angle above horizontal [deg]
    initial_slack: float     # slack line length left before the start [m]
    rail_length: float       # usable rail length [m]
    dt: float = DEFAULT_STEP  # plant integration substep [s]
    duration: float = 3.0    # simulated time span [s]

    def __post_init__(self) -> None:
        _require_positive(self, "slide_travel", "takeoff_speed",
                          "initial_slack", "rail_length", "dt", "duration")
        if self.slide_travel > self.rail_length:
            raise ValueError(
                "slide_travel must not exceed rail_length "
                f"(got {self.slide_travel} > {self.rail_length})"
            )
        if not 0.0 <= self.climb_angle_deg < 90.0:
            raise ValueError(
                f"climb_angle_deg must be in [0, 90) (got {self.climb_angle_deg})"
            )


def default_takeoff_config() -> TakeoffConfig:
    """Prototype maneuver: 3.7 m stroke, 9 m/s take-off, 30 degree climb.

    The initial slack default of 1.0 m covers the line payout deficit the
    torque-limited winch accumulates during the launch burst, so the
    tether does not load the slide before lift-off.
    """
    return TakeoffConfig(
        slide_travel=3.7,     # [m]
        takeoff_speed=9.0,    # [m/s]
        climb_angle_deg=30.0,
        initial_slack=1.0,    # [m]
        rail_length=4.8,      # [m]
    )


# The plant states by name, for the report of a non-finite one; the path
# states exist only after lift-off.
_STATE_NAMES = ("slide_angle", "slide_speed", "winch_angle", "winch_speed",
                "spring_pos", "spring_vel", "path_pos", "path_vel")


@dataclass
class TakeoffTrace:
    """Per-control-step log of a take-off run."""

    t: np.ndarray
    slide_angle: np.ndarray
    slide_speed: np.ndarray
    winch_angle: np.ndarray
    winch_speed: np.ndarray
    spring_pos: np.ndarray
    distance: np.ndarray       # aircraft path distance [m]
    speed: np.ndarray          # aircraft path speed [m/s]
    tether_length: np.ndarray
    tether_force: np.ndarray
    slide_torque: np.ndarray
    winch_torque: np.ndarray
    slide_power: np.ndarray
    winch_power: np.ndarray
    zone: np.ndarray           # 'a' / 'b' / 'c'
    phase: np.ndarray          # 'on_slide' / 'airborne'
    ffwd_ref: np.ndarray       # feedforward winch speed reference [rad/s]
    fbck_ref: np.ndarray       # feedback winch speed reference [rad/s]
    winch_ref: np.ndarray      # arbitrated reference sent to the drive [rad/s]

    @property
    def slack(self) -> np.ndarray:
        return self.tether_length - self.distance


@dataclass
class TakeoffResult:
    """Outcome of one take-off run."""

    liftoff_time: float        # [s]
    liftoff_distance: float    # [m]
    peak_slide_power: float    # [W]
    peak_winch_power: float    # [W]
    max_spring_compression: float  # [m]
    stall_risk: bool           # spring hit full travel with force still rising
    trace: TakeoffTrace


def _build_trace(rows: list[tuple]) -> TakeoffTrace:
    """The trace from its rows, in TakeoffTrace field order."""
    columns = zip(*rows) if rows else [()] * len(fields(TakeoffTrace))
    return TakeoffTrace(*(np.array(column) for column in columns))


def check_takeoff(cfg: TakeoffConfig, system: SystemParams,
                  control: ControlParams) -> None:
    """Raise TakeoffError, naming the config keys, unless the slide
    releases the aircraft above its minimum cruise speed, outweighs it,
    the spring travel reaches the winch's reel-out zone, the run takes at
    most MAX_STEPS substeps, and the plant substep divides the controller
    sample period."""
    aircraft = system.aircraft
    if not control.outer.zone_high < system.spring.max_travel:
        raise TakeoffError(
            "controller.zone_high: must be < spring.max_travel "
            f"(got {control.outer.zone_high} >= {system.spring.max_travel})"
        )
    if not cfg.takeoff_speed > aircraft.min_cruise_speed:
        raise TakeoffError(
            "simulation.takeoff_speed: must be > aircraft.min_cruise_speed "
            f"(got {cfg.takeoff_speed} <= {aircraft.min_cruise_speed})"
        )
    if not system.slide.equivalent_mass > aircraft.mass:
        raise TakeoffError(
            "slide.equivalent_mass: must be > aircraft.mass "
            f"(got {system.slide.equivalent_mass} <= {aircraft.mass})"
        )
    steps = cfg.duration / cfg.dt
    if not steps <= MAX_STEPS:
        raise TakeoffError(
            "simulation.duration / simulation.dt: must be <= "
            f"{MAX_STEPS} steps (got {steps:.6g})"
        )
    sample_period = control.outer.sample_period
    ratio = sample_period / cfg.dt
    substeps = round(ratio) if ratio < math.inf else 0
    if substeps < 1 or abs(substeps * cfg.dt - sample_period) > 1e-12:
        raise TakeoffError(
            "simulation.dt: must divide controller.sample_period evenly "
            f"(got {cfg.dt} and {sample_period})"
        )


def run_takeoff(cfg: TakeoffConfig, system: SystemParams,
                control: ControlParams) -> TakeoffResult:
    """Simulate one take-off maneuver and return its trace and key figures.

    Raises TakeoffError if the set-up breaks a check_takeoff rule, if the
    slide overruns the rails, or if the aircraft never reaches take-off
    speed within the configured duration.
    """
    check_takeoff(cfg, system, control)
    aircraft = system.aircraft
    spring = system.spring
    winch = system.winch
    slide = system.slide
    outer = control.outer

    sample_period = outer.sample_period
    substeps = round(sample_period / cfg.dt)
    dt = cfg.dt
    drum_radius = slide.drum_radius
    drag_coeff = (0.5 * system.ambient.air_density * aircraft.drag_coeff
                  * aircraft.effective_area)
    thrust = aircraft.max_thrust
    slide_friction = slide.rot_friction
    max_travel = spring.max_travel
    slide_inertia_full = slide.equivalent_mass * drum_radius ** 2
    slide_inertia_empty = ((slide.equivalent_mass - aircraft.mass)
                           * drum_radius ** 2)
    angle_ref = cfg.slide_travel / drum_radius  # position step issued at k=0
    slide_drive = slide_law(control.slide)
    winch_drive = winch_law(control.winch)
    fbck_step = outer_law(outer)
    tension, carriage_accel, winch_accel, line_length = line_model(
        system.tether, spring, winch, cfg.initial_slack)
    # After lift-off: the aircraft on its climb ray, one plant per held
    # winch torque.
    airborne = airborne_plant(system, cfg.initial_slack, cfg.climb_angle_deg)
    # Zero-order-hold torques of the current control step, read by the
    # slide plant below.
    u_slide = u_winch = 0.0

    def on_slide(slide_angle, slide_speed, winch_angle, winch_speed,
                 spring_pos, spring_vel):
        speed = drum_radius * slide_speed
        force = tension(drum_radius * slide_angle, winch_angle, spring_pos)
        # Thrust, drag and tether pull all act on the combined
        # slide+aircraft train through the equivalent mass.
        train_force = (u_slide / drum_radius + thrust
                       - drag_coeff * speed * speed - force
                       - slide_friction * slide_speed / drum_radius)
        return (slide_speed, train_force * drum_radius / slide_inertia_full,
                winch_speed, winch_accel(u_winch, force, winch_speed),
                spring_vel, carriage_accel(force, spring_pos, spring_vel))

    def empty_slide(slide_angle, slide_speed):
        """RK4 step of the slide after lift-off, when no longer coupled to
        the line: rk4_step's operations on the two slide states alone."""
        h = 0.5 * dt
        a1 = (u_slide - slide_friction * slide_speed) / slide_inertia_empty
        v2 = slide_speed + h * a1
        a2 = (u_slide - slide_friction * v2) / slide_inertia_empty
        v3 = slide_speed + h * a2
        a3 = (u_slide - slide_friction * v3) / slide_inertia_empty
        v4 = slide_speed + dt * a3
        a4 = (u_slide - slide_friction * v4) / slide_inertia_empty
        w = dt / 6.0
        return (slide_angle + w * (slide_speed + 2.0 * (v2 + v3) + v4),
                slide_speed + w * (a1 + 2.0 * (a2 + a3) + a4))

    slide_angle = slide_speed = winch_angle = winch_speed = 0.0
    spring_pos = spring_vel = path_pos = path_vel = 0.0
    fbck = 0.0  # feedback winch speed reference, winch at rest [rad/s]
    liftoff_time: float | None = None  # None while on the slide
    liftoff_distance = 0.0

    n_ctrl = round(cfg.duration / sample_period)
    rows: list[tuple] = []

    for k in range(n_ctrl):
        if liftoff_time is None:
            phase = "on_slide"
            distance = drum_radius * slide_angle
            speed = drum_radius * slide_speed
        else:
            phase = "airborne"
            distance = path_pos
            speed = path_vel

        # Control update from the sampled measurements.
        u_slide = slide_drive(angle_ref, slide_angle, slide_speed)
        fbck, zone = fbck_step(fbck, spring_pos)
        ffwd = winch_ffwd(slide_speed, outer.ffwd_gain)
        speed_ref = combine_refs(ffwd, fbck, slide_speed)
        u_winch = winch_drive(speed_ref, winch_speed)
        # Built at every latch, so it also serves a lift-off mid-step.
        in_flight = airborne(u_winch)

        length = line_length(winch_angle, spring_pos)
        force = tension(distance, winch_angle, spring_pos)
        rows.append((
            k * sample_period, slide_angle, slide_speed, winch_angle,
            winch_speed, spring_pos, distance, speed, length, force, u_slide,
            u_winch, u_slide * slide_speed, u_winch * winch_speed,
            zone, phase, ffwd, fbck, speed_ref))

        # Plant substeps under zero-order-hold torques.
        for j in range(substeps):
            if liftoff_time is None:
                (slide_angle, slide_speed, winch_angle, winch_speed,
                 spring_pos, spring_vel) = rk4_step6(
                    on_slide, dt, slide_angle, slide_speed, winch_angle,
                    winch_speed, spring_pos, spring_vel)
            else:
                (path_pos, path_vel, spring_pos, spring_vel,
                 winch_angle, winch_speed) = rk4_step6(
                    in_flight, dt, path_pos, path_vel, spring_pos,
                    spring_vel, winch_angle, winch_speed)
                slide_angle, slide_speed = empty_slide(slide_angle,
                                                       slide_speed)
            # The path states stay 0.0 until lift-off.
            if not math.isfinite(slide_angle + slide_speed + winch_angle
                                 + winch_speed + spring_pos + spring_vel
                                 + path_pos + path_vel):
                names, state_phase = ((_STATE_NAMES[:6], "on_slide")
                                      if liftoff_time is None
                                      else (_STATE_NAMES, "airborne"))
                state = dict(zip(names, (
                    slide_angle, slide_speed, winch_angle, winch_speed,
                    spring_pos, spring_vel, path_pos, path_vel)))
                if not all(map(math.isfinite, state.values())):
                    raise IntegrationError("non-finite state component in "
                                           f"{state_phase} state {state}")
            if spring_pos < 0.0 or spring_pos > max_travel:
                spring_pos, spring_vel = clamp_spring_travel(
                    spring_pos, spring_vel, max_travel)
            if (liftoff_time is None
                    and drum_radius * slide_speed >= cfg.takeoff_speed):
                liftoff_time = (k * substeps + j + 1) * dt
                liftoff_distance = drum_radius * slide_angle
                path_pos = drum_radius * slide_angle
                path_vel = drum_radius * slide_speed

        if drum_radius * slide_angle > cfg.rail_length:
            raise TakeoffError(
                "slide overran the rails "
                f"({drum_radius * slide_angle:.3f} m > "
                f"{cfg.rail_length} m) at t={k * sample_period:.3f} s",
                trace=_build_trace(rows),
            )

    if liftoff_time is None:
        raise TakeoffError(
            f"take-off speed {cfg.takeoff_speed} m/s not reached within "
            f"{cfg.duration} s",
            trace=_build_trace(rows),
        )

    trace = _build_trace(rows)

    force = trace.tether_force
    at_full_travel = trace.spring_pos >= spring.max_travel - 1e-12
    force_rising = np.zeros_like(at_full_travel)
    force_rising[:-1] = force[1:] > force[:-1]
    stall_risk = bool(np.any(at_full_travel & force_rising))

    return TakeoffResult(
        liftoff_time=liftoff_time,
        liftoff_distance=liftoff_distance,
        peak_slide_power=float(trace.slide_power.max()),
        peak_winch_power=float(trace.winch_power.max()),
        max_spring_compression=float(trace.spring_pos.max()),
        stall_risk=stall_risk,
        trace=trace,
    )
