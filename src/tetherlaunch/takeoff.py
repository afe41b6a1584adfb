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
from array import array
from dataclasses import dataclass, fields

from .controller import (
    ControlParams,
    combine_refs,
    outer_law,
    outer_zone,
    slide_law,
    winch_ffwd,
    winch_law,
)
from .integrator import DEFAULT_STEP, MAX_STEPS, IntegrationError, rk4_stepper
from .model import (
    SystemParams,
    _require_positive,
    airborne_plant,
    clamp_spring_travel,
    line_length,
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
# states, the loop's (x, v) after lift-off, are named only then.
_STATE_NAMES = ("slide_angle", "slide_speed", "winch_angle", "winch_speed",
                "spring_pos", "spring_vel", "path_pos", "path_vel")


@dataclass
class TakeoffTrace:
    """Per-control-step log of a take-off run.

    Each column holds one value per control step: a read-only memoryview
    of C doubles, but a tuple of strings for `zone` and `phase`;
    numpy.asarray(column) gives an array.
    """

    t: memoryview
    slide_angle: memoryview
    slide_speed: memoryview
    winch_angle: memoryview
    winch_speed: memoryview
    spring_pos: memoryview
    distance: memoryview       # aircraft path distance [m]
    speed: memoryview          # aircraft path speed [m/s]
    tether_length: memoryview
    tether_force: memoryview
    slide_torque: memoryview
    winch_torque: memoryview
    slide_power: memoryview
    winch_power: memoryview
    zone: tuple[str, ...]      # 'a' / 'b' / 'c'
    phase: tuple[str, ...]     # 'on_slide' / 'airborne'
    ffwd_ref: memoryview       # feedforward winch speed reference [rad/s]
    fbck_ref: memoryview       # feedback winch speed reference [rad/s]
    winch_ref: memoryview      # arbitrated reference sent to the drive [rad/s]


@dataclass
class TakeoffResult:
    """Outcome of one take-off run.

    `stall_risk` is judged on the trace's rows alone, one per control
    step (every 10 substeps at the defaults), while the spring clamp acts
    on every substep: the default run's 4 upper clamps fall between rows,
    and its flag is False.
    """

    liftoff_time: float        # [s]
    liftoff_distance: float    # [m]
    peak_slide_power: float    # [W]
    peak_winch_power: float    # [W]
    max_spring_compression: float  # [m]
    stall_risk: bool           # spring hit full travel with force still rising
    trace: TakeoffTrace


def _doubles(values) -> memoryview:
    """A read-only view of `values` as C doubles: an int is stored as the
    float it equals."""
    return memoryview(array("d", values)).toreadonly()


def _build_trace(values: list[float], zone: list[str],
                 phase: list[str]) -> TakeoffTrace:
    """The trace from its log: each control step's numeric columns, in
    TakeoffTrace field order, appended to the flat list `values`, and its
    zone and phase to their own lists. Each column's array is built from
    its own slice, one at a time, so no two slices are alive together."""
    columns = {"zone": tuple(zone), "phase": tuple(phase)}
    names = [f.name for f in fields(TakeoffTrace) if f.name not in columns]
    for j, name in enumerate(names):
        columns[name] = _doubles(values[j::len(names)])
    return TakeoffTrace(**columns)


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
    empty_inertia = (slide.equivalent_mass - aircraft.mass) * drum_radius ** 2
    angle_ref = cfg.slide_travel / drum_radius  # position step issued at k=0
    slide_drive = slide_law(control.slide)
    winch_drive = winch_law(control.winch)
    fbck_step = outer_law(outer)
    fbck_zone = outer_zone(outer)
    deployed = line_length(winch, cfg.initial_slack)
    # After lift-off: the aircraft on its climb ray. One plant and one
    # stepper serve the whole run (see airborne_plant): the loop writes the
    # control step's held winch torque into `held`, which the plant reads.
    held = [0.0]
    in_flight = airborne_plant(system, held, cfg.initial_slack,
                               cfg.climb_angle_deg)
    flight_step = rk4_stepper(in_flight, dt)
    u_slide = 0.0  # the control step's held torque, read by both slide models

    def on_slide(slide_angle, slide_speed, spring_pos, spring_vel,
                 winch_angle, winch_speed, in_flight=in_flight):
        speed = drum_radius * slide_speed
        # The line, carriage and winch of the airborne plant, under the
        # control step's winch torque, whose aircraft acceleration the
        # slide replaces.
        _, _, _, spring_accel, _, winch_accel, force = in_flight(
            drum_radius * slide_angle, speed, spring_pos, spring_vel,
            winch_angle, winch_speed)
        # Thrust, drag and tether pull all act on the combined
        # slide+aircraft train through the equivalent mass.
        train_force = (u_slide / drum_radius + thrust
                       - drag_coeff * speed * speed - force
                       - slide_friction * slide_speed / drum_radius)
        return (slide_speed, train_force * drum_radius / slide_inertia_full,
                spring_vel, spring_accel, winch_speed, winch_accel, force)

    slide_step = rk4_stepper(on_slide, dt)

    # One state vector, in the airborne plant's order, crosses lift-off:
    # its (x, v) is the slide drum's angle and speed on the slide, and the
    # aircraft's path position and speed once it flies. The slide states
    # mirror (x, v) until lift-off. After it, uncoupled from the line, the
    # loop steps them by rk4_step's operations on the two alone.
    h, w = 0.5 * dt, dt / 6.0
    isfinite, takeoff_speed = math.isfinite, cfg.takeoff_speed
    x = v = spring_pos = spring_vel = winch_angle = winch_speed = 0.0
    slide_angle = slide_speed = 0.0
    fbck = 0.0  # feedback winch speed reference, winch at rest [rad/s]
    liftoff_time: float | None = None  # None while on the slide
    liftoff_distance = 0.0

    n_ctrl = round(cfg.duration / sample_period)
    # The log: each control step's 17 numeric columns, flat (see
    # _build_trace), and its zone and phase.
    values: list[float] = []
    zones: list[str] = []
    phases: list[str] = []

    for k in range(n_ctrl):
        # Control update from the sampled measurements.
        u_slide = slide_drive(angle_ref, slide_angle, slide_speed)
        fbck = fbck_step(fbck, spring_pos)
        zone = fbck_zone(spring_pos)
        ffwd = winch_ffwd(slide_speed, outer.ffwd_gain)
        speed_ref = combine_refs(ffwd, fbck, slide_speed)
        u_winch = winch_drive(speed_ref, winch_speed)
        held[0] = u_winch  # read by both plants, also after a lift-off
        length = deployed(winch_angle, spring_pos)
        if liftoff_time is None:
            phase, plant, step = "on_slide", on_slide, slide_step
            distance, speed = drum_radius * x, drum_radius * v
        else:
            phase, plant, step = "airborne", in_flight, flight_step
            distance, speed = x, v

        # Plant substeps under zero-order-hold torques, each from its
        # first stage.
        for j in range(substeps):
            k1 = plant(x, v, spring_pos, spring_vel, winch_angle, winch_speed)
            if not j:  # the step's row: the first stage gives its force
                values += (
                    k * sample_period, slide_angle, slide_speed, winch_angle,
                    winch_speed, spring_pos, distance, speed, length, k1[6],
                    u_slide, u_winch, u_slide * slide_speed,
                    u_winch * winch_speed, ffwd, fbck, speed_ref)
                zones.append(zone)
                phases.append(phase)
            x, v, spring_pos, spring_vel, winch_angle, winch_speed = step(
                x, v, spring_pos, spring_vel, winch_angle, winch_speed, k1)
            if liftoff_time is None:
                slide_angle, slide_speed = x, v
            else:
                a1 = (u_slide - slide_friction * slide_speed) / empty_inertia
                v2 = slide_speed + h * a1
                a2 = (u_slide - slide_friction * v2) / empty_inertia
                v3 = slide_speed + h * a2
                a3 = (u_slide - slide_friction * v3) / empty_inertia
                v4 = slide_speed + dt * a3
                a4 = (u_slide - slide_friction * v4) / empty_inertia
                slide_angle, slide_speed = (
                    slide_angle + w * (slide_speed + 2.0 * (v2 + v3) + v4),
                    slide_speed + w * (a1 + 2.0 * (a2 + a3) + a4))
            if not isfinite(slide_angle + slide_speed + winch_angle
                            + winch_speed + spring_pos + spring_vel + x + v):
                names, state_phase = ((_STATE_NAMES[:6], "on_slide")
                                      if liftoff_time is None
                                      else (_STATE_NAMES, "airborne"))
                state = dict(zip(names, (
                    slide_angle, slide_speed, winch_angle, winch_speed,
                    spring_pos, spring_vel, x, v)))
                if not all(map(isfinite, state.values())):
                    raise IntegrationError("non-finite state component in "
                                           f"{state_phase} state {state}")
            if spring_pos < 0.0 or spring_pos > max_travel:
                spring_pos, spring_vel = clamp_spring_travel(
                    spring_pos, spring_vel, max_travel)
            if (liftoff_time is None
                    and drum_radius * slide_speed >= takeoff_speed):
                liftoff_time = (k * substeps + j + 1) * dt
                liftoff_distance = x = drum_radius * slide_angle
                v = drum_radius * slide_speed
                plant, step = in_flight, flight_step

        if drum_radius * slide_angle > cfg.rail_length:
            raise TakeoffError(
                "slide overran the rails "
                f"({drum_radius * slide_angle:.3f} m > "
                f"{cfg.rail_length} m) at t={k * sample_period:.3f} s",
                trace=_build_trace(values, zones, phases),
            )

    if liftoff_time is None:
        raise TakeoffError(
            f"take-off speed {cfg.takeoff_speed} m/s not reached within "
            f"{cfg.duration} s",
            trace=_build_trace(values, zones, phases),
        )

    trace = _build_trace(values, zones, phases)

    # Stall risk: the spring at full travel while the force still rises
    # into the next control step.
    full_travel = spring.max_travel - 1e-12
    force = trace.tether_force
    stall_risk = any(x >= full_travel and after > before for x, before, after
                     in zip(trace.spring_pos, force, force[1:]))

    return TakeoffResult(
        liftoff_time=liftoff_time,
        liftoff_distance=liftoff_distance,
        peak_slide_power=max(trace.slide_power),
        peak_winch_power=max(trace.winch_power),
        max_spring_compression=max(trace.spring_pos),
        stall_risk=stall_risk,
        trace=trace,
    )
