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
plant integrates with a smaller fixed substep, a control step's substeps
in one call of a kernel compiled from the plant's text, which takes both
held torques as arguments (see _control_stepper). Motor powers are
logged as torque times speed, braking counted negative.
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
from .integrator import DEFAULT_STEP, MAX_STEPS, IntegrationError
from .model import (
    RATES,
    DesignState,
    SystemParams,
    _require_positive,
    clamp_spring_travel,
    kernel,
    plant_constants,
    rk4_text,
    stage_text,
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


def _non_finite(phase: str, *state: float) -> None:
    """Raise IntegrationError naming the `phase` state, the first
    len(state) of _STATE_NAMES, if a component of it is not finite."""
    state = dict(zip(_STATE_NAMES, state))
    if not all(map(math.isfinite, state.values())):
        raise IntegrationError(
            f"non-finite state component in {phase} state {state}")


# On the slide the train's stages run on the slide drum's angle and speed
# in place of the aircraft's (pos, vel), which ride at the drum's rim.
_SLIDE_STATE = ("drum_angle", "drum_speed", *DesignState._fields[2:])
_ON_RAIL = "pos = drum_radius * drum_angle\nvel = drum_radius * drum_speed\n"
# The slide train's rates: the line, carriage and winch of the airborne
# plant, under the control step's winch torque, whose aircraft
# acceleration the train's replaces. Thrust, drag, tether pull and the
# slide torque (`push` holds it and the thrust) all act on the combined
# slide+aircraft train through the equivalent mass.
_SLIDE_RATES = ("drum_speed",
                "(push - drag_factor * vel * vel - force"
                " - slide_friction * drum_speed / drum_radius)"
                " * drum_radius / slide_inertia",
                *RATES[2:])


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


def _build_trace(values: array, zone: list[str],
                 phase: list[str]) -> TakeoffTrace:
    """The trace from its log: each control step's numeric columns, in
    TakeoffTrace field order, appended to the flat array of doubles
    `values` (half the peak of a list of floats), and its
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


def _control_stepper(cfg: TakeoffConfig, system: SystemParams,
                     substeps: int):
    """The take-off's fused control step: control_step(y0, ..., y5,
    slide_angle, slide_speed, u_slide, torque, flying) integrates the
    plant over `substeps` RK4 substeps of `cfg.dt` under the zero-order-
    hold slide torque `u_slide` and winch torque `torque`, from the state
    y0, ..., y5 in the airborne plant's order. Its (y0, y1) is the slide drum's
    angle and speed on the slide (`flying` false), which the slide states
    mirror, and the aircraft's path position and speed in flight.

    Each substep runs the four stages (on the slide, the slide train's
    plant; in flight, the airborne plant of airborne_plant(system, torque,
    cfg.initial_slack, cfg.climb_angle_deg)), the RK4 update, after
    lift-off the empty slide's RK4 step, the non-finite check, the spring
    clamp and, on the slide, the lift-off test: at take-off speed the
    state becomes the path's and the next substep flies. The operations
    are rk4_step's in its order, so the results are bit-identical.

    Returns the eight new states (the six, then the slide's angle and
    speed), the deployed line and the tether force of the first stage
    (the control step's row), and the substep that lifted off and the
    path position there (None and 0.0 without a lift-off).

    One call a control step with everything inline: with the stepper
    and the plants called once per substep and stage, run_takeoff took
    about 28% longer on a default run (100 against 78 ms, Python 3.11.7,
    2 vCPUs), and with one kernel call a substep about 7% longer. The
    plant's text is model.LINE and model.RATES; `clamp` is this module's
    clamp_spring_travel when the run builds.
    """
    dt = cfg.dt
    slide = system.slide
    drum_radius = slide.drum_radius
    constants = plant_constants(system, cfg.initial_slack,
                                cfg.climb_angle_deg)
    constants.update(
        h=0.5 * dt, dt=dt, w=dt / 6.0, substeps=substeps,
        drum_radius=drum_radius, slide_friction=slide.rot_friction,
        slide_inertia=slide.equivalent_mass * drum_radius ** 2,
        empty_inertia=((slide.equivalent_mass - system.aircraft.mass)
                       * drum_radius ** 2),
        takeoff_speed=cfg.takeoff_speed, limit=system.spring.max_travel,
        clamp=clamp_spring_travel, non_finite=_non_finite,
        isfinite=math.isfinite)
    return kernel("<tetherlaunch generated>/takeoff.py", "control_step",
                  "y0, y1, y2, y3, y4, y5, slide_angle, slide_speed, "
                  "u_slide, torque, flying", _control_step_text, constants)


def _substep_text(names, rates, between="") -> str:
    """A substep's four stages over `names` and `rates`, the first of
    which gives the row's line and force, and the RK4 update of y0, ...,
    y5 (see _control_stepper)."""
    return (stage_text(names, None, None, "a", rates, between)
            + "if not j:\n    row_deployed, row_force = deployed, force\n"
            + rk4_text(names, [f"y{i}" for i in range(6)], rates, between))


def _control_step_text() -> str:
    """The body of the fused control step (see _control_stepper): the
    substeps on the slide until lift-off, then those in flight. The
    flight loop comes first in the text: 2,620 of the default run's 3,000
    control steps fly, and tracemalloc finds a traced allocation's line
    by scanning the line table from its start, so the traced default run
    took 16 s, against 33 s with the flight loop last."""
    import textwrap  # here: only the first build of a process needs it

    clamp = ("if y2 < 0.0 or y2 > limit:\n"
             "    y2, y3 = clamp(y2, y3, limit)\n")
    on_slide = (
        _substep_text(_SLIDE_STATE, _SLIDE_RATES, _ON_RAIL)
        + "if not isfinite(y0 + y1 + y4 + y5 + y2 + y3):\n"
        "    non_finite('on_slide', y0, y1, y4, y5, y2, y3)\n"
        + clamp
        + "if drum_radius * y1 >= takeoff_speed:\n"
        "    flying, lifted, start = True, j, j + 1\n"
        "    slide_angle, slide_speed = y0, y1\n"
        "    y0 = distance = drum_radius * y0\n"
        "    y1 = drum_radius * y1\n"
        "    break\n")
    in_flight = (
        _substep_text(DesignState._fields, RATES)
        # The empty slide, uncoupled from the line, by rk4_step's
        # operations on its angle and speed alone.
        + "e1 = (u_slide - slide_friction * slide_speed) / empty_inertia\n"
        "s2 = slide_speed + h * e1\n"
        "e2 = (u_slide - slide_friction * s2) / empty_inertia\n"
        "s3 = slide_speed + h * e2\n"
        "e3 = (u_slide - slide_friction * s3) / empty_inertia\n"
        "s4 = slide_speed + dt * e3\n"
        "e4 = (u_slide - slide_friction * s4) / empty_inertia\n"
        "slide_angle, slide_speed = (\n"
        "    slide_angle + w * (slide_speed + 2.0 * (s2 + s3) + s4),\n"
        "    slide_speed + w * (e1 + 2.0 * (e2 + e3) + e4))\n"
        "if not isfinite(slide_angle + slide_speed + y4 + y5 + y2 + y3\n"
        "                + y0 + y1):\n"
        "    non_finite('airborne', slide_angle, slide_speed, y4, y5, y2,"
        " y3, y0, y1)\n"
        + clamp)
    return ("lifted, distance, start = None, 0.0, 0\n"
            "while True:\n"
            "    if flying:\n"
            "        for j in range(start, substeps):\n"
            + textwrap.indent(in_flight, " " * 12)
            + "        return (y0, y1, y2, y3, y4, y5, slide_angle,\n"
            "                slide_speed, row_deployed, row_force, lifted,\n"
            "                distance)\n"
            "    push = u_slide / drum_radius + thrust\n"
            "    for j in range(substeps):\n"
            + textwrap.indent(on_slide, " " * 8)
            + "    else:\n"
            "        return (y0, y1, y2, y3, y4, y5, y0, y1, row_deployed,\n"
            "                row_force, lifted, distance)\n")


def run_takeoff(cfg: TakeoffConfig, system: SystemParams,
                control: ControlParams) -> TakeoffResult:
    """Simulate one take-off maneuver and return its trace and key figures.

    Raises TakeoffError if the set-up breaks a check_takeoff rule, if the
    slide overruns the rails, or if the aircraft never reaches take-off
    speed within the configured duration.
    """
    check_takeoff(cfg, system, control)
    outer = control.outer
    sample_period = outer.sample_period
    substeps = round(sample_period / cfg.dt)
    drum_radius = system.slide.drum_radius
    angle_ref = cfg.slide_travel / drum_radius  # position step issued at k=0
    slide_drive = slide_law(control.slide)
    winch_drive = winch_law(control.winch)
    fbck_step = outer_law(outer)
    fbck_zone = outer_zone(outer)
    control_step = _control_stepper(cfg, system, substeps)

    # One state vector, in the airborne plant's order, crosses lift-off:
    # its (x, v) is the slide drum's angle and speed on the slide, and the
    # aircraft's path position and speed once it flies. The slide states
    # mirror (x, v) until lift-off.
    x = v = spring_pos = spring_vel = winch_angle = winch_speed = 0.0
    slide_angle = slide_speed = 0.0
    fbck = 0.0  # feedback winch speed reference, winch at rest [rad/s]
    liftoff_time: float | None = None  # None while on the slide
    liftoff_distance = 0.0

    n_ctrl = round(cfg.duration / sample_period)
    # The log: each control step's 17 numeric columns, flat (see
    # _build_trace), and its zone and phase.
    values = array("d")
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
        flying = liftoff_time is not None
        if flying:
            phase, distance, speed = "airborne", x, v
        else:
            phase = "on_slide"
            distance, speed = drum_radius * x, drum_radius * v

        # The plant's substeps under zero-order-hold torques; the row
        # takes the first stage's line and force.
        stepped = control_step(x, v, spring_pos, spring_vel, winch_angle,
                               winch_speed, slide_angle, slide_speed,
                               u_slide, u_winch, flying)
        values.extend((
            k * sample_period, slide_angle, slide_speed, winch_angle,
            winch_speed, spring_pos, distance, speed, stepped[8],
            stepped[9], u_slide, u_winch, u_slide * slide_speed,
            u_winch * winch_speed, ffwd, fbck, speed_ref))
        zones.append(zone)
        phases.append(phase)
        (x, v, spring_pos, spring_vel, winch_angle, winch_speed, slide_angle,
         slide_speed, _, _, lifted, lifted_at) = stepped
        if lifted is not None:
            liftoff_time = (k * substeps + lifted + 1) * cfg.dt
            liftoff_distance = lifted_at

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
    full_travel = system.spring.max_travel - 1e-12
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
