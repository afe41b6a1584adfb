"""Longitudinal model of a tethered aircraft launched from a ground station.

The model couples four elements along one axis: the aircraft (a point mass
driven by propeller thrust against quadratic aerodynamic drag), the tether
(an elastic line that can pull but never push, whose stiffness falls off
with deployed length), a sprung pulley carriage that buffers tension
spikes, and the winch drum that pays the line out. It is the model used to
size the buffer spring: start the aircraft with the winch lagging by a
known speed deficit, let the resulting tension transient play out, and
check whether the aircraft stays above its minimum cruise speed. The same
airborne plant flies the take-off after lift-off, on a slack line and a
climb ray under the controlled winch torque, and gives its slide phase
the line, carriage and winch. The line equations are one text, LINE and
RATES, from which airborne_plant, the sizing run's fused RK4 step and
the take-off's fused control step are compiled (see kernel); stage_text
and rk4_text write the RK4 stages and update of them for both fused
kernels.

All parameter containers are immutable and validated on construction; all
functions here are pure, so they can be evaluated from any number of
concurrent workers without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple


GRAVITY = 9.81  # [m/s^2]


def _require_positive(record, *names: str) -> None:
    """Reject the first named field of `record` that is not finite and
    > 0 (NaN fails too)."""
    for name in names:
        value = getattr(record, name)
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0 (got {value})")
        if value == math.inf:
            raise ValueError(f"{name} must be finite (got {value})")


@dataclass(frozen=True)
class AircraftParams:
    """Aircraft constants for the longitudinal point-mass model."""

    effective_area: float      # aerodynamic reference area [m^2]
    drag_coeff: float          # drag coefficient at fixed angle of attack [-]
    mass: float                # [kg]
    max_thrust: float          # peak propeller thrust [N]
    min_cruise_speed: float    # slowest speed that keeps the aircraft airborne [m/s]

    def __post_init__(self) -> None:
        _require_positive(self, "effective_area", "drag_coeff", "mass",
                          "max_thrust", "min_cruise_speed")


@dataclass(frozen=True)
class TetherParams:
    """Elastic properties of the aircraft tether."""

    breaking_load: float        # minimum breaking load [N]
    breaking_elongation: float  # relative elongation at the breaking load [-]

    def __post_init__(self) -> None:
        _require_positive(self, "breaking_load")
        if not 0.0 < self.breaking_elongation < 1.0:
            raise ValueError(
                "breaking_elongation must be in (0, 1) "
                f"(got {self.breaking_elongation})"
            )


@dataclass(frozen=True)
class SpringParams:
    """Buffer spring and pulley carriage of the tension-limiting stage.

    Near either end of the travel the carriage runs into rubber bumpers,
    modelled as a large increase of the viscous friction coefficient
    (endstop_gain) inside a thin margin band, applied only while moving
    into the stop.
    """

    stiffness: float        # [N/m]
    carriage_mass: float    # moving plate plus pulley [kg]
    free_friction: float    # viscous friction away from the stops [kg/s]
    endstop_gain: float     # friction multiplier inside the stop bands [-]
    endstop_margin: float   # width of each stop band [m]
    max_travel: float       # usable compression travel [m]

    def __post_init__(self) -> None:
        _require_positive(self, "stiffness", "carriage_mass", "max_travel")
        if not self.free_friction >= 0.0:
            raise ValueError(f"free_friction must be >= 0 (got {self.free_friction})")
        if not self.endstop_gain >= 10.0:
            raise ValueError(
                f"endstop_gain must be >= 10 (got {self.endstop_gain})"
            )
        if not 0.0 < self.endstop_margin < self.max_travel / 2.0:
            raise ValueError(
                "endstop_margin must be in (0, max_travel/2) "
                f"(got {self.endstop_margin} with max_travel {self.max_travel})"
            )


@dataclass(frozen=True)
class WinchParams:
    """Winch drum constants."""

    radius: float        # [m]
    max_torque: float    # maximum motor torque [N*m]
    inertia: float       # drum plus rotor [kg*m^2]
    rot_friction: float  # rotational viscous friction [kg*m^2/s]

    def __post_init__(self) -> None:
        _require_positive(self, "radius", "max_torque", "inertia",
                          "rot_friction")


@dataclass(frozen=True)
class AmbientParams:
    """Ambient conditions."""

    air_density: float  # [kg/m^3]

    def __post_init__(self) -> None:
        _require_positive(self, "air_density")


@dataclass(frozen=True)
class SlidePlantParams:
    """Linear motion system that accelerates the aircraft to take-off speed.

    The drum inertia is folded into a single equivalent translational mass
    together with the slide and the aircraft resting on it.
    """

    drum_radius: float      # [m]
    equivalent_mass: float  # slide + aircraft + reflected drum inertia [kg]
    rot_friction: float     # drum rotational viscous friction [kg*m^2/s]

    def __post_init__(self) -> None:
        _require_positive(self, "drum_radius", "equivalent_mass",
                          "rot_friction")


@dataclass(frozen=True)
class SystemParams:
    """All physical constants of the ground station and aircraft."""

    aircraft: AircraftParams
    tether: TetherParams
    spring: SpringParams
    winch: WinchParams
    ambient: AmbientParams
    slide: SlidePlantParams


class DesignState(NamedTuple):
    """Continuous state of the spring-sizing model."""

    pos: float          # aircraft position [m]
    vel: float          # aircraft speed [m/s]
    spring_pos: float   # spring compression [m]
    spring_vel: float   # spring compression rate [m/s]
    winch_angle: float  # winch drum angle [rad]
    winch_speed: float  # winch drum speed [rad/s]


def tether_stiffness(tether: TetherParams, length: float) -> float:
    """Elastic stiffness of the deployed tether [N/m].

    The line behaves like a spring whose stiffness is inversely
    proportional to the deployed length: breaking_load divided by the
    absolute elongation at break of that length.
    """
    if length <= 0.0:
        raise ValueError(f"tether length must be > 0 (got {length})")
    return tether.breaking_load / (tether.breaking_elongation * length)


def spring_friction(spring: SpringParams, spring_pos: float,
                    spring_vel: float) -> float:
    """Viscous friction coefficient of the carriage [kg/s].

    Returns the free-running value except when the carriage sits inside an
    endstop band and is still moving into the stop, where the bumper model
    multiplies it by endstop_gain.
    """
    if spring_pos <= spring.endstop_margin and spring_vel < 0.0:
        return spring.endstop_gain * spring.free_friction
    if spring_pos > spring.max_travel - spring.endstop_margin and spring_vel > 0.0:
        return spring.endstop_gain * spring.free_friction
    return spring.free_friction


# The airborne plant's equations, the one text of them in the package:
# the line (the deployed length, the `slack` left before the start plus
# the drum payout plus twice the carriage travel, and its force) and the
# carriage's stop bands, then the six derivatives in DesignState order.
# airborne_plant's derivs, the sizing run's fused RK4 step
# (spring_design) and the take-off's fused control step (takeoff) are
# compiled from it (see kernel), and return the force and the deployed
# length, which the runs log.
LINE = """\
deployed = slack + radius * winch_angle + 2.0 * spring_pos
if deployed <= 0.0:
    raise ValueError(f"tether length must be > 0 (got {deployed})")
force = breaking_load / (breaking_elongation * deployed) * (pos - deployed)
force = force if force > 0.0 else 0.0  # max(0.0, force), minus a call
if ((spring_pos <= lower_band and spring_vel < 0.0)
        or (spring_pos > upper_band and spring_vel > 0.0)):
    friction = stop_friction
else:
    friction = free_friction
"""
RATES = (
    "vel",
    "(thrust - drag_factor * vel * vel - force - gravity) / mass",
    "spring_vel",
    "(2.0 * force - friction * spring_vel - stiffness * spring_pos)"
    " / carriage_mass",
    "winch_speed",
    "(torque + radius * force - rot_friction * winch_speed) / inertia",
)
STATE = ", ".join(DesignState._fields)


def stage_text(names, weight: str | None, last: str | None, into: str,
               rates=RATES, between: str = "") -> str:
    """One RK4 stage as kernel text: each of the six `names` set to
    y_i + weight * (the last stage's rate `last`_i), or to y_i where
    `weight` is None (the first stage); then `between`; then LINE; then
    each rate `into`_i = rates[i]. The fused kernels (spring_design,
    takeoff) are written from it."""
    if weight is None:
        lines = [f"{name} = y{i}\n" for i, name in enumerate(names)]
    else:
        lines = [f"{name} = y{i} + {weight} * {last}{i}\n"
                 for i, name in enumerate(names)]
    lines += [between, LINE]
    lines += [f"{into}{i} = {rate}\n" for i, rate in enumerate(rates)]
    return "".join(lines)


def rk4_text(names, targets, rates=RATES, between: str = "") -> str:
    """Stages 2-4 of an RK4 step as kernel text (see stage_text), from the
    first stage's rates a0, ..., a5, then the update that sets each of
    the six `targets` to y_i plus the weighted sum of its four rates, by
    rk4_step's operations in its order. The fused kernels (spring_design,
    takeoff) are written from it."""
    return "".join([
        *(stage_text(names, weight, last, into, rates, between)
          for weight, last, into in (("h", "a", "b"), ("h", "b", "c"),
                                     ("dt", "c", "d"))),
        *(f"{target} = y{i} + w * (a{i} + 2.0 * (b{i} + c{i}) + d{i})\n"
          for i, target in enumerate(targets))])


# File name -> the `build` function of the text compiled under it; filled
# on first use, so importing the package compiles nothing.
_KERNELS: dict[str, Callable] = {}


def kernel(filename: str, name: str, parameters: str,
           body: Callable[[], str], constants: dict):
    """The function name(parameters) that runs the text body() returns,
    with each of `constants` bound as a defaulted trailing parameter: read
    as fast locals, they made a sizing sweep about 3% faster than closure
    cells, and no value of them is written into the text. Callers pass
    `parameters` alone.

    The text is made and compiled once per process, on the first call for
    `filename`, as a function `build` that takes the constants and
    defines the kernel; the names of `constants` must be the same on
    every call. It is registered with linecache under `filename`, so
    tracebacks and debuggers show its lines, and profiles name the kernel
    by that file.
    """
    build = _KERNELS.get(filename)
    if build is None:
        import linecache  # here: importing the package need not load it

        defaults = ", ".join(f"{each}={each}" for each in constants)
        source = (f"def build({', '.join(constants)}):\n"
                  f"    def {name}({parameters}, {defaults}):\n"
                  + "".join(f"        {line}"
                            for line in body().splitlines(True))
                  + f"    return {name}\n")
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        namespace = {"__name__": __name__}
        exec(compile(source, filename, "exec"), namespace)
        build = _KERNELS[filename] = namespace["build"]
    return build(**constants)


def plant_constants(params: SystemParams, slack: float = 0.0,
                    climb_angle_deg: float = 0.0) -> dict:
    """The names LINE and RATES read besides the six states and the winch
    torque `torque`, as airborne_plant binds them."""
    spring = params.spring
    aircraft = params.aircraft
    return {
        "slack": slack,
        "radius": params.winch.radius,
        "breaking_load": params.tether.breaking_load,
        "breaking_elongation": params.tether.breaking_elongation,
        "lower_band": spring.endstop_margin,
        "upper_band": spring.max_travel - spring.endstop_margin,
        "stop_friction": spring.endstop_gain * spring.free_friction,
        "free_friction": spring.free_friction,
        "thrust": aircraft.max_thrust,
        "drag_factor": (0.5 * params.ambient.air_density
                        * aircraft.drag_coeff * aircraft.effective_area),
        "gravity": (aircraft.mass * GRAVITY
                    * math.sin(math.radians(climb_angle_deg))),
        "mass": aircraft.mass,
        "stiffness": spring.stiffness,
        "carriage_mass": spring.carriage_mass,
        "rot_friction": params.winch.rot_friction,
        "inertia": params.winch.inertia,
    }


def airborne_plant(params: SystemParams, torque: float, slack: float = 0.0,
                   climb_angle_deg: float = 0.0) -> Callable[..., tuple]:
    """The tethered aircraft in flight, under the winch torque `torque`.

    Returns derivs(pos, vel, spring_pos, spring_vel, winch_angle,
    winch_speed): the derivatives of the six DesignState floats with the
    drum motor holding `torque`, then the tether force [N] and the
    deployed line [m], `slack` plus the drum payout plus twice the
    carriage travel. The propeller holds peak thrust, and the tether and
    gravity pull exactly against the flight path, which climbs at
    `climb_angle_deg`.

    derivs runs LINE and returns RATES, the force and the deployed line
    as one tuple expression (storing them in locals first made a call
    about 4% slower); those two texts hold the only line equations, and
    the sizing run's fused step and the take-off's fused control step are
    compiled from them too, so each run logs the length its plant
    computed. The line runs around the moving pulley on the spring
    carriage, so each metre of compression releases two metres. It pulls
    with the stiffness of tether_stiffness, never pushes, and its force
    depends on the position and the deployed line alone. The pulley
    doubles the tension on the carriage, which feels the friction of
    spring_friction; the same tension slows the aircraft and helps the
    torque spin the drum.

    The sizing study flies level on a line without slack, under the peak
    reel-out torque: airborne_plant(params, params.winch.max_torque).
    """
    return kernel("<tetherlaunch generated>/model.py", "derivs", STATE,
                  _plant_text, dict(plant_constants(params, slack,
                                                    climb_angle_deg),
                                    torque=torque))


def _plant_text() -> str:
    return (LINE + "return ("
            + ",\n        ".join((*RATES, "force", "deployed")) + ")\n")


def design_derivatives(state: DesignState, params: SystemParams) -> tuple:
    """Time derivatives of the six model states in the sizing study (see
    airborne_plant)."""
    return airborne_plant(params, params.winch.max_torque)(*state)[:6]


def clamp_spring_travel(spring_pos: float, spring_vel: float,
                        max_travel: float) -> tuple[float, float]:
    """Hard stop at the ends of the spring travel.

    The high-friction bumper model alone can overshoot the physical stops
    numerically; real bumpers are rigid, so the position is clamped and
    any residual velocity into the stop is zeroed.
    """
    if spring_pos < 0.0:
        return 0.0, max(0.0, spring_vel)
    if spring_pos > max_travel:
        return max_travel, min(0.0, spring_vel)
    return spring_pos, spring_vel


def default_system_params() -> SystemParams:
    """Full prototype parameter set."""
    return SystemParams(
        # The small-scale prototype glider.
        aircraft=AircraftParams(
            effective_area=0.3,     # [m^2]
            drag_coeff=0.05,
            mass=1.2,               # [kg]
            max_thrust=10.0,        # [N]
            min_cruise_speed=7.0,   # [m/s]
        ),
        # 2 mm UHMWPE line.
        tether=TetherParams(breaking_load=4500.0, breaking_elongation=0.02),
        # Buffer spring as built: 0.35 m travel at 70 N/m.
        spring=SpringParams(
            stiffness=70.0,      # [N/m]
            carriage_mass=2.0,   # [kg]
            free_friction=1e-4,  # [kg/s]
            endstop_gain=1e6,
            endstop_margin=0.001,  # [m]
            max_travel=0.35,       # [m]
        ),
        winch=WinchParams(
            radius=0.1,        # [m]
            max_torque=13.0,   # rated motor torque [N*m]
            inertia=0.1,       # [kg*m^2]
            rot_friction=0.01,  # [kg*m^2/s]
        ),
        ambient=AmbientParams(air_density=1.2),  # [kg/m^3]
        # Slide motion system: 11.2 kg equivalent mass on a 0.1 m drum. The
        # drum friction is taken equal to the winch's; the two use the same
        # motor and a similar drum.
        slide=SlidePlantParams(drum_radius=0.1, equivalent_mass=11.2,
                               rot_friction=0.01),
    )
