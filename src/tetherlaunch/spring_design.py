"""Feasibility test and parameter sweeps for buffer-spring sizing.

A spring design (travel, stiffness) is feasible when the aircraft speed
never drops below the minimum cruise speed during the tension transient,
i.e. on the window from the start until the tether force first returns to
zero with the winch at least matching the aircraft speed. Sweeps evaluate
a grid of designs independently; every point is a pure computation, so the
grid can be farmed out to worker processes with results identical to a
serial run. The sizing run steps the airborne plant of `model` with the
flat RK4 of `integrator` and keeps every step in a Trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .integrator import DEFAULT_STEP, MAX_STEPS, check_finite, rk4_step6
from .model import (
    DesignState,
    SystemParams,
    WinchParams,
    _check_positive,
    _require_positive,
    airborne_plant,
    clamp_spring_travel,
    line_model,
)

DEFAULT_FORCE_TOL = 1e-6  # tension below this counts as released [N]
# The spring travels the sizing comparison runs by default [m].
REFERENCE_TRAVELS = (0.05, 0.2, 0.35)


def step_count(dt: float, max_time: float) -> int:
    """Steps of a sizing run that may last `max_time` at step `dt`.

    Raises ValueError if that exceeds MAX_STEPS; the ratio is checked
    before any integer conversion, so a denormal dt fails here too.
    """
    steps = max_time / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"max_time / dt must be <= {MAX_STEPS} steps "
                         f"(got {steps:.6g})")
    return int(math.ceil(steps - 1e-9))


@dataclass(frozen=True)
class SizingConfig:
    """Start state, step and limits of the spring-sizing run.

    The aircraft flies at `speed` with the tether just taut at zero force
    and the spring at rest, while the winch pays out line `speed_deficit`
    slower than the aircraft moves. The deficit is what excites the
    tension transient. The run steps by `dt` until the tether force is
    released or `max_time` has passed.
    """

    position: float       # initial aircraft position [m]
    speed: float          # initial aircraft speed [m/s]
    speed_deficit: float  # aircraft speed minus winch line speed at t=0 [m/s]
    dt: float = DEFAULT_STEP  # integration step [s]
    max_time: float = 10.0    # time limit [s]
    force_tolerance: float = DEFAULT_FORCE_TOL  # released-force threshold [N]

    def __post_init__(self) -> None:
        _require_positive(self, "dt", "max_time", "force_tolerance",
                          "position", "speed")
        step_count(self.dt, self.max_time)


def default_sizing_config() -> SizingConfig:
    """Sizing-study set-up: 10 m/s flight, 4 m/s winch deficit."""
    return SizingConfig(position=20.0, speed=10.0, speed_deficit=4.0)


def initial_state(sizing: SizingConfig, winch: WinchParams) -> DesignState:
    """Model state at t=0: tether exactly taut at zero force, spring at rest.

    The winch angle is chosen so the deployed length equals the aircraft
    position, and the winch speed lags the aircraft by the speed deficit.
    """
    return DesignState(
        pos=sizing.position,
        vel=sizing.speed,
        spring_pos=0.0,
        spring_vel=0.0,
        winch_angle=sizing.position / winch.radius,
        winch_speed=(sizing.speed - sizing.speed_deficit) / winch.radius,
    )


@dataclass
class Trace:
    """Uniform-grid log of a sizing run."""

    times: np.ndarray    # [s], strictly increasing, uniform step
    states: np.ndarray   # (n, 6) rows in DesignState field order
    force: np.ndarray    # tether force per step [N]
    length: np.ndarray   # deployed tether length per step [m]
    loaded: bool         # the force rose above the release threshold
    timed_out: bool      # the force was never released

    @property
    def vel(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def spring_pos(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def winch_speed(self) -> np.ndarray:
        return self.states[:, 5]


def simulate(params: SystemParams, init: DesignState, dt: float,
             max_time: float, force_tol: float = DEFAULT_FORCE_TOL) -> Trace:
    """Integrate the sizing model until the tether force is released.

    The run ends at the first step where the tether force has dropped
    back below force_tol after having been above it, with the winch
    paying out line at least as fast as the aircraft moves; that instant
    bounds the time window of the spring-sizing test. If the release
    never happens within max_time the trace is tagged as timed out.
    Records the state and tether force at every step, including the step
    on which the release fires, and the deployed length from the states.
    A pure function of its arguments: identical inputs give bit-identical
    traces.
    """
    _check_positive("max_time", max_time)
    _check_positive("dt", dt)
    steps = step_count(dt, max_time)

    derivs = airborne_plant(params)(params.winch.max_torque)
    line = line_model(params.tether, params.spring, params.winch)
    tension = line.tension
    radius = params.winch.radius
    limit = params.spring.max_travel

    pos, vel, spring_pos, spring_vel, winch_angle, winch_speed = init
    force = tension(pos, winch_angle, spring_pos)
    rows = [init]
    forces = [force]
    force_seen = force > force_tol
    fired = False

    for _ in range(steps):
        pos, vel, spring_pos, spring_vel, winch_angle, winch_speed = rk4_step6(
            derivs, dt, pos, vel, spring_pos, spring_vel, winch_angle,
            winch_speed)
        if not math.isfinite(pos + vel + spring_pos + spring_vel
                             + winch_angle + winch_speed):
            check_finite(DesignState(pos, vel, spring_pos, spring_vel,
                                     winch_angle, winch_speed))
        if spring_pos < 0.0 or spring_pos > limit:
            spring_pos, spring_vel = clamp_spring_travel(spring_pos,
                                                         spring_vel, limit)
        force = tension(pos, winch_angle, spring_pos)
        rows.append((pos, vel, spring_pos, spring_vel, winch_angle,
                     winch_speed))
        forces.append(force)
        if force > force_tol:
            force_seen = True
        elif force_seen and radius * winch_speed >= vel:
            fired = True
            break

    states = np.array(rows, dtype=float)
    return Trace(
        times=np.arange(len(rows), dtype=float) * dt,
        states=states,
        force=np.array(forces, dtype=float),
        length=line.length(states[:, 4], states[:, 2]),
        loaded=force_seen,
        timed_out=not fired,
    )


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one spring-design evaluation."""

    min_speed: float           # lowest aircraft speed on the test window [m/s]
    t_at_min: float            # time of the minimum [s]
    t_star: float | None       # force-release instant, None on timeout [s]
    timed_out: bool
    feasible: bool
    compression_cycles: int    # confirmed compression/extension cycles


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point; `error` is set when the point failed."""

    travel: float
    stiffness: float
    result: FeasibilityResult | None
    error: str | None = None


def count_compression_cycles(compression, margin: float) -> int:
    """Number of confirmed compression/extension cycles of the carriage.

    A cycle is counted at each reversal from compressing to extending,
    confirmed with a displacement hysteresis of `margin` so numerical
    chatter around a level does not register as motion.
    """
    cycles = 0
    trend = 0  # +1 compressing, -1 extending, 0 before the first move
    extreme = compression[0] if len(compression) else 0.0
    for x in compression:
        if trend <= 0 and x >= extreme + margin:
            trend = 1
            extreme = x
        elif trend >= 0 and x <= extreme - margin:
            if trend == 1:
                cycles += 1
            trend = -1
            extreme = x
        elif trend == 1 and x > extreme:
            extreme = x
        elif trend == -1 and x < extreme:
            extreme = x
    return cycles


def assess_trace(trace: Trace, params: SystemParams) -> FeasibilityResult:
    """Judge feasibility from a completed sizing-test trace.

    On a normal run the window closed at the release instant recorded in
    the trace. On a timeout the design only counts as feasible if the
    tether never produced any force at all (nothing to resolve, e.g. a
    zero speed deficit); a timeout after excitation is conservatively
    infeasible because the transient never provably ended.
    """
    speeds = trace.vel
    i_min = int(speeds.argmin())
    min_speed = float(speeds[i_min])
    cycles = count_compression_cycles(trace.spring_pos.tolist(),
                                      params.spring.endstop_margin)
    threshold = params.aircraft.min_cruise_speed
    if not trace.timed_out:
        t_star = float(trace.times[-1])
        feasible = min_speed >= threshold
    elif not trace.loaded:
        t_star = None
        feasible = min_speed >= threshold
    else:
        t_star = None
        feasible = False
    return FeasibilityResult(
        min_speed=min_speed,
        t_at_min=float(trace.times[i_min]),
        t_star=t_star,
        timed_out=trace.timed_out,
        feasible=feasible,
        compression_cycles=cycles,
    )


def evaluate_spring(params: SystemParams,
                    sizing: SizingConfig) -> FeasibilityResult:
    """Run the sizing test for one parameter set and judge feasibility."""
    trace = simulate_design(params, sizing)
    return assess_trace(trace, params)


def simulate_design(params: SystemParams, sizing: SizingConfig) -> Trace:
    """Integrate the sizing transient up to the force-release instant."""
    return simulate(params, initial_state(sizing, params.winch), sizing.dt,
                    sizing.max_time, sizing.force_tolerance)


def _evaluate_point(args) -> SweepPoint:
    params, sizing, travel, stiffness = args
    try:
        spring = replace(params.spring, max_travel=travel,
                         stiffness=stiffness)
        result = evaluate_spring(replace(params, spring=spring), sizing)
        return SweepPoint(travel, stiffness, result)
    except (ValueError, RuntimeError) as exc:
        return SweepPoint(travel, stiffness, None, error=str(exc))


def sweep(params: SystemParams, sizing: SizingConfig, travels, stiffness,
          workers: int = 1) -> dict[tuple[float, float], SweepPoint]:
    """Evaluate every grid point; failures are recorded, not raised.

    Points are independent, so with workers > 1 they are distributed over
    a process pool of at most one process per point; the result map is
    keyed and ordered by grid position either way, and its contents do
    not depend on the worker count.
    """
    if not travels or not stiffness:
        raise ValueError("sweep grid must not be empty")
    for v in (*travels, *stiffness):
        if not v > 0.0:
            raise ValueError(f"grid values must be > 0 (got {v})")
    # A repeated value is run once: the map has one entry per point.
    jobs = [
        (params, sizing, travel, k)
        for travel in dict.fromkeys(travels)
        for k in dict.fromkeys(stiffness)
    ]
    if workers > 1:
        # Imported here: the pool machinery costs every other run its
        # import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            points = list(pool.map(_evaluate_point, jobs))
    else:
        points = [_evaluate_point(job) for job in jobs]
    return {(p.travel, p.stiffness): p for p in points}
