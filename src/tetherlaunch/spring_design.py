"""Feasibility test and parameter sweeps for buffer-spring sizing.

A spring design (travel, stiffness) is feasible when the aircraft speed
never drops below the minimum cruise speed during the tension transient,
i.e. on the window from the start until the tether force first returns to
zero with the winch at least matching the aircraft speed. Sweeps evaluate
a grid of designs independently; every point is a pure computation, so the
grid can be farmed out to worker processes with results identical to a
serial run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .integrator import (
    DEFAULT_FORCE_TOL,
    DEFAULT_STEP,
    StopCondition,
    Trace,
    simulate,
)
from .model import InitConditions, SystemParams, initial_state

DEFAULT_MAX_TIME = 10.0  # [s]
# The spring travels the sizing comparison runs by default [m].
REFERENCE_TRAVELS = (0.05, 0.2, 0.35)


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
class SweepGrid:
    """Cartesian grid of spring designs around a fixed parameter set."""

    travel_values: tuple[float, ...]     # [m]
    stiffness_values: tuple[float, ...]  # [N/m]
    params: SystemParams
    ic: InitConditions

    def __post_init__(self) -> None:
        if not self.travel_values or not self.stiffness_values:
            raise ValueError("sweep grid must not be empty")
        for v in (*self.travel_values, *self.stiffness_values):
            if not v > 0.0:
                raise ValueError(f"grid values must be > 0 (got {v})")


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


def assess_trace(trace: Trace, params: SystemParams,
                 force_tol: float = DEFAULT_FORCE_TOL) -> FeasibilityResult:
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
    elif float(trace.force.max()) <= force_tol:
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


def evaluate_spring(params: SystemParams, ic: InitConditions,
                    dt: float = DEFAULT_STEP,
                    max_time: float = DEFAULT_MAX_TIME,
                    force_tol: float = DEFAULT_FORCE_TOL) -> FeasibilityResult:
    """Run the sizing test for one parameter set and judge feasibility."""
    trace = simulate_design(params, ic, dt, max_time, force_tol)
    return assess_trace(trace, params, force_tol)


def simulate_design(params: SystemParams, ic: InitConditions,
                    dt: float = DEFAULT_STEP,
                    max_time: float = DEFAULT_MAX_TIME,
                    force_tol: float = DEFAULT_FORCE_TOL) -> Trace:
    """Integrate the sizing transient up to the force-release instant."""
    stop = StopCondition(max_time=max_time, kind="force_released",
                         force_tol=force_tol)
    return simulate(params, initial_state(ic, params.winch), dt, stop)


def _with_design(params: SystemParams, travel: float,
                 stiffness: float) -> SystemParams:
    spring = replace(params.spring, max_travel=travel, stiffness=stiffness)
    return replace(params, spring=spring)


def _evaluate_point(args) -> SweepPoint:
    params, ic, travel, stiffness, dt, max_time, force_tol = args
    try:
        result = evaluate_spring(_with_design(params, travel, stiffness),
                                 ic, dt, max_time, force_tol)
        return SweepPoint(travel, stiffness, result)
    except (ValueError, RuntimeError) as exc:
        return SweepPoint(travel, stiffness, None, error=str(exc))


def sweep(grid: SweepGrid, dt: float = DEFAULT_STEP,
          max_time: float = DEFAULT_MAX_TIME,
          force_tol: float = DEFAULT_FORCE_TOL,
          workers: int = 1) -> dict[tuple[float, float], SweepPoint]:
    """Evaluate every grid point; failures are recorded, not raised.

    Points are independent, so with workers > 1 they are distributed over
    a process pool; the result map is keyed and ordered by grid position
    either way, and its contents do not depend on the worker count.
    """
    jobs = [
        (grid.params, grid.ic, travel, stiffness, dt, max_time, force_tol)
        for travel in grid.travel_values
        for stiffness in grid.stiffness_values
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_evaluate_point, jobs))
    else:
        points = [_evaluate_point(job) for job in jobs]
    return {(p.travel, p.stiffness): p for p in points}
