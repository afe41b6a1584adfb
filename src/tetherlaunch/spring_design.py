"""Feasibility test and parameter sweeps for buffer-spring sizing.

A spring design (travel, stiffness) is feasible when the aircraft speed
never drops below the minimum cruise speed during the tension transient,
i.e. on the window from the start until the tether force first returns to
zero with the winch at least matching the aircraft speed. The sizing run
steps the plant of `model.airborne_plant` by RK4, one fused call a step
(_sizing_stepper): the stages, the non-finite check, the clamp and the
plant at the new state, compiled from the plant's own text (model.LINE
and model.RATES), so the equations are written once. The evaluation that
gives a step's tether force and deployed line is the next step's first
stage. The run judges the design while it steps. `simulate` keeps every
step in a Trace of read-only memoryviews of C doubles, for spring-compare
and validate's trace-bounds check, and attaches the verdict as its
`result`; `evaluate_spring`, and so `sweep`, returns the verdict and
keeps no step.

Designs that differ in travel alone form a column, which `column_runs`
runs. Travel enters a sizing run only through the upper stop band of
`model.plant_constants` (travel - endstop_margin) and the clamp, so the
smaller travels resume, bit for bit, from the largest travel's run (see
_run_sizing); any other use of `max_travel` in the run would break that.
Columns are pure computations, so a sweep can farm them out to worker
processes with results identical to a serial run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

from .integrator import DEFAULT_STEP, MAX_STEPS, check_finite
from .model import (
    LINE,
    RATES,
    STATE,
    DesignState,
    SystemParams,
    WinchParams,
    _require_positive,
    airborne_plant,
    clamp_spring_travel,
    kernel,
    plant_constants,
    rk4_text,
)

DEFAULT_FORCE_TOL = 1e-6  # tension below this counts as released [N]
# The spring travels the sizing comparison runs by default [m].
REFERENCE_TRAVELS = (0.05, 0.2, 0.35)


def step_count(sizing: SizingConfig) -> int:
    """Steps of a sizing run at `sizing.dt` that may last `sizing.max_time`.

    Raises ValueError if that exceeds MAX_STEPS; the ratio is checked
    before any integer conversion, so a denormal dt fails here too.
    """
    steps = sizing.max_time / sizing.dt
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
        step_count(self)


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


def _rows(column: memoryview, rows: int) -> memoryview:
    """The bytes of the first `rows` rows of a Trace column."""
    return column.cast("B")[:column.strides[0] * rows]


def _doubles(count: int, values, head=b"") -> memoryview:
    """A read-only one-dimensional view of the bytes `head` followed by
    `count` floats packed as C doubles."""
    return memoryview(b"".join((head, struct.pack(f"{count}d", *values)))
                      ).cast("d")


@dataclass
class Trace:
    """Uniform-grid log of a sizing run, and the run's verdict.

    The columns are read-only memoryviews of C doubles, 8 bytes a value;
    numpy.asarray(column) gives the array without a copy. A run of the
    same design at a smaller travel copies the leading rows it shares
    (see simulate).
    """

    times: memoryview    # [s], strictly increasing, uniform step
    states: memoryview   # (n, 6) rows in DesignState field order
    force: memoryview    # tether force per step [N]
    length: memoryview   # deployed tether length per step [m]
    loaded: bool         # the force rose above the release threshold
    result: FeasibilityResult  # the verdict judged while the run stepped

    def column(self, j: int) -> memoryview:
        """State `j` in DesignState field order at every step: a strided
        view of `states`."""
        return self.states.cast("B").cast("d")[j::6]

    def head(self, rows: int) -> Trace:
        """A copy of the first `rows` rows, which keeps no buffer of this
        trace alive: what a run resumed from a hold among them copies
        (see simulate)."""
        return replace(self, **{
            name: memoryview(_rows(column, rows).tobytes()).cast(
                "d", (rows, *column.shape[1:]))
            for name, column in vars(self).items()
            if isinstance(column, memoryview)})

    @property
    def vel(self) -> memoryview:
        return self.column(1)

    @property
    def spring_pos(self) -> memoryview:
        return self.column(2)


class _Crossing(Exception):
    """A stage compression above the level a sizing step watches; its one
    argument is that compression."""


def _sizing_stepper(params: SystemParams, dt: float):
    """The sizing run's fused RK4 step for the plant that
    airborne_plant(params, params.winch.max_torque) gives, and the step
    `dt`: sizing_step(y0, ..., y5, a0, ..., a5, level), with a0, ..., a5
    the plant's derivatives at the state y0, ..., y5.

    It takes the step that integrator.rk4_step takes over that plant,
    with the same operands in the same order, so every result is
    bit-identical; then the run's non-finite check and clamp; then the
    plant at the new state. Before each of stages 2-4 it raises
    _Crossing with the stage compression if that exceeds `level`, and
    takes no step. Returns the six new states, their six derivatives (the
    next step's first stage), and the tether force and the deployed line
    there.

    One call a step with the plant written inline: dropping the stepper's
    call and four plant calls with their tuples made a sizing sweep
    about 12% faster.
    The plant's text is model.LINE and model.RATES, the text derivs is
    compiled from, so the equations are written once.
    """
    constants = plant_constants(params)
    constants.update(torque=params.winch.max_torque, h=0.5 * dt, dt=dt,
                     w=dt / 6.0, limit=params.spring.max_travel,
                     Crossing=_Crossing, isfinite=math.isfinite,
                     check_finite=check_finite, DesignState=DesignState,
                     clamp=clamp_spring_travel)
    return kernel("<tetherlaunch generated>/spring_design.py", "sizing_step",
                  "y0, y1, y2, y3, y4, y5, a0, a1, a2, a3, a4, a5, level",
                  _sizing_step_text, constants)


def _sizing_step_text() -> str:
    """The body of the fused step (see _sizing_stepper): stages 2-4, each
    watching the level, and the update into the state names (see
    model.rk4_text)."""
    state = DesignState._fields
    return "".join([
        rk4_text(state, state, between=(
            "if spring_pos > level:\n    raise Crossing(spring_pos)\n")),
        f"if not isfinite({' + '.join(state)}):\n"
        f"    check_finite(DesignState({STATE}))\n",
        "if spring_pos < 0.0 or spring_pos > limit:\n"
        "    spring_pos, spring_vel = clamp(spring_pos, spring_vel, limit)\n",
        LINE,
        f"return ({STATE},\n        " + ",\n        ".join(RATES)
        + ",\n        force,\n        deployed)\n"])


def _run_sizing(params: SystemParams, init: DesignState, sizing: SizingConfig,
                states: list | None = None, forces: list | None = None,
                lengths: list | None = None, start: tuple | None = None,
                holds: dict | None = None):
    """Step from `init` until the release or the time limit (see simulate)
    and judge the design over the start and every step taken.

    Returns (verdict, whether the force was loaded), and appends each
    step's six state values to `states`, its tether force to `forces` and
    its deployed line to `lengths` if given. Keeping floats alone, a kept
    run leaves no object that the cyclic garbage collector tracks: each
    tuple that carries a step's values is freed at once, so the run
    triggers no collection.

    The loop state is the steps taken, the six states, whether the force
    was seen and the release fired, the minimum speed and its step, and
    the cycle counter's trend, extreme and count. A run resumes from the
    loop state `start` instead of from `init`, and a kept one appends only
    the steps after it. `holds` is a dict keyed by travels strictly
    smaller than this design's: the run sets each to the loop state from
    which the same design at that travel resumes bit for bit, or to None
    where it must start afresh. Travel enters the run only through the
    upper stop band (travel - endstop_margin) and the clamp. So two runs
    take the same steps until a stage compression rises above the smaller
    travel's band, and the loop state before that step is its hold;
    unless the compression there already exceeds the smaller travel,
    whose clamp fired where this run's did not. A clamp at this run's own
    travel leaves the compression above every smaller travel. A run that
    ends first holds its final state, under the same proviso.
    """
    dt = sizing.dt
    steps = step_count(sizing)
    force_tol = sizing.force_tolerance
    radius = params.winch.radius
    margin = params.spring.endstop_margin
    step = _sizing_stepper(params, dt)

    # The first step's first stage, and the start's force. From a hold it
    # is the holding run's, bit for bit: the hold lies below this travel's
    # band, or no step is left.
    derivs = airborne_plant(params, params.winch.max_torque)
    a0, a1, a2, a3, a4, a5, force, length = derivs(
        *(init if start is None else start[1]))
    if start is None:  # the loop state at t = 0, whose row opens the run
        start = (0, init, force > force_tol, False, init.vel, 0, 0,
                 init.spring_pos, 0)
        if states is not None:
            states += init
            forces.append(force)
            lengths.append(length)
    (n, (pos, vel, spring_pos, spring_vel, winch_angle, winch_speed),
     force_seen, fired, min_speed, i_min, trend, extreme, cycles) = start
    if fired:
        steps = n  # released: no step is left
    # Descending: the compression rises from zero, so the next band a
    # stage may cross is the smallest travel's, pending[-1]'s.
    pending = sorted(holds or (), reverse=True)

    while True:
        level = pending[-1] - margin if pending else math.inf
        try:
            for n in range(n + 1, steps + 1):
                if spring_pos > level:  # the first stage is the state's
                    raise _Crossing(spring_pos)
                (pos, vel, spring_pos, spring_vel, winch_angle, winch_speed,
                 a0, a1, a2, a3, a4, a5, force, length) = step(
                    pos, vel, spring_pos, spring_vel, winch_angle,
                    winch_speed, a0, a1, a2, a3, a4, a5, level)
                if states is not None:
                    states += (pos, vel, spring_pos, spring_vel, winch_angle,
                               winch_speed)
                    forces.append(force)
                    lengths.append(length)
                if vel < min_speed:  # the first minimum, as argmin picks
                    min_speed, i_min = vel, n
                # count_compression_cycles' update, inlined: a call per
                # step made a sizing sweep about 3% slower.
                if trend <= 0 and spring_pos >= extreme + margin:
                    trend, extreme = 1, spring_pos
                elif trend >= 0 and spring_pos <= extreme - margin:
                    if trend == 1:
                        cycles += 1
                    trend, extreme = -1, spring_pos
                elif ((trend == 1 and spring_pos > extreme)
                      or (trend == -1 and spring_pos < extreme)):
                    extreme = spring_pos
                if force > force_tol:
                    force_seen = True
                elif force_seen and radius * winch_speed >= vel:
                    fired = True
                    break
            reached = None  # the run has ended
        except _Crossing as crossing:
            n -= 1  # step n was not taken: the state is the one before it
            (reached,) = crossing.args
        if pending:
            hold = (n, (pos, vel, spring_pos, spring_vel, winch_angle,
                        winch_speed),
                    force_seen, fired, min_speed, i_min, trend, extreme,
                    cycles)
            while pending and (reached is None
                               or pending[-1] - margin < reached):
                travel = pending.pop()
                holds[travel] = hold if spring_pos <= travel else None
        if reached is None:
            break

    return _verdict(params, float(min_speed), float(i_min * dt),
                    float(n * dt), force_seen, not fired, cycles), force_seen


def simulate(params: SystemParams, init: DesignState,
             sizing: SizingConfig, start: tuple | None = None,
             holds: dict | None = None) -> Trace:
    """Integrate the sizing model from `init` until the tether force is
    released, with the step, time limit and release threshold of `sizing`.

    The run ends at the first step where the tether force has dropped
    back below the threshold after having been above it, with the winch
    paying out line at least as fast as the aircraft moves; that instant
    bounds the time window of the spring-sizing test. If the release
    never happens within the time limit the verdict is a timeout.
    Records the state, tether force and deployed length at every step,
    including the step on which the release fires, and the verdict judged
    while stepping. A pure function of its arguments: identical inputs
    give bit-identical traces, and neither `start` nor `holds` changes
    them.

    `start` is (trace, hold): the kept run of the same design from `init`
    at a larger travel, and the loop state it held for this travel (see
    _run_sizing). The run then takes that trace's rows up to the hold as
    bytes and steps on from there. `holds` collects loop states for
    smaller travels.
    """
    if start is None:
        shared, heads, hold = 0, [b""] * 4, None
    else:  # the larger trace's rows up to the hold, as bytes
        larger, hold = start
        shared = hold[0] + 1
        heads = [_rows(column, shared)
                 for column in (larger.times, larger.states, larger.force,
                                larger.length)]
    states: list[float] = []
    forces: list[float] = []
    lengths: list[float] = []
    result, loaded = _run_sizing(params, init, sizing, states, forces,
                                 lengths, hold, holds)
    m = len(forces)
    n = shared + m
    dt = sizing.dt
    # The short columns first, each list dropped once packed, so that
    # packing the states, the peak, holds no other list.
    force = _doubles(m, forces, heads[2])
    length = _doubles(m, lengths, heads[3])
    del forces, lengths
    return Trace(
        times=_doubles(m, [i * dt for i in range(shared, n)], heads[0]),
        states=_doubles(6 * m, states, heads[1]).cast("B").cast("d", (n, 6)),
        force=force,
        length=length,
        loaded=loaded,
        result=result,
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
            trend, extreme = 1, x
        elif trend >= 0 and x <= extreme - margin:
            if trend == 1:
                cycles += 1
            trend, extreme = -1, x
        elif (trend == 1 and x > extreme) or (trend == -1 and x < extreme):
            extreme = x
    return cycles


def _verdict(params: SystemParams, min_speed: float, t_at_min: float,
             t_end: float, loaded: bool, timed_out: bool,
             cycles: int) -> FeasibilityResult:
    """Judge feasibility from the reductions of a sizing run that ended
    at `t_end`, its release instant unless it timed out.

    A timeout counts as feasible only if the tether never pulled at all
    (nothing to resolve, e.g. a zero speed deficit); after a pull it is
    conservatively infeasible: the transient never provably ended.
    """
    feasible = (not (timed_out and loaded)
                and min_speed >= params.aircraft.min_cruise_speed)
    return FeasibilityResult(min_speed, t_at_min,
                             None if timed_out else t_end, timed_out,
                             feasible, cycles)


def assess_trace(trace: Trace, params: SystemParams) -> FeasibilityResult:
    """Judge feasibility from a completed sizing-test trace (see _verdict),
    reducing its columns: the array form of the verdict that `simulate`
    attaches as `trace.result`, kept as an independent reference."""
    speeds = trace.vel.tolist()
    min_speed = min(speeds)
    i_min = speeds.index(min_speed)  # the first minimum, as argmin picks
    cycles = count_compression_cycles(trace.spring_pos.tolist(),
                                      params.spring.endstop_margin)
    return _verdict(params, min_speed, trace.times[i_min], trace.times[-1],
                    trace.loaded, trace.result.timed_out, cycles)


def evaluate_spring(params: SystemParams, sizing: SizingConfig,
                    start: tuple | None = None,
                    holds: dict | None = None) -> FeasibilityResult:
    """Run the sizing test for one parameter set and judge feasibility:
    simulate_design(params, sizing).result, without keeping a step.
    `start` resumes the run from a loop state, and `holds` collects loop
    states for smaller travels (see _run_sizing)."""
    return _run_sizing(params, initial_state(sizing, params.winch), sizing,
                       start=start, holds=holds)[0]


def simulate_design(params: SystemParams, sizing: SizingConfig,
                    start: tuple | None = None,
                    holds: dict | None = None) -> Trace:
    """Integrate the sizing transient up to the force-release instant.
    `start` resumes the run from a larger travel's trace and hold, and
    `holds` collects loop states for smaller travels (see simulate)."""
    return simulate(params, initial_state(sizing, params.winch), sizing,
                    start, holds)


def _evaluate_point(design: SystemParams, sizing: SizingConfig,
                    start: tuple | None = None,
                    holds: dict | None = None) -> SweepPoint:
    """evaluate_spring's verdict for one grid point, or its error, run as
    column_runs runs it: the sweep keeps no trace, so `start` gives it
    the hold alone."""
    spring = design.spring
    try:
        result = evaluate_spring(design, sizing,
                                 None if start is None else start[1], holds)
    except (ValueError, RuntimeError) as exc:
        return SweepPoint(spring.max_travel, spring.stiffness, None,
                          error=str(exc))
    return SweepPoint(spring.max_travel, spring.stiffness, result)


def column_runs(run, designs, sizing: SizingConfig):
    """Yield run(design, sizing, ...) for each of `designs`, in the given
    order: designs of one column, which differ in travel alone. The
    largest travel runs first, with `holds` for every smaller travel.
    Each smaller travel then runs with `start` the pair (the largest
    run's result, its hold), as simulate_design takes it, or None where
    it has no hold. Once the largest travel's turn has passed, a Trace in
    the pairs is swapped for a copy of the rows that the pending travels
    copy. A repeated travel runs again from the start. If the largest run
    raises, nothing of it is kept: every design runs from the start, and
    the largest, a pure run, raises the same error again at its turn."""
    largest = max(designs, key=lambda design: design.spring.max_travel)
    top = largest.spring.max_travel
    holds = {design.spring.max_travel: None for design in designs
             if design.spring.max_travel < top}
    try:
        first = run(largest, sizing, holds=holds)
    except Exception:  # no yield in here: it would keep the frames alive
        first, holds = None, {}
    starts = {travel: hold and (first, hold)
              for travel, hold in holds.items()}
    for design in designs:
        if first is None or design is not largest:
            travel = design.spring.max_travel
            yield run(design, sizing, start=starts.pop(travel, None))
        else:
            yield first
            if isinstance(first, Trace) and any(starts.values()):
                head = first.head(1 + max(start[1][0] for start
                                          in starts.values() if start))
                starts = {travel: start and (head, start[1])
                          for travel, start in starts.items()}
                del head  # freed with the last pending travel's run
            first = None


def _evaluate_column(args) -> list[SweepPoint]:
    """The points of one stiffness column (see column_runs). If its
    largest valid travel fails, the holds it took before the failure are
    exact still, and the smaller travels it held none for run from the
    start."""
    params, sizing, travels, stiffness = args
    points = []
    designs = []
    for travel in travels:
        try:
            spring = replace(params.spring, max_travel=travel,
                             stiffness=stiffness)
        except ValueError as exc:
            points.append(SweepPoint(travel, stiffness, None, error=str(exc)))
        else:
            designs.append(replace(params, spring=spring))
    if designs:
        points += column_runs(_evaluate_point, designs, sizing)
    return points


def sweep(params: SystemParams, sizing: SizingConfig, travels, stiffness,
          workers: int = 1) -> dict[tuple[float, float], SweepPoint]:
    """Evaluate every grid point; failures are recorded, not raised.

    The grid runs one stiffness column at a time, and a column's smaller
    travels resume from its largest travel's run (see column_runs).
    Columns are independent, so with workers > 1 they are
    distributed over a process pool of at most one process per column;
    the result map is keyed and ordered by grid position either way, and
    its contents do not depend on the worker count.
    """
    if not travels or not stiffness:
        raise ValueError("sweep grid must not be empty")
    for v in (*travels, *stiffness):
        if not v > 0.0:
            raise ValueError(f"grid values must be > 0 (got {v})")
    # A repeated value is run once: the map has one entry per point.
    travels = list(dict.fromkeys(travels))
    stiffness = list(dict.fromkeys(stiffness))
    columns = [(params, sizing, travels, k) for k in stiffness]
    if workers > 1:
        # Imported here: the pool machinery costs every other run its
        # import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=min(workers, len(columns))) as pool:
            done = list(pool.map(_evaluate_column, columns))
    else:
        done = [_evaluate_column(column) for column in columns]
    points = {(p.travel, p.stiffness): p for column in done for p in column}
    return {(travel, k): points[travel, k]
            for travel in travels for k in stiffness}
