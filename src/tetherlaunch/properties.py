"""Self-check property suite behind the `validate` CLI command.

Exercises the controller laws over large pseudorandom input sets (fixed
seed, so every run sees the same sequence) and the integrator over its
convergence checks. Each check returns a pass/fail result with a short
detail string; the suite passes only if every check does.

The checks drive the same closures that `run_takeoff` runs, built once
per check by `outer_law`, `slide_law` and `winch_law`; `outer_law`'s step
returns the reference alone, and no check reads the zone. Each draw
`rng.uniform(a, b)` is written out as CPython defines it,
`a + (b - a) * rng.random()`, with the same operand values in the same
order, and each `rng.choice` of two values as its index draw: the numbers
drawn are the same, without a method call per draw. Integer bounds are
written as floats (`-500.0`, not `-500`): they convert exactly, so every
draw is the same double, and the arithmetic stays on CPython's
float-float fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random

from .config import AppConfig
from .controller import combine_refs, outer_law, slide_law, winch_law
# No longer called here; perfbench/worker.py still looks them up in this
# module.
from .controller import slide_torque, winch_fbck, winch_torque  # noqa: F401
from .integrator import rk4_step, rk4_stepper
from .model import DesignState
from .spring_design import (REFERENCE_TRAVELS, column_runs, evaluate_spring,
                            simulate_design)

_SEED = 20260810


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


def _harmonic_period_error(steps: int) -> tuple[float, bool]:
    """Position error after one period of the unit harmonic oscillator,
    and whether a stepper of rk4_stepper, as the plants run it, ends on
    the state of the generic rk4_step bit for bit."""
    period = 2.0 * math.pi
    dt = period / steps

    def derivs(s):
        return (s.vel, -s.pos, 0.0, 0.0, 0.0, 0.0)

    def flat(pos, vel, *_):
        return (vel, -pos, 0.0, 0.0, 0.0, 0.0, None)

    flat_step = rk4_stepper(flat, dt)
    state = DesignState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    flat_state = tuple(state)
    for _ in range(steps):
        state = rk4_step(derivs, state, dt)
        flat_state = flat_step(*flat_state, flat(*flat_state))
    same = list(map(float.hex, flat_state)) == list(map(float.hex, state))
    return abs(state.pos - 1.0), same


def check_fbck_reference_bounded(outer, n: int = 1_000_000) -> PropertyCheck:
    """Feedback reference stays within [ref_min, ref_max] for random walks."""
    random = Random(_SEED).random
    step = outer_law(outer)
    ref_min, ref_max = outer.ref_min, outer.ref_max
    travel = outer.reelout_anchor + 0.15
    ref = lo = hi = 0.0
    ok = True
    compression = 0.0
    for _ in range(n):
        if random() < 0.01:
            compression = 0.0 + (travel - 0.0) * random()  # zone jump
        else:
            # min(travel, max(0.0, compression + uniform(-0.01, 0.01)))
            compression += -0.01 + (0.01 - -0.01) * random()
            compression = compression if compression > 0.0 else 0.0
            compression = compression if compression < travel else travel
        ref = step(ref, compression)
        # [lo, hi] starts at 0.0 and only ever holds references that
        # passed the bound test below, and ref_min < 0 < ref_max, so a
        # reference inside it is in bounds. A new extreme or a NaN falls
        # through to the explicit test.
        if lo <= ref <= hi:
            continue
        if ref < lo:
            lo = ref
        elif ref > hi:
            hi = ref
        if not ref_min <= ref <= ref_max:
            ok = False
            break
    return PropertyCheck(
        "fbck-reference-bounded", ok,
        f"{n} steps, reference range [{lo:.3f}, {hi:.3f}] rad/s "
        f"within [{outer.ref_min}, {outer.ref_max}]",
    )


def check_zone_b_holds(outer, n: int = 1000) -> PropertyCheck:
    """The reference is exactly constant while the spring sits in zone B."""
    random = Random(_SEED + 1).random
    step = outer_law(outer)
    ref_min, ref_max = outer.ref_min, outer.ref_max
    zone_low, below_high = outer.zone_low, outer.zone_high - 1e-12
    ok = True
    for _ in range(50):
        held = ref_min + (ref_max - ref_min) * random()
        ref = held
        for _ in range(n):
            ref = step(ref, zone_low + (below_high - zone_low) * random())
            if ref != held:
                ok = False
                break
    return PropertyCheck(
        "zone-b-holds-reference", ok,
        f"50 sequences of {n} zone-B steps left the reference untouched",
    )


def check_zone_entry_resaturation(outer, n: int = 10000) -> PropertyCheck:
    """Inherited references re-saturate in sign on entering zone A or C."""
    random = Random(_SEED + 2).random
    step = outer_law(outer)
    ref_min, ref_max = outer.ref_min, outer.ref_max
    below_low, zone_high = outer.zone_low - 1e-12, outer.zone_high
    travel = outer.reelout_anchor + 0.15
    ok = True
    for _ in range(n):
        positive = 1e-9 + (ref_max - 1e-9) * random()
        ref = step(positive, 0.0 + (below_low - 0.0) * random())
        # Written negated so that a NaN reference fails.
        if not ref <= 0.0:
            ok = False
            break
        negative = ref_min + (-1e-9 - ref_min) * random()
        ref = step(negative, zone_high + (travel - zone_high) * random())
        if not ref >= 0.0:
            ok = False
            break
    return PropertyCheck(
        "zone-entry-resaturation", ok,
        f"{n} random zone entries re-saturated the inherited reference",
    )


def check_combine_refs(n: int = 100_000) -> PropertyCheck:
    """Arbitration equals max(ffwd, fbck) for forward slide motion."""
    rng = Random(_SEED + 3)
    random = rng.random
    getrandbits = rng.getrandbits
    ok = True
    for _ in range(n):
        ffwd = -150.0 + (150.0 - -150.0) * random()
        fbck = -150.0 + (150.0 - -150.0) * random()
        # rng.choice((0.0, uniform(-100.0, 100.0))): the index drawn as
        # choice draws it, getrandbits(2) until it is below 2.
        moving = -100.0 + (100.0 - -100.0) * random()
        index = getrandbits(2)
        while index > 1:
            index = getrandbits(2)
        slide_speed = moving if index else 0.0
        got = combine_refs(ffwd, fbck, slide_speed)
        want = max(ffwd, fbck) if slide_speed > 0.0 else fbck
        if got != want:
            ok = False
            break
    return PropertyCheck(
        "combine-refs-arbitration", ok,
        f"{n} random arbitration cases matched exactly",
    )


def check_torque_saturation(slide_gains, winch_gains,
                            n: int = 100_000) -> PropertyCheck:
    """Commanded torques never exceed the drive limits."""
    random = Random(_SEED + 4).random
    slide = slide_law(slide_gains)
    winch = winch_law(winch_gains)
    slide_limit = slide_gains.torque_limit
    winch_limit = winch_gains.torque_limit
    ok = True
    for _ in range(n):
        u_s = slide(-500.0 + (500.0 - -500.0) * random(),
                    -500.0 + (500.0 - -500.0) * random(),
                    -300.0 + (300.0 - -300.0) * random())
        u_w = winch(-300.0 + (300.0 - -300.0) * random(),
                    -300.0 + (300.0 - -300.0) * random())
        # Chained, not abs(): no builtin call, and a NaN command fails.
        if not (-slide_limit <= u_s <= slide_limit
                and -winch_limit <= u_w <= winch_limit):
            ok = False
            break
    return PropertyCheck(
        "torque-saturation", ok,
        f"{n} random torque commands stayed within "
        f"+/-{slide_gains.torque_limit} and +/-{winch_gains.torque_limit} N*m",
    )


def check_rk4_order() -> PropertyCheck:
    """Observed convergence order of the integrator on the oscillator; the
    flat stepper must give the generic one's result at both step counts.
    At exactly one period the phase error enters the position only
    squared, so the position error is the amplitude error: h^5 for RK4,
    whose detail reads order 5.00. A third-order scheme reads 3.00."""
    coarse, coarse_same = _harmonic_period_error(314)
    fine, fine_same = _harmonic_period_error(628)
    order = math.log2(coarse / fine)
    return PropertyCheck(
        "rk4-observed-order", order >= 3.9 and coarse_same and fine_same,
        f"order {order:.2f} from period errors {coarse:.3e} / {fine:.3e}",
    )


def check_step_convergence(config: AppConfig) -> PropertyCheck:
    """Minimum speed of the sizing test agrees between dt=1e-3 and 1e-4."""
    coarse = evaluate_spring(config.system, replace(config.sizing, dt=1e-3))
    fine = evaluate_spring(config.system, replace(config.sizing, dt=1e-4))
    rel = abs(coarse.min_speed - fine.min_speed) / abs(fine.min_speed)
    return PropertyCheck(
        "step-convergence", rel < 0.005,
        f"min speed {coarse.min_speed:.5f} vs {fine.min_speed:.5f} m/s, "
        f"relative difference {rel:.2e} < 5e-3",
    )


def check_trace_bounds(config: AppConfig) -> PropertyCheck:
    """Tether force stays nonnegative and the spring inside its travel."""
    ok = True
    details = []
    system = config.system
    designs = [replace(system, spring=replace(system.spring, max_travel=t))
               for t in REFERENCE_TRAVELS]
    # Each travel resumes from the largest travel's run (see column_runs).
    runs = column_runs(simulate_design, designs, config.sizing)
    for travel, trace in zip(REFERENCE_TRAVELS, runs):
        f_lo, f_hi = min(trace.force), max(trace.force)
        x_lo, x_hi = min(trace.spring_pos), max(trace.spring_pos)
        if f_lo < 0.0 or x_lo < 0.0 or x_hi > travel:
            ok = False
        details.append(f"{travel}: F in [{f_lo:.2g}, {f_hi:.3g}] N, "
                       f"x in [{x_lo:.2g}, {x_hi:.3g}] m")
    return PropertyCheck("trace-bounds", ok, "; ".join(details))


def run_property_suite(config: AppConfig) -> list[PropertyCheck]:
    """Run every property check; deterministic, no I/O."""
    outer = config.control.outer
    return [
        check_fbck_reference_bounded(outer),
        check_zone_b_holds(outer),
        check_zone_entry_resaturation(outer),
        check_combine_refs(),
        check_torque_saturation(config.control.slide, config.control.winch),
        check_rk4_order(),
        check_step_convergence(config),
        check_trace_bounds(config),
    ]
