"""Fixed-step RK4 steppers.

A small fixed step handles the stiffness of the taut tether (around
1.1e4 N/m at 20 m of line) without resorting to implicit methods, which
keeps runs reproducible bit for bit. The default step is 1e-4 s; it
resolves both the tether-mass and the spring-mass periods with two orders
of magnitude to spare. The steppers know nothing of the model: states are
tuples of floats and derivatives come from the caller, and so does the
flat stepper's first stage: the evaluation that gives a step's outputs
opens the next step. rk4_stepper binds the plant and the step once, so a
step call reads no free variable; it now serves only validate's RK4 order
check. The runs step with fused kernels compiled from the plant's text
instead, which take rk4_step's steps bit for bit: the sizing run one call
a step (spring_design), the take-off one call a control step of ten
substeps (takeoff).
"""

from __future__ import annotations

import math

# No longer called here; perfbench/worker.py still looks it up in this module.
from .model import design_derivatives  # noqa: F401

DEFAULT_STEP = 1e-4  # [s]
# The most steps one run may take: max_time / dt for a sizing run,
# duration / dt for a take-off. A sizing run that keeps its steps
# (spring-compare, validate's trace-bounds check) appends eight plain
# floats a step to three lists and peaks at 315 B a step while it packs
# them into the trace. spring-compare also keeps the largest travel's
# trace, 72 B a step, until its turn has passed and then the rows a
# smaller travel still needs, and the previous travel's float text, 187 B
# a step, while the next travel runs. Two travels peak at 347 B a step,
# ascending or descending, where they share every step (no deficit), and
# at 448 B ascending and 504 B descending where the smaller one parts
# early (no release; tracemalloc, 100,001 steps each): near 1.0 GB at the
# budget.
# evaluate_spring and sweep keep no step.
# The defaults take 1e5 and 3e4 steps.
MAX_STEPS = 2_000_000


class IntegrationError(RuntimeError):
    """A state component became non-finite (the integration blew up)."""


def check_finite(state) -> None:
    """Raise IntegrationError if a component of the NamedTuple `state` is
    not finite (the integration blew up)."""
    for v in state:
        if not math.isfinite(v):
            raise IntegrationError(f"non-finite state component in {state}")


def rk4_step(derivs, state, dt: float):
    """One classical 4th-order Runge-Kutta step: the generic reference.

    `derivs` maps a state tuple to its derivative tuple; `state` is any
    NamedTuple of floats.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0 (got {dt})")
    make = type(state)._make
    k1 = derivs(state)
    k2 = derivs(make(y + 0.5 * dt * k for y, k in zip(state, k1)))
    k3 = derivs(make(y + 0.5 * dt * k for y, k in zip(state, k2)))
    k4 = derivs(make(y + dt * k for y, k in zip(state, k3)))
    out = make(
        y + dt / 6.0 * (a + 2.0 * (b + c) + d)
        for y, a, b, c, d in zip(state, k1, k2, k3, k4)
    )
    check_finite(out)
    return out


def rk4_stepper(f, dt: float):
    """rk4_step unrolled for six plain floats, bound to the plant `f` and
    the step `dt`: returns step(y0, ..., y5, k1), with f(y0, ..., y5)
    giving the six derivatives and two values the stepper passes over
    (the plant's force and deployed line), and `k1` the caller's
    f(y0, ..., y5). The same operations in the same order, so the result
    is bit-identical. The caller checks for non-finite values."""
    # f, the half step and the weight as defaults, not free variables: the
    # step reads them as fast locals, and computes neither weight again
    # (about 1% of a sizing sweep).
    def step(y0, y1, y2, y3, y4, y5, k1, f=f, h=0.5 * dt, dt=dt,
             w=dt / 6.0):
        a0, a1, a2, a3, a4, a5, _, _ = k1
        b0, b1, b2, b3, b4, b5, _, _ = f(y0 + h * a0, y1 + h * a1, y2 + h * a2,
                                         y3 + h * a3, y4 + h * a4, y5 + h * a5)
        c0, c1, c2, c3, c4, c5, _, _ = f(y0 + h * b0, y1 + h * b1, y2 + h * b2,
                                         y3 + h * b3, y4 + h * b4, y5 + h * b5)
        d0, d1, d2, d3, d4, d5, _, _ = f(y0 + dt * c0, y1 + dt * c1,
                                         y2 + dt * c2, y3 + dt * c3,
                                         y4 + dt * c4, y5 + dt * c5)
        return (y0 + w * (a0 + 2.0 * (b0 + c0) + d0),
                y1 + w * (a1 + 2.0 * (b1 + c1) + d1),
                y2 + w * (a2 + 2.0 * (b2 + c2) + d2),
                y3 + w * (a3 + 2.0 * (b3 + c3) + d3),
                y4 + w * (a4 + 2.0 * (b4 + c4) + d4),
                y5 + w * (a5 + 2.0 * (b5 + c5) + d5))

    return step
