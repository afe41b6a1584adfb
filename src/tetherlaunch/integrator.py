"""Fixed-step RK4 integration.

A small fixed step handles the stiffness of the taut tether (around
1.1e4 N/m at 20 m of line) without resorting to implicit methods, which
keeps runs reproducible bit for bit. The default step is 1e-4 s; it
resolves both the tether-mass and the spring-mass periods with two orders
of magnitude to spare. rk4_step knows nothing of the model: states are
NamedTuples of floats and derivatives come from the caller. It is the
reference that validate's RK4 order check runs; the runs step with fused
kernels compiled from the plant's text instead (model.stage_text and
model.rk4_text write its stages and update), which take its steps bit
for bit: the sizing run one call a step (spring_design), the take-off
one call a control step of ten substeps (takeoff).
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

