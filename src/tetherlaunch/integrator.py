"""Deterministic fixed-step integration of the launch model.

A small fixed step handles the stiffness of the taut tether (around
1.1e4 N/m at 20 m of line) without resorting to implicit methods, which
keeps runs reproducible bit for bit. The default step for sizing studies
is 1e-4 s; it resolves both the tether-mass and the spring-mass periods
with two orders of magnitude to spare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DesignState,
    SystemParams,
    clamp_spring_travel,
    line_model,
    sizing_derivatives,
)
# No longer called here; perfbench/worker.py still looks it up in this module.
from .model import design_derivatives  # noqa: F401

DEFAULT_STEP = 1e-4       # [s]
DEFAULT_FORCE_TOL = 1e-6  # tension below this counts as released [N]

_STOP_KINDS = ("max_time", "force_released")


class IntegrationError(RuntimeError):
    """A state component became non-finite (the integration blew up)."""


@dataclass(frozen=True)
class StopCondition:
    """When to end a simulation.

    kind "max_time" simply runs out the clock. kind "force_released" ends
    at the first step where the tether force has dropped back below
    force_tol after having been above it, with the winch paying out line
    at least as fast as the aircraft moves; that instant bounds the time
    window of the spring-sizing test. If the release never happens within
    max_time the trace is tagged as timed out.
    """

    max_time: float
    kind: str = "force_released"
    force_tol: float = DEFAULT_FORCE_TOL

    def __post_init__(self) -> None:
        if not self.max_time > 0.0:
            raise ValueError(f"max_time must be > 0 (got {self.max_time})")
        if self.kind not in _STOP_KINDS:
            raise ValueError(f"unknown stop kind {self.kind!r}")


@dataclass
class Trace:
    """Uniform-grid log of a simulation run."""

    times: np.ndarray    # [s], strictly increasing, uniform step
    states: np.ndarray   # (n, 6) rows in DesignState field order
    force: np.ndarray    # tether force per step [N]
    length: np.ndarray   # deployed tether length per step [m]
    timed_out: bool      # stop predicate never fired

    @property
    def pos(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def vel(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def spring_pos(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def spring_vel(self) -> np.ndarray:
        return self.states[:, 3]

    @property
    def winch_angle(self) -> np.ndarray:
        return self.states[:, 4]

    @property
    def winch_speed(self) -> np.ndarray:
        return self.states[:, 5]


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


def rk4_step6(f, dt: float, y0: float, y1: float, y2: float, y3: float,
              y4: float, y5: float) -> tuple:
    """rk4_step unrolled for six plain floats, with f(y0, ..., y5) giving
    the six derivatives; the same operations in the same order, so the
    result is bit-identical. The caller checks for non-finite values."""
    h = 0.5 * dt
    a0, a1, a2, a3, a4, a5 = f(y0, y1, y2, y3, y4, y5)
    b0, b1, b2, b3, b4, b5 = f(y0 + h * a0, y1 + h * a1, y2 + h * a2,
                               y3 + h * a3, y4 + h * a4, y5 + h * a5)
    c0, c1, c2, c3, c4, c5 = f(y0 + h * b0, y1 + h * b1, y2 + h * b2,
                               y3 + h * b3, y4 + h * b4, y5 + h * b5)
    d0, d1, d2, d3, d4, d5 = f(y0 + dt * c0, y1 + dt * c1, y2 + dt * c2,
                               y3 + dt * c3, y4 + dt * c4, y5 + dt * c5)
    w = dt / 6.0
    return (y0 + w * (a0 + 2.0 * (b0 + c0) + d0),
            y1 + w * (a1 + 2.0 * (b1 + c1) + d1),
            y2 + w * (a2 + 2.0 * (b2 + c2) + d2),
            y3 + w * (a3 + 2.0 * (b3 + c3) + d3),
            y4 + w * (a4 + 2.0 * (b4 + c4) + d4),
            y5 + w * (a5 + 2.0 * (b5 + c5) + d5))


def simulate(params: SystemParams, init: DesignState, dt: float,
             stop: StopCondition) -> Trace:
    """Integrate the launch model until the stop condition fires.

    Records the state, tether force and deployed length at every step,
    including the step on which the predicate fires. A pure function of
    its arguments: identical inputs give bit-identical traces.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0 (got {dt})")

    derivs = sizing_derivatives(params)
    tension = line_model(params.tether, params.spring, params.winch).tension
    radius = params.winch.radius
    limit = params.spring.max_travel
    force_tol = stop.force_tol

    pos, vel, spring_pos, spring_vel, winch_angle, winch_speed = init
    length = radius * winch_angle + 2.0 * spring_pos
    force = tension(pos, length)

    rows = [init]
    forces = [force]
    lengths = [length]

    check_release = stop.kind == "force_released"
    force_seen = force > force_tol
    fired = False
    n_steps = int(math.ceil(stop.max_time / dt - 1e-9))

    for _ in range(n_steps):
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
        length = radius * winch_angle + 2.0 * spring_pos
        force = tension(pos, length)
        rows.append((pos, vel, spring_pos, spring_vel, winch_angle,
                     winch_speed))
        forces.append(force)
        lengths.append(length)
        if check_release:
            if force > force_tol:
                force_seen = True
            elif force_seen and radius * winch_speed >= vel:
                fired = True
                break

    times = np.arange(len(rows), dtype=float) * dt
    return Trace(
        times=times,
        states=np.array(rows, dtype=float),
        force=np.array(forces, dtype=float),
        length=np.array(lengths, dtype=float),
        timed_out=check_release and not fired,
    )
