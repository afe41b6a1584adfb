"""Hierarchical ground-station controller.

Two inner torque loops run on the drives: a position loop for the slide
drum (proportional on position error with speed damping) and a speed loop
for the winch, both designed by pole placement and saturated at the motor
torque limits. The outer loop computes the winch speed reference from two
contributions: a feedforward latch that couples the winch to the slide
during the launch acceleration, and an integral feedback driven by the
buffer-spring compression, split into three zones (reel-in when nearly
uncompressed, hold in the middle band, reel-out under load). All loops are
discrete time with a common sample period.

Each law is written once, as a closure that `slide_law`, `winch_law` or
`outer_law` builds from its parameters, with its constants as defaulted
trailing parameters; a run builds them once and calls them every control
step. `outer_law`'s step returns the new feedback reference alone, and
`outer_zone`'s closure names the zone of a compression. `slide_torque`,
`winch_torque` and `winch_fbck` build them for a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import _require_positive


@dataclass(frozen=True)
class SlideGains:
    """Slide drum position loop: static state feedback with torque limit."""

    position_gain: float  # [N*m/rad]
    speed_gain: float     # [N*m*s/rad]
    torque_limit: float   # peak drive torque [N*m]

    def __post_init__(self) -> None:
        _require_positive(self, "position_gain", "speed_gain", "torque_limit")


@dataclass(frozen=True)
class WinchGains:
    """Winch drum speed loop."""

    speed_gain: float    # [N*m*s/rad]
    torque_limit: float  # rated drive torque [N*m]

    def __post_init__(self) -> None:
        _require_positive(self, "speed_gain", "torque_limit")


@dataclass(frozen=True)
class WinchOuterParams:
    """Outer winch speed reference generator.

    zone_low and zone_high split the spring travel into the three zones.
    In the reel-in and reel-out zones the feedback reference ramps at
    reelin_accel / reelout_accel, scaled by how far the compression sits
    beyond the zone edge relative to the anchor points; the clamps to
    [ref_min, 0] and [0, ref_max] also re-saturate the sign of whatever
    reference was inherited when a zone is entered.
    """

    ffwd_gain: float       # winch-to-slide speed coupling during launch [-]
    zone_low: float        # upper edge of the reel-in zone [m]
    zone_high: float       # lower edge of the reel-out zone [m]
    reelin_anchor: float   # compression of full reel-in ramp rate [m]
    reelout_anchor: float  # compression of full reel-out ramp rate [m]
    ref_min: float         # largest commanded reel-in speed [rad/s]
    ref_max: float         # largest commanded reel-out speed [rad/s]
    reelin_accel: float    # reference ramp rate in zone A [rad/s^2]
    reelout_accel: float   # reference ramp rate in zone C [rad/s^2]
    sample_period: float   # controller update period [s]

    def __post_init__(self) -> None:
        if not self.ffwd_gain >= 0.0:
            raise ValueError(f"ffwd_gain must be >= 0 (got {self.ffwd_gain})")
        if not 0.0 < self.zone_low < self.zone_high:
            raise ValueError(
                "zone thresholds must satisfy 0 < zone_low < zone_high "
                f"(got {self.zone_low}, {self.zone_high})"
            )
        if not self.reelin_anchor < self.zone_low:
            raise ValueError(
                f"reelin_anchor must be < zone_low (got {self.reelin_anchor})"
            )
        if not self.reelout_anchor > self.zone_high:
            raise ValueError(
                f"reelout_anchor must be > zone_high (got {self.reelout_anchor})"
            )
        if not self.ref_min < 0.0 < self.ref_max:
            raise ValueError(
                "reference bounds must satisfy ref_min < 0 < ref_max "
                f"(got {self.ref_min}, {self.ref_max})"
            )
        if not self.reelin_accel < 0.0 < self.reelout_accel:
            raise ValueError(
                "ramp rates must satisfy reelin_accel < 0 < reelout_accel "
                f"(got {self.reelin_accel}, {self.reelout_accel})"
            )
        _require_positive(self, "sample_period")


@dataclass(frozen=True)
class ControlParams:
    """Complete gain set of the ground-station control stack."""

    slide: SlideGains
    winch: WinchGains
    outer: WinchOuterParams


def slide_law(gains: SlideGains) -> Callable[[float, float, float], float]:
    """The slide drum position loop, built once: returns
    `torque(angle_ref, angle, speed)`, the torque command [N*m] saturated
    at the drive limit. A NaN command saturates to -torque_limit."""
    # The gains as defaults, not free variables: read as fast locals.
    # Callers pass the three inputs alone.
    def torque(angle_ref: float, angle: float, speed: float,
               position_gain=gains.position_gain, speed_gain=gains.speed_gain,
               low=-gains.torque_limit, high=gains.torque_limit) -> float:
        command = position_gain * (angle_ref - angle) - speed_gain * speed
        command = command if command > low else low
        return command if command < high else high

    return torque


def winch_law(gains: WinchGains) -> Callable[[float, float], float]:
    """The winch drum speed loop, built once: returns
    `torque(speed_ref, speed)`, the torque command [N*m] saturated at the
    drive limit. A NaN command saturates to -torque_limit."""
    def torque(speed_ref: float, speed: float, speed_gain=gains.speed_gain,
               low=-gains.torque_limit, high=gains.torque_limit) -> float:
        command = speed_gain * (speed_ref - speed)
        command = command if command > low else low
        return command if command < high else high

    return torque


def slide_torque(angle_ref: float, angle: float, speed: float,
                 gains: SlideGains) -> float:
    """Slide drum torque command [N*m], saturated at the drive limit."""
    return slide_law(gains)(angle_ref, angle, speed)


def winch_torque(speed_ref: float, speed: float, gains: WinchGains) -> float:
    """Winch drum torque command [N*m], saturated at the drive limit."""
    return winch_law(gains)(speed_ref, speed)


def winch_ffwd(slide_speed: float, ffwd_gain: float) -> float:
    """Feedforward winch speed reference [rad/s]: latch to the slide speed."""
    return ffwd_gain * slide_speed


def outer_law(p: WinchOuterParams) -> Callable[[float, float], float]:
    """The feedback winch speed reference generator, built once: returns
    `step(prev_ref, compression) -> ref`, the new reference [rad/s] from
    the previous one. `outer_zone(p)` names the zone the step ramps in.

    An integral controller on the distance of the compression from the
    hold band, with a piecewise-constant gain. Zone A is compression below
    zone_low, zone C at or above zone_high, zone B in between. In zone A
    the reference ramps negative (reel-in) and is clamped to [ref_min, 0];
    in zone C it ramps positive (reel-out) and is clamped to [0, ref_max];
    in zone B it is held. The clamps are applied every step, so on
    entering zone A or C an inherited reference of the wrong sign is
    re-saturated immediately. A NaN compression falls in zone C and gives
    ref_max; a -0.0 reference comes out of either clamp as 0.0.
    """
    # The constants as defaults, not free variables: read as fast locals,
    # they made validate's feedback walk about 4% faster than closure
    # cells. Callers pass the two inputs alone. sample_period * accel *
    # scale rounds as (sample_period * accel) * scale.
    def step(prev_ref: float, compression: float, zone_low=p.zone_low,
             zone_high=p.zone_high, ref_min=p.ref_min, ref_max=p.ref_max,
             reelin_rate=p.sample_period * p.reelin_accel,
             reelout_rate=p.sample_period * p.reelout_accel,
             reelin_span=p.reelin_anchor - p.zone_low,
             reelout_span=p.reelout_anchor - p.zone_high) -> float:
        if compression < zone_low:
            # Both numerator and denominator are negative below zone_low,
            # so the scale is positive and the increment inherits
            # reelin_accel's sign.
            ref = prev_ref + reelin_rate * ((compression - zone_low)
                                            / reelin_span)
            ref = ref if ref > ref_min else ref_min
            return ref if ref < 0.0 else 0.0
        if compression < zone_high:
            return prev_ref
        ref = prev_ref + reelout_rate * ((compression - zone_high)
                                         / reelout_span)
        ref = ref if ref < ref_max else ref_max
        return ref if ref > 0.0 else 0.0

    return step


def outer_zone(p: WinchOuterParams) -> Callable[[float], str]:
    """The zones of `outer_law(p)`'s step, built once: returns
    `zone(compression)`, 'a' (reel-in) below zone_low, 'b' (hold) below
    zone_high, and 'c' (reel-out) otherwise, NaN included."""
    def zone(compression: float, zone_low=p.zone_low,
             zone_high=p.zone_high) -> str:
        if compression < zone_low:
            return "a"
        if compression < zone_high:
            return "b"
        return "c"

    return zone


def winch_fbck(prev_ref: float, compression: float,
               p: WinchOuterParams) -> tuple[float, str]:
    """One update of the feedback winch speed reference: `outer_law(p)`'s
    step and `outer_zone(p)`'s zone, for a single call."""
    return outer_law(p)(prev_ref, compression), outer_zone(p)(compression)


def combine_refs(ffwd: float, fbck: float, slide_speed: float) -> float:
    """Arbitrate the two winch speed contributions.

    The feedforward is used only while the slide moves forward and only if
    it asks for more speed than the feedback.
    """
    if slide_speed > 0.0:
        # max(ffwd, fbck) without the builtin call: max keeps its first
        # argument unless a later one compares greater, so ties (signed
        # zeros included) and a NaN in either place give the same result.
        return fbck if fbck > ffwd else ffwd
    return fbck


def default_control_params() -> ControlParams:
    """The control stack as tuned on the prototype."""
    return ControlParams(
        # 26 N*m is twice rated torque, available from the drive for the
        # short launch burst.
        slide=SlideGains(position_gain=14.0, speed_gain=2.5,
                         torque_limit=26.0),
        winch=WinchGains(speed_gain=1.0, torque_limit=13.0),
        outer=WinchOuterParams(
            ffwd_gain=1.2,
            zone_low=0.05,       # [m]
            zone_high=0.1,       # [m]
            reelin_anchor=0.025,  # [m]
            reelout_anchor=0.2,   # [m]
            ref_min=-10.0,        # [rad/s]
            ref_max=120.0,        # [rad/s]
            reelin_accel=-100.0,  # [rad/s^2]
            reelout_accel=30.0,   # [rad/s^2]
            sample_period=0.001,  # [s]
        ),
    )
