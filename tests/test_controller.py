"""Controller law tests: inner torque loops, zone logic, feedback ramps,
and reference arbitration."""

import math

import pytest

from tetherlaunch.controller import (
    SlideGains,
    WinchGains,
    WinchOuterParams,
    combine_refs,
    default_control_params,
    outer_law,
    slide_torque,
    winch_fbck,
    winch_ffwd,
    winch_torque,
)


@pytest.fixture
def gains():
    return default_control_params()


@pytest.fixture
def outer():
    return default_control_params().outer


class TestSlideTorque:
    def test_at_rest_on_target(self, gains):
        assert slide_torque(5.0, 5.0, 0.0, gains.slide) == 0.0

    def test_launch_step_saturates(self, gains):
        # 14 * 37 = 518 N*m demanded, clamped to the drive peak
        assert slide_torque(37.0, 0.0, 0.0, gains.slide) == 26.0

    def test_symmetric_saturation(self, gains):
        assert slide_torque(0.0, 37.0, 0.0, gains.slide) == -26.0

    def test_linear_region(self, gains):
        torque = slide_torque(1.0, 0.0, 2.0, gains.slide)
        assert torque == pytest.approx(14.0 * 1.0 - 2.5 * 2.0)


class TestWinchTorque:
    def test_on_reference(self, gains):
        assert winch_torque(50.0, 50.0, gains.winch) == 0.0

    def test_linear_region(self, gains):
        assert winch_torque(55.0, 50.0, gains.winch) == pytest.approx(5.0)

    def test_saturates_at_rated(self, gains):
        assert winch_torque(70.0, 50.0, gains.winch) == 13.0
        assert winch_torque(30.0, 50.0, gains.winch) == -13.0


class TestFfwd:
    def test_latch_gain(self):
        assert winch_ffwd(90.0, 1.2) == pytest.approx(108.0)

    def test_zero(self):
        assert winch_ffwd(0.0, 1.2) == 0.0

    def test_negative_passes_through(self):
        assert winch_ffwd(-5.0, 1.2) == pytest.approx(-6.0)


def zone_of(compression, outer):
    return outer_law(outer)(0.0, compression)[1]


class TestZones:
    def test_uncompressed_is_reel_in(self, outer):
        assert zone_of(0.0, outer) == "a"

    def test_middle_band_holds(self, outer):
        assert zone_of(0.075, outer) == "b"

    def test_low_threshold_belongs_to_hold(self, outer):
        assert zone_of(0.05, outer) == "b"

    def test_high_threshold_belongs_to_reel_out(self, outer):
        assert zone_of(0.1, outer) == "c"

    def test_full_travel(self, outer):
        assert zone_of(0.35, outer) == "c"


class TestFeedback:
    def test_entering_reel_in_resaturates(self, outer):
        ref, zone = winch_fbck(50.0, 0.04, outer)
        assert ref <= 0.0
        assert zone == "a"

    def test_entering_reel_out_resaturates(self, outer):
        ref, _ = winch_fbck(-8.0, 0.2, outer)
        assert ref >= 0.0

    def test_hold_band_is_exactly_constant(self, outer):
        ref = 37.5
        for compression in (0.05, 0.06, 0.08, 0.0999, 0.07):
            ref, _ = winch_fbck(ref, compression, outer)
            assert ref == 37.5

    def test_reel_out_single_step(self, outer):
        # full-rate scale at the anchor: 0 + 0.001 * 30 * 1
        ref, _ = winch_fbck(0.0, 0.2, outer)
        assert ref == pytest.approx(0.03)

    def test_reel_in_single_step(self, outer):
        # scale doubles at zero compression: 0.001 * (-100) * 2
        ref, _ = winch_fbck(0.0, 0.0, outer)
        assert ref == pytest.approx(-0.2)

    def test_reel_in_ramp_clamps_at_floor(self, outer):
        ref = 0.0
        for _ in range(200):
            ref, _ = winch_fbck(ref, 0.0, outer)
            assert outer.ref_min <= ref <= 0.0
        assert ref == outer.ref_min

    def test_reel_out_ramp_clamps_at_ceiling(self, outer):
        ref = 0.0
        for _ in range(3000):
            ref, _ = winch_fbck(ref, 0.35, outer)
            assert 0.0 <= ref <= outer.ref_max
        assert ref == outer.ref_max

    def test_returns_the_compression_zone(self, outer):
        expected = ((0.0, "a"), (0.04, "a"), (0.05, "b"), (0.075, "b"),
                    (0.1, "c"), (0.2, "c"), (0.35, "c"))
        for compression, want in expected:
            _, zone = winch_fbck(0.0, compression, outer)
            assert zone == want


class TestCombine:
    def test_forward_motion_takes_larger(self):
        assert combine_refs(108.0, 0.0, 90.0) == 108.0
        assert combine_refs(10.0, 50.0, 90.0) == 50.0

    def test_braking_slide_ignores_ffwd(self):
        assert combine_refs(-6.0, 20.0, -5.0) == 20.0

    def test_standstill_uses_feedback(self):
        assert combine_refs(42.0, -3.0, 0.0) == -3.0


def speed_reference(prev_fbck, compression, slide_speed, outer):
    """One outer-loop update composed as run_takeoff does it: feedback
    step, feedforward, then arbitration. Returns the speed reference, the
    new feedback reference and the zone."""
    fbck, zone = winch_fbck(prev_fbck, compression, outer)
    ffwd = winch_ffwd(slide_speed, outer.ffwd_gain)
    return combine_refs(ffwd, fbck, slide_speed), fbck, zone


class TestComposition:
    def test_full_update_matches_parts(self, outer):
        ref, _, zone = speed_reference(0.0, 0.12, 90.0, outer)
        fbck, _ = winch_fbck(0.0, 0.12, outer)
        assert ref == combine_refs(winch_ffwd(90.0, outer.ffwd_gain), fbck, 90.0)
        assert zone == "c"

    def test_stepping_is_deterministic(self, outer):
        compressions = [0.0, 0.02, 0.12, 0.2, 0.35, 0.08, 0.01]

        def run():
            fbck = 0.0
            out = []
            for c in compressions * 50:
                ref, fbck, _ = speed_reference(fbck, c, 30.0, outer)
                out.append(ref)
            return out

        assert run() == run()


class TestValidation:
    def test_gain_positivity(self):
        with pytest.raises(ValueError, match="position_gain"):
            SlideGains(0.0, 2.5, 26.0)
        with pytest.raises(ValueError, match="torque_limit"):
            WinchGains(1.0, 0.0)
        with pytest.raises(ValueError, match="speed_gain must be > 0"):
            SlideGains(14.0, math.nan, 26.0)

    def test_outer_invariants(self):
        good = default_control_params().outer
        with pytest.raises(ValueError, match="zone"):
            WinchOuterParams(1.2, 0.1, 0.05, 0.025, 0.2, -10.0, 120.0,
                             -100.0, 30.0, 0.001)
        with pytest.raises(ValueError, match="reelin_anchor"):
            WinchOuterParams(1.2, 0.05, 0.1, 0.06, 0.2, -10.0, 120.0,
                             -100.0, 30.0, 0.001)
        with pytest.raises(ValueError, match="ref_min"):
            WinchOuterParams(1.2, 0.05, 0.1, 0.025, 0.2, 5.0, 120.0,
                             -100.0, 30.0, 0.001)
        with pytest.raises(ValueError, match="ramp rates"):
            WinchOuterParams(1.2, 0.05, 0.1, 0.025, 0.2, -10.0, 120.0,
                             100.0, 30.0, 0.001)
        for ffwd_gain in (-0.1, math.nan):
            with pytest.raises(ValueError, match="ffwd_gain must be >= 0"):
                WinchOuterParams(ffwd_gain, 0.05, 0.1, 0.025, 0.2, -10.0,
                                 120.0, -100.0, 30.0, 0.001)
        with pytest.raises(ValueError, match="sample_period must be > 0"):
            WinchOuterParams(1.2, 0.05, 0.1, 0.025, 0.2, -10.0, 120.0,
                             -100.0, 30.0, math.nan)
        assert good.ffwd_gain == 1.2
