"""The controller closures against the point-form laws they replaced, and
the validate checks' inlined draws against `rng.uniform`.

The `reference_*` functions below are the point-form laws as written
before `outer_law`, `slide_law` and `winch_law` existed: `min`/`max`
clamps, parameters read on every call. Outputs are compared bit for bit,
so signed zeros and NaN handling count.
"""

import itertools
import math
import random
import struct
from array import array
from dataclasses import replace

import pytest

from tetherlaunch import properties
from tetherlaunch.controller import (
    combine_refs,
    default_control_params,
    outer_law,
    slide_law,
    winch_law,
)

INF = math.inf
NAN = math.nan


def bits(value) -> str:
    """Exact identity of a float (sign of zero and NaN included), or the
    letter of a zone."""
    if isinstance(value, str):
        return value
    return struct.pack("<d", value).hex()


def reference_clamp(value, low, high):
    return min(high, max(low, value))


def reference_slide_torque(angle_ref, angle, speed, gains):
    torque = gains.position_gain * (angle_ref - angle) - gains.speed_gain * speed
    return reference_clamp(torque, -gains.torque_limit, gains.torque_limit)


def reference_winch_torque(speed_ref, speed, gains):
    torque = gains.speed_gain * (speed_ref - speed)
    return reference_clamp(torque, -gains.torque_limit, gains.torque_limit)


def reference_classify_zone(compression, p):
    if compression < p.zone_low:
        return "a"
    if compression < p.zone_high:
        return "b"
    return "c"


def reference_winch_fbck(prev_ref, compression, p):
    zone = reference_classify_zone(compression, p)
    if zone == "a":
        scale = (compression - p.zone_low) / (p.reelin_anchor - p.zone_low)
        ref = min(0.0, max(p.ref_min, prev_ref
                           + p.sample_period * p.reelin_accel * scale))
    elif zone == "b":
        ref = prev_ref
    else:
        scale = (compression - p.zone_high) / (p.reelout_anchor - p.zone_high)
        ref = max(0.0, min(p.ref_max, prev_ref
                           + p.sample_period * p.reelout_accel * scale))
    return ref, zone


@pytest.fixture
def control():
    return default_control_params()


def edge_values(*points):
    """Non-finite values, signed zeros, and each point with its float
    neighbours."""
    values = [NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
    for x in points:
        values += [x, math.nextafter(x, -INF), math.nextafter(x, INF)]
    return values


class TestClosureEquivalence:
    def test_outer_law(self, control):
        p = control.outer
        # A sample period so short that the ramp increment underflows to a
        # signed zero, so -0.0 reaches the clamps.
        tiny = replace(p, sample_period=5e-324)
        compressions = edge_values(p.zone_low, p.zone_high, p.reelin_anchor,
                                   p.reelout_anchor, 0.075, 0.35)
        refs = edge_values(p.ref_min, p.ref_max, 0.0, -5.0, 50.0)
        for params in (p, tiny):
            step = outer_law(params)
            for prev_ref, compression in itertools.product(refs, compressions):
                got = step(prev_ref, compression)
                want = reference_winch_fbck(prev_ref, compression, params)
                assert list(map(bits, got)) == list(map(bits, want)), \
                    (params.sample_period, prev_ref, compression)

    def test_outer_law_edges(self, control):
        p = control.outer
        step = outer_law(p)
        assert step(0.0, p.zone_low) == (0.0, "b")
        assert step(0.0, p.zone_high)[1] == "c"
        # NaN compression falls in zone C and saturates at ref_max.
        assert step(0.0, NAN) == (p.ref_max, "c")
        # A -0.0 inherited at the zone edge comes out as +0.0.
        ref, zone = step(-0.0, p.zone_high)
        assert zone == "c" and bits(ref) == bits(0.0)
        tiny = outer_law(replace(p, sample_period=5e-324))
        ref, zone = tiny(-0.0, math.nextafter(p.zone_low, 0.0))
        assert zone == "a" and bits(ref) == bits(0.0)

    def test_torque_laws(self, control):
        slide, winch = control.slide, control.winch
        values = edge_values(0.0, 1.0, -1.0, 37.0,
                             slide.torque_limit / slide.position_gain)
        slide_drive = slide_law(slide)
        for args in itertools.product(values, repeat=3):
            assert bits(slide_drive(*args)) == \
                bits(reference_slide_torque(*args, slide)), args
        winch_drive = winch_law(winch)
        for args in itertools.product(values, repeat=2):
            assert bits(winch_drive(*args)) == \
                bits(reference_winch_torque(*args, winch)), args

    def test_nan_torque_saturates_negative(self, control):
        slide, winch = control.slide, control.winch
        assert slide_law(slide)(NAN, 0.0, 0.0) == -slide.torque_limit
        assert winch_law(winch)(0.0, NAN) == -winch.torque_limit


def recording(factory, log):
    """A stand-in for a law factory whose laws log (inputs, outputs)."""
    def build(params):
        law = factory(params)

        def recorded(*args):
            out = law(*args)
            log.append(args + (out if isinstance(out, tuple) else (out,)))
            return out

        return recorded

    return build


def exact(records):
    """The floats of logged records as raw bytes, with their zones, so
    that equal results are equal bit for bit."""
    values = [v for record in records for v in record]
    zones = [v for v in values if isinstance(v, str)]
    floats = array("d", [v for v in values if not isinstance(v, str)])
    return [len(r) for r in records], floats.tobytes(), zones


class TestDrawReplay:
    """Each check, run with the closures' calls logged, against the draw
    loop it replaced: `rng.uniform`, `min`/`max` and the point-form laws
    on the same seed. Inputs and outputs must agree bit for bit."""

    def test_walk(self, control, monkeypatch):
        outer, n = control.outer, 100_000
        want = []
        rng = random.Random(properties._SEED)
        travel = outer.reelout_anchor + 0.15
        ref = lo = hi = 0.0
        compression = 0.0
        for _ in range(n):
            if rng.random() < 0.01:
                compression = rng.uniform(0.0, travel)
            else:
                compression = min(travel, max(0.0, compression
                                              + rng.uniform(-0.01, 0.01)))
            prev = ref
            ref, zone = reference_winch_fbck(ref, compression, outer)
            want.append((prev, compression, ref, zone))
            lo = min(lo, ref)
            hi = max(hi, ref)

        got = []
        monkeypatch.setattr(properties, "outer_law",
                            recording(outer_law, got))
        check = properties.check_fbck_reference_bounded(outer, n=n)
        assert check.passed
        assert exact(got) == exact(want)
        assert f"reference range [{lo:.3f}, {hi:.3f}] rad/s" in check.detail
        assert {entry[3] for entry in want} == {"a", "b", "c"}

    def test_zone_b(self, control, monkeypatch):
        outer, n = control.outer, 1000
        want = []
        rng = random.Random(properties._SEED + 1)
        for _ in range(50):
            ref = rng.uniform(outer.ref_min, outer.ref_max)
            for _ in range(n):
                compression = rng.uniform(outer.zone_low,
                                          outer.zone_high - 1e-12)
                prev = ref
                ref, zone = reference_winch_fbck(ref, compression, outer)
                want.append((prev, compression, ref, zone))

        got = []
        monkeypatch.setattr(properties, "outer_law",
                            recording(outer_law, got))
        assert properties.check_zone_b_holds(outer, n=n).passed
        assert exact(got) == exact(want)

    def test_zone_entry(self, control, monkeypatch):
        outer, n = control.outer, 10000
        want = []
        rng = random.Random(properties._SEED + 2)
        travel = outer.reelout_anchor + 0.15
        for _ in range(n):
            positive = rng.uniform(1e-9, outer.ref_max)
            compression = rng.uniform(0.0, outer.zone_low - 1e-12)
            want.append((positive, compression)
                        + reference_winch_fbck(positive, compression, outer))
            negative = rng.uniform(outer.ref_min, -1e-9)
            compression = rng.uniform(outer.zone_high, travel)
            want.append((negative, compression)
                        + reference_winch_fbck(negative, compression, outer))

        got = []
        monkeypatch.setattr(properties, "outer_law",
                            recording(outer_law, got))
        assert properties.check_zone_entry_resaturation(outer, n=n).passed
        assert exact(got) == exact(want)

    def test_combine_refs(self, monkeypatch):
        n = 100_000
        want = []
        rng = random.Random(properties._SEED + 3)
        for _ in range(n):
            ffwd = rng.uniform(-150.0, 150.0)
            fbck = rng.uniform(-150.0, 150.0)
            slide_speed = rng.choice((0.0, rng.uniform(-100.0, 100.0)))
            want.append((ffwd, fbck, slide_speed,
                         combine_refs(ffwd, fbck, slide_speed)))

        got = []

        def recorded(*args):
            out = combine_refs(*args)
            got.append(args + (out,))
            return out

        monkeypatch.setattr(properties, "combine_refs", recorded)
        assert properties.check_combine_refs(n=n).passed
        assert exact(got) == exact(want)

    def test_torque_saturation(self, control, monkeypatch):
        n = 100_000
        want_slide, want_winch = [], []
        rng = random.Random(properties._SEED + 4)
        for _ in range(n):
            args = (rng.uniform(-500, 500), rng.uniform(-500, 500),
                    rng.uniform(-300, 300))
            want_slide.append(
                args + (reference_slide_torque(*args, control.slide),))
            args = (rng.uniform(-300, 300), rng.uniform(-300, 300))
            want_winch.append(
                args + (reference_winch_torque(*args, control.winch),))

        got_slide, got_winch = [], []
        monkeypatch.setattr(properties, "slide_law",
                            recording(slide_law, got_slide))
        monkeypatch.setattr(properties, "winch_law",
                            recording(winch_law, got_winch))
        assert properties.check_torque_saturation(
            control.slide, control.winch, n=n).passed
        assert exact(got_slide) == exact(want_slide)
        assert exact(got_winch) == exact(want_winch)
