"""The validate-command property suite itself: all green, fast, and
reproducible."""

import ast
import inspect
import itertools
import math
import re
import time

import pytest

from tetherlaunch import properties
from tetherlaunch.controller import outer_law
from tetherlaunch.properties import run_property_suite

NAN = math.nan


@pytest.fixture(scope="module")
def suite_run(config):
    """One run of the suite plus the wall time it took."""
    start = time.perf_counter()
    checks = run_property_suite(config)
    return checks, time.perf_counter() - start


def test_suite_passes_and_is_fast(suite_run):
    checks, elapsed = suite_run
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert len(checks) == 8
    assert elapsed < 5.0


def test_suite_is_deterministic(config, suite_run):
    first, _ = suite_run
    second = run_property_suite(config)
    assert [(c.name, c.passed, c.detail) for c in first] == \
           [(c.name, c.passed, c.detail) for c in second]


def injected_walk_law(monkeypatch, at, value):
    """Patch `properties.outer_law` so that the walk's law returns `value`
    on call number `at` (from 0) and the real law's result otherwise."""
    def factory(outer):
        step = outer_law(outer)
        calls = itertools.count()

        def law(prev_ref, compression):
            ref = step(prev_ref, compression)
            return value if next(calls) == at else ref
        return law
    monkeypatch.setattr(properties, "outer_law", factory)


class TestWalkBounds:
    """The walk's in-range shortcut: a value outside [lo, hi] must still
    meet the explicit [ref_min, ref_max] test."""

    n, late = 20_000, 15_000

    def test_extremes_set_before_the_late_step(self, config):
        # Both extremes have moved off 0.0 by the late step, so the
        # injected values below land outside a two-sided [lo, hi].
        outer = config.control.outer
        check = properties.check_fbck_reference_bounded(outer, n=self.late)
        assert check.passed
        lo, hi = re.search(r"range \[(\S+), (\S+)\]", check.detail).groups()
        assert float(lo) < 0.0 < float(hi)

    @pytest.mark.parametrize("bound, offset",
                             [("ref_max", 1.0), ("ref_min", -1.0)])
    def test_late_step_out_of_bounds_fails(self, config, monkeypatch,
                                           bound, offset):
        outer = config.control.outer
        bad = getattr(outer, bound) + offset
        injected_walk_law(monkeypatch, self.late, bad)
        check = properties.check_fbck_reference_bounded(outer, n=self.n)
        assert not check.passed
        assert f"{bad:.3f}" in check.detail

    def test_nan_mid_walk_fails(self, config, monkeypatch):
        injected_walk_law(monkeypatch, self.n // 2, NAN)
        check = properties.check_fbck_reference_bounded(config.control.outer,
                                                        n=self.n)
        assert not check.passed


def test_nan_reference_fails_zone_entry(config, monkeypatch):
    monkeypatch.setattr(properties, "outer_law",
                        lambda outer: lambda prev_ref, compression: NAN)
    assert not properties.check_zone_entry_resaturation(
        config.control.outer, n=10).passed


def test_nan_torque_fails_saturation(config, monkeypatch):
    monkeypatch.setattr(properties, "slide_law",
                        lambda gains: lambda *args: NAN)
    control = config.control
    assert not properties.check_torque_saturation(
        control.slide, control.winch, n=10).passed


def test_third_order_scheme_fails_on_order(monkeypatch):
    """Kutta's third-order scheme, in a generic and a flat form that agree
    bit for bit, fails the check on its order alone."""
    assert properties.check_rk4_order().detail.startswith("order 5.00 ")

    def kutta_step(derivs, state, dt):
        make = type(state)._make
        k1 = derivs(state)
        k2 = derivs(make(y + 0.5 * dt * a for y, a in zip(state, k1)))
        k3 = derivs(make(y + dt * (2.0 * b - a)
                         for y, a, b in zip(state, k1, k2)))
        return make(y + dt / 6.0 * (a + 4.0 * b + c)
                    for y, a, b, c in zip(state, k1, k2, k3))

    def kutta_stepper(f, dt):
        def step(*args):
            *state, k1 = args
            k2 = f(*(y + 0.5 * dt * a for y, a in zip(state, k1)))
            k3 = f(*(y + dt * (2.0 * b - a)
                     for y, a, b in zip(state, k1, k2)))
            return tuple(y + dt / 6.0 * (a + 4.0 * b + c)
                         for y, a, b, c in zip(state, k1, k2, k3))
        return step

    monkeypatch.setattr(properties, "rk4_step", kutta_step)
    monkeypatch.setattr(properties, "rk4_stepper", kutta_stepper)
    assert properties._harmonic_period_error(314)[1]
    assert properties._harmonic_period_error(628)[1]
    check = properties.check_rk4_order()
    assert not check.passed
    assert check.detail.startswith("order 3.00 ")


def int_literal(node) -> bool:
    """An int constant, bare or under a unary sign; bools excluded."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                     (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_check_loops_do_float_arithmetic():
    """No check's loop body mixes an int literal into arithmetic: int
    operands take CPython's generic BINARY_OP path, not the float one.
    The draws stay equal either way, so only the source shows it."""
    tree = ast.parse(inspect.getsource(properties))
    checks = [f for f in tree.body if isinstance(f, ast.FunctionDef)
              and f.name.startswith("check_")]
    assert len(checks) == 8
    found = []
    for check in checks:
        for loop in ast.walk(check):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for statement in loop.body:
                for node in ast.walk(statement):
                    if (isinstance(node, ast.BinOp)
                            and (int_literal(node.left)
                                 or int_literal(node.right))):
                        found.append((check.name, node.lineno,
                                      ast.unparse(node)))
    assert not found
