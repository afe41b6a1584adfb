"""The validate-command property suite itself: all green, fast, and
reproducible."""

import time

import pytest

from tetherlaunch.properties import run_property_suite


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
