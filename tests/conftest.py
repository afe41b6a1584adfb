"""Shared fixtures: the default setup and the expensive reference runs."""

from __future__ import annotations

import json
import time
import warnings
from contextlib import suppress
from dataclasses import replace

import pytest

from tetherlaunch.cli import main
from tetherlaunch.config import default_app_config, load_config
from tetherlaunch.spring_design import simulate_design
from tetherlaunch.takeoff import TakeoffError, run_takeoff

# When a @given test fails, hypothesis's pytest plugin imports this module
# in its report hook. Its libcst import warns (DeprecationWarning), the
# suite's warnings-as-errors setting makes that an exception inside the
# hook, and pytest stops with INTERNALERROR, hiding the rest of the
# report. Imported here once, with that warning silenced, the module is
# already loaded when the hook asks for it. Without libcst the import
# fails, here and in the hook, which then skips its patch.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def config():
    return default_app_config()


@pytest.fixture(scope="session")
def takeoff_default(config):
    """Default take-off run plus the wall time it took."""
    start = time.perf_counter()
    result = run_takeoff(config.takeoff, config.system, config.control)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="session")
def sizing_runs(config):
    """Sizing traces and verdicts for the three reference travels."""
    runs = {}
    start = time.perf_counter()
    for travel in (0.05, 0.2, 0.35):
        params = replace(config.system,
                         spring=replace(config.system.spring,
                                        max_travel=travel))
        trace = simulate_design(params, config.sizing)
        runs[travel] = (trace, trace.result)
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture
def takeoff_rejection(tmp_path, capsys):
    """A function of config sections that returns the TakeoffError text
    run_takeoff raises for that set-up, once it has checked that the
    set-up loads and that the `takeoff` command rejects it with exit 2,
    exactly that text as its config error line, and no output directory."""
    def reject(sections: dict) -> str:
        config = load_config(None, sections)
        with pytest.raises(TakeoffError) as ran:
            run_takeoff(config.takeoff, config.system, config.control)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sections), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["takeoff", "--quiet", "--config", str(path),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: config: {ran.value}\n"
        assert not out.exists()
        return str(ran.value)
    return reject
