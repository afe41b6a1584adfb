"""JSON configuration with prototype defaults and strict validation.

A config file holds up to eight sections (aircraft, tether, spring, winch,
slide, ambient, controller, simulation); any field left out falls back to
the built-in prototype value, unknown sections or keys are rejected, and
every parsed value has to satisfy the parameter invariants. An empty file
is valid and yields the full default setup.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .controller import (
    ControlParams,
    SlideGains,
    WinchGains,
    WinchOuterParams,
    default_outer_params,
    default_slide_gains,
    default_winch_gains,
)
from .integrator import DEFAULT_FORCE_TOL, DEFAULT_STEP
from .model import (
    AircraftParams,
    AmbientParams,
    InitConditions,
    SlidePlantParams,
    SpringParams,
    SystemParams,
    TetherParams,
    WinchParams,
    default_aircraft_params,
    default_ambient_params,
    default_init_conditions,
    default_slide_params,
    default_spring_params,
    default_tether_params,
    default_winch_params,
)
from .spring_design import DEFAULT_MAX_TIME
from .takeoff import TakeoffConfig, default_takeoff_config


class ConfigError(ValueError):
    """A config file could not be parsed or violates an invariant."""


@dataclass(frozen=True)
class AppConfig:
    """Everything one run needs: plant, controller, and simulation setup."""

    system: SystemParams
    control: ControlParams
    ic: InitConditions
    takeoff: TakeoffConfig
    dt: float               # integration step [s]
    max_time: float         # sizing-study time limit [s]
    force_tolerance: float  # released-force threshold [N]


_CONTROLLER_DEFAULTS = {
    "sample_period": 0.001,
    "slide_position_gain": 14.0,
    "slide_speed_gain": 2.5,
    "slide_torque_limit": 26.0,
    "winch_speed_gain": 1.0,
    "winch_torque_limit": 13.0,
    "ffwd_gain": 1.2,
    "zone_low": 0.05,
    "zone_high": 0.1,
    "reelin_anchor": 0.025,
    "reelout_anchor": 0.2,
    "ref_min": -10.0,
    "ref_max": 120.0,
    "reelin_accel": -100.0,
    "reelout_accel": 30.0,
}

_SIMULATION_DEFAULTS = {
    "dt": DEFAULT_STEP,
    "max_time": DEFAULT_MAX_TIME,
    "force_tolerance": DEFAULT_FORCE_TOL,
    "duration": 3.0,
    "initial_position": 20.0,
    "initial_speed": 10.0,
    "speed_deficit": 4.0,
    "slide_travel": 3.7,
    "takeoff_speed": 9.0,
    "climb_angle_deg": 30.0,
    "initial_slack": 1.0,
    "rail_length": 4.8,
}

_SECTION_DEFAULTS = {
    "aircraft": lambda: _field_values(default_aircraft_params()),
    "tether": lambda: _field_values(default_tether_params()),
    "spring": lambda: _field_values(default_spring_params()),
    "winch": lambda: _field_values(default_winch_params()),
    "slide": lambda: _field_values(default_slide_params()),
    "ambient": lambda: _field_values(default_ambient_params()),
    "controller": lambda: dict(_CONTROLLER_DEFAULTS),
    "simulation": lambda: dict(_SIMULATION_DEFAULTS),
}


def _field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _merge_section(name: str, provided: dict) -> dict:
    values = _SECTION_DEFAULTS[name]()
    for key, value in provided.items():
        if key not in values:
            raise ConfigError(f"{name}.{key}: unknown key")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"{name}.{key}: expected a number (got {value!r})"
            )
        # JSON lets NaN, Infinity and integers beyond float range through.
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{name}.{key}: must be finite (got {value!r})")
        values[key] = number
    return values


def default_app_config() -> AppConfig:
    """The full prototype setup, equivalent to loading an empty file."""
    return AppConfig(
        system=SystemParams(
            aircraft=default_aircraft_params(),
            tether=default_tether_params(),
            spring=default_spring_params(),
            winch=default_winch_params(),
            ambient=default_ambient_params(),
            slide=default_slide_params(),
        ),
        control=ControlParams(
            slide=default_slide_gains(),
            winch=default_winch_gains(),
            outer=default_outer_params(),
        ),
        ic=default_init_conditions(),
        takeoff=default_takeoff_config(),
        dt=DEFAULT_STEP,
        max_time=DEFAULT_MAX_TIME,
        force_tolerance=DEFAULT_FORCE_TOL,
    )


def load_config(path: str | Path | None = None) -> AppConfig:
    """Parse a JSON config file, fill defaults, and validate everything.

    With no path the defaults are returned directly. Raises ConfigError
    with the offending section.key on parse errors, unknown keys, or
    invariant violations.
    """
    if path is None:
        return default_app_config()

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not text.strip():
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    for section in raw:
        if section not in _SECTION_DEFAULTS:
            raise ConfigError(f"{section}: unknown section")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"{section}: must be a JSON object")

    merged = {
        name: _merge_section(name, raw.get(name, {}))
        for name in _SECTION_DEFAULTS
    }
    return _assemble(merged)


def _build(name: str, cls, values: dict):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _assemble(merged: dict) -> AppConfig:
    system = SystemParams(
        aircraft=_build("aircraft", AircraftParams, merged["aircraft"]),
        tether=_build("tether", TetherParams, merged["tether"]),
        spring=_build("spring", SpringParams, merged["spring"]),
        winch=_build("winch", WinchParams, merged["winch"]),
        ambient=_build("ambient", AmbientParams, merged["ambient"]),
        slide=_build("slide", SlidePlantParams, merged["slide"]),
    )

    ctl = merged["controller"]
    control = ControlParams(
        slide=_build("controller", SlideGains, {
            "position_gain": ctl["slide_position_gain"],
            "speed_gain": ctl["slide_speed_gain"],
            "torque_limit": ctl["slide_torque_limit"],
        }),
        winch=_build("controller", WinchGains, {
            "speed_gain": ctl["winch_speed_gain"],
            "torque_limit": ctl["winch_torque_limit"],
        }),
        outer=_build("controller", WinchOuterParams, {
            key: ctl[key] for key in (
                "ffwd_gain", "zone_low", "zone_high", "reelin_anchor",
                "reelout_anchor", "ref_min", "ref_max", "reelin_accel",
                "reelout_accel", "sample_period")
        }),
    )
    if not control.outer.zone_high < system.spring.max_travel:
        raise ConfigError(
            "controller.zone_high: must be < spring.max_travel "
            f"(got {control.outer.zone_high} >= {system.spring.max_travel})"
        )

    sim = merged["simulation"]
    for key in ("dt", "max_time", "force_tolerance"):
        if not sim[key] > 0.0:
            raise ConfigError(f"simulation.{key}: must be > 0 (got {sim[key]})")
    ic = _build("simulation", InitConditions, {
        "position": sim["initial_position"],
        "speed": sim["initial_speed"],
        "speed_deficit": sim["speed_deficit"],
    })
    takeoff = _build("simulation", TakeoffConfig, {
        "slide_travel": sim["slide_travel"],
        "takeoff_speed": sim["takeoff_speed"],
        "climb_angle_deg": sim["climb_angle_deg"],
        "initial_slack": sim["initial_slack"],
        "rail_length": sim["rail_length"],
        "dt": sim["dt"],
        "duration": sim["duration"],
    })
    if takeoff.takeoff_speed <= system.aircraft.min_cruise_speed:
        raise ConfigError(
            "simulation.takeoff_speed: must be > aircraft.min_cruise_speed "
            f"(got {takeoff.takeoff_speed} <= "
            f"{system.aircraft.min_cruise_speed})"
        )

    return AppConfig(
        system=system,
        control=control,
        ic=ic,
        takeoff=takeoff,
        dt=sim["dt"],
        max_time=sim["max_time"],
        force_tolerance=sim["force_tolerance"],
    )
