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
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from .controller import ControlParams, default_control_params
from .model import SystemParams, default_system_params
from .spring_design import SizingConfig, default_sizing_config
from .takeoff import TakeoffConfig, default_takeoff_config


class ConfigError(ValueError):
    """A config file could not be parsed or violates an invariant."""


@dataclass(frozen=True)
class AppConfig:
    """Everything one run needs: plant, controller, and the settings of
    the sizing run and of the take-off."""

    system: SystemParams
    control: ControlParams
    sizing: SizingConfig
    takeoff: TakeoffConfig


def default_app_config() -> AppConfig:
    """The full prototype setup, equivalent to loading an empty file."""
    return AppConfig(
        system=default_system_params(),
        control=default_control_params(),
        sizing=default_sizing_config(),
        takeoff=default_takeoff_config(),
    )


# The sections whose keys are the fields of the SystemParams part of the
# same name, in the order their raw values are checked.
_SYSTEM_SECTIONS = ("aircraft", "tether", "spring", "winch", "slide", "ambient")

# The controller and simulation keys, by the AppConfig field each one sets
# (a dotted path). simulation.dt sets both sizing.dt and takeoff.dt. A
# key's default is the value of its field in default_app_config().
_FLAT_KEYS = {
    "control.slide.position_gain": ("controller", "slide_position_gain"),
    "control.slide.speed_gain": ("controller", "slide_speed_gain"),
    "control.slide.torque_limit": ("controller", "slide_torque_limit"),
    "control.winch.speed_gain": ("controller", "winch_speed_gain"),
    "control.winch.torque_limit": ("controller", "winch_torque_limit"),
    "control.outer.ffwd_gain": ("controller", "ffwd_gain"),
    "control.outer.zone_low": ("controller", "zone_low"),
    "control.outer.zone_high": ("controller", "zone_high"),
    "control.outer.reelin_anchor": ("controller", "reelin_anchor"),
    "control.outer.reelout_anchor": ("controller", "reelout_anchor"),
    "control.outer.ref_min": ("controller", "ref_min"),
    "control.outer.ref_max": ("controller", "ref_max"),
    "control.outer.reelin_accel": ("controller", "reelin_accel"),
    "control.outer.reelout_accel": ("controller", "reelout_accel"),
    "control.outer.sample_period": ("controller", "sample_period"),
    "sizing.dt": ("simulation", "dt"),
    "sizing.max_time": ("simulation", "max_time"),
    "sizing.force_tolerance": ("simulation", "force_tolerance"),
    "sizing.position": ("simulation", "initial_position"),
    "sizing.speed": ("simulation", "initial_speed"),
    "sizing.speed_deficit": ("simulation", "speed_deficit"),
    "takeoff.slide_travel": ("simulation", "slide_travel"),
    "takeoff.takeoff_speed": ("simulation", "takeoff_speed"),
    "takeoff.climb_angle_deg": ("simulation", "climb_angle_deg"),
    "takeoff.initial_slack": ("simulation", "initial_slack"),
    "takeoff.rail_length": ("simulation", "rail_length"),
    "takeoff.dt": ("simulation", "dt"),
    "takeoff.duration": ("simulation", "duration"),
}


def _section_defaults(defaults: AppConfig) -> dict[str, dict]:
    """Every section's keys with their values in `defaults`."""
    sections = {}
    for name in _SYSTEM_SECTIONS:
        part = getattr(defaults.system, name)
        sections[name] = {f.name: getattr(part, f.name) for f in fields(part)}
    for path, (section, key) in _FLAT_KEYS.items():
        sections.setdefault(section, {}).setdefault(
            key, attrgetter(path)(defaults))
    return sections


def _merge_section(name: str, values: dict, provided: dict) -> None:
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


def load_config(path: str | Path | None = None,
                overrides: dict[str, dict] | None = None) -> AppConfig:
    """Parse a JSON config file, fill defaults, and build the records.

    `overrides` ({section: {key: value}}) is merged over the file's
    sections and checked like file values. Raises ConfigError with the
    offending section.key on parse errors, unknown keys, or invariant
    violations. The take-off's rules across parts are checked where a
    take-off runs (takeoff.check_takeoff), not here.
    """
    raw = {} if path is None else _read_json(path)
    for section, values in (overrides or {}).items():
        provided = raw.setdefault(section, {})
        if isinstance(provided, dict):
            raw[section] = {**provided, **values}

    defaults = default_app_config()
    merged = _section_defaults(defaults)
    for section in raw:
        if section not in merged:
            raise ConfigError(f"{section}: unknown section")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"{section}: must be a JSON object")

    for name, values in merged.items():
        _merge_section(name, values, raw.get(name, {}))
    return _assemble(merged, defaults)


def _read_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not text.strip():
        return {}
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack allows.
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _build(section: str, default, values: dict):
    """`default` with its fields replaced by `values`, validated."""
    try:
        return replace(default, **values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _assemble(merged: dict[str, dict], defaults: AppConfig) -> AppConfig:
    system = SystemParams(**{
        f.name: _build(f.name, getattr(defaults.system, f.name),
                       merged[f.name])
        for f in fields(SystemParams)
    })

    # The fields the flat keys set, by the path of their AppConfig part.
    parts: dict[str, dict] = {}
    for path, (section, key) in _FLAT_KEYS.items():
        part, _, field = path.rpartition(".")
        parts.setdefault(part, {})[field] = merged[section][key]

    control = ControlParams(**{
        f.name: _build("controller", getattr(defaults.control, f.name),
                       parts[f"control.{f.name}"])
        for f in fields(ControlParams)
    })

    return AppConfig(
        system=system, control=control,
        sizing=_build("simulation", defaults.sizing, parts["sizing"]),
        takeoff=_build("simulation", defaults.takeoff, parts["takeoff"]))
