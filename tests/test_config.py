"""Config loading tests: defaults, overrides, and rejection paths."""

import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tetherlaunch.config import (
    AppConfig,
    ConfigError,
    default_app_config,
    load_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def readme_config() -> dict:
    """The JSON block of the README's Configuration section."""
    section = README.read_text(encoding="utf-8").split("## Configuration")[1]
    return json.loads(section.split("```json\n")[1].split("```")[0])


README_KEYS = [(section, key)
               for section, values in readme_config().items()
               for key in values]


def leaves(obj, prefix="") -> dict:
    """Every leaf field of a nested dataclass, by dotted path."""
    if not is_dataclass(obj):
        return {prefix: obj}
    out = {}
    for f in fields(obj):
        out.update(leaves(getattr(obj, f.name),
                          f"{prefix}.{f.name}" if prefix else f.name))
    return out


def nudged_fields(tmp_path, section, key) -> dict:
    """The AppConfig leaves that change when `section.key` is set one ulp
    above its README default, with their new values."""
    value = math.nextafter(readme_config()[section][key], math.inf)
    before = leaves(load_config(None))
    after = leaves(load_config(write(tmp_path, {section: {key: value}})))
    return {path: after[path] for path in before if after[path] != before[path]}


class TestDefaults:
    def test_no_path_gives_defaults(self):
        assert load_config(None) == default_app_config()

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_config(write(tmp_path, "")) == default_app_config()

    def test_empty_object_gives_defaults(self, tmp_path):
        assert load_config(write(tmp_path, {})) == default_app_config()

    def test_reference_values(self):
        config = default_app_config()
        assert config.system.aircraft.mass == 1.2
        assert config.system.aircraft.max_thrust == 10.0
        assert config.system.aircraft.min_cruise_speed == 7.0
        assert config.system.tether.breaking_load == 4500.0
        assert config.system.tether.breaking_elongation == 0.02
        assert config.system.spring.stiffness == 70.0
        assert config.system.spring.max_travel == 0.35
        assert config.system.winch.radius == 0.1
        assert config.system.winch.max_torque == 13.0
        assert config.system.winch.inertia == 0.1
        assert config.system.slide.equivalent_mass == 11.2
        assert config.control.slide.position_gain == 14.0
        assert config.control.slide.speed_gain == 2.5
        assert config.control.slide.torque_limit == 26.0
        assert config.control.winch.speed_gain == 1.0
        assert config.control.winch.torque_limit == 13.0
        assert config.control.outer.ffwd_gain == 1.2
        assert config.control.outer.zone_low == 0.05
        assert config.control.outer.zone_high == 0.1
        assert config.control.outer.ref_min == -10.0
        assert config.control.outer.ref_max == 120.0
        assert config.control.outer.reelin_accel == -100.0
        assert config.control.outer.reelout_accel == 30.0
        assert config.control.outer.sample_period == 0.001
        assert config.ic.position == 20.0
        assert config.ic.speed == 10.0
        assert config.ic.speed_deficit == 4.0
        assert config.takeoff.slide_travel == 3.7
        assert config.takeoff.takeoff_speed == 9.0
        assert config.takeoff.climb_angle_deg == 30.0
        assert config.dt == 1e-4


class TestKeyTable:
    def test_readme_block_gives_defaults(self, tmp_path):
        assert load_config(write(tmp_path, readme_config())) == load_config(None)

    def test_readme_lists_every_key(self):
        assert len(README_KEYS) == 48

    @pytest.mark.parametrize("section, key", README_KEYS,
                             ids=[f"{s}.{k}" for s, k in README_KEYS])
    def test_key_sets_its_fields(self, tmp_path, section, key):
        changed = nudged_fields(tmp_path, section, key)
        value = math.nextafter(readme_config()[section][key], math.inf)
        assert set(changed.values()) == {value}
        if (section, key) == ("simulation", "dt"):
            assert sorted(changed) == ["dt", "takeoff.dt"]
        else:
            assert len(changed) == 1

    def test_keys_cover_every_field_once(self, tmp_path):
        set_by = [path for section, key in README_KEYS
                  for path in nudged_fields(tmp_path, section, key)]
        assert sorted(set_by) == sorted(leaves(load_config(None)))


class TestOverrides:
    def test_section_override(self, tmp_path):
        path = write(tmp_path, {"spring": {"max_travel": 0.2}})
        config = load_config(path)
        assert config.system.spring.max_travel == 0.2
        assert config.system.spring.stiffness == 70.0  # untouched default

    def test_controller_and_simulation(self, tmp_path):
        path = write(tmp_path, {
            "controller": {"ffwd_gain": 0.9},
            "simulation": {"speed_deficit": 2.0, "dt": 5e-5},
        })
        config = load_config(path)
        assert config.control.outer.ffwd_gain == 0.9
        assert config.ic.speed_deficit == 2.0
        assert config.dt == 5e-5
        assert config.takeoff.dt == 5e-5

    def test_overrides_without_file(self):
        config = load_config(None, {"simulation": {"dt": 5e-5,
                                                   "duration": 0.8}})
        assert config == replace(
            default_app_config(), dt=5e-5,
            takeoff=replace(default_app_config().takeoff, dt=5e-5,
                            duration=0.8))

    def test_overrides_win_over_file(self, tmp_path):
        path = write(tmp_path, {"simulation": {"dt": "bad", "duration": 2.0},
                                "spring": {"max_travel": 0.2}})
        config = load_config(path, {"simulation": {"dt": 5e-5}})
        assert config.dt == config.takeoff.dt == 5e-5
        assert config.takeoff.duration == 2.0
        assert config.system.spring.max_travel == 0.2

    @pytest.mark.parametrize("key, value, message", [
        ("dt", math.inf, "simulation.dt: must be finite (got inf)"),
        ("dt", -1, "simulation.dt: must be > 0 (got -1.0)"),
        ("dt", "1e-4", "simulation.dt: expected a number (got '1e-4')"),
        ("duration", 0.0, "simulation: duration must be > 0 (got 0.0)"),
        ("step", 1e-4, "simulation.step: unknown key"),
    ])
    def test_overrides_checked_like_file_values(self, tmp_path, key, value,
                                                message):
        values = {"simulation": {key: value}}
        with pytest.raises(ConfigError) as exc:
            load_config(None, values)
        assert str(exc.value) == message
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, values))
        assert str(exc.value) == message

    def test_integers_accepted_as_floats(self, tmp_path):
        path = write(tmp_path, {"winch": {"max_torque": 13}})
        assert load_config(path).system.winch.max_torque == 13.0


class TestRejection:
    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(write(tmp_path, "{none}"))

    def test_deep_nesting(self, tmp_path):
        with pytest.raises(ConfigError, match="config.json: invalid JSON"):
            load_config(write(tmp_path, "[" * 100_000))

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(ConfigError, match="top level"):
            load_config(write(tmp_path, "[1, 2]"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="pulley: unknown section"):
            load_config(write(tmp_path, {"pulley": {}}))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="spring.foo: unknown key"):
            load_config(write(tmp_path, {"spring": {"foo": 1.0}}))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ConfigError, match="spring.stiffness"):
            load_config(write(tmp_path, {"spring": {"stiffness": "stiff"}}))
        with pytest.raises(ConfigError, match="expected a number"):
            load_config(write(tmp_path, {"spring": {"stiffness": True}}))

    def test_invariant_violation_names_field_and_bound(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=r"spring: max_travel must be > 0"):
            load_config(write(tmp_path, {"spring": {"max_travel": -1.0}}))

    def test_zone_thresholds_must_fit_travel(self, tmp_path):
        with pytest.raises(ConfigError, match="zone_high"):
            load_config(write(tmp_path, {"spring": {"max_travel": 0.08}}))

    def test_takeoff_speed_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="takeoff_speed"):
            load_config(write(tmp_path, {"simulation": {"takeoff_speed": 6.5}}))

    def test_slide_heavier_than_aircraft(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(
                "slide.equivalent_mass: must be > aircraft.mass "
                "(got 1.0 <= 1.2)")):
            load_config(write(tmp_path, {"slide": {"equivalent_mass": 1.0}}))
        with pytest.raises(ConfigError, match="slide.equivalent_mass"):
            load_config(write(tmp_path, {"aircraft": {"mass": 11.2}}))

    def test_nonpositive_step(self, tmp_path):
        with pytest.raises(ConfigError, match="simulation.dt"):
            load_config(write(tmp_path, {"simulation": {"dt": 0.0}}))

    @pytest.mark.parametrize("text, key", [
        ('{"spring": {"free_friction": NaN}}', "spring.free_friction"),
        ('{"controller": {"ffwd_gain": Infinity}}', "controller.ffwd_gain"),
        ('{"simulation": {"speed_deficit": -Infinity}}',
         "simulation.speed_deficit"),
        ('{"spring": {"endstop_gain": 1' + "0" * 400 + '}}',
         "spring.endstop_gain"),
    ])
    def test_non_finite_value(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=rf"{key}: must be finite"):
            load_config(write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json: No such file"):
            load_config(tmp_path / "missing.json")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="config.json: not UTF-8 text"):
            load_config(path)


# Any JSON leaf: plain and huge numbers, NaN and +-Infinity, strings,
# bools, null and short lists.
JSON_LEAF = st.one_of(
    st.floats(min_value=-1.0, max_value=200.0),
    st.floats(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.floats() | st.integers(), max_size=3),
)


def key_value(section, key):
    """The key's README default or, as often, any JSON leaf."""
    default = readme_config()[section][key]
    return st.booleans().flatmap(
        lambda keep: st.just(default) if keep else JSON_LEAF)


def nest(entries) -> dict:
    raw = {}
    for (section, key), value in entries:
        raw.setdefault(section, {})[key] = value
    return raw


# A few known keys per file, so that some files pass every check; or
# sections that are not JSON objects.
CONFIG_JSON = (
    st.lists(st.sampled_from(README_KEYS).flatmap(
        lambda sk: st.tuples(st.just(sk), key_value(*sk))), max_size=4)
    .map(nest)
    | st.dictionaries(st.sampled_from(sorted(readme_config())), JSON_LEAF,
                      max_size=2)
)
FLAG_OVERRIDES = st.fixed_dictionaries({}, optional={
    "dt": key_value("simulation", "dt"),
    "duration": key_value("simulation", "duration"),
})


class TestFuzz:
    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=CONFIG_JSON, flags=FLAG_OVERRIDES)
    def test_config_or_config_error(self, tmp_path, raw, flags):
        path = write(tmp_path, raw)
        overrides = {"simulation": flags} if flags else None
        try:
            config = load_config(path, overrides)
        except ConfigError:
            return
        assert isinstance(config, AppConfig)
        assert all(math.isfinite(v) for v in leaves(config).values())
