import configparser
import dataclasses
import enum
import io
import json
import math
import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarnpricer import KnockoutType, MarketModel, RateCurve, TermStructureVol
from tarnpricer.cli import (
    _ENGINE_SECTIONS,
    _KNOWN_KEYS,
    ConfigError,
    PRESETS,
    ResultRecord,
    RunConfig,
    _section_fields,
    emit,
    fingerprint,
    main,
    parse_config,
    read_records,
    run,
)
from tarnpricer.fd import BoundaryKind, FdConfig, PinPolicy
from tarnpricer.mc import McConfig

MINIMAL = """
[contract]
strike = 1.0
target = 0.3
knockout = no_gain
fixing_times = 0.25, 0.5, 0.75

[model]
volatility = 0.2

[run]
spot = 1.05
"""

SMALL_RUN = """
[contract]
strike = 1.0
target = 0.3, 0.5
knockout = no_gain, full_gain
fixing_times = 0.1, 0.2, 0.3, 0.4

[model]
volatility = 0.2
domestic_rate = 0.01

[run]
spot = 1.05
engines = fd, mc

[fd]
spot_nodes = 60
accumulation_nodes = 10
time_steps = 16

[mc]
paths = 4000
seed = 7

[output]
format = records
"""


class TestParseConfig:
    def test_minimal_config_applies_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.fd.theta == 0.5
        assert cfg.fd.domain_width_sigmas == 3.5
        assert cfg.fd.spot_nodes == 500
        assert cfg.mc.control_variate is True
        assert cfg.mc.cv_coefficient is None
        assert cfg.engines == ("fd", "mc")
        assert cfg.beta == 1
        assert cfg.output_format == "human"
        assert cfg.fd.pin_policy is PinPolicy.STRIKE_AND_SPOT
        assert cfg.fd.boundary is BoundaryKind.ZERO_GAMMA
        assert cfg.fd == FdConfig()
        assert cfg.mc == McConfig()

    @pytest.mark.parametrize("name", [
        f"{section}.{f.name}"
        for section, cls in (("fd", FdConfig), ("mc", McConfig))
        for f in dataclasses.fields(cls)
    ])
    def test_engine_keys_are_the_field_names(self, name):
        section, field = name.split(".")
        value = TestFingerprint.CHANGED[name]
        if isinstance(value, enum.Enum):
            raw = value.value
        elif isinstance(value, bool):
            raw = "on" if value else "off"
        else:
            raw = str(value)
        key = "paths" if field == "n_paths" else field
        cfg = parse_config(MINIMAL + f"\n[{section}]\n{key} = {raw}\n")
        parsed = getattr(cfg, section)
        assert parsed == dataclasses.replace(type(parsed)(), **{field: value})
        assert type(getattr(parsed, field)) is type(value)

    @pytest.mark.parametrize("section, line, message", [
        ("fd", "domain_width_sigmas = inf",
         "fd: domain_width_sigmas must be a finite real number, got inf"),
        ("mc", "cv_coefficient = nan", "mc: cv_coefficient must be a finite real number"),
        ("fd", "pin_policy = strike_only", "fd.pin_policy: unknown value 'strike_only'"),
        ("fd", "boundary = dirichlet_neumann", "fd.boundary: unknown value"),
        ("fd", "spot_nodes = 60.5", "fd.spot_nodes: expected an integer"),
        ("fd", "spot_nodes = 3",
         "fd: spot_nodes must be at least 4 with the zero_gamma boundary"),
        ("fd", "theta =", "fd.theta: expected a number"),
        ("mc", "control_variate = maybe", "mc.control_variate: expected on/off"),
        ("mc", "control_variate = off\ncv_coefficient = 0.7",
         "mc: cv_coefficient is pinned but control_variate is off"),
        ("fd", "theta = 50%", "fd.theta: expected a number, got '50%'"),
    ])
    def test_rejects_bad_engine_key(self, section, line, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(MINIMAL + f"\n[{section}]\n{line}\n")

    def test_readme_example_parses_to_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(example)
        assert cfg.fd == FdConfig()
        assert cfg.mc == McConfig()

    def test_unknown_keys_listed(self):
        bad = MINIMAL + "\n[fd]\nbanana = 1\nsplit = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "banana" in str(err.value)
        assert "split" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="pricing"):
            parse_config(MINIMAL + "\n[pricing]\nx = 1\n")

    def test_negative_target_names_constraint(self):
        bad = MINIMAL.replace("target = 0.3", "target = -1")
        with pytest.raises(ConfigError, match="target must be positive"):
            parse_config(bad)

    def test_extra_payments_length_mismatch(self):
        bad = MINIMAL + "\n"
        bad = bad.replace("fixing_times = 0.25, 0.5, 0.75",
                          "fixing_times = 0.25, 0.5, 0.75\nextra_payments = 0.1, 0.1")
        with pytest.raises(ConfigError, match="3 entries"):
            parse_config(bad)

    @pytest.mark.parametrize("old, new, field", [
        ("strike = 1.0", "strike = nan", "contract.strike"),
        ("target = 0.3", "target = inf", "contract.target"),
        ("fixing_times = 0.25, 0.5, 0.75", "fixing_times = 0.25, 0.5, inf",
         "contract.fixing_times"),
        ("fixing_times = 0.25, 0.5, 0.75",
         "fixing_times = 0.25, 0.5, 0.75\nextra_payments = 0.1, nan, 0.1",
         "contract.extra_payments"),
        ("beta = 1", "beta = 2", "contract.beta"),
        ("spot = 1.05", "spot = nan", "run.spot"),
        ("spot = 1.05", "spot = inf", "run.spot"),
        ("spot = 1.05", "spot = -1.05", "run.spot"),
    ])
    def test_rejects_bad_field_by_name(self, old, new, field):
        text = MINIMAL.replace("strike = 1.0", "strike = 1.0\nbeta = 1")
        assert old in text
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            parse_config(text.replace(old, new))

    def test_missing_volatility(self):
        bad = MINIMAL.replace("volatility = 0.2", "")
        with pytest.raises(ConfigError, match="volatility"):
            parse_config(bad)

    def test_conflicting_volatility_specs(self):
        bad = MINIMAL.replace(
            "volatility = 0.2",
            "volatility = 0.2\nvolatility_times = 0.0\nvolatility_values = 0.2")
        with pytest.raises(ConfigError, match="conflicting"):
            parse_config(bad)

    def test_unknown_engine(self):
        bad = MINIMAL.replace("spot = 1.05", "spot = 1.05\nengines = fd, pde")
        with pytest.raises(ConfigError, match="pde"):
            parse_config(bad)

    def test_local_vol_file(self, tmp_path):
        surface = tmp_path / "vol.txt"
        body = np.zeros((3, 3))
        body[0, 1:] = [0.5, 2.0]
        body[1:, 0] = [0.0, 1.0]
        body[1:, 1:] = 0.2
        np.savetxt(surface, body)
        text = MINIMAL.replace("volatility = 0.2", "volatility_file = vol.txt")
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert cfg.model.vol.values.shape == (2, 2)

    def test_missing_local_vol_file(self):
        text = MINIMAL.replace("volatility = 0.2", "volatility_file = nope.txt")
        with pytest.raises(ConfigError, match="not found"):
            parse_config(text)

    def test_short_local_vol_file_rejected_by_key(self, tmp_path):
        np.savetxt(tmp_path / "vol.txt", np.full((2, 2), 0.2))
        text = MINIMAL.replace("volatility = 0.2", "volatility_file = vol.txt")
        with pytest.raises(ConfigError, match=r"^model\.volatility_file: .*vol\.txt: "
                                              r"surface file needs at least a 3x3 matrix$"):
            parse_config(text, base_dir=str(tmp_path))

    def test_term_structure_rates(self):
        text = MINIMAL.replace(
            "volatility = 0.2",
            "volatility = 0.2\ndomestic_rate_times = 0.0, 0.5\n"
            "domestic_rate_values = 0.02, 0.04")
        cfg = parse_config(text)
        assert cfg.model.domestic.rates == (0.02, 0.04)

    @pytest.mark.parametrize("old, new, key", [
        ("target = 0.3", "target = 0.3,,0.5,", "contract.target"),
        ("target = 0.3", "target = 0.3,", "contract.target"),
        ("fixing_times = 0.25, 0.5, 0.75", "fixing_times = 0.25,, 0.5",
         "contract.fixing_times"),
        ("fixing_times = 0.25, 0.5, 0.75", "fixing_times = , 0.25, 0.5",
         "contract.fixing_times"),
        ("volatility = 0.2", "volatility_times = 0.0, 0.5\nvolatility_values = 0.2,,",
         "model.volatility_values"),
        ("volatility = 0.2", "volatility_times = 0.0, 0.5\nvolatility_values = 0.2, ,0.3",
         "model.volatility_values"),
        ("spot = 1.05", "spot = 1.05\nengines = fd,,mc", "run.engines"),
        ("spot = 1.05", "spot = 1.05\nengines = fd,", "run.engines"),
        ("knockout = no_gain", "knockout = no_gain,,part_gain", "contract.knockout"),
    ], ids=["target-inner", "target-trailing", "fixing_times-inner",
            "fixing_times-leading", "volatility_values-trailing",
            "volatility_values-blank", "engines-inner", "engines-trailing",
            "knockout-inner"])
    def test_empty_list_entry_rejected_by_key(self, old, new, key):
        with pytest.raises(ConfigError, match=f"^{key}: empty entry"):
            parse_config(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old, new, message", [
        ("[contract]", "strike = 1.0\n[contract]",
         "cannot parse configuration: File contains no section headers"),
        ("[model]\nvolatility = 0.2", "", "missing required section [model]"),
        ("target = 0.3", "", "contract.target: required key is missing"),
        ("spot = 1.05", "", "run.spot: required key is missing"),
    ], ids=["no-section-header", "no-model-section", "no-target", "no-spot"])
    def test_missing_structure_rejected_by_name(self, old, new, message):
        assert old in MINIMAL
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(MINIMAL.replace(old, new))

    def test_whitespace_separated_lists(self):
        cfg = parse_config(MINIMAL.replace(
            "fixing_times = 0.25, 0.5, 0.75", "fixing_times = 0.25 0.5\t0.75"
        ).replace("target = 0.3", "target = 0.3 0.5"))
        assert cfg.fixing_times == (0.25, 0.5, 0.75)
        assert cfg.targets == (0.3, 0.5)

    def test_knockout_names_in_any_case(self):
        cfg = parse_config(MINIMAL.replace("knockout = no_gain",
                                           "knockout = No_Gain , FULL_GAIN"))
        assert cfg.knockouts == (KnockoutType.NO_GAIN, KnockoutType.FULL_GAIN)

    def test_unknown_knockout_lists_the_values(self):
        bad = MINIMAL.replace("knockout = no_gain", "knockout = no_gain, x")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert str(err.value) == (
            "contract.knockout: unknown value 'x' (use full_gain, no_gain, part_gain)")


CURVES = ("domestic_rate", "foreign_rate", "volatility")

# Every [model] key; each curve is one flat key or a times/values pair.
MODEL_KEYS = [f"{curve}{form}" for curve in CURVES
              for form in ("", "_times", "_values")] + ["volatility_file"]

BAD_CURVE_SPECS = {
    "flat and times": "{c} = 0.2\n{c}_times = 0.0",
    "flat and values": "{c} = 0.2\n{c}_values = 0.3, 0.4",
    "times alone": "{c}_times = 0.0",
    "values alone": "{c}_values = 0.2",
    "non-finite flat": "{c} = nan",
}


def with_model(lines: str) -> str:
    """MINIMAL with ``lines`` as its [model] section."""
    return MINIMAL.replace("volatility = 0.2", lines)


def write_surface(path, corner_value="0.2"):
    """A 2x2 local-volatility surface file; its first sigma is ``corner_value``."""
    path.write_text(f"0 0.5 2.0\n0.0 {corner_value} 0.2\n1.0 0.2 0.2\n")


class TestModelCurves:
    @pytest.mark.parametrize("case", sorted(BAD_CURVE_SPECS))
    @pytest.mark.parametrize("curve", CURVES)
    def test_bad_curve_rejected_by_name(self, curve, case):
        lines = BAD_CURVE_SPECS[case].format(c=curve)
        if curve != "volatility":
            lines += "\nvolatility = 0.2"
        with pytest.raises(ConfigError, match=f"^model\\.{curve}: "):
            parse_config(with_model(lines))

    def test_volatility_and_file_rejected(self, tmp_path):
        write_surface(tmp_path / "vol.txt")
        text = with_model("volatility = 0.2\nvolatility_file = vol.txt")
        with pytest.raises(ConfigError, match="^model\\.volatility: conflicting"):
            parse_config(text, base_dir=str(tmp_path))

    def test_curve_forms(self, tmp_path):
        write_surface(tmp_path / "vol.txt")
        cfg = parse_config(with_model(
            "domestic_rate_times = 0.0, 0.5\ndomestic_rate_values = 0.02, -0.01\n"
            "foreign_rate = 0.03\nvolatility_file = vol.txt"), base_dir=str(tmp_path))
        assert cfg.model.domestic == RateCurve((0.0, 0.5), (0.02, -0.01))
        assert cfg.model.foreign == RateCurve.flat(0.03)
        assert cfg.model.vol.values.shape == (2, 2)
        cfg = parse_config(with_model("volatility_times = 0.0, 0.5\n"
                                      "volatility_values = 0.2, 0.3"))
        assert cfg.model.domestic == cfg.model.foreign == RateCurve.flat(0.0)
        assert cfg.model.vol == TermStructureVol((0.0, 0.5), (0.2, 0.3))

    @given(
        key=st.sampled_from(MODEL_KEYS),
        value=st.one_of(
            st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e999"]),
            st.floats(max_value=-1e-300, allow_infinity=False).map(repr),
            st.text(string.ascii_letters + "%$!?_-+.", min_size=1, max_size=8),
        ),
    )
    def test_bad_model_value_rejected_by_name(self, key, value):
        """A non-finite, negative or non-numeric [model] value is a
        ConfigError that starts with its curve's key; only a negative
        rate level is a valid value."""
        curve = key.removesuffix("_times").removesuffix("_values")
        if key == "volatility_file":
            lines = "volatility_file = vol.txt"
        elif key.endswith("_times"):
            lines = f"{key} = 0.0, {value}\n{curve}_values = 0.2, 0.2"
        elif key.endswith("_values"):
            lines = f"{curve}_times = 0.0, 0.5\n{key} = 0.2, {value}"
        else:
            lines = f"{key} = {value}"
        if not curve.startswith("volatility"):
            lines += "\nvolatility = 0.2"
        with tempfile.TemporaryDirectory() as tmp:
            write_surface(Path(tmp) / "vol.txt", value)
            try:
                cfg = parse_config(with_model(lines), base_dir=tmp)
            except ConfigError as exc:
                assert str(exc).startswith(f"model.{curve}")
                return
        rate_level = curve != "volatility" and not key.endswith("_times")
        assert rate_level and -math.inf < float(value) < 0.0
        rates = getattr(cfg.model, curve.removesuffix("_rate")).rates
        assert rates[-1] == float(value)


class TestFingerprint:
    def test_changes_with_pricing_fields(self):
        base = parse_config(SMALL_RUN)
        changed = parse_config(SMALL_RUN.replace("target = 0.3, 0.5",
                                                 "target = 0.31, 0.5"))
        assert fingerprint(base) != fingerprint(changed)
        seeded = parse_config(SMALL_RUN.replace("seed = 7", "seed = 8"))
        assert fingerprint(base) != fingerprint(seeded)

    # A changed value per field; a field added to one of these dataclasses
    # fails here until it has an entry, so it cannot drop out of the hash.
    CHANGED = {
        "strike": 1.01,
        "beta": -1,
        "targets": (0.3, 0.6),
        "knockouts": (KnockoutType.PART_GAIN, KnockoutType.FULL_GAIN),
        "fixing_times": (0.1, 0.2, 0.3, 0.45),
        "extra_payments": (0.0, 0.0, 0.0, 0.01),
        # SMALL_RUN's model with the same sigma in another vol class
        "model": MarketModel(RateCurve.flat(0.01), RateCurve.flat(0.0),
                             TermStructureVol((0.0,), (0.2,))),
        "spot": 1.06,
        "engines": ("fd",),
        "output_format": "human",
        "output_path": "out.jsonl",
        "refine": True,
        "convergence": True,
        "fd.spot_nodes": 61,
        "fd.accumulation_nodes": 11,
        "fd.time_steps": 17,
        "fd.theta": 1.0,
        "fd.domain_width_sigmas": 4.0,
        "fd.pin_policy": PinPolicy.STRIKE_ONLY_THEN_INTERPOLATE,
        "fd.boundary": BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION,
        "fd.implicit_startup_steps": 2,
        "mc.n_paths": 4001,
        "mc.seed": 8,
        "mc.substeps_per_interval": 2,
        "mc.control_variate": False,
        "mc.cv_coefficient": 1.0,
    }

    @pytest.mark.parametrize("name", [
        f"{prefix}{f.name}"
        for prefix, cls in (("", RunConfig), ("fd.", FdConfig), ("mc.", McConfig))
        for f in dataclasses.fields(cls)
        if f.name not in ("fd", "mc")  # covered field by field
    ])
    def test_every_field_is_hashed(self, name):
        base = parse_config(SMALL_RUN)
        if "." in name:
            section, field = name.split(".")
            nested = dataclasses.replace(getattr(base, section),
                                         **{field: self.CHANGED[name]})
            cfg = dataclasses.replace(base, **{section: nested})
        else:
            cfg = dataclasses.replace(base, **{name: self.CHANGED[name]})
        if name in ("output_format", "output_path"):
            assert fingerprint(cfg) == fingerprint(base)
        else:
            assert fingerprint(cfg) != fingerprint(base)

    def test_unchanged_by_output_settings(self):
        base = parse_config(SMALL_RUN)
        human = parse_config(SMALL_RUN.replace("format = records",
                                               "format = human"))
        assert fingerprint(base) == fingerprint(human)


# Values of the wrong kind for any number: non-finite, or words with no
# digit, which parse as a number only when they spell a non-finite one.
NON_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e999"]),
    st.text(string.ascii_letters + "%$!?_-+.", min_size=1, max_size=8),
)
NON_INTEGERS = NON_NUMBERS | st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer()).map(repr)
NON_POSITIVE = st.floats(max_value=0.0, allow_infinity=False).map(repr)
# Integers of 310 digits or more: too large for a float.
TOO_LARGE = st.integers(min_value=10**309, max_value=10**400).map(str)


def below(bound):
    return st.integers(max_value=bound - 1).map(str)


def words_but(valid):
    return st.text(string.ascii_letters + "_", min_size=1, max_size=8).filter(
        lambda w: w.lower() not in valid)


# For every key of [contract], [run], [fd] and [mc]: values that must be
# rejected, as non-finite, of the wrong kind or out of range.
BAD_VALUES = {
    ("contract", "strike"): NON_NUMBERS | NON_POSITIVE,
    ("contract", "target"): NON_NUMBERS | NON_POSITIVE,
    ("contract", "beta"): NON_INTEGERS | st.integers().filter(
        lambda b: b not in (1, -1)).map(str),
    ("contract", "knockout"): words_but({k.value for k in KnockoutType}),
    ("contract", "fixing_times"): (NON_NUMBERS | NON_POSITIVE).map(
        lambda v: f"{v}, 0.5, 0.75"),
    ("contract", "extra_payments"): NON_NUMBERS.map(lambda v: f"0, {v}, 0") | st.lists(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), min_size=1).filter(
        lambda xs: len(xs) != 3).map(", ".join),
    ("run", "spot"): NON_NUMBERS | NON_POSITIVE,
    ("run", "engines"): words_but({"fd", "mc"}),
    ("fd", "spot_nodes"): NON_INTEGERS | below(4) | TOO_LARGE,
    ("fd", "accumulation_nodes"): NON_INTEGERS | below(4) | TOO_LARGE,
    ("fd", "time_steps"): NON_INTEGERS | below(1) | TOO_LARGE,
    ("fd", "theta"): NON_NUMBERS | st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not 0.0 <= x <= 1.0).map(repr),
    ("fd", "domain_width_sigmas"): NON_NUMBERS | NON_POSITIVE,
    ("fd", "pin_policy"): words_but({p.value for p in PinPolicy}),
    ("fd", "boundary"): words_but({b.value for b in BoundaryKind}),
    ("fd", "implicit_startup_steps"): NON_INTEGERS | below(0) | TOO_LARGE,
    ("mc", "paths"): NON_INTEGERS | below(2) | TOO_LARGE,
    ("mc", "seed"): NON_INTEGERS | below(0) | TOO_LARGE,
    ("mc", "substeps_per_interval"): NON_INTEGERS | below(1) | TOO_LARGE,
    ("mc", "control_variate"): words_but(configparser.ConfigParser.BOOLEAN_STATES),
    ("mc", "cv_coefficient"): NON_NUMBERS,
}


def with_value(section: str, key: str, value: str) -> str:
    """MINIMAL with ``key = value`` in ``section``, added or replaced."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MINIMAL)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


class TestSectionFuzz:
    def test_every_key_is_fuzzed(self):
        keys = {("contract", k) for k in _KNOWN_KEYS["contract"]}
        keys |= {("run", k) for k in _KNOWN_KEYS["run"]}
        keys |= {(name, k) for name, cls in _ENGINE_SECTIONS.items()
                 for k in _section_fields(cls)}
        assert set(BAD_VALUES) == keys

    @pytest.mark.parametrize("section, key", sorted(BAD_VALUES),
                             ids=[f"{s}.{k}" for s, k in sorted(BAD_VALUES)])
    @settings(max_examples=30)  # 21 keys: a few seconds in all
    @given(data=st.data())
    def test_bad_value_rejected_by_key(self, section, key, data):
        """A value that is non-finite, of the wrong kind or out of range is
        a ConfigError that starts with its key: ``section.key`` when it is
        read, ``section: field`` when an engine config checks it."""
        value = data.draw(BAD_VALUES[section, key], label="value")
        with pytest.raises(ConfigError) as err:
            parse_config(with_value(section, key, value))
        field = _section_fields(_ENGINE_SECTIONS[section])[key].name \
            if section in _ENGINE_SECTIONS else key
        assert re.match(rf"{section}(\.{key}|: {field})\b", str(err.value)), str(err.value)


    @pytest.mark.parametrize("section, key", [
        (section, key) for section, key in sorted(BAD_VALUES)
        if section in _ENGINE_SECTIONS
        and type(_section_fields(_ENGINE_SECTIONS[section])[key].default) is int
    ])
    def test_int_too_large_for_a_float_rejected_by_key(self, section, key):
        # it used to parse, then fail in the engine naming no field
        field = _section_fields(_ENGINE_SECTIONS[section])[key].name
        with pytest.raises(ConfigError, match=rf"^{section}: {field} must be an integer "
                                              "that a float can hold, got 1000"):
            parse_config(with_value(section, key, str(10**400)))


class TestRunConfig:
    @pytest.mark.parametrize("field, value, key", [
        ("strike", math.nan, "contract.strike must be"),
        ("fixing_times", (0.1, math.inf), "contract.fixing_times must be"),
        ("targets", (), "contract.target: at least one"),
        ("knockouts", (), "contract.knockout: at least one"),
        ("spot", math.nan, "run.spot must be"),
        ("engines", ("pde",), "run.engines: unknown engine 'pde'"),
        ("engines", (), "run.engines: at least one engine"),
        ("output_format", "xml", "output.format: must be"),
        ("knockouts", ("no_gain",), "contract.knockout must be a KnockoutType"),
        ("refine", "yes", "refine must be a bool, got 'yes'"),
        ("convergence", 1, "convergence must be a bool, got 1"),
        ("beta", 1.0, "contract.beta must be an integer that a float can hold, got 1.0"),
        ("beta", True, "contract.beta must be an integer that a float can hold, got True"),
        ("targets", (0.3, 0.5, 0.3), "contract.target: 0.3 is listed twice"),
        ("targets", (0.5, np.float64(0.5)), "contract.target: 0.5 is listed twice"),
        ("knockouts", (KnockoutType.NO_GAIN, KnockoutType.FULL_GAIN, KnockoutType.NO_GAIN),
         "contract.knockout: no_gain is listed twice"),
        ("engines", ("fd", "fd"), "run.engines: fd is listed twice"),
        ("strike", "1.0", "contract.strike must be a finite real number, got '1.0'"),
        ("strike", True, "contract.strike must be a finite real number, got True"),
        ("spot", "1.05", "run.spot must be a finite real number, got '1.05'"),
        ("spot", True, "run.spot must be a finite real number, got True"),
    ])
    def test_hand_built_config_rejected_by_key(self, field, value, key):
        base = PRESETS["table1"]()
        with pytest.raises(ValueError, match=f"^{key}"):
            dataclasses.replace(base, **{field: value})

    def test_refine_and_convergence_rejected_together(self):
        base = PRESETS["table1"]()
        with pytest.raises(ValueError, match="^refine, convergence: "):
            dataclasses.replace(base, refine=True, convergence=True)

    @pytest.mark.parametrize("study", ["refine", "convergence"])
    def test_error_study_without_fd_rejected(self, study):
        base = PRESETS["table1"]()
        with pytest.raises(ValueError, match=f"^{study}: needs the fd engine in run.engines$"):
            dataclasses.replace(base, engines=("mc",), **{study: True})

    @pytest.mark.parametrize("name, value", [
        (f"{cls.__name__}.{f.name}", value)
        for cls in (FdConfig, McConfig)
        for f in dataclasses.fields(cls)
        if type(f.default) is int
        for value in (f.default + 0.5, True)
    ] + [("McConfig.seed", -3)])
    def test_integer_fields_reject_other_values_by_name(self, name, value):
        # int() would truncate 1.5, numpy would fail on it naming no field,
        # and a bool would pass as 0 or 1
        cls_name, field = name.split(".")
        cls = {"FdConfig": FdConfig, "McConfig": McConfig}[cls_name]
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cls(**{field: value})

    @pytest.mark.parametrize("cls, field, value, message", [
        (FdConfig, "boundary", "zero_gamma", "boundary must be a BoundaryKind"),
        (FdConfig, "pin_policy", "strike_and_spot", "pin_policy must be a PinPolicy"),
        (FdConfig, "pin_policy", BoundaryKind.ZERO_GAMMA, "pin_policy must be a PinPolicy"),
        (McConfig, "control_variate", "no", "control_variate must be a bool"),
        (McConfig, "control_variate", 1, "control_variate must be a bool"),
        (FdConfig, "theta", True, "theta must be a finite real number"),
        (FdConfig, "theta", "0.5", "theta must be a finite real number"),
        (FdConfig, "domain_width_sigmas", True,
         "domain_width_sigmas must be a finite real number"),
        (FdConfig, "domain_width_sigmas", "3.5",
         "domain_width_sigmas must be a finite real number"),
        (McConfig, "cv_coefficient", True, "cv_coefficient must be a finite real number"),
        (McConfig, "cv_coefficient", "1.0", "cv_coefficient must be a finite real number"),
    ])
    def test_fields_reject_the_wrong_kind_by_name(self, cls, field, value, message):
        # the engines test enum fields with `is`: a string would price with
        # the other choice, and any truthy string would turn an option on;
        # theta=True priced fully implicit, and theta="0.5" raised a
        # TypeError naming no field
        with pytest.raises(ValueError, match=f"^{message}, got {value!r}$"):
            cls(**{field: value})

    @pytest.mark.parametrize("cls, field, value", [
        (FdConfig, "theta", 1),
        (FdConfig, "domain_width_sigmas", np.float64(3.0)),
        (McConfig, "cv_coefficient", 1),
    ], ids=["FdConfig.theta-int", "FdConfig.domain_width_sigmas-float64",
            "McConfig.cv_coefficient-int"])
    def test_float_fields_accept_any_real_number(self, cls, field, value):
        assert getattr(cls(**{field: value}), field) == value

    @pytest.mark.parametrize("old, new, message", [
        ("target = 0.3, 0.5", "target = 0.3, 0.5, 0.30",
         "contract.target: 0.3 is listed twice"),
        ("knockout = no_gain, full_gain", "knockout = no_gain, full_gain, No_Gain",
         "contract.knockout: no_gain is listed twice"),
        ("engines = fd, mc", "engines = fd, mc, FD", "run.engines: fd is listed twice"),
    ])
    def test_repeated_case_in_config_file_rejected_by_key(self, old, new, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(SMALL_RUN.replace(old, new))


class TestRunAndEmit:
    def test_small_run_produces_expected_records(self):
        cfg = parse_config(SMALL_RUN)
        records = run(cfg)
        engines = [r.engine for r in records]
        # 4 cases x (fd, mc, diff)
        assert engines.count("fd") == 4
        assert engines.count("mc") == 4
        assert engines.count("diff") == 4
        for r in records:
            if r.engine == "mc":
                assert r.error_kind == "stderr"
                assert r.error_metric > 0
            if r.engine == "diff":
                assert r.error_kind == "relative_difference"

    def test_numpy_integer_config_runs_with_the_plain_fingerprint(self):
        cfg = dataclasses.replace(parse_config(SMALL_RUN), engines=("fd",))
        numpy_cfg = dataclasses.replace(
            cfg, fd=dataclasses.replace(cfg.fd, spot_nodes=np.int64(60)))
        records = run(numpy_cfg)
        assert len(records) == 4
        assert all(r.status == "ok" for r in records)
        assert fingerprint(numpy_cfg) == fingerprint(cfg)
        assert {r.fingerprint for r in records} == {fingerprint(cfg)}

    def test_records_round_trip(self):
        cfg = parse_config(SMALL_RUN)
        records = run(cfg)
        text = emit(records, "records")
        back = read_records(text)
        assert back == records

    def test_emit_to_file(self, tmp_path):
        rec = ResultRecord(engine="fd", knockout="no_gain", target=0.3,
                           price=0.1, error_metric=None, error_kind="none",
                           grid="10x4x10", wall_time_s=0.0, fingerprint="ab")
        out = tmp_path / "results.jsonl"
        emit([rec], "records", str(out))
        assert read_records(out.read_text()) == [rec]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            emit([], "records")

    def test_unknown_format_rejected_by_name(self):
        rec = ResultRecord(engine="fd", knockout="no_gain", target=0.3, price=0.1,
                           error_metric=None, error_kind="none", grid="10x4x10",
                           wall_time_s=0.0, fingerprint="ab")
        with pytest.raises(ValueError, match="^unknown output format 'xml'$"):
            emit([rec], "xml")

    def test_human_table_layout(self):
        cfg = parse_config(SMALL_RUN)
        records = run(cfg)
        table = emit(records, "human")
        assert "== no_gain ==" in table
        assert "== full_gain ==" in table
        assert "MC" in table and "FD" in table and "diff %" in table

    def test_human_table_full_text(self):
        def rec(engine, knockout, target, price, error_metric=None,
                error_kind="none", grid="", wall=0.0, status="ok"):
            return ResultRecord(
                engine=engine, knockout=knockout, target=target, price=price,
                error_metric=error_metric, error_kind=error_kind, grid=grid,
                wall_time_s=wall, fingerprint="0123456789ab", status=status)

        records = [
            rec("fd", "no_gain", 0.3, 0.14472, 0.00123, "refined_relative_error",
                "60x10x16", 0.125),
            rec("fd", "no_gain", 0.3, 0.145531, grid="120x20x32", wall=0.5),
            rec("fd_order", "no_gain", 0.3, 3.449202),
            rec("mc", "no_gain", 0.3, 0.14597, 0.0012869, "stderr", "4000paths", 0.311),
            rec("diff", "no_gain", 0.3, -0.00125, 0.008563, "relative_difference"),
            rec("fd", "no_gain", 0.5, math.nan, grid="60x10x2",
                status="error: too few time steps"),
            rec("mc", "no_gain", 0.5, 0.2141, 0.00158, "stderr", "4000paths", 1.234,
                "ok (control variate disabled for local volatility)"),
            rec("fd", "full_gain", 0.3, 0.21281, grid="60x10x16", wall=0.07),
            rec("mc", "full_gain", 0.3, math.nan, grid="2paths",
                status="error: n_paths too small"),
            rec("mc", "full_gain", 0.5, 0.26094, 0.0011661, "stderr", "4000paths", 0.29),
        ]
        header = ("    target          MC          FD      diff %  stderr MC %"
                  "      MC sec    err FD %      FD sec")
        assert emit(records, "human") == "\n".join([
            "== no_gain ==",
            header,
            "       0.3      0.1460      0.1447      0.8563      0.8816"
            "        0.31      0.1230        0.12",
            "       0.5      0.2141      failed           -      0.7380"
            "        1.23           -           -",
            "",
            "== full_gain ==",
            header,
            "       0.3      failed      0.2128           -           -"
            "           -           -        0.07",
            "       0.5      0.2609           -           -      0.4469"
            "        0.29           -           -",
            "",
            "fd no_gain target=0.3 grid=120x20x32 value=0.145531 [ok]",
            "fd_order no_gain target=0.3 grid=- value=3.449202 [ok]",
            "",
        ])

    def test_determinism_excluding_wall_time(self):
        cfg = parse_config(SMALL_RUN)
        first = emit(run(cfg), "records")
        second = emit(run(cfg), "records")

        def strip(text):
            out = []
            for line in text.splitlines():
                d = json.loads(line)
                d.pop("wall_time_s")
                out.append(json.dumps(d, sort_keys=True))
            return "\n".join(out)

        assert strip(first) == strip(second)

    def test_fd_error_metric_present_with_refine(self):
        import dataclasses

        cfg = parse_config(SMALL_RUN)
        cfg = dataclasses.replace(cfg, refine=True, engines=("fd",),
                                  targets=(0.3,), knockouts=cfg.knockouts[:1])
        records = run(cfg)
        fd = [r for r in records if r.engine == "fd"][0]
        assert fd.error_kind == "refined_relative_error"
        assert fd.error_metric >= 0.0

    def test_convergence_mode_emits_order(self):
        import dataclasses

        cfg = parse_config(SMALL_RUN)
        cfg = dataclasses.replace(cfg, convergence=True, engines=("fd",),
                                  targets=(0.3,), knockouts=cfg.knockouts[:1])
        records = run(cfg)
        grids = [r.grid for r in records if r.engine == "fd"]
        assert grids == ["60x10x16", "120x20x32", "240x40x64"]
        orders = [r for r in records if r.engine == "fd_order"]
        assert len(orders) == 1


class TestMain:
    def test_preset_registered(self):
        assert "table1" in PRESETS
        cfg = PRESETS["table1"]()
        assert cfg.spot == 1.05
        assert cfg.strike == 1.0
        assert len(cfg.targets) == 4
        assert len(cfg.knockouts) == 3
        assert len(cfg.fixing_times) == 20
        assert cfg.fixing_times[0] == pytest.approx(30 / 365)

    def test_config_file_run(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert len(read_records(out)) == 12

    def test_output_file_and_engine_filter(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        dest = tmp_path / "out.jsonl"
        code = main([str(path), "--engines", "fd", "--output", str(dest),
                     "--format", "records"])
        assert code == 0
        records = read_records(dest.read_text())
        assert {r.engine for r in records} == {"fd"}

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        dest = tmp_path / "no" / "such" / "out.jsonl"
        assert main([str(path), "--engines", "fd", "--output", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert str(dest) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_output_rejected_before_pricing(self, tmp_path, capsys,
                                                       monkeypatch, where):
        def no_pricing(config):
            pytest.fail("run() was called for an unwritable output")
        monkeypatch.setattr("tarnpricer.cli.run", no_pricing)
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        dest = tmp_path / "no" / "out.jsonl" if where == "missing_directory" else tmp_path
        assert main([str(path), "--output", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output: {dest}: ")
        assert captured.out == ""

    def test_output_file_is_untouched_until_the_write(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        dest = tmp_path / "out.jsonl"
        dest.write_text("kept")
        seen = []

        def priced(config):
            seen.append(dest.read_text())
            return [ResultRecord(engine="fd", knockout="no_gain", target=0.3, price=0.1,
                                 error_metric=None, error_kind="none", grid="",
                                 wall_time_s=0.0, fingerprint="f")]
        monkeypatch.setattr("tarnpricer.cli.run", priced)
        assert main([str(path), "--output", str(dest)]) == 0
        assert seen == ["kept"]
        assert len(read_records(dest.read_text())) == 1

    def test_seed_override_changes_mc(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        main([str(path), "--engines", "mc", "--seed", "1"])
        first = capsys.readouterr().out
        main([str(path), "--engines", "mc", "--seed", "2"])
        second = capsys.readouterr().out
        p1 = [r.price for r in read_records(first)]
        p2 = [r.price for r in read_records(second)]
        assert p1 != p2

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace("target = 0.3", "target = -1"))
        assert main([str(path)]) == 1
        assert "target must be positive" in capsys.readouterr().err

    def test_non_finite_strike_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace("strike = 1.0", "strike = nan"))
        assert main([str(path)]) == 1
        assert "contract.strike must be a finite real number, got nan" in capsys.readouterr().err

    def test_non_finite_rate_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(with_model("volatility = 0.2\ndomestic_rate = nan"))
        assert main([str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: model.domestic_rate: ")

    @pytest.mark.parametrize("engines, message", [
        ("fd,pde", "--engines: unknown engine 'pde'"),
        (" , ", "--engines: at least one engine"),
        ("", "--engines: at least one engine"),
        ("fd,,mc", "--engines: empty entry in 'fd,,mc'"),
        ("fd,fd", "--engines: fd is listed twice"),
    ])
    def test_engine_override_validated(self, tmp_path, capsys, engines, message):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        assert main([str(path), "--engines", engines]) == 1
        assert message in capsys.readouterr().err

    def test_seed_override_error_names_the_flag(self, capsys):
        assert main(["--preset", "table1", "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --seed: seed must be an integer of at least 0 "
                                "that a float can hold, got -3\n")
        assert captured.out == ""

    def test_refine_with_convergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        assert main([str(path), "--refine", "--convergence"]) == 1
        assert "refine, convergence" in capsys.readouterr().err

    def test_refine_without_fd_exit_code(self, capsys):
        assert main(["--preset", "table1", "--engines", "mc", "--refine"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: refine: needs the fd engine in run.engines\n"
        assert captured.out == ""

    def test_missing_config_exit_code(self, capsys):
        assert main([]) == 1

    def test_config_file_and_preset_rejected_together(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        assert main([str(path), "--preset", "table1"]) == 1
        assert capsys.readouterr().err == ("error: give either a config file or "
                                           "--preset, not both\n")

    def test_unreadable_config_file_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file: ")
        assert str(tmp_path) in err

    def test_parse_error_names_the_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("spot = 1.0\n" + SMALL_RUN)
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse configuration: ")
        assert f"file: {str(path)!r}" in err

    def test_failed_write_exit_code(self, tmp_path, capsys, monkeypatch):
        # the directory exists, so _check_writable passes; the write then fails
        def failing_emit(records, output_format, destination=None):
            raise OSError("disk full")
        monkeypatch.setattr("tarnpricer.cli.emit", failing_emit)
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        dest = tmp_path / "out.jsonl"
        assert main([str(path), "--engines", "fd", "--output", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cannot write output: disk full\n"
        assert captured.out == ""

    def test_engine_failure_exit_code(self, tmp_path, capsys):
        # 4 fixing intervals but only 2 time steps: the FD engine refuses
        path = tmp_path / "fail.cfg"
        path.write_text(SMALL_RUN.replace("time_steps = 16", "time_steps = 2"))
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 2
        records = read_records(out)
        assert any(r.status.startswith("error") for r in records)
        # partial results still emitted: mc records are fine
        assert any(r.engine == "mc" and r.status.startswith("ok")
                   for r in records)
