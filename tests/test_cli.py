import dataclasses
import enum
import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarnpricer import KnockoutType, MarketModel, RateCurve, TermStructureVol
from tarnpricer.cli import (
    ConfigError,
    PRESETS,
    ResultRecord,
    RunConfig,
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
         "fd: domain_width_sigmas must be positive and finite"),
        ("mc", "cv_coefficient = nan", "mc: cv_coefficient must be finite"),
        ("fd", "pin_policy = strike_only", "fd.pin_policy: unknown value 'strike_only'"),
        ("fd", "boundary = dirichlet_neumann", "fd.boundary: unknown value"),
        ("fd", "spot_nodes = 60.5", "fd.spot_nodes: expected an integer"),
        ("fd", "spot_nodes = 3",
         "fd: spot_nodes must be at least 4 with the zero_gamma boundary"),
        ("fd", "theta =", "fd.theta: expected a number"),
        ("mc", "control_variate = maybe", "mc.control_variate: expected on/off"),
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
    ])
    def test_hand_built_config_rejected_by_key(self, field, value, key):
        base = PRESETS["table1"]()
        with pytest.raises(ValueError, match=f"^{key}"):
            dataclasses.replace(base, **{field: value})

    def test_refine_and_convergence_rejected_together(self):
        base = PRESETS["table1"]()
        with pytest.raises(ValueError, match="^refine, convergence: "):
            dataclasses.replace(base, refine=True, convergence=True)

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
        assert "contract.strike must be positive and finite" in capsys.readouterr().err

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
    ])
    def test_engine_override_validated(self, tmp_path, capsys, engines, message):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        assert main([str(path), "--engines", engines]) == 1
        assert message in capsys.readouterr().err

    def test_seed_override_error_names_the_flag(self, capsys):
        assert main(["--preset", "table1", "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed: seed must be nonnegative\n"
        assert captured.out == ""

    def test_refine_with_convergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_RUN)
        assert main([str(path), "--refine", "--convergence"]) == 1
        assert "refine, convergence" in capsys.readouterr().err

    def test_missing_config_exit_code(self, capsys):
        assert main([]) == 1

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
