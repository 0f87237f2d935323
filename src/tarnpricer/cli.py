"""Batch front end: parse a run configuration, price, emit result tables.

The configuration is sectioned key-value text (INI syntax).  A run prices
every (knockout, target) combination listed in the contract section with
the requested engines and emits either a human-readable table or one JSON
record per line.  ``--preset table1`` selects the built-in benchmark run:
twelve cases (three knockout types, four targets) on a flat model.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import enum
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .contract import KnockoutType, TarnContract
from .fd import (
    FdConfig,
    IntervalPropagators,
    convergence_order,
    estimate_error,
    fd_price,
)
from .market import (
    ConstantVol,
    LocalVolSurface,
    MarketModel,
    RateCurve,
    TermStructureVol,
    check_spot,
)
from .mc import McConfig, mc_price

__all__ = [
    "ConfigError",
    "RunConfig",
    "ResultRecord",
    "parse_config",
    "run",
    "emit",
    "read_records",
    "fingerprint",
    "PRESETS",
    "main",
]

# The benchmark preset measures time in 30-day fixing intervals on a
# 365-day year.  This constant pair is the only place that convention lives.
DAYS_PER_YEAR = 365.0
PRESET_FIXING_DAYS = 30.0


class ConfigError(ValueError):
    """Invalid run configuration; the message names key and constraint."""


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One run: the cases to price, the model, the engines and the output.

    Every case's contract is built, and so checked, on construction; each
    rejection message starts with the configuration key at fault
    (``contract.<field>``, ``run.spot``, ``run.engines`` or ``output.format``).
    """

    strike: float
    beta: int
    targets: tuple[float, ...]
    knockouts: tuple[KnockoutType, ...]
    fixing_times: tuple[float, ...]
    extra_payments: tuple[float, ...] | None
    model: MarketModel
    spot: float
    engines: tuple[str, ...]
    fd: FdConfig
    mc: McConfig
    output_format: str = "human"
    output_path: str | None = None
    refine: bool = False
    convergence: bool = False

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("contract.target: at least one target is required")
        if not self.knockouts:
            raise ValueError("contract.knockout: at least one knockout type is required")
        try:
            check_spot(self.spot)
        except ValueError as exc:
            raise ValueError(f"run.{exc}") from exc
        _check_engines(self.engines, "run.engines")
        if self.output_format not in ("human", "records"):
            raise ValueError("output.format: must be 'human' or 'records'")
        for knockout in self.knockouts:
            for target in self.targets:
                try:
                    _case_contract(self, knockout, target)
                except ValueError as exc:  # the message starts with the field
                    raise ValueError(f"contract.{exc}") from exc


@dataclass(frozen=True)
class ResultRecord:
    engine: str
    knockout: str
    target: float
    price: float
    error_metric: float | None
    error_kind: str
    grid: str
    wall_time_s: float
    fingerprint: str
    status: str = "ok"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        return cls(**d)


_KNOWN_KEYS = {
    "contract": {
        "strike", "beta", "knockout", "target", "fixing_times", "extra_payments",
    },
    "model": {
        "domestic_rate", "domestic_rate_times", "domestic_rate_values",
        "foreign_rate", "foreign_rate_times", "foreign_rate_values",
        "volatility", "volatility_times", "volatility_values", "volatility_file",
    },
    "run": {"spot", "engines"},
    "output": {"format", "path"},
}

# Sections read off a config dataclass: one key per field, named as the
# field except where _KEY_NAMES says otherwise.
_ENGINE_SECTIONS = {"fd": FdConfig, "mc": McConfig}
_KEY_NAMES = {"n_paths": "paths"}


def _section_fields(cls) -> dict[str, dataclasses.Field]:
    """Config key -> dataclass field, for a section read off ``cls``."""
    return {_KEY_NAMES.get(f.name, f.name): f for f in dataclasses.fields(cls)}


def _floats(raw: str, where: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected numbers, got {raw!r}") from exc


def _number(raw: str, kind: type, where: str):
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from exc


def _field_value(raw: str, default, where: str):
    """Parse ``raw`` by the type of a field's ``default``: an enum by its
    value, a bool as on/off, then int, then float; an empty value stands
    for a default of None."""
    if isinstance(default, enum.Enum):
        kind = type(default)
        try:
            return kind(raw.lower())
        except ValueError as exc:
            valid = ", ".join(m.value for m in kind)
            raise ConfigError(f"{where}: unknown value {raw!r} (use {valid})") from exc
    if isinstance(default, bool):
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ConfigError(f"{where}: expected on/off, got {raw!r}")
        return states[raw.lower()]
    if default is None and not raw:
        return None
    return _number(raw, int if isinstance(default, int) else float, where)


def _engine_section(parser, name: str):
    """The section's config dataclass; keys it omits keep their defaults."""
    cls = _ENGINE_SECTIONS[name]
    sec = parser[name] if name in parser else {}
    given = {
        f.name: _field_value(sec[key], f.default, f"{name}.{key}")
        for key, f in _section_fields(cls).items() if key in sec
    }
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_rate_curve(sec, prefix: str) -> RateCurve:
    flat = sec.get(f"{prefix}_rate")
    times = sec.get(f"{prefix}_rate_times")
    values = sec.get(f"{prefix}_rate_values")
    if flat is not None and (times is not None or values is not None):
        raise ConfigError(
            f"model.{prefix}_rate: give either a flat rate or a times/values pair, not both"
        )
    if times is not None or values is not None:
        if times is None or values is None:
            raise ConfigError(
                f"model.{prefix}_rate_times/values: both keys are required together"
            )
        try:
            return RateCurve(
                _floats(times, f"model.{prefix}_rate_times"),
                _floats(values, f"model.{prefix}_rate_values"),
            )
        except ValueError as exc:
            raise ConfigError(f"model.{prefix}_rate: {exc}") from exc
    rate = _number(flat, float, f"model.{prefix}_rate") if flat is not None else 0.0
    return RateCurve.flat(rate)


def _parse_volatility(sec, base_dir: str):
    given = [k for k in ("volatility", "volatility_times", "volatility_file") if k in sec]
    flat = sec.get("volatility")
    times = sec.get("volatility_times")
    values = sec.get("volatility_values")
    path = sec.get("volatility_file")
    chosen = sum(x is not None for x in (flat, times, path))
    if chosen == 0:
        raise ConfigError(
            "model.volatility: a volatility is required (flat value, "
            "times/values pair, or surface file)"
        )
    if chosen > 1:
        raise ConfigError(f"model.volatility: conflicting specifications: {given}")
    try:
        if flat is not None:
            return ConstantVol(_number(flat, float, "model.volatility"))
        if times is not None:
            if values is None:
                raise ConfigError(
                    "model.volatility_values: required alongside volatility_times"
                )
            return TermStructureVol(
                _floats(times, "model.volatility_times"),
                _floats(values, "model.volatility_values"),
            )
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        if not os.path.exists(full):
            raise ConfigError(f"model.volatility_file: file not found: {full}")
        return LocalVolSurface.from_file(full)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"model.volatility: {exc}") from exc


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and fully validate a sectioned key-value configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc

    known = _KNOWN_KEYS | {name: set(_section_fields(cls))
                           for name, cls in _ENGINE_SECTIONS.items()}
    unknown = []
    for section in parser.sections():
        if section not in known:
            unknown.append(f"[{section}]")
            continue
        bad = sorted(set(parser[section]) - known[section])
        if bad:
            unknown.append(f"[{section}]: " + ", ".join(bad))
    if unknown:
        raise ConfigError("unknown configuration keys: " + "; ".join(unknown))

    for required in ("contract", "model", "run"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    con = parser["contract"]
    for key in ("strike", "target", "knockout", "fixing_times"):
        if key not in con:
            raise ConfigError(f"contract.{key}: required key is missing")
    strike = _number(con["strike"], float, "contract.strike")
    beta = _number(con.get("beta", "1"), int, "contract.beta")
    fixing_times = _floats(con["fixing_times"], "contract.fixing_times")
    targets = _floats(con["target"], "contract.target")
    try:
        knockouts = tuple(
            KnockoutType.parse(name) for name in con["knockout"].split(",")
        )
    except ValueError as exc:
        raise ConfigError(f"contract.knockout: {exc}") from exc
    extra_payments = None
    if "extra_payments" in con and con["extra_payments"].strip():
        extra_payments = _floats(con["extra_payments"], "contract.extra_payments")

    mod = parser["model"]
    model = MarketModel(
        domestic=_parse_rate_curve(mod, "domestic"),
        foreign=_parse_rate_curve(mod, "foreign"),
        vol=_parse_volatility(mod, base_dir),
    )

    runsec = parser["run"]
    if "spot" not in runsec:
        raise ConfigError("run.spot: required key is missing")
    spot = _number(runsec["spot"], float, "run.spot")
    out_sec = parser["output"] if "output" in parser else {}
    try:
        return RunConfig(
            strike=strike,
            beta=beta,
            targets=targets,
            knockouts=knockouts,
            fixing_times=fixing_times,
            extra_payments=extra_payments,
            model=model,
            spot=spot,
            engines=_engines(runsec.get("engines", "fd,mc"), "run.engines"),
            fd=_engine_section(parser, "fd"),
            mc=_engine_section(parser, "mc"),
            output_format=out_sec.get("format", "human").lower(),
            output_path=out_sec.get("path") or None,
        )
    except ValueError as exc:  # the message starts with the key at fault
        raise ConfigError(str(exc)) from exc


def _engines(raw: str, where: str) -> tuple[str, ...]:
    engines = tuple(e.strip().lower() for e in raw.split(",") if e.strip())
    _check_engines(engines, where)
    return engines


def _check_engines(engines: tuple[str, ...], where: str) -> None:
    if not engines:
        raise ValueError(f"{where}: at least one engine must be enabled")
    for e in engines:
        if e not in ("fd", "mc"):
            raise ValueError(f"{where}: unknown engine {e!r} (use fd, mc)")


def _payload(value):
    """JSON-ready form of a configuration value: dataclasses become dicts of
    their fields plus their class name, recursively."""
    if dataclasses.is_dataclass(value):
        out = {f.name: _payload(getattr(value, f.name))
               for f in dataclasses.fields(value)}
        out["class"] = type(value).__name__
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_payload(v) for v in value]
    return value


def fingerprint(config: RunConfig) -> str:
    """Short hash over every field of the configuration except the output
    settings, which do not change any price."""
    payload = _payload(config)
    del payload["output_format"], payload["output_path"]
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:12]


def _grid_string(fd_cfg: FdConfig) -> str:
    return f"{fd_cfg.spot_nodes}x{fd_cfg.accumulation_nodes}x{fd_cfg.time_steps}"


def _case_contract(config: RunConfig, knockout: KnockoutType,
                  target: float) -> TarnContract:
    """The contract of one (knockout, target) case of the run."""
    return TarnContract(
        strike=config.strike,
        target=target,
        beta=config.beta,
        fixing_times=config.fixing_times,
        knockout=knockout,
        extra_payments=config.extra_payments,
    )


def run(config: RunConfig) -> list[ResultRecord]:
    """Price every (knockout, target) case with the enabled engines.

    Engine failures are captured per record (status carries the message)
    and do not stop the remaining cases.  The FD cases share one cache of
    interval maps: their spot grid and fixing schedule do not depend on the
    target or the knockout type.
    """
    tag = fingerprint(config)
    records: list[ResultRecord] = []
    propagators = IntervalPropagators(len(config.knockouts) * len(config.targets))
    for knockout in config.knockouts:
        for target in config.targets:
            contract = _case_contract(config, knockout, target)
            fd_value = None
            mc_value = None
            if "fd" in config.engines:
                fd_records = _run_fd_case(config, contract, knockout, target, tag,
                                          propagators)
                records.extend(fd_records)
                ok = [r for r in fd_records if r.engine == "fd" and r.status == "ok"]
                if ok:
                    fd_value = ok[0].price
            if "mc" in config.engines:
                rec = _run_mc_case(config, contract, knockout, target, tag)
                records.append(rec)
                if rec.status.startswith("ok"):
                    mc_value = rec.price
            if fd_value is not None and mc_value is not None and mc_value != 0.0:
                records.append(
                    ResultRecord(
                        engine="diff",
                        knockout=knockout.value,
                        target=target,
                        price=fd_value - mc_value,
                        error_metric=abs(fd_value - mc_value) / abs(mc_value),
                        error_kind="relative_difference",
                        grid="",
                        wall_time_s=0.0,
                        fingerprint=tag,
                    )
                )
    return records


def _run_fd_case(config, contract, knockout, target, tag,
                 propagators) -> list[ResultRecord]:
    common = dict(knockout=knockout.value, target=target, fingerprint=tag)
    try:
        if config.convergence:
            study = convergence_order(contract, config.model, config.fd, config.spot)
            recs = [
                ResultRecord(
                    engine="fd", price=r.price, error_metric=None, error_kind="none",
                    grid="x".join(str(g) for g in r.grid_shape),
                    wall_time_s=r.wall_time, **common,
                )
                for r in study.results
            ]
            recs.append(
                ResultRecord(
                    engine="fd_order", price=study.order, error_metric=None,
                    error_kind="none", grid="", wall_time_s=0.0, **common,
                )
            )
            return recs
        if config.refine:
            est = estimate_error(contract, config.model, config.fd, config.spot)
            return [
                ResultRecord(
                    engine="fd", price=est.coarse.price,
                    error_metric=est.relative_error,
                    error_kind="refined_relative_error",
                    grid=_grid_string(config.fd),
                    wall_time_s=est.coarse.wall_time + est.refined.wall_time,
                    **common,
                )
            ]
        res = fd_price(contract, config.model, config.fd, config.spot,
                       propagators=propagators)
        return [
            ResultRecord(
                engine="fd", price=res.price, error_metric=None, error_kind="none",
                grid=_grid_string(config.fd), wall_time_s=res.wall_time, **common,
            )
        ]
    except Exception as exc:  # capture per-record, keep the batch going
        return [
            ResultRecord(
                engine="fd", price=float("nan"), error_metric=None,
                error_kind="none", grid=_grid_string(config.fd), wall_time_s=0.0,
                status=f"error: {exc}", **common,
            )
        ]


def _run_mc_case(config, contract, knockout, target, tag) -> ResultRecord:
    try:
        res = mc_price(contract, config.model, config.mc, config.spot)
        return ResultRecord(
            engine="mc", knockout=knockout.value, target=target, price=res.price,
            error_metric=res.stderr, error_kind="stderr",
            grid=f"{config.mc.n_paths}paths", wall_time_s=res.wall_time,
            fingerprint=tag,
            status="ok" if not res.cv_downgraded else "ok (control variate disabled for local volatility)",
        )
    except Exception as exc:
        return ResultRecord(
            engine="mc", knockout=knockout.value, target=target,
            price=float("nan"), error_metric=None, error_kind="none",
            grid=f"{config.mc.n_paths}paths", wall_time_s=0.0, fingerprint=tag,
            status=f"error: {exc}",
        )


def emit(records: list[ResultRecord], output_format: str,
         destination: str | None = None) -> str:
    """Serialize records; write to ``destination`` when given.

    ``records`` mode is one self-describing JSON object per line and round
    trips through :func:`read_records`.
    """
    if not records:
        raise ValueError("no records to emit")
    if output_format == "records":
        text = "\n".join(
            json.dumps(r.to_dict(), sort_keys=True) for r in records
        ) + "\n"
    elif output_format == "human":
        text = _human_table(records)
    else:
        raise ValueError(f"unknown output format {output_format!r}")
    if destination:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_records(text: str) -> list[ResultRecord]:
    """Inverse of records-mode :func:`emit`."""
    return [
        ResultRecord.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def _human_table(records: list[ResultRecord]) -> str:
    by_case: dict[tuple[str, float], dict[str, ResultRecord]] = {}
    group_order: list[str] = []
    extras: list[ResultRecord] = []
    for rec in records:
        if rec.engine not in ("fd", "mc", "diff"):
            extras.append(rec)
            continue
        if rec.engine == "fd" and (rec.knockout, rec.target) in by_case and \
                "fd" in by_case[(rec.knockout, rec.target)]:
            extras.append(rec)  # additional grids from a convergence study
            continue
        if rec.knockout not in group_order:
            group_order.append(rec.knockout)
        by_case.setdefault((rec.knockout, rec.target), {})[rec.engine] = rec
    has_mc = any("mc" in v for v in by_case.values())
    has_fd = any("fd" in v for v in by_case.values())
    has_diff = any("diff" in v for v in by_case.values())
    has_fd_err = any(
        v["fd"].error_metric is not None for v in by_case.values() if "fd" in v
    )

    header = ["target"]
    if has_mc:
        header += ["MC"]
    if has_fd:
        header += ["FD"]
    if has_diff:
        header += ["diff %"]
    if has_mc:
        header += ["stderr MC %", "MC sec"]
    if has_fd:
        if has_fd_err:
            header += ["err FD %"]
        header += ["FD sec"]
    widths = [10] * len(header)

    def fmt_row(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    out = io.StringIO()
    for group in group_order:
        out.write(f"== {group} ==\n")
        out.write(fmt_row(header) + "\n")
        for (knockout, target), case in by_case.items():
            if knockout != group:
                continue
            mc = case.get("mc")
            fd = case.get("fd")
            mc_ok = mc is not None and mc.status.startswith("ok")
            fd_ok = fd is not None and fd.status == "ok"
            cells = [f"{target:g}"]
            if has_mc:
                cells += [f"{mc.price:.4f}" if mc_ok else
                          ("failed" if mc else "-")]
            if has_fd:
                cells += [f"{fd.price:.4f}" if fd_ok else
                          ("failed" if fd else "-")]
            if has_diff:
                diff = case.get("diff")
                cells += [f"{100.0 * diff.error_metric:.4f}" if diff else "-"]
            if has_mc:
                cells += [f"{100.0 * mc.error_metric / abs(mc.price):.4f}"
                          if mc_ok and mc.error_metric and mc.price else "-",
                          f"{mc.wall_time_s:.2f}" if mc_ok else "-"]
            if has_fd:
                if has_fd_err:
                    cells += [f"{100.0 * fd.error_metric:.4f}"
                              if fd_ok and fd.error_metric is not None else "-"]
                cells += [f"{fd.wall_time_s:.2f}" if fd_ok else "-"]
            out.write(fmt_row(cells) + "\n")
        out.write("\n")
    for rec in extras:
        out.write(
            f"{rec.engine} {rec.knockout} target={rec.target:g} "
            f"grid={rec.grid or '-'} value={rec.price:.6f} [{rec.status}]\n"
        )
    return out.getvalue()


def preset_table1() -> RunConfig:
    """Benchmark run: 12 cases on a flat model, both engines."""
    times = tuple(k * PRESET_FIXING_DAYS / DAYS_PER_YEAR for k in range(1, 21))
    return RunConfig(
        strike=1.0,
        beta=1,
        targets=(0.3, 0.5, 0.7, 0.9),
        knockouts=(KnockoutType.NO_GAIN, KnockoutType.PART_GAIN,
                   KnockoutType.FULL_GAIN),
        fixing_times=times,
        extra_payments=None,
        model=MarketModel(
            domestic=RateCurve.flat(0.0),
            foreign=RateCurve.flat(0.0),
            vol=ConstantVol(0.2),
        ),
        spot=1.05,
        engines=("fd", "mc"),
        fd=FdConfig(),
        mc=McConfig(),
    )


PRESETS = {"table1": preset_table1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="price",
        description="Price target accumulation notes from a run configuration.",
    )
    parser.add_argument("config", nargs="?", help="run configuration file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="use a built-in run instead of a config file")
    parser.add_argument("--engines", help="comma list overriding the engines to run")
    parser.add_argument("--refine", action="store_true",
                        help="attach a doubled-grid relative error to FD results")
    parser.add_argument("--convergence", action="store_true",
                        help="three-grid convergence study per case")
    parser.add_argument("--output", help="write results to this path")
    parser.add_argument("--format", choices=("human", "records"), dest="fmt",
                        help="output format override")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed override")
    args = parser.parse_args(argv)

    try:
        if args.preset and args.config:
            raise ConfigError("give either a config file or --preset, not both")
        if args.preset:
            config = PRESETS[args.preset]()
        elif args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            config = parse_config(text, base_dir=os.path.dirname(
                os.path.abspath(args.config)))
        else:
            raise ConfigError("a config file or --preset is required")

        overrides = {
            "engines": args.engines and _engines(args.engines, "--engines"),
            "mc": args.seed is not None and dataclasses.replace(config.mc, seed=args.seed),
            "output_format": args.fmt,
            "output_path": args.output,
            "refine": args.refine,
            "convergence": args.convergence,
        }
        config = dataclasses.replace(
            config, **{key: value for key, value in overrides.items() if value})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = run(config)
    text = emit(records, config.output_format, config.output_path)
    if not config.output_path:
        sys.stdout.write(text)
    failed = any(r.status.startswith("error") for r in records)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
