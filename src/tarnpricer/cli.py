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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .contract import KnockoutType, TarnContract
from .fd import (
    FdConfig,
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
    check_fields,
    check_positive,
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

    Every case's contract is built, and so checked, on construction, and
    no case may be listed twice; each rejection message starts with the
    configuration key at fault (``contract.<field>``, ``run.spot``,
    ``run.engines`` or ``output.format``) or with the fields at fault
    (``refine``, ``convergence`` or ``refine, convergence``).
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
        check_fields(self, names={"targets": "contract.target", "spot": "run.spot"} | {
            f: f"contract.{f}" for f in ("beta", "strike", "fixing_times", "extra_payments")})
        if not self.targets:
            raise ValueError("contract.target: at least one target is required")
        if not self.knockouts:
            raise ValueError("contract.knockout: at least one knockout type is required")
        check_positive(self.spot, "run.spot")
        _check_engines(self.engines, "run.engines")
        if self.output_format not in ("human", "records"):
            raise ValueError("output.format: must be 'human' or 'records'")
        if self.refine and self.convergence:
            raise ValueError("refine, convergence: choose at most one FD error study")
        for study in ("refine", "convergence"):
            if getattr(self, study) and "fd" not in self.engines:
                raise ValueError(f"{study}: needs the fd engine in run.engines")
        for knockout in self.knockouts:
            for target in self.targets:
                try:
                    _case_contract(self, knockout, target)
                except ValueError as exc:  # the message starts with the field
                    raise ValueError(f"contract.{exc}") from exc
        # a case is keyed by (knockout, target), as its records are
        for key, values in (("target", self.targets),
                            ("knockout", [k.value for k in self.knockouts])):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"contract.{key}: {repeated[0]} is listed twice")


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


# The [model] curves, each one flat key or a <curve>_times/<curve>_values pair.
_CURVES = ("domestic_rate", "foreign_rate", "volatility")

_KNOWN_KEYS = {
    "contract": {
        "strike", "beta", "knockout", "target", "fixing_times", "extra_payments",
    },
    "model": {f"{curve}{form}" for curve in _CURVES
              for form in ("", "_times", "_values")} | {"volatility_file"},
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


def _items(raw: str, where: str) -> list[str]:
    """The stripped entries of a comma list.  A blank entry beside a
    non-blank one is rejected, not skipped; an all-blank list has none."""
    items = [item.strip() for item in raw.split(",")]
    if any(items) and not all(items):
        raise ConfigError(f"{where}: empty entry in {raw!r}")
    return items if any(items) else []


def _floats(raw: str, where: str) -> tuple[float, ...]:
    """Numbers separated by commas or whitespace."""
    parts = [p for item in _items(raw, where) for p in item.split()]
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


def _choice(kind: type[enum.Enum], raw: str, where: str):
    """The member of ``kind`` whose value is ``raw``, in any letter case."""
    raw = raw.strip()
    try:
        return kind(raw.lower())
    except ValueError as exc:
        valid = ", ".join(m.value for m in kind)
        raise ConfigError(f"{where}: unknown value {raw!r} (use {valid})") from exc


def _field_value(raw: str, default, where: str):
    """Parse ``raw`` by the type of a field's ``default``: an enum by its
    value, a bool as on/off, then int, then float; an empty value stands
    for a default of None."""
    if isinstance(default, enum.Enum):
        return _choice(type(default), raw, where)
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


def _curve(sec, name: str, flat: Callable, piecewise: Callable):
    """The [model] curve ``name``: ``flat`` of the one key ``name``, or
    ``piecewise`` of the pair ``name_times``/``name_values``; None when no
    key of the curve is given."""
    pair = [f"{name}_times", f"{name}_values"]
    given = [key for key in (name, *pair) if key in sec]
    if not given:
        return None
    if given == [name]:
        curve, args = flat, [_number(sec[name], float, f"model.{name}")]
    elif given == pair:
        curve, args = piecewise, [_floats(sec[key], f"model.{key}") for key in pair]
    else:
        raise ConfigError(
            f"model.{name}: conflicting or incomplete specification {', '.join(given)} "
            f"(give {name}, or {name}_times with {name}_values)"
        )
    try:
        return curve(*args)
    except ValueError as exc:
        raise ConfigError(f"model.{name}: {exc}") from exc


def _volatility(sec, base_dir: str):
    """The volatility curve, or else the surface in ``volatility_file``."""
    vol = _curve(sec, "volatility", ConstantVol, TermStructureVol)
    path = sec.get("volatility_file")
    if path is None:
        if vol is None:
            raise ConfigError(
                "model.volatility: a volatility is required (flat value, "
                "times/values pair, or surface file)"
            )
        return vol
    if vol is not None:
        raise ConfigError(
            "model.volatility: conflicting specification: volatility_file "
            "with a flat or times/values volatility"
        )
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(full):
        raise ConfigError(f"model.volatility_file: file not found: {full}")
    try:
        return LocalVolSurface.from_file(full)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"model.volatility_file: {exc}") from exc


def parse_config(text: str, base_dir: str = ".", source: str = "<string>") -> RunConfig:
    """Parse and fully validate a sectioned key-value configuration.

    ``source`` names the text's file in a parse error.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text, source=source)
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
    knockouts = tuple(_choice(KnockoutType, name, "contract.knockout")
                      for name in _items(con["knockout"], "contract.knockout"))
    extra_payments = None
    if "extra_payments" in con and con["extra_payments"].strip():
        extra_payments = _floats(con["extra_payments"], "contract.extra_payments")

    mod = parser["model"]
    domestic, foreign = (
        _curve(mod, name, RateCurve.flat, RateCurve) or RateCurve.flat(0.0)
        for name in _CURVES[:2]
    )
    model = MarketModel(domestic=domestic, foreign=foreign,
                        vol=_volatility(mod, base_dir))

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
    engines = tuple(e.lower() for e in _items(raw, where))
    _check_engines(engines, where)
    return engines


def _check_engines(engines: tuple[str, ...], where: str) -> None:
    if not engines:
        raise ValueError(f"{where}: at least one engine must be enabled")
    for i, e in enumerate(engines):
        if e not in ("fd", "mc"):
            raise ValueError(f"{where}: unknown engine {e!r} (use fd, mc)")
        if e in engines[:i]:
            raise ValueError(f"{where}: {e} is listed twice")


def _payload(value):
    """JSON-ready form of a configuration value: dataclasses become dicts of
    their fields plus their class name, recursively, and numpy scalars the
    Python numbers they hold."""
    if dataclasses.is_dataclass(value):
        out = {f.name: _payload(getattr(value, f.name))
               for f in dataclasses.fields(value)}
        out["class"] = type(value).__name__
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.ndarray, np.generic)):
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


def _grid_string(shape) -> str:
    """An FD grid as spot x accumulation x time steps, e.g. ``500x100x500``."""
    return "x".join(str(n) for n in shape)


def _configured_grid(config: RunConfig, engine: str) -> str:
    """The grid an engine's records of this run name, unless a record
    says otherwise (the finer grids of a convergence study)."""
    if engine == "mc":
        return f"{config.mc.n_paths}paths"
    fd = config.fd
    return _grid_string((fd.spot_nodes, fd.accumulation_nodes, fd.time_steps))


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

    Each engine call gives the engine fields of its rows; the case fields
    are added here, where every record is built.  Engine failures are
    captured per record (status carries the message) and do not stop the
    remaining cases.  FD rows come before MC rows, and a case with an ok
    price from both engines gets a diff row.  Every case is given one
    cache dict, made for this run: the FD cases share its interval maps,
    since their spot grid and fixing schedule do not depend on the target
    or the knockout type, and for the same reason the MC cases share one
    control column and, when it is at most ``mc._HELD_PATH_BYTES``, one
    simulated path set.
    """
    tag = fingerprint(config)
    engines = [e for e in ("fd", "mc") if e in config.engines]
    cache: dict = {}
    records: list[ResultRecord] = []
    for knockout in config.knockouts:
        for target in config.targets:
            contract = _case_contract(config, knockout, target)
            rows = []
            for engine in engines:
                grid = _configured_grid(config, engine)
                try:
                    rows += _engine_rows(engine, config, contract, grid, cache)
                except Exception as exc:  # capture per record, keep the batch going
                    rows.append(_row(engine, float("nan"), grid, 0.0,
                                     status=f"error: {exc}"))
            first_ok = {}
            for row in rows:
                if row["status"].startswith("ok"):
                    first_ok.setdefault(row["engine"], row["price"])
            fd_value, mc_value = first_ok.get("fd"), first_ok.get("mc")
            if fd_value is not None and mc_value is not None and mc_value != 0.0:
                rows.append(_row("diff", fd_value - mc_value, "", 0.0,
                                 abs(fd_value - mc_value) / abs(mc_value),
                                 "relative_difference"))
            records += [
                ResultRecord(knockout=knockout.value, target=target,
                             fingerprint=tag, **row)
                for row in rows
            ]
    return records


def _row(engine: str, price: float, grid: str, wall_time_s: float,
         error_metric: float | None = None, error_kind: str = "none",
         status: str = "ok") -> dict:
    """The engine fields of one record; :func:`run` adds the case fields."""
    return dict(engine=engine, price=price, error_metric=error_metric,
                error_kind=error_kind, grid=grid, wall_time_s=wall_time_s,
                status=status)


def _engine_rows(engine: str, config: RunConfig, contract: TarnContract,
                 grid: str, cache: dict) -> list[dict]:
    """Price one case with one engine; ``grid`` is the engine's configured
    grid.  The engine functions are module globals, looked up per call."""
    if engine == "mc":
        res = mc_price(contract, config.model, config.mc, config.spot, cache=cache)
        status = ("ok (control variate disabled for local volatility)"
                  if res.cv_downgraded else "ok")
        return [_row("mc", res.price, grid, res.wall_time, res.stderr, "stderr", status)]
    args = (contract, config.model, config.fd, config.spot)
    if config.convergence:
        study = convergence_order(*args)
        return [_row("fd", r.price, _grid_string(r.grid_shape), r.wall_time)
                for r in study.results] + [_row("fd_order", study.order, "", 0.0)]
    if config.refine:
        est = estimate_error(*args)
        return [_row("fd", est.coarse.price, grid,
                     est.coarse.wall_time + est.refined.wall_time,
                     est.relative_error, "refined_relative_error")]
    res = fd_price(*args, cache=cache,
                   pricings=len(config.knockouts) * len(config.targets))
    return [_row("fd", res.price, grid, res.wall_time)]


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
    return [ResultRecord(**json.loads(line)) for line in text.splitlines()
            if line.strip()]


def _ok(rec: ResultRecord | None) -> bool:
    return rec is not None and rec.status.startswith("ok")


def _price_cell(rec: ResultRecord | None) -> str:
    if _ok(rec):
        return f"{rec.price:.4f}"
    return "-" if rec is None else "failed"


def _error_cell(rec: ResultRecord | None) -> str:
    """A relative error metric, in percent."""
    if _ok(rec) and rec.error_metric is not None:
        return f"{100.0 * rec.error_metric:.4f}"
    return "-"


def _stderr_cell(rec: ResultRecord | None) -> str:
    """A standard error, in percent of the price."""
    if _ok(rec) and rec.error_metric and rec.price:
        return f"{100.0 * rec.error_metric / abs(rec.price):.4f}"
    return "-"


def _seconds_cell(rec: ResultRecord | None) -> str:
    return f"{rec.wall_time_s:.2f}" if _ok(rec) else "-"


@dataclass(frozen=True)
class _Column:
    """A column of the human table.  It is shown when some case has a
    record of ``engine`` (one with an error metric, if ``needs_metric``);
    its cell is made from that engine's record of the case, or None."""

    header: str
    engine: str
    cell: Callable[[ResultRecord | None], str]
    needs_metric: bool = False


_COLUMNS = (
    _Column("MC", "mc", _price_cell),
    _Column("FD", "fd", _price_cell),
    _Column("diff %", "diff", _error_cell),
    _Column("stderr MC %", "mc", _stderr_cell),
    _Column("MC sec", "mc", _seconds_cell),
    _Column("err FD %", "fd", _error_cell, needs_metric=True),
    _Column("FD sec", "fd", _seconds_cell),
)


def _table_line(cells: list[str]) -> str:
    return "  ".join(cell.rjust(10) for cell in cells) + "\n"


def _human_table(records: list[ResultRecord]) -> str:
    """One table per knockout type, a row per target.  Records outside the
    table (fd_order, the finer grids of a convergence study) follow it,
    one line each."""
    by_case: dict[tuple[str, float], dict[str, ResultRecord]] = {}
    extras: list[ResultRecord] = []
    for rec in records:
        key = (rec.knockout, rec.target)
        if rec.engine not in ("fd", "mc", "diff") or rec.engine in by_case.get(key, {}):
            extras.append(rec)
        else:
            by_case.setdefault(key, {})[rec.engine] = rec
    tabled = [rec for case in by_case.values() for rec in case.values()]
    columns = [
        col for col in _COLUMNS
        if any(rec.engine == col.engine
               and (rec.error_metric is not None or not col.needs_metric)
               for rec in tabled)
    ]

    out = io.StringIO()
    for group in dict.fromkeys(knockout for knockout, _ in by_case):
        out.write(f"== {group} ==\n")
        out.write(_table_line(["target"] + [col.header for col in columns]))
        for (knockout, target), case in by_case.items():
            if knockout == group:
                out.write(_table_line(
                    [f"{target:g}"] + [col.cell(case.get(col.engine)) for col in columns]))
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


def _check_writable(path: str) -> None:
    """Reject an output path whose directory is missing or that is itself a
    directory, so that no run is priced only to fail at the write; the file
    itself is neither opened nor truncated."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write output: {path}: no such directory {directory!r}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output: {path}: is a directory")


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
                os.path.abspath(args.config)), source=args.config)
        else:
            raise ConfigError("a config file or --preset is required")

        mc = None
        if args.seed is not None:
            try:
                mc = dataclasses.replace(config.mc, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        overrides = {
            "engines": args.engines is not None and _engines(args.engines, "--engines"),
            "mc": mc,
            "output_format": args.fmt,
            "output_path": args.output,
            "refine": args.refine,
            "convergence": args.convergence,
        }
        config = dataclasses.replace(
            config, **{key: value for key, value in overrides.items() if value})
        if config.output_path:
            _check_writable(config.output_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = run(config)
    try:
        text = emit(records, config.output_format, config.output_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if not config.output_path:
        sys.stdout.write(text)
    failed = any(r.status.startswith("error") for r in records)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
