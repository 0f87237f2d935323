"""Every input rule has one owner in ``market``: a value of the wrong kind
is rejected, naming its field, by every constructor and engine entry
point."""

import dataclasses
import re

import numpy as np
import pytest

from tarnpricer import (
    ConstantVol,
    FdConfig,
    KnockoutType,
    LocalVolSurface,
    MarketModel,
    McConfig,
    RateCurve,
    TarnContract,
    TermStructureVol,
    fd_price,
    mc_price,
    vanilla_price,
)
from tarnpricer.cli import PRESETS, RunConfig

from conftest import flat_model

TIMES = (0.25, 0.5, 0.75)


def contract(**changes):
    terms = dict(strike=1.0, target=0.3, beta=1, fixing_times=TIMES,
                 knockout=KnockoutType.NO_GAIN, extra_payments=(0.0, 0.01, 0.0))
    return TarnContract(**(terms | changes))


def run_config():
    return dataclasses.replace(PRESETS["table1"](), extra_payments=(0.0,) * 20)


# One valid instance per checked class, and the key each rejection names
# where it is not the field's own name.
VALID = {
    FdConfig: FdConfig, McConfig: McConfig, TarnContract: contract,
    RunConfig: run_config,
    RateCurve: lambda: RateCurve((0.0, 0.5), (0.01, 0.02)),
    ConstantVol: lambda: ConstantVol(0.2),
    TermStructureVol: lambda: TermStructureVol((0.0, 0.5), (0.2, 0.3)),
}
KEYS = {(RunConfig, "strike"): "contract.strike", (RunConfig, "beta"): "contract.beta",
        (RunConfig, "targets"): "contract.target", (RunConfig, "spot"): "run.spot",
        (RunConfig, "fixing_times"): "contract.fixing_times",
        (RunConfig, "extra_payments"): "contract.extra_payments"}
NUMERIC = ("float", "int", "float | None", "tuple[float, ...]",
           "tuple[float, ...] | None")


def wrong_kinds(value):
    """A bool and a numeric string in place of ``value``, or of the last
    entry of a tuple."""
    if isinstance(value, tuple):
        return [value[:-1] + (True,), value[:-1] + (str(value[-1]),)]
    return [True, str(1.0 if value is None else value)]


FIELD_CASES = [
    pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}-{type(bad).__name__}")
    for cls, make in VALID.items()
    for f in dataclasses.fields(cls) if f.type in NUMERIC
    for bad in wrong_kinds(getattr(make(), f.name))
]


@pytest.mark.parametrize("cls, field, bad", FIELD_CASES)
def test_every_numeric_field_rejects_a_bool_and_a_string_by_name(cls, field, bad):
    # read off dataclasses.fields, so that a field added later is swept too
    key = KEYS.get((cls, field), field)
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
        dataclasses.replace(VALID[cls](), **{field: bad})


def test_the_sweep_covers_every_kind():
    kinds = {f.type for cls in VALID for f in dataclasses.fields(cls)}
    assert set(NUMERIC) <= kinds


FLAT = RateCurve.flat(0.0)
SURFACE = dict(time_knots=[0.0, 1.0], spot_knots=[0.5, 2.0],
               values=[[0.2, 0.2], [0.2, 0.2]])

HOLES = {
    "ConstantVol_bool": (lambda: ConstantVol(True),
                         "sigma must be positive and finite, got True"),
    "ConstantVol_str": (lambda: ConstantVol("0.2"),
                        "sigma must be positive and finite, got '0.2'"),
    "RateCurve.flat_bool": (lambda: RateCurve.flat(True),
                            "rates must be a sequence of real numbers, got (True,)"),
    "TermStructureVol_str_time": (
        lambda: TermStructureVol((0.0, "0.5"), (0.2, 0.3)),
        "times must be a sequence of real numbers, got (0.0, '0.5')"),
    "TermStructureVol_bool_sigma": (
        lambda: TermStructureVol((0.0, 0.5), (0.2, True)),
        "sigmas must be a sequence of real numbers, got (0.2, True)"),
    "TarnContract_fixing_times": (
        lambda: contract(fixing_times=("0.25", True), extra_payments=None),
        "fixing_times must be a sequence of real numbers, got ('0.25', True)"),
    "TarnContract_extra_payments": (
        lambda: contract(fixing_times=(0.25, 0.5), extra_payments=(True, "1")),
        "extra_payments must be a sequence of real numbers, got (True, '1')"),
    "TarnContract_fixing_times_scalar": (
        lambda: contract(fixing_times=0.25),
        "fixing_times must be a sequence of real numbers, got 0.25"),
    "ConstantVol_huge_int": (lambda: ConstantVol(10**400),
                             f"sigma must be positive and finite, got {10**400}"),
    "ConstantVol_unprintable_int": (
        lambda: ConstantVol(10**5000),
        "sigma must be positive and finite, got a value with an int too long to print"),
    "RateCurve.flat_huge_int": (
        lambda: RateCurve.flat(10**400),
        f"rates must be a sequence of real numbers, got ({10**400},)"),
    "TarnContract_fixing_times_huge_int": (
        lambda: contract(fixing_times=(0.5, 10**400), extra_payments=None),
        f"fixing_times must be a sequence of real numbers, got (0.5, {10**400})"),
    "McConfig_cv_coefficient_huge_int": (
        lambda: McConfig(cv_coefficient=10**400),
        f"cv_coefficient must be a real number, got {10**400}"),
    "vanilla_price_beta": (
        lambda: vanilla_price(1.05, 1.0, True, 1.0, FLAT, FLAT, ConstantVol(0.2)),
        "beta must be +1 or -1, got True"),
    "vanilla_price_spot": (
        lambda: vanilla_price(True, 1.0, 1, 1.0, FLAT, FLAT, ConstantVol(0.2)),
        "spot must be positive and finite, got True"),
    "fd_price_spot": (
        lambda: fd_price(contract(), flat_model(), FdConfig(), True),
        "spot must be positive and finite, got True"),
    "mc_price_spot": (
        lambda: mc_price(contract(), flat_model(), McConfig(n_paths=100), True),
        "spot must be positive and finite, got True"),
    "MarketModel_domestic": (lambda: MarketModel(0.0, 0.0, 0.2),
                             "domestic must be a RateCurve, got 0.0"),
    "MarketModel_foreign": (lambda: MarketModel(FLAT, 0.0, ConstantVol(0.2)),
                            "foreign must be a RateCurve, got 0.0"),
    "MarketModel_vol": (
        lambda: MarketModel(FLAT, FLAT, 0.2),
        "vol must be a ConstantVol or TermStructureVol or LocalVolSurface, got 0.2"),
    "LocalVolSurface_str_spots": (
        lambda: LocalVolSurface(**SURFACE | dict(spot_knots=["0.5", "2.0"])),
        "spot_knots must hold real numbers, got dtype <U3"),
    "LocalVolSurface_bool_values": (
        lambda: LocalVolSurface(**SURFACE | dict(values=[[True, True], [True, True]])),
        "values must hold real numbers, got dtype bool"),
    "LocalVolSurface_bool_times": (
        lambda: LocalVolSurface(**SURFACE | dict(time_knots=np.array([False, True]))),
        "time_knots must hold real numbers, got dtype bool"),
}


@pytest.mark.parametrize("name", sorted(HOLES))
def test_wrong_kind_is_rejected_by_name(name):
    # each of these used to price, or fail naming no field (an int too
    # large for a float raised OverflowError)
    make, message = HOLES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("pricings", ["3", None, 10**400, 0, -2, True, 2.5, float("nan")],
                         ids=["str", "none", "huge_int", "zero", "negative", "bool",
                              "fraction", "nan"])
def test_fd_price_rejects_a_pricings_hint_that_is_no_count(pricings):
    # each of these used to price silently, or fail naming no argument
    with pytest.raises(ValueError, match="^pricings must be "):
        fd_price(contract(), flat_model(), FdConfig(), 1.05, pricings=pricings)


@pytest.mark.parametrize("times", [
    (t for t in TIMES), list(TIMES), np.array(TIMES), tuple(np.float64(t) for t in TIMES),
], ids=["generator", "list", "array", "float64s"])
def test_fixing_times_of_any_real_sequence_are_accepted(times):
    terms = contract(fixing_times=times, extra_payments=iter([0, 1, 0]))
    assert terms.fixing_times == TIMES
    assert all(type(t) is float for t in terms.fixing_times)
    assert terms.extra_payments == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: ConstantVol(np.float64(0.2)),
    lambda: ConstantVol(1),
    lambda: RateCurve.flat(np.int64(0)),
    lambda: RateCurve([0, 1], np.array([0.01, 0.02])),
    lambda: TermStructureVol(iter([0.0, 0.5]), [np.float32(0.25), 1]),
    lambda: LocalVolSurface(time_knots=[0, 1], spot_knots=np.array([1, 2], dtype=np.int32),
                            values=[[1, 1], [0.2, 0.3]]),
    lambda: contract(beta=-1.0, strike=np.float64(1.0), target=1),
    lambda: fd_price(contract(), flat_model(), FdConfig(40, 8, 40), 1.05,
                     pricings=np.int64(3)),
], ids=["float64_sigma", "int_sigma", "int64_rate", "list_and_array_curve",
        "generator_and_float32_vol", "int_surface", "integral_float_beta",
        "int64_pricings"])
def test_real_numbers_of_every_type_are_accepted(make):
    make()


def test_vanilla_price_takes_an_integral_float_beta():
    vol = ConstantVol(0.2)
    assert vanilla_price(1.05, 1.0, -1.0, 1.0, FLAT, FLAT, vol) == \
        vanilla_price(1.05, 1.0, -1, 1.0, FLAT, FLAT, vol)


def test_surface_leaves_the_callers_arrays_writable():
    # the surface freezes its own float copies, not the arrays it was given
    given = {name: np.array(value, dtype=float) for name, value in SURFACE.items()}
    surface = LocalVolSurface(**given)
    for name, array in given.items():
        array[0] = 1.0
        assert not getattr(surface, name).flags.writeable
    assert surface.values[0, 0] == 0.2
