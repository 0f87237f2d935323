"""Exact two-fixing prices (``tests/quad_oracle.py``) against their reference
values, against Monte Carlo and against the FD engine."""

import pytest

from tarnpricer import (
    ConstantVol,
    FdConfig,
    KnockoutType,
    MarketModel,
    McConfig,
    RateCurve,
    TarnContract,
    TermStructureVol,
    fd_price,
    mc_price,
    vanilla_price,
)
from tarnpricer.market import discount_factor

import quad_oracle

# estimate_error's example note: a put-direction note with two fixings
PUT_MODEL = MarketModel(domestic=RateCurve.flat(0.0552), foreign=RateCurve.flat(-0.00125),
                        vol=ConstantVol(0.0876))
# the same rates under a term structure with a knot inside each fixing
# interval: only each interval's integrated variance changes
TERM_MODEL = MarketModel(domestic=RateCurve.flat(0.0552), foreign=RateCurve.flat(-0.00125),
                         vol=TermStructureVol((0.0, 0.1, 0.25), (0.08, 0.1, 0.07)))
CALL_MODEL = MarketModel(domestic=RateCurve.flat(0.02), foreign=RateCurve.flat(0.01),
                         vol=ConstantVol(0.12))
NOTES = {
    "put": (dict(strike=1.1294, target=0.0304, beta=-1, fixing_times=(0.158, 0.317)),
            PUT_MODEL, 1.0761),
    "put_term_structure": (dict(strike=1.1294, target=0.0304, beta=-1,
                                fixing_times=(0.158, 0.317)), TERM_MODEL, 1.0761),
    "call": (dict(strike=1.0, target=0.05, beta=1, fixing_times=(0.25, 0.5)),
             CALL_MODEL, 1.02),
}
EXTRAS = (0.01, 0.02)  # one extra payment per fixing of every note above
SMALL_GRID = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)


def note(name, knockout):
    terms, model, spot = NOTES[name]
    return TarnContract(knockout=knockout, **terms), model, spot


@pytest.mark.parametrize("knockout, want", [
    (KnockoutType.NO_GAIN, 0.00440323),
    (KnockoutType.PART_GAIN, 0.02513082),
    (KnockoutType.FULL_GAIN, 0.05097369),
], ids=lambda v: getattr(v, "value", None))
def test_reproduces_the_reference_prices(knockout, want):
    assert quad_oracle.price(*note("put", knockout)) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("name", sorted(NOTES))
def test_an_unreachable_target_leaves_the_vanilla_strip(name):
    terms, model, spot = NOTES[name]
    contract = TarnContract(**(terms | dict(target=100.0)), knockout=KnockoutType.NO_GAIN)
    strip = sum(vanilla_price(spot, contract.strike, contract.beta, t, model.domestic,
                              model.foreign, model.vol) for t in contract.fixing_times)
    assert quad_oracle.price(contract, model, spot) == pytest.approx(strip, rel=1e-12)


@pytest.mark.parametrize("knockout", [KnockoutType.NO_GAIN, KnockoutType.FULL_GAIN],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("name", sorted(NOTES))
def test_an_unreachable_target_leaves_the_strip_and_the_extras(name, knockout):
    terms, model, spot = NOTES[name]
    contract = TarnContract(**(terms | dict(target=100.0)), knockout=knockout,
                            extra_payments=EXTRAS)
    strip = sum(vanilla_price(spot, contract.strike, contract.beta, t, model.domestic,
                              model.foreign, model.vol)
                + extra * discount_factor(model.domestic, 0.0, t)
                for t, extra in zip(contract.fixing_times, EXTRAS))
    assert quad_oracle.price(contract, model, spot) == pytest.approx(strip, rel=1e-12)


@pytest.mark.parametrize("name", sorted(NOTES))
def test_mc_agrees_within_four_standard_errors(name):
    cases = tuple(note(name, knockout)[0] for knockout in KnockoutType)
    _, model, spot = NOTES[name]
    cache, config = {}, McConfig(n_paths=200_000, seed=11)
    for contract in cases:
        result = mc_price(contract, model, config, spot, cache=cache, cases=cases)
        exact = quad_oracle.price(contract, model, spot)
        assert abs(result.price - exact) <= 4.0 * result.stderr


def test_mc_agrees_with_extras_within_four_standard_errors():
    # every fixing the note lives through pays its extra, and a full_gain
    # breach does too; a no_gain breach pays neither its flow nor its extra
    terms, model, spot = NOTES["put"]
    cases = tuple(TarnContract(**terms, knockout=knockout, extra_payments=EXTRAS)
                  for knockout in (KnockoutType.NO_GAIN, KnockoutType.FULL_GAIN))
    cache, config = {}, McConfig(n_paths=200_000, seed=11)
    for contract in cases:
        result = mc_price(contract, model, config, spot, cache=cache, cases=cases)
        exact = quad_oracle.price(contract, model, spot)
        assert abs(result.price - exact) <= 4.0 * result.stderr


def test_fd_part_gain_agrees_at_a_small_grid():
    # -4.9e-5 relative at 200x50x200
    contract, model, spot = note("put", KnockoutType.PART_GAIN)
    got = fd_price(contract, model, SMALL_GRID, spot).price
    assert got == pytest.approx(quad_oracle.price(contract, model, spot), rel=1e-4)


def test_fd_part_gain_agrees_under_a_term_structure():
    # -4.7e-5 relative at 200x50x200
    contract, model, spot = note("put_term_structure", KnockoutType.PART_GAIN)
    got = fd_price(contract, model, SMALL_GRID, spot).price
    assert got == pytest.approx(quad_oracle.price(contract, model, spot), rel=1e-4)


def test_fd_no_gain_agrees_at_a_small_grid():
    # +4.9e-5 relative at 200x50x200 with the cell-averaged knockout jump;
    # sampling the breach at the spot nodes read +3.86%
    contract, model, spot = note("put", KnockoutType.NO_GAIN)
    got = fd_price(contract, model, SMALL_GRID, spot).price
    assert got == pytest.approx(quad_oracle.price(contract, model, spot), rel=0.005)


@pytest.mark.parametrize("name, knockout, rel", [
    # measured at 200x50x200 with the cell-averaged knockout jump; sampling
    # the breach at the spot nodes read +0.26%, -3.45% and -0.62%
    ("put", KnockoutType.FULL_GAIN, 1e-4),  # +3.7e-5
    ("call", KnockoutType.NO_GAIN, 1.5e-3),  # -6.7e-4
    ("call", KnockoutType.FULL_GAIN, 5e-4),  # -2.3e-4
], ids=["put-full_gain", "call-no_gain", "call-full_gain"])
def test_fd_agrees_across_the_knockout_at_a_small_grid(name, knockout, rel):
    contract, model, spot = note(name, knockout)
    got = fd_price(contract, model, SMALL_GRID, spot).price
    assert got == pytest.approx(quad_oracle.price(contract, model, spot), rel=rel)
