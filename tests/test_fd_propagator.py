"""The cached interval maps against a plain step-by-step reference march."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from tarnpricer import (
    BoundaryKind,
    FdConfig,
    JumpPlan,
    KnockoutType,
    LocalVolSurface,
    MarketModel,
    PinPolicy,
    RateCurve,
    TarnContract,
    TermStructureVol,
    apply_jump,
    build_grid,
    fd_price,
    natural_cubic_spline,
    theta_step,
)
from tarnpricer import cli, fd
from tarnpricer.fd import IntervalPropagators, coefficients_at

from conftest import benchmark_contract, benchmark_times, flat_model

GRID = FdConfig(spot_nodes=120, accumulation_nodes=20, time_steps=120)


def reference_price(contract, model, config, spot):
    """Backward induction with one theta_step call per time step."""
    grid = build_grid(contract, model, config, spot)
    times = (0.0,) + contract.fixing_times
    values = np.zeros((config.accumulation_nodes, config.spot_nodes))
    plan = JumpPlan.build(contract, grid)
    for k in range(contract.num_fixings, 0, -1):
        values = apply_jump(values, plan, contract.extra_payment_at(k))
        if k == 1:
            values = values[:1]
        t_hi, t_lo = times[k], times[k - 1]
        n_steps = grid.steps_per_interval[k - 1]
        dt = (t_hi - t_lo) / n_steps
        for s in range(n_steps):
            t_from = t_hi - s * dt
            t_to = t_lo if s == n_steps - 1 else t_hi - (s + 1) * dt
            th = 1.0 if s < config.implicit_startup_steps else config.theta
            values = theta_step(
                values, t_from - t_to, grid.dx, th,
                coefficients_at(model, grid.spots, t_from),
                coefficients_at(model, grid.spots, t_to),
                config.boundary, spots=grid.spots, beta=contract.beta,
            )
    row = values[0]
    if grid.spot_index is not None:
        return float(row[grid.spot_index])
    return float(natural_cubic_spline(grid.log_spots, row, math.log(spot)))


def term_structure_model():
    # every knot falls strictly inside a fixing interval of benchmark_times(8)
    return MarketModel(
        domestic=RateCurve((0.0, 0.13, 0.41), (0.01, 0.03, 0.02)),
        foreign=RateCurve((0.0, 0.29), (0.005, 0.015)),
        vol=TermStructureVol((0.0, 0.2, 0.37), (0.25, 0.18, 0.3)),
    )


def put_contract(knockout=KnockoutType.PART_GAIN):
    return TarnContract(strike=1.0, target=0.2, beta=-1,
                        fixing_times=benchmark_times(8), knockout=knockout)


def call_contract(knockout=KnockoutType.PART_GAIN):
    return TarnContract(strike=1.0, target=0.2, beta=1,
                        fixing_times=benchmark_times(8), knockout=knockout)


# A narrow domain, so the affine boundary offset p0 moves the price by far
# more than the 1e-12 tolerance (about 1e-4 here; 1e-15 at 3.5 deviations).
DIRECTIONAL = replace(GRID, boundary=BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION,
                      domain_width_sigmas=1.5)

CASES = {
    "zero_gamma": (call_contract(), flat_model(r_d=0.02), GRID, 1.05),
    "dirichlet_neumann_call": (call_contract(), flat_model(r_d=0.02), DIRECTIONAL, 1.05),
    "dirichlet_neumann_put": (put_contract(), flat_model(r_d=0.02), DIRECTIONAL, 0.97),
    "implicit_startup": (call_contract(KnockoutType.NO_GAIN), flat_model(),
                         replace(GRID, implicit_startup_steps=2), 1.05),
    "term_structure_knots": (call_contract(), term_structure_model(), GRID, 1.05),
    "term_structure_put": (put_contract(KnockoutType.FULL_GAIN), term_structure_model(),
                           DIRECTIONAL, 0.97),
    "off_grid_spot": (call_contract(), flat_model(),
                      replace(GRID, pin_policy=PinPolicy.STRIKE_ONLY_THEN_INTERPOLATE),
                      1.05),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference_march(name):
    contract, model, config, spot = CASES[name]
    want = reference_price(contract, model, config, spot)
    got = fd_price(contract, model, config, spot).price
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_off_grid_case_reads_out_by_interpolation():
    contract, model, config, spot = CASES["off_grid_spot"]
    assert build_grid(contract, model, config, spot).spot_index is None


def test_local_vol_is_stepped_bit_for_bit():
    # per-node coefficients change every step, so no map may be built or
    # shared: the price must be the reference march exactly
    spot_knots = np.exp(np.linspace(-0.6, 0.6, 7))
    values = 0.2 + 0.3 * np.log(spot_knots)[None, :] ** 2 + np.array([[0.0], [0.02]])
    model = MarketModel(
        domestic=RateCurve.flat(0.02), foreign=RateCurve.flat(0.01),
        vol=LocalVolSurface(time_knots=[0.0, 1.0], spot_knots=spot_knots,
                            values=values),
    )
    contract = call_contract()
    assert fd_price(contract, model, GRID, 1.05).price == \
        reference_price(contract, model, GRID, 1.05)


def count_builds(monkeypatch):
    built = []
    original = fd._build_map

    def counting(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(fd, "_build_map", counting)
    return built


def test_equal_intervals_share_one_map(monkeypatch):
    # k * 30 / 365 fixing dates make equal intervals differ in the last
    # bits of their step lengths; they must still share a single map
    built = count_builds(monkeypatch)
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    fd_price(contract, flat_model(), GRID, 1.05)
    assert len(built) == 1


def knot_in_every_interval_model():
    # every interval gets its own operator, so no two intervals share a map
    knots = (0.0,) + tuple(t - 15 / 365 for t in benchmark_times(8)[1:])
    return MarketModel(
        domestic=RateCurve.flat(0.01), foreign=RateCurve.flat(0.0),
        vol=TermStructureVol(knots, tuple(0.15 + 0.01 * i for i in range(len(knots)))),
    )


def test_intervals_too_few_rows_for_a_map_are_stepped(monkeypatch):
    # 20 rows per interval never pay for marching M + 1 = 121 rows to build
    # a map, so the price is the reference march exactly
    built = count_builds(monkeypatch)
    model = knot_in_every_interval_model()
    contract = call_contract()
    assert fd_price(contract, model, GRID, 1.05).price == \
        reference_price(contract, model, GRID, 1.05)
    assert built == []


def test_run_builds_maps_its_cases_pay_for(monkeypatch):
    # 12 cases of 20 rows pay for each map of the seven 20-row intervals;
    # the one-row first interval stays stepped
    built = count_builds(monkeypatch)
    model = knot_in_every_interval_model()
    config = dataclasses.replace(
        cli.preset_table1(), engines=("fd",), fd=GRID, model=model,
        fixing_times=benchmark_times(8), targets=(0.1, 0.2, 0.3, 0.4))
    records = cli.run(config)
    assert len(built) == 7
    for rec in records:
        contract = TarnContract(strike=1.0, target=rec.target, beta=1,
                                fixing_times=benchmark_times(8),
                                knockout=KnockoutType.parse(rec.knockout))
        assert rec.price == pytest.approx(
            reference_price(contract, model, GRID, 1.05), rel=1e-12, abs=0.0)


def test_run_shares_maps_across_cases(monkeypatch):
    built = count_builds(monkeypatch)
    config = dataclasses.replace(
        cli.preset_table1(), engines=("fd",), targets=(0.3, 0.5), fd=GRID)
    records = cli.run(config)
    assert len(records) == 6
    assert all(r.status == "ok" for r in records)
    assert len(built) == 1


def test_runs_with_different_models_share_no_maps(monkeypatch):
    built = count_builds(monkeypatch)
    base = dataclasses.replace(
        cli.preset_table1(), engines=("fd",), targets=(0.3,),
        knockouts=(KnockoutType.NO_GAIN,), fd=GRID)
    # the spot grid depends on the volatility only, so both runs price on
    # the same grid and differ in the drift and discount coefficients
    other = dataclasses.replace(
        base, model=dataclasses.replace(base.model, domestic=RateCurve.flat(0.03)))
    (first,) = cli.run(base)
    first_maps = [m[0] for m in built]
    (second,) = cli.run(other)
    second_maps = [m[0] for m in built[len(first_maps):]]
    assert second_maps
    assert not {id(m) for m in first_maps} & {id(m) for m in second_maps}
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    assert second.price == pytest.approx(
        reference_price(contract, other.model, GRID, 1.05), rel=1e-12, abs=0.0)
    assert second.price != pytest.approx(first.price, rel=1e-3)


def test_new_grid_clears_the_cache():
    shared = IntervalPropagators()
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    a = fd_price(contract, flat_model(), GRID, 1.05, propagators=shared).price
    fd_price(contract, flat_model(), replace(GRID, spot_nodes=90), 1.05,
             propagators=shared)
    again = fd_price(contract, flat_model(), GRID, 1.05, propagators=shared).price
    assert again == a
    assert len(shared._maps) == 1
