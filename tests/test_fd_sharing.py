"""One FD lattice per schedule, strike, direction, knockout type and extra
payments prices all of a run's targets whose rooms left are nodes of one
accumulation grid; every other case is priced alone."""

import dataclasses
import time
from dataclasses import replace

import pytest

from tarnpricer import (
    ConstantVol,
    FdConfig,
    KnockoutType,
    MarketModel,
    RateCurve,
    TarnContract,
    cli,
    fd_price,
)
from tarnpricer import fd

from conftest import benchmark_contract, flat_model

SMALL = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)
TARGETS = (0.3, 0.5, 0.7, 0.9)


def run_prices(cases, model, config, spot):
    """Each case's result, priced as ``cli.run`` prices a run."""
    cache = {}
    return [fd_price(case, model, config, spot, cache=cache, cases=cases)
            for case in cases]


@pytest.mark.parametrize("targets, nodes, want", [
    (TARGETS, 100, 100),  # table1: 0.3, 0.5 and 0.7 are nodes 33, 55 and 77
    (TARGETS, 50, 55),
    ((0.14, 0.28), 80, 81),  # a target and its double
    ((0.2, 0.3), 20, 22),
    ((0.05, 0.05 * 1.37), 50, None),  # criterion 7's shape: none up to 49 * 1.37 + 1
    ((0.001, 1000.0), 100, None),  # never more rows than the lone lattices
])
def test_room_nodes_is_the_least_count_with_every_target_a_node(targets, nodes, want):
    assert fd._room_nodes(targets, nodes) == want


def test_a_one_target_run_prices_each_case_as_alone():
    cases = tuple(benchmark_contract(knockout, 0.3) for knockout in KnockoutType)
    for case, result in zip(cases, run_prices(cases, flat_model(), SMALL, 1.05)):
        assert result.price == fd_price(case, flat_model(), SMALL, 1.05).price
        assert result.grid_shape == (200, 50, 200)


def test_targets_that_are_not_nodes_are_priced_alone():
    # criterion 7's shape: two targets 1.37 apart, three knockout types
    model = MarketModel(RateCurve.flat(0.03), RateCurve.flat(0.01), ConstantVol(0.2))
    cases = tuple(TarnContract(strike=0.97, target=u, beta=-1,
                               fixing_times=tuple(0.08 * (k + 1) for k in range(6)),
                               knockout=knockout)
                  for knockout in KnockoutType for u in (0.05, 0.05 * 1.37))
    cache = {}
    for case in cases:
        got = fd_price(case, model, SMALL, 1.02, cache=cache, cases=cases).price
        assert got == fd_price(case, model, SMALL, 1.02).price
    assert not [key for key in cache if key[0] == "fd.result"]


def test_a_run_builds_one_jump_plan_per_knockout(monkeypatch):
    # the first call of each knockout prices its four targets; the others
    # read their results, and each result's seconds are an equal share of
    # the first call's, which took at least the lattice's
    plans, lattice_s, call_s = [], [], []
    build, price_lattice, price = fd.JumpPlan.build, fd._price_lattice, cli.fd_price

    def planning(contract, grid):
        plans.append(contract)
        return build(contract, grid)

    def timed(record, function):
        def call(*args, **kwargs):
            started = time.perf_counter()
            out = function(*args, **kwargs)
            record.append(time.perf_counter() - started)
            return out
        return call

    monkeypatch.setattr(fd.JumpPlan, "build", planning)
    monkeypatch.setattr(fd, "_price_lattice", timed(lattice_s, price_lattice))
    monkeypatch.setattr(cli, "fd_price", timed(call_s, price))
    config = dataclasses.replace(cli.preset_table1(), engines=("fd",), fd=SMALL)
    records = cli.run(config)
    assert [(c.knockout, c.target) for c in plans] == [(k, 0.9) for k in config.knockouts]
    assert len(lattice_s) == 3 and len(call_s) == 12
    for g in range(3):
        shares = [r.wall_time_s for r in records[4 * g:4 * g + 4]]
        assert len(set(shares)) == 1
        assert lattice_s[g] <= sum(shares) <= call_s[4 * g]


@pytest.mark.parametrize("knockout", KnockoutType, ids=lambda k: k.value)
def test_a_shared_price_matches_a_lone_pricing_at_its_spacing(knockout):
    # 55 nodes on [0, 0.9]: target U alone on (U / 0.9) 54 + 1 nodes has the
    # same spacing; its splines end at U instead of 0.9.  Measured within
    # 3.7e-7.
    cases = tuple(benchmark_contract(knockout, u) for u in TARGETS)
    for case, result in zip(cases, run_prices(cases, flat_model(), SMALL, 1.05)):
        assert result.grid_shape == (200, 55, 200)
        nodes = round(54 * case.target / 0.9) + 1
        lone = fd_price(case, flat_model(), replace(SMALL, accumulation_nodes=nodes), 1.05)
        assert result.price == pytest.approx(lone.price, rel=0.0, abs=1e-6)


def test_the_accumulation_axis_is_flat():
    # table1's no_gain U = 0.3 at 200 spot nodes and 200 steps spreads
    # 1.23e-5 over J = 25, 50 and 100 with the cell-averaged knockout jump;
    # with the breach sampled at the spot nodes it spread 1.9e-4
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    prices = [fd_price(contract, flat_model(), replace(SMALL, accumulation_nodes=j),
                       1.05).price for j in (25, 50, 100)]
    assert max(prices) - min(prices) <= 2.5e-5
