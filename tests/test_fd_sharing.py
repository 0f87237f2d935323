"""One FD lattice per schedule, strike, direction, knockout type and extra
payments prices all of a run's targets whose rooms left are nodes of one
accumulation grid; every other case is priced on a lattice of its own.  The
first call of a run prices them all."""

import dataclasses
import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

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
from tarnpricer.mc import McResult

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
    assert len(cache) == len(cases)
    assert {result.grid_shape for result in cache.values()} == {(200, 50, 200)}


def test_a_run_builds_one_jump_plan_per_knockout(monkeypatch):
    # the first call prices every case, each knockout's four targets on
    # one lattice; the other eleven calls read their results
    plans, lattices = [], []
    build, price_lattice = fd.JumpPlan.build, fd._price_lattice

    def planning(contract, grid, nodes):
        plans.append(contract)
        return build(contract, grid, nodes)

    def pricing(group, *args):
        lattices.append(len(group))
        return price_lattice(group, *args)

    monkeypatch.setattr(fd.JumpPlan, "build", planning)
    monkeypatch.setattr(fd, "_price_lattice", pricing)
    calls = []
    price = cli.fd_price
    monkeypatch.setattr(cli, "fd_price",
                        lambda *args, **kwargs: calls.append(len(lattices))
                        or price(*args, **kwargs))
    config = dataclasses.replace(cli.preset_table1(), engines=("fd",), fd=SMALL)
    records = cli.run(config)
    assert [(c.knockout, c.target) for c in plans] == [(k, 0.9) for k in config.knockouts]
    assert lattices == [4, 4, 4]
    assert calls == [0] + [3] * 11
    assert [r.status for r in records] == ["ok"] * 12


def test_a_run_builds_one_spot_grid(monkeypatch):
    # the first call builds the spot grid that all three knockouts'
    # lattices share; the other eleven calls read their results
    grids = []
    build_grid = fd.build_grid
    monkeypatch.setattr(fd, "build_grid",
                        lambda *args: grids.append(None) or build_grid(*args))
    calls = []
    price = cli.fd_price
    monkeypatch.setattr(cli, "fd_price",
                        lambda *args, **kwargs: calls.append(len(grids))
                        or price(*args, **kwargs))
    config = dataclasses.replace(cli.preset_table1(), engines=("fd",), fd=SMALL)
    records = cli.run(config)
    assert calls == [0] + [1] * 11 and len(grids) == 1
    assert [r.status for r in records] == ["ok"] * 12


def test_a_runs_shares_sum_to_its_first_calls_seconds(monkeypatch):
    # a clock that reads one second later at every reading: the first call
    # reads it before and after its lattices, each later call once
    monkeypatch.setattr(fd, "time", SimpleNamespace(perf_counter=itertools.count().__next__))
    config = dataclasses.replace(cli.preset_table1(), engines=("fd",), fd=SMALL)
    shares = [r.wall_time_s for r in cli.run(config)]
    assert len(shares) == 12 and len(set(shares)) == 1
    assert math.fsum(shares) == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_a_run_keeps_only_results(monkeypatch):
    # one entry per case and engine: no maps, no intervals, no paths
    caches = []
    price = cli.fd_price

    def keeping(*args, cache, cases):
        caches.append(cache)
        return price(*args, cache=cache, cases=cases)

    monkeypatch.setattr(cli, "fd_price", keeping)
    config = dataclasses.replace(
        cli.preset_table1(), fd=SMALL, mc=dataclasses.replace(cli.preset_table1().mc,
                                                              n_paths=4000))
    cli.run(config)
    cache = caches[0]
    assert all(c is cache for c in caches) and len(caches) == 12
    kinds = [key[0] for key in cache]
    assert (kinds.count("fd.result"), kinds.count("mc.result"), len(kinds)) == (12, 12, 24)
    assert all(isinstance(result, (fd.PriceResult, McResult)) for result in cache.values())


@pytest.mark.parametrize("keep, listed", [(False, True), (True, False)],
                         ids=["no_dict", "not_in_its_cases"])
def test_a_lone_call_prices_only_its_own_lattice(monkeypatch, keep, listed):
    # without a dict, or outside its cases, a call prices its own lattice
    # on its own grid, whatever else the cases hold
    groups = []
    price_lattice = fd._price_lattice
    monkeypatch.setattr(fd, "_price_lattice",
                        lambda group, nodes, *args: groups.append((group, nodes))
                        or price_lattice(group, nodes, *args))
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    others = tuple(benchmark_contract(k, u) for k in KnockoutType for u in TARGETS)
    cases = others if listed else tuple(c for c in others if c != contract)
    cache = {} if keep else None
    result = fd_price(contract, flat_model(), SMALL, 1.05, cache=cache, cases=cases)
    assert groups == [((contract,), 50)]
    assert result.grid_shape == (200, 50, 200)
    if keep:
        assert list(cache.values()) == [result]


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
