"""The cached interval maps against a plain step-by-step reference march."""

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarnpricer import (
    BoundaryKind,
    FdConfig,
    KnockoutType,
    LocalVolSurface,
    MarketModel,
    PinPolicy,
    RateCurve,
    TarnContract,
    TermStructureVol,
    fd_price,
    natural_cubic_spline,
)
from tarnpricer import cli, fd
from tarnpricer.fd import (
    JumpPlan,
    apply_jump,
    build_grid,
    coefficients_at,
    theta_step,
)

from conftest import benchmark_contract, benchmark_times, flat_model
from test_fd import step_buffers

GRID = FdConfig(spot_nodes=120, accumulation_nodes=20, time_steps=120)


def closure_of(contract, config, grid):
    """The boundary closure ``fd_price`` makes for ``contract`` on ``grid``."""
    return fd._closure(config.boundary, contract.beta, grid.spots, grid.dx)


def reference_price(contract, model, config, spot, target=None):
    """Backward induction with one theta_step call per time step: the price
    of ``contract`` or, on its lattice, of its terms at ``target``, read
    from the row whose room left is ``target``."""
    target = contract.target if target is None else target
    j = config.accumulation_nodes - 1
    row = j - round(j * target / contract.target)
    grid = build_grid(contract, model, config, spot)
    times = (0.0,) + contract.fixing_times
    values = np.zeros((config.accumulation_nodes, config.spot_nodes))
    plan = JumpPlan.build(contract, grid, config.accumulation_nodes)
    closure = closure_of(contract, config, grid)
    for k in range(contract.num_fixings, 0, -1):
        values = apply_jump(values, plan, contract.extra_payments[k - 1])
        if k == 1:
            values = values[row:row + 1]
        t_hi, t_lo = times[k], times[k - 1]
        n_steps = grid.steps_per_interval[k - 1]
        dt = (t_hi - t_lo) / n_steps
        for s in range(n_steps):
            t_from = t_hi - s * dt
            t_to = t_lo if s == n_steps - 1 else t_hi - (s + 1) * dt
            th = 1.0 if s < config.implicit_startup_steps else config.theta
            values = theta_step(
                values, t_from - t_to, th,
                coefficients_at(model, grid.spots, t_from, grid.dx),
                coefficients_at(model, grid.spots, t_to, grid.dx),
                closure, **step_buffers(values),
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


def local_vol_model():
    spot_knots = np.exp(np.linspace(-0.6, 0.6, 7))
    values = 0.2 + 0.3 * np.log(spot_knots)[None, :] ** 2 + np.array([[0.0], [0.02]])
    return MarketModel(
        domestic=RateCurve.flat(0.02), foreign=RateCurve.flat(0.01),
        vol=LocalVolSurface(time_knots=[0.0, 1.0], spot_knots=spot_knots,
                            values=values),
    )


def test_local_vol_is_stepped_bit_for_bit(monkeypatch):
    # per-node coefficients change every step, so no map may be built or
    # shared: the price must be the reference march, step by step.  The
    # march carries each step's explicit side over to the next step, which
    # is exact in algebra but not bit for bit, hence the 1e-12
    built = count_builds(monkeypatch)
    model = local_vol_model()
    contract = call_contract()
    assert fd_price(contract, model, GRID, 1.05).price == pytest.approx(
        reference_price(contract, model, GRID, 1.05), rel=1e-12, abs=0.0)
    assert built == []


def count_builds(monkeypatch):
    built = []
    original = fd._build_map

    def counting(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(fd, "_build_map", counting)
    return built


def count_made(monkeypatch):
    """The upper time of every interval whose runs are made, in order."""
    made = []
    original = fd._interval_runs
    monkeypatch.setattr(fd, "_interval_runs",
                        lambda *args: made.append(args[2]) or original(*args))
    return made


def spy_intervals(monkeypatch):
    """The (lattices, interval) of every ``fd._intervals`` call, in order:
    the (cases, accumulation nodes) of the lattices it is given, and the
    function of the interval index it returns."""
    calls = []
    original = fd._intervals

    def spy(lattices, *args):
        calls.append(([(len(group), nodes) for group, nodes in lattices],
                      original(lattices, *args)))
        return calls[-1][1]

    monkeypatch.setattr(fd, "_intervals", spy)
    return calls


def run_lengths(runs):
    return [len(run) for _, run in runs]


def run_of(contract, n):
    """``contract`` and n - 1 cases on its terms with other extra payments:
    the cases of a run, all of which share its maps, each its own lattice."""
    return tuple(replace(contract, extra_payments=(0.001 * i,) * contract.num_fixings)
                 for i in range(n))


def test_equal_intervals_share_one_map(monkeypatch):
    # k * 30 / 365 fixing dates make equal intervals differ in the last
    # bits of their step lengths; they must still share a single map
    built = count_builds(monkeypatch)
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    fd_price(contract, flat_model(), GRID, 1.05)
    assert len(built) == 1


def test_equal_steps_on_a_rounding_boundary_form_one_run(monkeypatch):
    # the level differences of these intervals alternate between
    # 2.95654465661e-03 and 2.95654465662e-03 to 12 digits; keyed by the
    # interval's nominal dt, each interval is still one run, and one map
    # serves all five
    built = count_builds(monkeypatch)
    spied = spy_intervals(monkeypatch)
    times = tuple(0.11826178626460132 * k for k in range(1, 6))
    model = flat_model(r_d=0.02, r_f=0.01)
    config = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)
    cache = {}
    cases = tuple(TarnContract(strike=1.0, target=0.2, beta=1, fixing_times=times,
                               knockout=knockout) for knockout in KnockoutType)
    for contract in cases:
        got = fd_price(contract, model, config, 1.0, cache=cache, cases=cases).price
        assert got == pytest.approx(reference_price(contract, model, config, 1.0),
                                    rel=1e-12, abs=0.0)
    ((_, interval),) = spied
    entry = [interval(k) for k in range(5)]
    assert len({f"{step[0]:.11e}" for _, run in entry[2][0] for step in run}) == 2
    assert [len(runs) for runs, _ in entry] == [1] * 5
    assert len(built) == 1
    assert all(mapped is built[0] for _, mapped in entry)


def knot_in_every_interval_model():
    # every interval gets its own operator, so no two intervals share a map
    knots = (0.0,) + tuple(t - 15 / 365 for t in benchmark_times(8)[1:])
    return MarketModel(
        domestic=RateCurve.flat(0.01), foreign=RateCurve.flat(0.0),
        vol=TermStructureVol(knots, tuple(0.15 + 0.01 * i for i in range(len(knots)))),
    )


def test_intervals_too_few_rows_for_a_map_are_stepped(monkeypatch):
    # at M = 1000 one pricing's 20 rows (one in the first interval) through
    # 15 steps never pay for marching M + 1 = 1001 rows to build a map, so
    # the price is the reference march exactly
    built = count_builds(monkeypatch)
    model = knot_in_every_interval_model()
    contract = call_contract()
    config = replace(GRID, spot_nodes=1000)
    assert fd_price(contract, model, config, 1.05).price == \
        reference_price(contract, model, config, 1.05)
    assert built == []


@pytest.mark.parametrize("local", [False, True], ids=["marched_knots", "local_vol"])
def test_each_interval_makes_its_steps_once(monkeypatch, local):
    # every interval of the knotted model at M = 1000 is marched (see above),
    # through the runs its map-or-march choice was made from; local
    # volatility makes each interval's runs as it marches through it
    made = count_made(monkeypatch)
    model = local_vol_model() if local else knot_in_every_interval_model()
    contract = call_contract()
    fd_price(contract, model, replace(GRID, spot_nodes=1000), 1.05)
    assert sorted(made) == list(contract.fixing_times)


def test_a_run_makes_each_interval_steps_once(monkeypatch):
    # the first call of a run prices its three cases, one lattice each, on
    # one set of intervals: K intervals' runs are made, not 3K
    made = count_made(monkeypatch)
    config = dataclasses.replace(
        cli.preset_table1(), engines=("fd",), fd=GRID,
        model=knot_in_every_interval_model(), targets=(0.3,))
    records = cli.run(config)
    assert [rec.status for rec in records] == ["ok"] * 3
    assert sorted(made) == list(config.fixing_times)


def test_run_builds_maps_its_cases_pay_for(monkeypatch):
    # 12 cases, three lattices of 21 rows (each knockout's four targets are
    # nodes of one room grid), pay for the map of each of the eight
    # intervals, the first interval's four rows a lattice too; each price
    # is its row of the largest target's lattice, marched step by step
    built = count_builds(monkeypatch)
    model = knot_in_every_interval_model()
    config = dataclasses.replace(
        cli.preset_table1(), engines=("fd",), fd=GRID, model=model,
        fixing_times=benchmark_times(8), targets=(0.1, 0.2, 0.3, 0.4))
    records = cli.run(config)
    assert len(built) == 8
    lattice = replace(GRID, accumulation_nodes=21)
    for rec in records:
        contract = TarnContract(strike=1.0, target=0.4, beta=1,
                                fixing_times=benchmark_times(8),
                                knockout=KnockoutType(rec.knockout))
        assert rec.price == pytest.approx(
            reference_price(contract, model, lattice, 1.05, rec.target),
            rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model, shapes", [
    (flat_model(r_d=0.02), 1), (knot_in_every_interval_model(), 8),
], ids=["equal_intervals", "knot_in_every_interval"])
def test_each_terms_group_builds_each_interval_shape_once(monkeypatch, model, shapes):
    # two strikes are two groups of twelve cases on one dict, each group
    # the run above: its first call builds one map per interval shape for
    # its three lattices, and its other eleven calls read their results
    built = count_builds(monkeypatch)
    cases = tuple(TarnContract(strike=strike, target=target, beta=1,
                               fixing_times=benchmark_times(8), knockout=knockout)
                  for strike in (1.0, 1.02) for knockout in KnockoutType
                  for target in (0.1, 0.2, 0.3, 0.4))
    cache, counts = {}, []
    for contract in cases:
        fd_price(contract, model, GRID, 1.05, cache=cache, cases=cases)
        counts.append(len(built))
    assert counts == [shapes] * 12 + [2 * shapes] * 12


def test_one_row_through_a_long_interval_at_large_m_is_marched():
    # 100 one-row steps cost about 10 ms; one (M + 1)-row step and the
    # products of a build, seconds
    assert not fd._map_pays([100], [1], 2000)
    assert not fd._map_pays([50], [50] * 6, 2000)


def test_knot_interval_of_a_small_run_is_mapped():
    # a volatility knot splits the third of four 50-step intervals into
    # three runs; three pricings of 50 rows pay for powering both long runs
    # and marching the knot's step
    contract = TarnContract(strike=1.0, target=0.2, beta=1,
                            fixing_times=(0.1, 0.2, 0.3, 0.4),
                            knockout=KnockoutType.PART_GAIN)
    model = MarketModel(
        domestic=RateCurve.flat(0.02), foreign=RateCurve.flat(0.01),
        vol=TermStructureVol((0.0, 0.215), (0.2, 0.28)))
    config = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)
    grid = build_grid(contract, model, config, 1.05)
    lengths = run_lengths(fd._interval_runs(model, grid, 0.3, 0.2, 50, config))
    assert lengths == [42, 1, 7]
    assert fd._map_pays(lengths, [50] * 3, 200)
    assert not fd._map_pays(lengths, [1], 200)


def step_bits(dt, theta, bands_from, bands_to):
    return tuple(float(x).hex() for x in (dt, theta) + bands_from + bands_to)


@st.composite
def knotted_intervals(draw):
    """An interval, its step count and start-up steps, and a model whose
    volatility and domestic rate have knots inside it, some at a level."""
    t_lo = draw(st.floats(0.0, 1.0))
    t_hi = t_lo + draw(st.floats(1e-3, 1.0))
    n_steps = draw(st.integers(1, 40))
    fraction = st.one_of(st.floats(0.0, 1.0),
                         st.integers(0, n_steps).map(lambda s: s / n_steps))

    def pieces(values):
        knots = sorted({0.0} | {t_lo + draw(fraction) * (t_hi - t_lo)
                                for _ in range(draw(st.integers(0, 3)))})
        return tuple(knots), tuple(draw(st.sampled_from(values)) for _ in knots)

    model = MarketModel(domestic=RateCurve(*pieces((0.01, 0.02))),
                        foreign=RateCurve.flat(0.01),
                        vol=TermStructureVol(*pieces((0.15, 0.2, 0.3))))
    config = replace(GRID, theta=draw(st.sampled_from((0.5, 0.75, 1.0))),
                     implicit_startup_steps=draw(st.integers(0, 4)))
    return model, config, t_hi, t_lo, n_steps


@given(knotted_intervals())
def test_interval_runs_are_the_level_walk_in_runs_of_one_key(case):
    # the reference walk of reference_price, and the key rule: the
    # interval's nominal dt to 12 digits, theta and the operator bands
    model, config, t_hi, t_lo, n_steps = case
    grid = build_grid(call_contract(), model, config, 1.05)
    runs = fd._interval_runs(model, grid, t_hi, t_lo, n_steps, config)
    dt = (t_hi - t_lo) / n_steps
    want = []
    for s in range(n_steps):
        t_from = t_hi - s * dt
        t_to = t_lo if s == n_steps - 1 else t_hi - (s + 1) * dt
        want.append(step_bits(
            t_from - t_to, 1.0 if s < config.implicit_startup_steps else config.theta,
            coefficients_at(model, grid.spots, t_from, grid.dx),
            coefficients_at(model, grid.spots, t_to, grid.dx)))
    assert [step_bits(*step) for _, run in runs for step in run] == want
    for key, run in runs:
        for _, theta, bands_from, bands_to in run:
            assert key == (float(f"{dt:.11e}"), theta) + bands_from + bands_to
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    assert sum(run_lengths(runs)) == n_steps


@pytest.mark.parametrize("k", [4, 6, 7, 9])
def test_criterion_7_shapes_map_every_interval(monkeypatch, k):
    # one pricing per map: 200 steps over k equal intervals, split unevenly
    # for 6, 7 and 9 fixings, so equal intervals fall under two keys
    decisions = []
    original = fd._map_pays

    def recording(*args):
        decisions.append(original(*args))
        return decisions[-1]

    monkeypatch.setattr(fd, "_map_pays", recording)
    contract = TarnContract(strike=1.0, target=0.3, beta=1,
                            fixing_times=tuple(0.08 * (j + 1) for j in range(k)),
                            knockout=KnockoutType.PART_GAIN)
    config = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)
    grid = build_grid(contract, flat_model(r_d=0.02), config, 1.0)
    assert len(set(grid.steps_per_interval)) == (1 if k == 4 else 2)
    fd_price(contract, flat_model(r_d=0.02), config, 1.0)
    assert decisions == [True] * len(set(grid.steps_per_interval))


def test_later_cases_of_a_run_make_no_step(monkeypatch):
    # three cases on a term-structure model with knots inside intervals:
    # the first FD call builds every map, the others only apply them
    steps = []
    original_step = fd.theta_step

    def counting_step(*args, **kwargs):
        steps.append(None)
        return original_step(*args, **kwargs)

    per_call = []
    original_price = cli.fd_price

    def counting_price(*args, **kwargs):
        before = len(steps)
        result = original_price(*args, **kwargs)
        per_call.append(len(steps) - before)
        return result

    monkeypatch.setattr(fd, "theta_step", counting_step)
    monkeypatch.setattr(cli, "fd_price", counting_price)
    config = dataclasses.replace(
        cli.preset_table1(), engines=("fd",), fd=GRID, model=term_structure_model(),
        fixing_times=benchmark_times(8), targets=(0.2,))
    records = cli.run(config)
    assert len(records) == 3 and all(r.status == "ok" for r in records)
    assert per_call[0] > 0
    assert per_call[1:] == [0, 0]


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


def count_products(monkeypatch):
    products = []
    original = fd._compose

    def counting(first, then):
        products.append(None)
        return original(first, then)

    monkeypatch.setattr(fd, "_compose", counting)
    return products


@pytest.mark.parametrize("n, n_products", [
    (1, 0), (2, 0), (3, 0), (7, 4), (8, 3), (50, 7),
])
def test_one_run_map_matches_reference_march(monkeypatch, n, n_products):
    # four equal intervals of n identical steps: one map, marched when n is
    # at most 3, else the one-step map raised to the n-th power (n = 50:
    # five squarings and two products for the set bits below the top one)
    built = count_builds(monkeypatch)
    products = count_products(monkeypatch)
    contract = TarnContract(strike=1.0, target=0.2, beta=1,
                            fixing_times=benchmark_times(4),
                            knockout=KnockoutType.PART_GAIN)
    model = flat_model(r_d=0.02)
    config = replace(GRID, time_steps=4 * n)
    grid = build_grid(contract, model, config, 1.05)
    assert grid.steps_per_interval == (n,) * 4
    runs = fd._interval_runs(model, grid, grid.fixing_times[1],
                             grid.fixing_times[0], n, config)
    assert run_lengths(runs) == [n]
    got = fd_price(contract, model, config, 1.05, cache={},
                   cases=run_of(contract, 12)).price
    assert len(built) == 1
    assert len(products) == n_products
    assert got == pytest.approx(reference_price(contract, model, config, 1.05),
                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("contract, config, spot", [
    (call_contract(), replace(GRID, implicit_startup_steps=2), 1.05),
    (put_contract(), replace(DIRECTIONAL, implicit_startup_steps=2), 0.97),
], ids=["zero_gamma", "dirichlet_neumann_put"])
def test_runs_of_one_interval_compose(monkeypatch, contract, config, spot):
    # a vol knot inside the first step of the third interval: that step,
    # the second start-up step and the 13 theta steps are three runs; the
    # two one-step runs are marched, the 13 steps powered onto them
    built = count_builds(monkeypatch)
    products = count_products(monkeypatch)
    times = contract.fixing_times
    dt = (times[2] - times[1]) / 15
    model = MarketModel(
        domestic=RateCurve.flat(0.02), foreign=RateCurve.flat(0.01),
        vol=TermStructureVol((0.0, times[2] - 0.5 * dt), (0.2, 0.28)),
    )
    grid = build_grid(contract, model, config, spot)
    assert grid.steps_per_interval[2] == 15
    runs = fd._interval_runs(model, grid, times[2], times[1], 15, config)
    assert run_lengths(runs) == [1, 1, 13]
    products.clear()
    fd._build_map(runs, grid.spots.size, closure_of(contract, config, grid))
    # 13 = 0b1101: three squarings, three products onto the map so far
    assert len(products) == 6
    built.clear()
    got = fd_price(contract, model, config, spot, cache={},
                   cases=run_of(contract, 12)).price
    # the intervals below the knot, the knot's and those above it
    assert len(built) == 3
    assert got == pytest.approx(reference_price(contract, model, config, spot),
                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("startup", [0, 2])
def test_map_build_memory_is_bounded(startup):
    # at most three (M + 1, M) arrays are live: the map so far, the current
    # power and the product being formed; start-up steps are marched onto
    # the map so far in place
    m = 400
    contract = TarnContract(strike=1.0, target=0.2, beta=1,
                            fixing_times=benchmark_times(1),
                            knockout=KnockoutType.PART_GAIN)
    model = flat_model(r_d=0.02)
    config = FdConfig(spot_nodes=m, accumulation_nodes=20, time_steps=50,
                      implicit_startup_steps=startup)
    grid = build_grid(contract, model, config, 1.05)
    runs = fd._interval_runs(model, grid, grid.fixing_times[0], 0.0, 50, config)
    tracemalloc.start()
    try:
        fd._build_map(runs, grid.spots.size, closure_of(contract, config, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * m * m * 8


@pytest.mark.parametrize("n, t_hi", [(3, 0.003), (50, 0.01)],
                         ids=["marched", "powered"])
def test_maps_keep_no_entry_a_product_could_underflow_on(n, t_hi):
    # short steps on a one-year grid: away from the diagonal a step map's
    # entries fall to 1e-206, and products of the kept ones to 1e-322
    m = 400
    contract = TarnContract(strike=1.0, target=0.2, beta=1,
                            fixing_times=benchmark_times(12),
                            knockout=KnockoutType.PART_GAIN)
    model = flat_model(r_d=0.02)
    config = FdConfig(spot_nodes=m, accumulation_nodes=20, time_steps=120)
    grid = build_grid(contract, model, config, 1.05)
    runs = fd._interval_runs(model, grid, t_hi, 0.0, n, config)
    closure = closure_of(contract, config, grid)
    for array in fd._build_map(runs, grid.spots.size, closure):
        assert np.all((array == 0.0) | (np.abs(array) >= fd._NEGLIGIBLE))


def test_a_price_never_depends_on_what_was_priced_before_it(monkeypatch):
    # one dict across two spot grids, two accumulation grids (the rows an
    # interval's map-or-march choice is made from), runs of one and of 12
    # cases, two models, both boundaries and both betas, walked forward and
    # back; the boundaries and betas share one spot grid, and every case of
    # a model shares its object, so cases that differ only in J differ in
    # the key only by the J in its FdConfig
    cache = {}
    models = (flat_model(r_d=0.02), term_structure_model())
    cases = [
        (contract, model, replace(config, spot_nodes=m, accumulation_nodes=j), run)
        for m in (120, 90)
        for j in (20, 6)
        for n in (1, 12)
        for model in models
        for config in (replace(DIRECTIONAL, boundary=BoundaryKind.ZERO_GAMMA),
                       DIRECTIONAL)
        for contract in (call_contract(), put_contract())
        for run in [run_of(contract, n)]
    ]
    # a shape whose map-or-march choice depends on J: one pricing on GRID
    # marches 2 of its 8 intervals at J = 20 and 4 at J = 6
    by_j = [(call_contract(), models[1], replace(GRID, accumulation_nodes=j), ())
            for j in (20, 6)]
    spied = spy_intervals(monkeypatch)
    for contract, model, config, run in by_j:
        fd_price(contract, model, config, 1.05, cache={}, cases=run)
    assert [sum(interval(k)[1] is None for k in range(8))
            for _, interval in spied] == [2, 4]
    cases += by_j
    for contract, model, config, run in cases + cases[::-1]:
        got = fd_price(contract, model, config, 1.05, cache=cache, cases=run).price
        want = fd_price(contract, model, config, 1.05, cache={}, cases=run).price
        assert got == want
    assert {key[2].spot_nodes for key in cache} == {120, 90}


def results(cache):
    return [key for key in cache if key[0] == "fd.result"]


def test_the_first_call_of_a_run_prices_every_case(monkeypatch):
    # the target and the knockout type change neither the spot grid nor J,
    # so both cases are priced at the first call, through maps that no
    # lattice may write to; the second call makes no step, builds no map
    # and reads a result equal to a pricing of its own
    built = count_builds(monkeypatch)
    made = count_made(monkeypatch)
    cache = {}
    model = term_structure_model()
    other = replace(call_contract(KnockoutType.NO_GAIN), target=0.3)
    cases = (call_contract(), other)
    fd_price(call_contract(), model, GRID, 1.05, cache=cache, cases=cases)
    assert built and made
    for matrix, offset in built:
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            offset += 1.0
    built.clear()
    made.clear()
    assert [key[-1] for key in results(cache)] == list(cases) and len(cache) == 2
    again = fd_price(other, model, GRID, 1.05, cache=cache, cases=cases).price
    assert (built, made) == ([], [])
    assert again == fd_price(other, model, GRID, 1.05, cache={}, cases=cases).price


def test_each_input_of_a_price_is_in_its_key():
    # every call below prices: a case alone and the same case in a run of
    # 12 are two keys, since the run's other lattices can change its maps
    cache = {}
    model = flat_model(r_d=0.02)
    shapes = [
        (call_contract(), GRID, (), 1),
        (call_contract(), replace(GRID, accumulation_nodes=6), (), 1),
        (call_contract(), GRID, run_of(call_contract(), 12), 12),
        (call_contract(),
         replace(GRID, boundary=BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION), (), 1),
        (put_contract(), GRID, (), 1),
    ]
    count = 0
    for contract, config, cases, priced in shapes:
        fd_price(contract, model, config, 1.05, cache=cache, cases=cases)
        count += priced
        assert len(results(cache)) == len(cache) == count


def test_local_vol_pricings_hold_no_entry():
    # the steps of a local-vol interval carry (M,) levels at every step;
    # holding them would keep about 3 MB per 1000-node pricing alive
    cache = {}
    model = local_vol_model()
    cases = tuple(replace(call_contract(knockout), target=target)
                  for knockout in KnockoutType for target in (0.2, 0.3))
    for contract in cases:
        fd_price(contract, model, GRID, 1.05, cache=cache, cases=cases)
    # each knockout's two targets share a lattice, whose results are kept
    assert {key[0] for key in cache} == {"fd.result"}
    assert all(isinstance(result, fd.PriceResult) for result in cache.values())


SAME_TERMS = (replace(call_contract(), target=0.3), call_contract(KnockoutType.NO_GAIN))
OTHER_TERMS = (replace(call_contract(), strike=1.02),
               replace(call_contract(), fixing_times=benchmark_times(7),
                       extra_payments=None),
               put_contract())
SHARED = (2, 22)  # targets 0.2 and 0.3 are nodes 14 and 21 of a 22-node room grid
ALONE = (1, 20)


@pytest.mark.parametrize("cache, cases, lattices", [
    ({}, (call_contract(),) + SAME_TERMS + OTHER_TERMS, [SHARED, ALONE]),
    ({}, OTHER_TERMS[:1] + SAME_TERMS + OTHER_TERMS[1:] + (call_contract(),),
     [SHARED, ALONE]),
    ({}, SAME_TERMS + OTHER_TERMS, [ALONE]),
    (None, (call_contract(),) + SAME_TERMS + OTHER_TERMS, [ALONE]),
    ({}, (), [ALONE]),
    ({}, (call_contract(), SAME_TERMS[0], call_contract(), replace(SAME_TERMS[0])),
     [SHARED]),
], ids=["in_its_cases", "in_its_cases_last", "not_in_its_cases", "no_dict", "no_cases",
        "listed_twice"])
def test_maps_count_the_lattices_on_its_terms(monkeypatch, cache, cases, lattices):
    # cases on another strike, schedule or direction march their own rows;
    # the part_gain targets share one lattice, the no_gain case is its own;
    # without a dict, or outside its cases, a pricing is its own lattice
    spied = spy_intervals(monkeypatch)
    fd_price(call_contract(), flat_model(r_d=0.02), GRID, 1.05, cache=cache, cases=cases)
    assert [given for given, _ in spied] == [lattices]
