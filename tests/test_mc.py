import dataclasses
import gc
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarnpricer import (
    FdConfig,
    KnockoutType,
    LocalVolSurface,
    MarketModel,
    McConfig,
    RateCurve,
    TarnContract,
    TermStructureVol,
    cli,
    mc,
    mc_price,
    vanilla_price,
)
from tarnpricer.cli import PRESETS, preset_table1, run
from tarnpricer.market import discount_factor
from tarnpricer.mc import BATCH_SIZE, simulate_fixing_paths, standard_error

import path_oracle
from conftest import benchmark_contract, benchmark_times, flat_model, smile_model


def flat_surface(sigma=0.2):
    return LocalVolSurface(time_knots=[0.0, 3.0], spot_knots=[0.05, 6.0],
                           values=[[sigma, sigma], [sigma, sigma]])


class TestStandardError:
    def test_constant_samples(self):
        assert standard_error(np.full(50, 3.0)) == 0.0

    def test_two_point_sample(self):
        assert standard_error(np.array([0.0, 2.0])) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_quarter_sample_doubles_stderr(self, rng):
        big = rng.standard_normal(40_000)
        small = big[:10_000]
        ratio = standard_error(small) / standard_error(big)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_matches_numpy_on_random_data(self, rng):
        x = 1e6 + rng.standard_normal(5000)  # offset probes stability
        want = float(np.std(x) / math.sqrt(x.size))
        assert standard_error(x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spot", [math.nan, math.inf, 0.0, -1.05])
def test_bad_spot_rejected_by_name(spot):
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    with pytest.raises(ValueError, match="spot must be positive and finite"):
        mc_price(contract, flat_model(), McConfig(n_paths=100), spot)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_cv_coefficient_rejected_by_name(value):
    with pytest.raises(ValueError, match="^cv_coefficient must be a finite real number"):
        McConfig(cv_coefficient=value)


def test_pinned_cv_coefficient_without_control_variate_rejected():
    # with the control variate off the estimator never reads the coefficient
    with pytest.raises(ValueError, match="^cv_coefficient is pinned but "
                                         "control_variate is off$"):
        McConfig(control_variate=False, cv_coefficient=0.7)


@pytest.mark.parametrize("n_paths", [2, 3])
def test_too_few_paths_for_the_pilot_rejected_by_name(n_paths):
    # the pilot tranche takes max(2, n // 10) paths, leaving fewer than two
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    with pytest.raises(ValueError, match="^n_paths must leave at least 2 paths"):
        mc_price(contract, flat_model(), McConfig(n_paths=n_paths), 1.05)


@pytest.mark.parametrize("n_paths", [20, 29])
def test_pilot_coefficient_is_the_pilots_least_squares_slope(n_paths):
    # n // 10 is 2, so the pilot is the first two paths: the slope through
    # their two (control, payoff) points.  A covariance with ddof=1 over a
    # variance with ddof=0 gave twice it.
    contract = benchmark_contract(KnockoutType.PART_GAIN, 0.3)
    model = flat_model(r_d=0.02)
    config = McConfig(n_paths=n_paths, seed=11)
    res = mc_price(contract, model, config, 1.0)
    rng = np.random.Generator(np.random.Philox(config.seed).jumped(0))
    pilot = simulate_fixing_paths(model, 1.0, contract.fixing_times, n_paths, rng)[:2]
    discounts = np.array([discount_factor(model.domestic, 0.0, t)
                          for t in contract.fixing_times])
    (p0, p1), = path_oracle.walk_present_value(pilot, (contract,), discounts)
    c0, c1 = path_oracle.control_values(pilot, contract, discounts)
    assert c1 != c0 and p1 != p0
    assert res.cv_coefficient == pytest.approx((p1 - p0) / (c1 - c0), rel=1e-12)


def test_four_paths_leave_two_after_the_pilot():
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    res = mc_price(contract, flat_model(), McConfig(n_paths=4), 1.05)
    assert math.isfinite(res.price) and math.isfinite(res.stderr)


@pytest.mark.parametrize("control_variate", [True, False])
def test_a_non_finite_price_is_never_returned(control_variate):
    # 1e308 paid at each of three fixings overflows every path's present
    # value: the price and its standard error come out NaN (inf without the
    # control variate), and the front end records an error, as for FD
    times = (0.25, 0.5, 0.75)
    contract = TarnContract(strike=1.0, target=0.3, beta=1, fixing_times=times,
                            knockout=KnockoutType.NO_GAIN, extra_payments=(1e308,) * 3)
    config = McConfig(n_paths=4000, control_variate=control_variate)
    run_config = dataclasses.replace(
        preset_table1(), engines=("mc",), targets=(0.3,), knockouts=(KnockoutType.NO_GAIN,),
        fixing_times=times, extra_payments=(1e308,) * 3, model=flat_model(), spot=1.0,
        mc=config)
    with np.errstate(all="ignore"):  # the overflow warns on its way
        with pytest.raises(ValueError, match=r"^MC price is not finite \((nan|inf)\)"):
            mc_price(contract, flat_model(), config, 1.0)
        [record] = run(run_config)
    assert record.status.startswith("error: MC price is not finite")
    assert math.isnan(record.price)


class TestPathSimulation:
    def test_vanishing_volatility_path_is_constant(self):
        model = flat_model(sigma=1e-9)
        gen = np.random.Generator(np.random.Philox(1))
        path = simulate_fixing_paths(model, 1.05, benchmark_times(5), 1, gen)[0]
        assert np.allclose(path, 1.05, atol=1e-7)

    def test_exact_transition_moments(self):
        model = flat_model(sigma=0.25, r_d=0.03, r_f=0.01)
        t1 = 0.7
        n = 60_000
        gen = np.random.Generator(np.random.Philox(9))
        paths = simulate_fixing_paths(model, 1.2, (t1,), n, gen)
        logs = np.log(paths[:, 0])
        want_mean = math.log(1.2) + (0.03 - 0.01 - 0.5 * 0.25 ** 2) * t1
        want_var = 0.25 ** 2 * t1
        se_mean = math.sqrt(want_var / n)
        assert abs(logs.mean() - want_mean) < 4.0 * se_mean
        se_var = want_var * math.sqrt(2.0 / (n - 1))
        assert abs(logs.var() - want_var) < 4.0 * se_var

    def test_local_vol_euler_matches_exact_for_flat_surface(self):
        times = (0.25, 0.5)
        n = 50_000
        exact_model = flat_model(sigma=0.2)
        euler_model = MarketModel(domestic=RateCurve.flat(0.0),
                                  foreign=RateCurve.flat(0.0),
                                  vol=flat_surface(0.2))
        g1 = np.random.Generator(np.random.Philox(21))
        g2 = np.random.Generator(np.random.Philox(22))
        exact = np.log(simulate_fixing_paths(exact_model, 1.0, times, n, g1))
        euler = np.log(simulate_fixing_paths(euler_model, 1.0, times, n, g2,
                                             substeps_per_interval=16))
        for k in range(2):
            se = math.sqrt(exact[:, k].var() / n + euler[:, k].var() / n)
            assert abs(exact[:, k].mean() - euler[:, k].mean()) < 4.0 * se
            vr = euler[:, k].var() / exact[:, k].var()
            assert vr == pytest.approx(1.0, abs=0.05)

    def test_shapes(self):
        model = flat_model()
        gen = np.random.Generator(np.random.Philox(2))
        paths = simulate_fixing_paths(model, 1.0, benchmark_times(7), 13, gen)
        assert paths.shape == (13, 7)


class TestMcPrice:
    def test_fixed_seed_reproducible_bitwise(self):
        contract = benchmark_contract(KnockoutType.PART_GAIN, 0.5)
        cfg = McConfig(n_paths=40_000, seed=77)
        a = mc_price(contract, flat_model(), cfg, 1.05)
        b = mc_price(contract, flat_model(), cfg, 1.05)
        assert a.price == b.price
        assert a.stderr == b.stderr

    def test_seed_changes_estimate(self):
        contract = benchmark_contract(KnockoutType.PART_GAIN, 0.5)
        a = mc_price(contract, flat_model(), McConfig(n_paths=20_000, seed=1), 1.05)
        b = mc_price(contract, flat_model(), McConfig(n_paths=20_000, seed=2), 1.05)
        assert a.price != b.price

    def test_huge_target_matches_vanilla_strip(self):
        model = flat_model()
        times = benchmark_times()
        contract = TarnContract(strike=1.0, target=1e9, beta=1,
                                fixing_times=times,
                                knockout=KnockoutType.FULL_GAIN)
        strip = sum(vanilla_price(1.05, 1.0, 1, t, model.domestic,
                                  model.foreign, model.vol) for t in times)
        plain = mc_price(contract, model,
                         McConfig(n_paths=100_000, seed=11,
                                  control_variate=False), 1.05)
        assert abs(plain.price - strip) < 3.0 * plain.stderr
        # the control then matches the payoff exactly: the residual variance
        # collapses and the estimate snaps onto the known mean
        cv = mc_price(contract, model,
                      McConfig(n_paths=100_000, seed=11), 1.05)
        assert cv.stderr < 0.02 * plain.stderr
        assert abs(cv.price - strip) < max(3.0 * cv.stderr, 1e-12)

    def test_control_variate_unbiased_and_tighter(self):
        contract = benchmark_contract(KnockoutType.FULL_GAIN, 0.5)
        model = flat_model()
        plain = mc_price(contract, model,
                         McConfig(n_paths=150_000, seed=4,
                                  control_variate=False), 1.05)
        cv = mc_price(contract, model, McConfig(n_paths=150_000, seed=4), 1.05)
        combined = math.hypot(plain.stderr, cv.stderr)
        assert abs(cv.price - plain.price) < 3.0 * combined
        assert cv.stderr < plain.stderr
        assert cv.cv_coefficient is not None

    def test_fixed_unit_coefficient_mode(self):
        contract = benchmark_contract(KnockoutType.FULL_GAIN, 0.5)
        res = mc_price(contract, flat_model(),
                       McConfig(n_paths=30_000, seed=4, cv_coefficient=1.0),
                       1.05)
        assert res.cv_coefficient == 1.0

    def test_local_vol_downgrades_control_variate(self):
        model = MarketModel(domestic=RateCurve.flat(0.0),
                            foreign=RateCurve.flat(0.0), vol=flat_surface())
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        res = mc_price(contract, model,
                       McConfig(n_paths=20_000, seed=8,
                                substeps_per_interval=4), 1.05)
        assert res.cv_downgraded
        assert res.cv_coefficient is None

    def test_local_vol_flat_surface_agrees_with_exact(self):
        surface_model = MarketModel(domestic=RateCurve.flat(0.0),
                                    foreign=RateCurve.flat(0.0),
                                    vol=flat_surface())
        contract = benchmark_contract(KnockoutType.PART_GAIN, 0.5)
        a = mc_price(contract, surface_model,
                     McConfig(n_paths=60_000, seed=15,
                              substeps_per_interval=8), 1.05)
        b = mc_price(contract, flat_model(),
                     McConfig(n_paths=60_000, seed=16), 1.05)
        assert abs(a.price - b.price) < 4.0 * math.hypot(a.stderr, b.stderr)

    def test_dominance_per_seed(self):
        model = flat_model()
        cfg = McConfig(n_paths=30_000, seed=99, control_variate=False)
        prices = {
            ko: mc_price(benchmark_contract(ko, 0.5), model, cfg, 1.05).price
            for ko in KnockoutType
        }
        assert prices[KnockoutType.NO_GAIN] <= prices[KnockoutType.PART_GAIN]
        assert prices[KnockoutType.PART_GAIN] <= prices[KnockoutType.FULL_GAIN]

    def test_stderr_scales_with_path_count(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg_small = McConfig(n_paths=25_000, seed=31, control_variate=False)
        cfg_big = McConfig(n_paths=100_000, seed=31, control_variate=False)
        small = mc_price(contract, flat_model(), cfg_small, 1.05)
        big = mc_price(contract, flat_model(), cfg_big, 1.05)
        assert small.stderr / big.stderr == pytest.approx(2.0, rel=0.15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mc_price(benchmark_contract(KnockoutType.NO_GAIN, 0.3),
                     flat_model(), McConfig(n_paths=1), 1.05)
        with pytest.raises(ValueError):
            McConfig(n_paths=100, substeps_per_interval=0)


def term_structure_model():
    return MarketModel(domestic=RateCurve((0.0, 0.3), (0.02, 0.035)),
                       foreign=RateCurve((0.0, 0.5), (0.01, 0.0)),
                       vol=TermStructureVol((0.0, 0.2, 0.7), (0.15, 0.3, 0.22)))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64).tolist()


class TestMatchesPathMajorOracle:
    """The fixing-major engine against the per-fixing oracle kernels, bit for bit."""

    @pytest.mark.parametrize("model, substeps", [
        (flat_model(sigma=0.25, r_d=0.03, r_f=0.01), 1),
        (term_structure_model(), 1),
        (smile_model(), 2),
    ], ids=["flat", "term_structure", "local_vol"])
    @pytest.mark.parametrize("n_paths", [1, 777])
    def test_simulated_paths(self, model, substeps, n_paths):
        times = benchmark_times(12)
        got = simulate_fixing_paths(model, 1.03, times, n_paths,
                                    np.random.Generator(np.random.Philox(5)), substeps)
        want = path_oracle.simulate_fixing_paths(
            model, 1.03, times, n_paths, np.random.Generator(np.random.Philox(5)), substeps)
        assert got.shape == want.shape == (n_paths, 12)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("config", [
        McConfig(n_paths=BATCH_SIZE + 3001, seed=3),
        McConfig(n_paths=BATCH_SIZE + 3001, seed=3, cv_coefficient=0.7),
        McConfig(n_paths=BATCH_SIZE + 3001, seed=3, control_variate=False),
    ], ids=["estimated_lambda", "fixed_lambda", "no_cv"])
    @pytest.mark.parametrize("knockout", list(KnockoutType))
    def test_price(self, monkeypatch, config, knockout):
        # a partial last batch; extras and rates exercise every flow term
        times = benchmark_times(16)
        contract = TarnContract(strike=1.0, target=0.25, beta=1, fixing_times=times,
                                knockout=knockout,
                                extra_payments=[0.004 * (k % 3 - 1) for k in range(16)])
        model = term_structure_model()
        got = mc_price(contract, model, config, 1.02)
        monkeypatch.setattr(mc, "simulate_fixing_paths", path_oracle.simulate_fixing_paths)
        monkeypatch.setattr(mc, "batch_present_value", path_oracle.walk_present_value)
        monkeypatch.setattr(mc, "_control_values", path_oracle.control_values)
        want = mc_price(contract, model, config, 1.02)
        assert bits([got.price, got.stderr]) == bits([want.price, want.stderr])
        assert got.cv_coefficient == want.cv_coefficient


class TestMatchesWholeColumnEstimator:
    """The streaming pass against the estimator that holds whole columns."""

    @pytest.mark.parametrize("batch_size", [1000, 300, 70],
                             ids=["pilot_inside_a_batch", "pilot_on_a_batch_boundary",
                                  "pilot_over_five_batches"])
    @pytest.mark.parametrize("config, model", [
        (McConfig(n_paths=3000, seed=6), None),
        (McConfig(n_paths=3000, seed=6, cv_coefficient=0.7), None),
        (McConfig(n_paths=3000, seed=6, control_variate=False), None),
        (McConfig(n_paths=3000, seed=6, substeps_per_interval=2), smile_model()),
    ], ids=["estimated_lambda", "pinned_lambda", "no_cv", "local_vol"])
    def test_price_stderr_and_coefficient(self, monkeypatch, batch_size, config, model):
        # 3000 paths: a 300-path pilot when the coefficient is estimated
        monkeypatch.setattr(mc, "BATCH_SIZE", batch_size)
        model, cache = model or term_structure_model(), {}
        got = [mc_price(c, model, config, 1.02, cache=cache, cases=CASES) for c in CASES]
        want = path_oracle.column_estimates(CASES, model, config, 1.02, batch_size)
        for res, (price, stderr, lam) in zip(got, want):
            assert (res.cv_coefficient is None) == (lam is None)
            if lam is not None:
                assert bits([res.cv_coefficient]) == bits([lam])
            assert res.price == pytest.approx(price, rel=1e-14, abs=0.0)
            assert res.stderr == pytest.approx(stderr, rel=1e-14, abs=0.0)


def merged(block, sizes):
    """Each row's mean and standard error from ``block`` merged in batches of
    ``sizes`` columns, as the engine merges its batches."""
    moments, start = (0, np.zeros(len(block)), np.zeros(len(block))), 0
    for size in sizes:
        moments = mc._merged(moments, block[:, start:start + size])
        start += size
    count, mean, m2 = moments
    return mean, np.sqrt(m2 / count) / math.sqrt(count)


@st.composite
def split_columns(draw):
    """A column of 2-200 samples around an offset, and batch sizes that
    cover it, of any size from 1."""
    n = draw(st.integers(2, 200))
    spread = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    column = draw(st.lists(st.floats(-spread, spread), min_size=n, max_size=n))
    column = np.array(column) + draw(st.sampled_from([0.0, 0.3, -7.5]))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    return column, sizes


class TestBatchMomentMerge:
    """``mc._merged``, the engine's per-batch reduction and merge."""

    @given(split_columns())
    def test_matches_the_whole_column(self, split):
        # within a few ulps of the column's largest magnitude
        column, sizes = split
        mean, stderr = merged(column[None, :], sizes)
        ulp = np.spacing(np.max(np.abs(column)))
        assert abs(mean[0] - column.mean()) <= 8 * ulp
        assert abs(stderr[0] - standard_error(column)) <= 4 * ulp

    @given(split_columns(), st.floats(-1e6, 1e6))
    def test_a_constant_column_is_exact(self, split, value):
        column, sizes = split
        mean, stderr = merged(np.full((1, column.size), value), sizes)
        assert mean[0] == value and stderr[0] == 0.0

    @given(split_columns(), st.data())
    def test_a_nan_fails_only_its_row(self, split, data):
        column, sizes = split
        block = np.array([column, 2.0 * column + 1.0, np.full(column.size, 0.5)])
        want = [merged(block[i:i + 1], sizes) for i in range(3)]
        row = data.draw(st.integers(0, 2))
        block[row, data.draw(st.integers(0, column.size - 1))] = np.nan
        mean, stderr = merged(block, sizes)
        for i in range(3):
            if i == row:
                assert not (math.isfinite(mean[i]) and math.isfinite(stderr[i]))
            else:  # bit for bit as merged alone
                assert bits([mean[i], stderr[i]]) == bits([want[i][0][0], want[i][1][0]])


def counting(monkeypatch, *names):
    """Record the engine's calls to each ``mc.<name>``, by name, in call order."""
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(mc, name, counted(name, getattr(mc, name)))
    return calls


def test_one_simulation_and_payoff_call_per_batch(monkeypatch):
    calls = counting(monkeypatch, "simulate_fixing_paths", "batch_present_value")
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    mc_price(contract, flat_model(), McConfig(n_paths=2 * BATCH_SIZE + 1), 1.05)
    assert calls == ["simulate_fixing_paths", "batch_present_value"] * 3


CASES = tuple(benchmark_contract(ko, u) for ko in KnockoutType for u in (0.3, 0.5))


def run_cases(config, cache, contracts=CASES, model=None, cases=()):
    """The (price, stderr bits, cv_coefficient) of each case, priced in order."""
    model = model or flat_model(r_d=0.01)
    out = []
    for contract in contracts:
        res = mc_price(contract, model, config, 1.05, cache=cache, cases=cases)
        out.append(bits([res.price, res.stderr]) + [res.cv_coefficient])
    return out


def other_terms(**changes):
    """A benchmark case with another strike or direction."""
    terms = dict(strike=1.0, target=0.3, beta=1, fixing_times=benchmark_times(),
                 knockout=KnockoutType.NO_GAIN)
    return TarnContract(**(terms | changes))


class TestSharedSimulation:
    """A group of a run's cases shares each batch and one control column, bit
    for bit."""

    @pytest.mark.parametrize("config, model", [
        (McConfig(n_paths=BATCH_SIZE, seed=3), None),
        (McConfig(n_paths=5000, seed=3, control_variate=False), None),
        (McConfig(n_paths=4000, seed=3, cv_coefficient=0.8), term_structure_model()),
        (McConfig(n_paths=3000, seed=3, substeps_per_interval=2), smile_model()),
        (McConfig(n_paths=BATCH_SIZE + 1000, seed=3), smile_model()),
        (McConfig(n_paths=2 * BATCH_SIZE + 1000, seed=3), None),
    ], ids=["one_batch_cv", "one_batch_no_cv", "term_structure_fixed_lambda",
            "local_vol", "local_vol_two_batches", "three_batches_cv"])
    def test_cases_match_unshared_pricings(self, config, model):
        model = model or flat_model(r_d=0.01)
        alone = [run_cases(config, None, [c], model)[0] for c in CASES]
        assert run_cases(config, {}, model=model, cases=CASES) == alone

    def test_one_batch_run_simulates_once(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths", "_control_values")
        run_cases(McConfig(n_paths=BATCH_SIZE, seed=5), {}, cases=CASES)
        assert calls == ["simulate_fixing_paths", "_control_values"]

    def test_three_batch_run_simulates_each_batch_once(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths", "batch_present_value",
                         "_control_values", "vanilla_price")
        run_cases(McConfig(n_paths=2 * BATCH_SIZE + 1, seed=5), {}, cases=CASES)
        # the first call makes the control mean, then prices all six cases
        # on each batch in one payoff call; the others are served
        batch = ["simulate_fixing_paths", "batch_present_value", "_control_values"]
        assert calls == ["vanilla_price"] * 20 + batch * 3

    def test_a_group_takes_the_gross_amounts_as_often_as_one_case(self, monkeypatch):
        # per batch: twice for the payoffs of the whole group, once for the
        # control column, whether the group holds one case or six
        original, calls = TarnContract.gross, []

        def gross(contract, spots):
            calls.append(contract)
            return original(contract, spots)

        monkeypatch.setattr(TarnContract, "gross", gross)
        config, counts = McConfig(n_paths=2 * BATCH_SIZE + 1, seed=5), []
        for cases in (CASES[:1], CASES):
            calls.clear()
            run_cases(config, {}, contracts=cases[:1], cases=cases)
            counts.append(len(calls))
        assert counts == [3 * 3, 3 * 3]

    def test_a_case_listed_twice_is_priced_once(self, monkeypatch):
        original, priced = mc.batch_present_value, []

        def present_value(paths, cases, discounts):
            priced.append(cases)
            return original(paths, cases, discounts)

        monkeypatch.setattr(mc, "batch_present_value", present_value)
        config, model, cache = McConfig(n_paths=3000, seed=9), flat_model(r_d=0.01), {}
        # an equal contract is the same case, whatever the object
        twice = (CASES[0], CASES[1], dataclasses.replace(CASES[0]), CASES[1])
        got = mc_price(CASES[0], model, config, 1.05, cache=cache, cases=twice)
        assert priced == [CASES[:2]]
        assert set(cache) == {("mc.result", model, 1.05, config, c) for c in CASES[:2]}
        once = mc_price(CASES[0], model, config, 1.05, cache={}, cases=CASES[:2])
        assert bits([got.price, got.stderr]) == bits([once.price, once.stderr])

    def test_a_call_without_a_dict_prices_its_case_alone(self, monkeypatch):
        # no dict would keep the other cases' results, so none is priced
        calls = counting(monkeypatch, "simulate_fixing_paths", "batch_present_value")
        config = McConfig(n_paths=2 * BATCH_SIZE + 1, seed=5)
        got = mc_price(CASES[0], flat_model(r_d=0.01), config, 1.05, cases=CASES)
        assert calls == ["simulate_fixing_paths", "batch_present_value"] * 3
        alone = mc_price(CASES[0], flat_model(r_d=0.01), config, 1.05)
        assert bits([got.price, got.stderr]) == bits([alone.price, alone.stderr])

    def test_without_cases_each_pricing_simulates_its_batches(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths", "_control_values")
        run_cases(McConfig(n_paths=BATCH_SIZE, seed=5), {})
        # each call makes its own control column too
        assert calls == ["simulate_fixing_paths", "_control_values"] * 6

    @pytest.mark.parametrize("extra_paths, groups", [(0, [3, 3]), (1, [2, 2, 2])],
                             ids=["at_the_budget", "one_path_over"])
    def test_groups_fit_the_byte_budget(self, monkeypatch, extra_paths, groups):
        # three cases' values of one 3000-path batch fit: six cases are two
        # groups; with one path more only two cases' values fit
        monkeypatch.setattr(mc, "_GROUP_BYTES", 3 * 3000 * 8)
        config = McConfig(n_paths=3000 + extra_paths, seed=5, control_variate=False)
        calls = counting(monkeypatch, "simulate_fixing_paths")
        original, priced = mc.batch_present_value, []

        def present_value(paths, cases, discounts):
            calls.append("batch_present_value")
            priced.append(cases)
            return original(paths, cases, discounts)

        monkeypatch.setattr(mc, "batch_present_value", present_value)
        run_cases(config, {}, cases=CASES)
        assert calls == ["simulate_fixing_paths", "batch_present_value"] * len(groups)
        assert [len(g) for g in priced] == groups and sum(priced, ()) == CASES

    @pytest.mark.parametrize("n_cases, held, sizes", [
        (12, 20_000 + BATCH_SIZE, [12]),  # table1: a 200k-path pilot and a batch
        (6, BATCH_SIZE, [6]),  # local_vol: no pilot
        (3, 20_000 + BATCH_SIZE, [3]),  # refine's MC-only job
        (11, 2**18, [3, 4, 4]),  # 2 MB a case
        (1, 2**20 + 1, [1]),  # one case over the budget is still a group
        (3, 2**20 + 1, [1, 1, 1]),
    ])
    def test_group_sizes(self, n_cases, held, sizes):
        cases = tuple(benchmark_contract(KnockoutType.NO_GAIN, 0.1 * (i + 1))
                      for i in range(n_cases))
        groups = mc._groups(cases, held)
        assert [len(g) for g in groups] == sizes
        assert sum(groups, ()) == cases

    def test_a_case_outside_its_cases_is_priced_alone(self, monkeypatch):
        config, model, cache = McConfig(n_paths=1000, seed=9), flat_model(r_d=0.01), {}
        calls = counting(monkeypatch, "simulate_fixing_paths", "batch_present_value")
        got = mc_price(CASES[0], model, config, 1.05, cache=cache, cases=CASES[1:])
        assert calls == ["simulate_fixing_paths", "batch_present_value"]
        assert set(cache) == {("mc.result", model, 1.05, config, CASES[0])}
        alone = mc_price(CASES[0], model, config, 1.05)
        assert bits([got.price, got.stderr]) == bits([alone.price, alone.stderr])

    def test_a_case_with_other_terms_in_its_cases_is_priced_alone(self, monkeypatch):
        other_strike, other_beta = other_terms(strike=1.04), other_terms(beta=-1)
        cases = (CASES[0], other_strike, CASES[1], other_beta)
        config, model = McConfig(n_paths=3000, seed=9), flat_model(r_d=0.01)
        calls = counting(monkeypatch, "simulate_fixing_paths", "batch_present_value")
        cache = {}
        got = run_cases(config, cache, cases, model, cases)
        assert calls == ["simulate_fixing_paths", "batch_present_value"] * 3
        assert got == [run_cases(config, None, [c], model)[0] for c in cases]

    @pytest.mark.parametrize("model, cache, groups, alive", [
        (flat_model(), None, 1, [0, 1, 1]),
        (flat_model(), {}, 1, [0, 1, 1]),
        (smile_model(), None, 1, [0, 1, 1]),
        (smile_model(), {}, 1, [0, 1, 1]),
        (flat_model(), {}, 2, [0, 1, 1] * 2),
        (smile_model(), {}, 3, [0, 1, 1] * 3),
    ], ids=["no_dict", "dict", "euler_no_dict", "euler_dict", "two_groups",
            "euler_three_groups"])
    def test_no_more_than_two_batches_are_alive(self, monkeypatch, model, cache, groups,
                                                alive):
        # batches still alive as each batch is simulated: only the previous
        # one, with or without a group to price, and none of an earlier group
        # as the next group starts; a case holds a batch and, with the
        # control variate, a pilot of 3 * BATCH_SIZE // 10 paths
        held = BATCH_SIZE + 3 * BATCH_SIZE // 10
        monkeypatch.setattr(mc, "_GROUP_BYTES", len(CASES) // groups * held * 8)
        original, made, seen = mc.simulate_fixing_paths, [], []

        def simulate(*args):
            seen.append(sum(ref() is not None for ref in made))
            paths = original(*args)
            made.append(weakref.ref(paths))
            return paths

        monkeypatch.setattr(mc, "simulate_fixing_paths", simulate)
        mc_price(CASES[0], model, McConfig(n_paths=3 * BATCH_SIZE, seed=1), 1.05, cache=cache,
                 cases=CASES)
        assert seen == alive

    def test_cli_run_shares_one_batch_across_its_cases(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths")
        config = dataclasses.replace(PRESETS["table1"](), engines=("mc",),
                                     targets=(0.3, 0.5), mc=McConfig(n_paths=2000))
        records = run(config)
        assert len(records) == 6 and len(calls) == 1

    def test_cli_run_simulates_a_two_batch_local_vol_set_once(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths")
        config = dataclasses.replace(
            PRESETS["table1"](), engines=("mc",), targets=(0.3, 0.5), model=smile_model(),
            mc=McConfig(n_paths=BATCH_SIZE + 1000, substeps_per_interval=2))
        records = run(config)
        assert len(records) == 6 and len(calls) == 2

    @pytest.mark.parametrize("batch_size, batch, path", [
        (BATCH_SIZE, None, None),
        (200, 2, 37),
        (200, 1, 50),
    ], ids=["every_path", "a_path_after_the_pilot", "a_path_in_the_pilot"])
    def test_a_failing_case_does_not_fail_its_group(self, monkeypatch, batch_size, batch,
                                                    path):
        # four cases of one group; part_gain at 0.5 gets a NaN payoff on
        # every path of its one batch, or on one path of a batch of 200: of
        # batch 2, after the 300-path pilot, or of batch 1, inside it
        monkeypatch.setattr(mc, "BATCH_SIZE", batch_size)
        config = dataclasses.replace(
            PRESETS["table1"](), engines=("mc",), targets=(0.3, 0.5),
            knockouts=(KnockoutType.NO_GAIN, KnockoutType.PART_GAIN),
            mc=McConfig(n_paths=3000, seed=4))
        simulate, original = mc.simulate_fixing_paths, mc.batch_present_value
        batches, results = [], []

        def simulated(*args):
            paths = simulate(*args)
            batches.append(weakref.ref(paths))
            return paths

        def present_value(paths, cases, discounts):
            value = original(paths, cases, discounts)
            if batch in (None, len(batches) - 1):  # the batch just simulated
                for row, contract in zip(value, cases):
                    if (contract.knockout, contract.target) == (KnockoutType.PART_GAIN, 0.5):
                        row[slice(None) if batch is None else path] = np.nan
            return value

        def price(*args, **kwargs):
            result = mc_price(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(mc, "simulate_fixing_paths", simulated)
        monkeypatch.setattr(mc, "batch_present_value", present_value)
        monkeypatch.setattr(cli, "mc_price", price)
        enabled = gc.isenabled()
        gc.disable()
        try:
            records = run(config)
            assert len(batches) == -(-3000 // batch_size) and len(results) == 3
            assert all(ref() is None for ref in batches + results)
        finally:
            if enabled:
                gc.enable()
        monkeypatch.setattr(mc, "batch_present_value", original)
        failed = [(r.knockout, r.target) for r in records if not r.status.startswith("ok")]
        assert failed == [("part_gain", 0.5)]
        for rec in records:
            if (rec.knockout, rec.target) == ("part_gain", 0.5):
                assert rec.status.startswith("error: MC price is not finite")
                continue
            contract = benchmark_contract(KnockoutType(rec.knockout), rec.target)
            alone = mc_price(contract, config.model, config.mc, config.spot)
            assert bits([rec.price, rec.error_metric]) == bits([alone.price, alone.stderr])

    def test_cli_run_makes_one_control_mean_for_all_its_groups(self, monkeypatch):
        # with fd: the dict then holds the entries of both engines
        n_paths = BATCH_SIZE + 1000  # a pilot of 1738 paths and two batches
        monkeypatch.setattr(mc, "_GROUP_BYTES", 2 * (1738 + BATCH_SIZE) * 8)
        caches = []

        def price(*args, cache, cases):
            caches.append(cache)
            return mc_price(*args, cache=cache, cases=cases)

        monkeypatch.setattr(cli, "mc_price", price)
        calls = counting(monkeypatch, "simulate_fixing_paths", "batch_present_value",
                         "_control_values", "vanilla_price")
        config = dataclasses.replace(
            PRESETS["table1"](), targets=(0.3, 0.5), mc=McConfig(n_paths=n_paths),
            fd=FdConfig(spot_nodes=60, accumulation_nodes=12, time_steps=40))
        records = run(config)
        assert all(r.status == "ok" for r in records)
        # six cases in three groups of two, priced by the first MC call,
        # which makes the control mean once for all; then one payoff call
        # and one control call per batch and group
        batch = ["simulate_fixing_paths", "batch_present_value", "_control_values"]
        assert calls == ["vanilla_price"] * 20 + batch * 2 * 3
        assert len(caches) == 6 and all(c is caches[0] for c in caches)
        assert {key[0] for key in caches[0]} == {"fd.intervals", "fd.result", "mc.result"}

    def test_a_failing_case_keeps_nothing_alive_after_the_run(self, monkeypatch):
        # the dict holds only results and each call raises its own error, so
        # no reference cycle keeps the group's batch, or the run's dict and
        # the results in it, alive once the run returns
        config = dataclasses.replace(
            PRESETS["table1"](), engines=("mc",), targets=(0.3, 0.5),
            mc=McConfig(n_paths=3000, seed=4))
        simulate, present_value = mc.simulate_fixing_paths, mc.batch_present_value
        batches, results = [], []

        def simulated(*args):
            paths = simulate(*args)
            batches.append(weakref.ref(paths))
            return paths

        def nan_at_the_higher_target(paths, cases, discounts):
            value = present_value(paths, cases, discounts)
            value[[c.target == 0.5 for c in cases]] = np.nan
            return value

        def price(*args, **kwargs):
            result = mc_price(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(mc, "simulate_fixing_paths", simulated)
        monkeypatch.setattr(mc, "batch_present_value", nan_at_the_higher_target)
        monkeypatch.setattr(cli, "mc_price", price)
        enabled = gc.isenabled()
        gc.disable()
        try:
            records = run(config)
            assert [r.status.startswith("error: MC price is not finite")
                    for r in records] == [False, True] * 3
            assert len(batches) == 1 and len(results) == 3
            assert all(ref() is None for ref in batches + results)
        finally:
            if enabled:
                gc.enable()

    def test_each_case_reports_an_equal_share_of_the_calls_seconds(self, monkeypatch):
        # three groups of two (a 300-path pilot and a 3000-path batch a
        # case), priced by the first call
        monkeypatch.setattr(mc, "_GROUP_BYTES", 2 * 3300 * 8)
        cache = {}
        config, model = McConfig(n_paths=3000, seed=2), flat_model()
        times = [mc_price(c, model, config, 1.05, cache=cache, cases=CASES).wall_time
                 for c in CASES]
        assert len(set(times)) == 1 and times[0] > 0.0

    @pytest.mark.parametrize("model, n_batches", [(flat_model(), 1), (smile_model(), 2)],
                             ids=["one_batch", "two_local_vol_batches"])
    def test_the_dict_holds_only_results(self, monkeypatch, model, n_batches):
        # the last case's payoffs are NaN: its result is stored like the
        # others', and each call for it raises
        present_value = mc.batch_present_value

        def nan_for_the_last_case(paths, cases, discounts):
            value = present_value(paths, cases, discounts)
            value[[c is CASES[-1] for c in cases]] = np.nan
            return value

        monkeypatch.setattr(mc, "batch_present_value", nan_for_the_last_case)
        cache = {}
        config = McConfig(n_paths=(n_batches - 1) * BATCH_SIZE + 1000, seed=2)
        mc_price(CASES[0], model, config, 1.05, cache=cache, cases=CASES)
        results = {("mc.result", model, 1.05, config, c) for c in CASES}
        assert set(cache) == results
        assert all(type(cache[k]) is mc.McResult for k in results)
        assert math.isnan(cache[("mc.result", model, 1.05, config, CASES[-1])].price)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^MC price is not finite \(nan\)"):
                mc_price(CASES[-1], model, config, 1.05, cache=cache, cases=CASES)
        assert set(cache) == results

    @pytest.mark.parametrize("change, vanillas", [
        (dict(config=McConfig(n_paths=3000, seed=10)), 20),
        (dict(model=flat_model(r_d=0.01)), 20),  # equal terms, another model object
        (dict(model=flat_model(sigma=0.25, r_d=0.01)), 20),
        (dict(spot=1.02), 20),
        (dict(contract=other_terms(strike=1.04)), 20),
        (dict(contract=other_terms(beta=-1)), 20),
        (dict(contract=benchmark_contract(KnockoutType.NO_GAIN, 0.3),
              config=McConfig(n_paths=3001, seed=9)), 20),
        (dict(config=McConfig(n_paths=3000, seed=9, control_variate=False)), 0),
        (dict(config=McConfig(n_paths=3000, seed=9, cv_coefficient=0.8)), 20),
        (dict(config=McConfig(n_paths=3000, seed=9, substeps_per_interval=2)), 20),
    ], ids=["seed", "model_object", "model", "spot", "strike", "beta", "n_paths",
            "control_variate", "cv_coefficient", "substeps"])
    def test_a_changed_input_is_never_served_the_old_entry(self, monkeypatch, change,
                                                           vanillas):
        base = dict(contract=benchmark_contract(KnockoutType.NO_GAIN, 0.3),
                    model=flat_model(r_d=0.01), config=McConfig(n_paths=3000, seed=9),
                    spot=1.05)
        args = {**base, **change}
        # the base pricing stores a result for every case of the run
        cases = tuple(dict.fromkeys(CASES + (base["contract"], args["contract"])))
        cache = {}
        mc_price(**base, cache=cache, cases=cases)
        want = mc_price(**args)
        calls = counting(monkeypatch, "simulate_fixing_paths", "vanilla_price")
        got = mc_price(**args, cache=cache, cases=cases)
        assert bits([got.price, got.stderr]) == bits([want.price, want.stderr])
        assert got.cv_coefficient == want.cv_coefficient
        assert calls.count("simulate_fixing_paths") == 1
        assert calls.count("vanilla_price") == vanillas

    @pytest.mark.parametrize("change", [
        dict(seed=10),
        dict(substeps_per_interval=3),
    ], ids=["seed", "substeps"])
    def test_a_changed_euler_set_is_never_served_the_old_batches(self, monkeypatch, change):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        model = smile_model()
        base = McConfig(n_paths=BATCH_SIZE + 1000, seed=9, substeps_per_interval=2)
        cache = {}
        mc_price(contract, model, base, 1.05, cache=cache, cases=CASES)
        config = dataclasses.replace(base, **change)
        want = mc_price(contract, model, config, 1.05)
        calls = counting(monkeypatch, "simulate_fixing_paths")
        got = mc_price(contract, model, config, 1.05, cache=cache, cases=CASES)
        assert bits([got.price, got.stderr]) == bits([want.price, want.stderr])
        assert len(calls) == 2


class TestEulerBatchDispatch:
    """Local-vol batches are simulated and priced on the calling thread."""

    N_PATHS = 3 * BATCH_SIZE + 777  # four batches, the last one partial

    def price(self, knockout=KnockoutType.PART_GAIN, target=0.3, model=None, cache=None):
        contract = TarnContract(strike=1.0, target=target, beta=1,
                                fixing_times=benchmark_times(6), knockout=knockout)
        config = McConfig(n_paths=self.N_PATHS, seed=4, substeps_per_interval=2)
        return mc_price(contract, model or smile_model(), config, 1.0, cache=cache)

    def patch_simulation(self, monkeypatch, before_each):
        """Call ``before_each(n_paths, on_caller)`` before each batch simulation."""
        original = mc.simulate_fixing_paths
        caller = threading.get_ident()

        def simulate(model, spot, times, n_paths, *args):
            before_each(n_paths, threading.get_ident() == caller)
            return original(model, spot, times, n_paths, *args)

        monkeypatch.setattr(mc, "simulate_fixing_paths", simulate)

    def test_every_batch_is_simulated_on_the_caller_in_batch_order(self, monkeypatch):
        calls = []
        self.patch_simulation(monkeypatch, lambda n, on_caller: calls.append((on_caller, n)))
        self.price()
        assert calls == [(True, BATCH_SIZE)] * 3 + [(True, 777)]

    def test_the_helper_runs_under_the_callers_errstate(self, monkeypatch):
        seen = []
        self.patch_simulation(monkeypatch, lambda n, on_caller: seen.append(np.geterr()["divide"]))
        with np.errstate(divide="ignore"):  # a fresh thread would "warn"
            self.price()
        assert seen == ["ignore"] * 4

    def test_a_run_simulates_each_batch_once(self, monkeypatch):
        simulated = []
        self.patch_simulation(monkeypatch, lambda n, on_caller: simulated.append(on_caller))
        model, cache = smile_model(), {}
        cases = [(ko, u) for ko in KnockoutType for u in (0.3, 0.5)]
        contracts = tuple(TarnContract(strike=1.0, target=u, beta=1,
                                       fixing_times=benchmark_times(6), knockout=ko)
                          for ko, u in cases)
        config = McConfig(n_paths=self.N_PATHS, seed=4, substeps_per_interval=2)
        shared = []
        for contract in contracts:
            shared.append(mc_price(contract, model, config, 1.0, cache=cache,
                                   cases=contracts))
            # the first case simulates the four batches, all on the caller
            assert simulated == [True] * 4
        alone = [self.price(*case, model=model) for case in cases]
        assert ([bits([r.price, r.stderr]) for r in shared]
                == [bits([r.price, r.stderr]) for r in alone])

    @pytest.mark.parametrize("knockout", list(KnockoutType))
    def test_a_pricing_starts_no_thread(self, monkeypatch, knockout):
        def start(thread):
            raise AssertionError(f"a pricing started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", start)
        result = self.price(knockout)
        assert math.isfinite(result.price) and result.stderr > 0

    def test_no_thread_outlives_a_pricing(self):
        before = threading.active_count()
        self.price()
        assert threading.active_count() == before

    @pytest.mark.parametrize("fails", [
        lambda n, on_caller: n == 777,  # the last batch
        lambda n, on_caller: on_caller,  # the first batch
    ], ids=["last_batch", "caller"])
    def test_a_batchs_exception_reaches_the_caller(self, monkeypatch, fails):
        boom = RuntimeError("batch failed")

        def fail(n_paths, on_caller):
            if fails(n_paths, on_caller):
                raise boom

        self.patch_simulation(monkeypatch, fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            self.price()
        assert raised.value is boom
        assert threading.active_count() == before
