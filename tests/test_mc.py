import dataclasses
import math
import threading
import weakref

import numpy as np
import pytest

from tarnpricer import (
    KnockoutType,
    LocalVolSurface,
    MarketModel,
    McConfig,
    RateCurve,
    TarnContract,
    TermStructureVol,
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
    p0, p1 = path_oracle.walk_present_value(pilot, contract, discounts)
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


CASES = [benchmark_contract(ko, u) for ko in KnockoutType for u in (0.3, 0.5)]


def run_cases(config, cache, contracts=CASES, model=None):
    """The (price, stderr bits, cv_coefficient) of each case, priced in order."""
    model = model or flat_model(r_d=0.01)
    out = []
    for contract in contracts:
        res = mc_price(contract, model, config, 1.05, cache=cache)
        out.append(bits([res.price, res.stderr]) + [res.cv_coefficient])
    return out


class TestSharedSimulation:
    """A run's cases share one batch and one control column, bit for bit."""

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
        assert run_cases(config, {}, model=model) == alone

    def test_one_batch_run_simulates_once(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths", "_control_values")
        run_cases(McConfig(n_paths=BATCH_SIZE, seed=5), {})
        assert calls == ["simulate_fixing_paths", "_control_values"]

    def test_three_batch_run_simulates_each_batch_once(self, monkeypatch):
        calls = counting(monkeypatch, "simulate_fixing_paths", "_control_values",
                         "vanilla_price")
        run_cases(McConfig(n_paths=2 * BATCH_SIZE + 1, seed=5), {})  # 5.2 MB of paths
        assert calls.count("simulate_fixing_paths") == 3
        # the control column and its mean are made for the first case only
        assert calls.count("_control_values") == 3
        assert calls.count("vanilla_price") == 20

    @pytest.mark.parametrize("extra_paths, simulations", [(0, 4), (1, 4 * 2)],
                             ids=["at_the_budget", "one_path_over"])
    def test_a_set_over_the_byte_budget_is_simulated_for_every_case(
            self, monkeypatch, extra_paths, simulations):
        fit = mc._HELD_PATH_BYTES // (8 * len(benchmark_times()))  # 52428 paths
        config = McConfig(n_paths=fit + extra_paths, seed=5, control_variate=False)
        calls = counting(monkeypatch, "simulate_fixing_paths")
        run_cases(config, {}, CASES[:2])
        assert len(calls) == simulations  # four batches per simulated set

    @pytest.mark.parametrize("model, cache, alive", [
        (flat_model(), None, [0, 1, 1]),
        (flat_model(), {}, [0, 1, 2]),
        (smile_model(), None, [0, 1, 1]),
        (smile_model(), {}, [0, 1, 2]),
    ], ids=["no_dict", "dict", "euler_no_dict", "euler_dict"])
    def test_only_a_pricing_given_a_dict_holds_its_batches(self, monkeypatch, model, cache,
                                                           alive):
        # batches still alive as each batch is simulated: the previous one,
        # or every earlier one when they are held for later pricings
        original, made, seen = mc.simulate_fixing_paths, [], []

        def simulate(*args):
            seen.append(sum(ref() is not None for ref in made))
            paths = original(*args)
            made.append(weakref.ref(paths))
            return paths

        monkeypatch.setattr(mc, "simulate_fixing_paths", simulate)
        mc_price(CASES[0], model, McConfig(n_paths=3 * BATCH_SIZE, seed=1), 1.05, cache=cache)
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

    @pytest.mark.parametrize("model, n_batches", [(flat_model(), 1), (smile_model(), 2)],
                             ids=["one_batch", "two_local_vol_batches"])
    def test_held_arrays_are_read_only(self, model, n_batches):
        cache = {}
        n_paths = (n_batches - 1) * BATCH_SIZE + 1000
        config = McConfig(n_paths=n_paths, seed=2)
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        mc_price(contract, model, config, 1.05, cache=cache)
        key = (model, 1.05, contract.fixing_times, 2, n_paths, 1)
        paths_keys = {("mc.paths", b) + key for b in range(n_batches)}
        controls_key = ("mc.controls",) + key + (1.0, 1)
        with_controls = model.has_exact_transition
        assert set(cache) == paths_keys | ({controls_key} if with_controls else set())
        held = [cache[k] for k in paths_keys]
        held += [cache[controls_key][0]] if with_controls else []
        for array in held:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("change", [
        dict(config=McConfig(n_paths=3000, seed=10)),
        dict(model=flat_model(r_d=0.01)),  # equal terms, another model object
        dict(model=flat_model(sigma=0.25, r_d=0.01)),
        dict(spot=1.02),
        dict(contract=TarnContract(strike=1.04, target=0.3, beta=1,
                                   fixing_times=benchmark_times(),
                                   knockout=KnockoutType.NO_GAIN)),
        dict(contract=TarnContract(strike=1.0, target=0.3, beta=-1,
                                   fixing_times=benchmark_times(),
                                   knockout=KnockoutType.NO_GAIN)),
        dict(contract=benchmark_contract(KnockoutType.NO_GAIN, 0.3),
             config=McConfig(n_paths=3001, seed=9)),
    ], ids=["seed", "model_object", "model", "spot", "strike", "beta", "n_paths"])
    def test_a_changed_input_is_never_served_the_old_entry(self, monkeypatch, change):
        base = dict(contract=benchmark_contract(KnockoutType.NO_GAIN, 0.3),
                    model=flat_model(r_d=0.01), config=McConfig(n_paths=3000, seed=9),
                    spot=1.05)
        cache = {}
        mc_price(**base, cache=cache)
        args = {**base, **change}
        want = mc_price(**args)
        calls = counting(monkeypatch, "simulate_fixing_paths", "vanilla_price")
        got = mc_price(**args, cache=cache)
        assert bits([got.price, got.stderr]) == bits([want.price, want.stderr])
        assert got.cv_coefficient == want.cv_coefficient
        same_paths = "contract" in change and "config" not in change
        assert calls.count("simulate_fixing_paths") == (0 if same_paths else 1)
        assert calls.count("vanilla_price") == 20

    @pytest.mark.parametrize("change", [
        dict(seed=10),
        dict(substeps_per_interval=3),
    ], ids=["seed", "substeps"])
    def test_a_changed_euler_set_is_never_served_the_old_batches(self, monkeypatch, change):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        model = smile_model()
        base = McConfig(n_paths=BATCH_SIZE + 1000, seed=9, substeps_per_interval=2)
        cache = {}
        mc_price(contract, model, base, 1.05, cache=cache)
        config = dataclasses.replace(base, **change)
        want = mc_price(contract, model, config, 1.05)
        calls = counting(monkeypatch, "simulate_fixing_paths")
        got = mc_price(contract, model, config, 1.05, cache=cache)
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

    def test_a_run_simulates_its_held_set_once(self, monkeypatch):
        simulated = []
        self.patch_simulation(monkeypatch, lambda n, on_caller: simulated.append(on_caller))
        model, cache = smile_model(), {}
        cases = [(ko, u) for ko in KnockoutType for u in (0.3, 0.5)]
        shared = []
        for case in cases:
            shared.append(self.price(*case, model=model, cache=cache))
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
