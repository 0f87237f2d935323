import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from tarnpricer import (
    BoundaryKind,
    ConstantVol,
    FdConfig,
    KnockoutType,
    LocalVolSurface,
    MarketModel,
    PinPolicy,
    PriceResult,
    RateCurve,
    TarnContract,
    TermStructureVol,
    convergence_order,
    estimate_error,
    fd_price,
    mc_price,
    McConfig,
    vanilla_price,
)
from tarnpricer.fd import (
    JumpPlan,
    _allocate_steps,
    apply_jump,
    build_grid,
    coefficients_at,
    theta_step,
)

from tarnpricer import cli, fd
from tarnpricer.contract import fixing_flows

import jump_oracle
import step_oracle
from cashflow_oracle import fixing_outcome
from conftest import benchmark_contract, benchmark_times, flat_model, smile_model
from step_oracle import Coefficients


class TestStepAllocation:
    def test_equal_intervals_divide_evenly(self):
        times = benchmark_times()
        durations = [b - a for a, b in zip((0.0,) + times, times)]
        assert _allocate_steps(500, durations) == (25,) * 20

    def test_minimum_one_per_interval(self):
        counts = _allocate_steps(5, [0.001, 0.001, 10.0])
        assert sum(counts) == 5
        assert min(counts) >= 1

    def test_proportional_split(self):
        counts = _allocate_steps(30, [1.0, 2.0])
        assert counts == (10, 20)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError, match="^time_steps"):
            _allocate_steps(2, [1.0, 1.0, 1.0])

    def test_too_few_steps_named_in_every_fd_record(self):
        config = replace(cli.PRESETS["table1"](), targets=(0.3,),
                         fixing_times=(0.1, 0.2, 0.3), engines=("fd",),
                         fd=FdConfig(spot_nodes=20, accumulation_nodes=4, time_steps=2))
        assert {r.status for r in cli.run(config)} == {
            "error: time_steps must be at least the 3 fixing intervals, got 2"}


def strike_node(grid, strike):
    """The one spot node placed exactly on ``strike``."""
    (node,) = np.flatnonzero(grid.spots == strike)
    return node


class TestBuildGrid:
    def test_strike_is_a_node(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        grid = build_grid(contract, flat_model(), FdConfig(domain_width_sigmas=5.0), 1.05)
        assert abs(grid.log_spots[strike_node(grid, 1.0)]) < 1e-12
        dx = np.diff(grid.log_spots)
        assert np.allclose(dx, dx[0], rtol=1e-12)

    def test_spot_is_a_node_under_default_policy(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        grid = build_grid(contract, flat_model(), FdConfig(), 1.05)
        assert grid.spot_index is not None
        assert abs(grid.log_spots[grid.spot_index] - math.log(1.05)) < 1e-12

    def test_domain_covers_requested_width(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg = FdConfig(domain_width_sigmas=5.0)
        grid = build_grid(contract, flat_model(), cfg, 1.05)
        half = 5.0 * 0.2 * math.sqrt(contract.maturity)
        assert grid.log_spots[0] <= math.log(1.05) - half + 1e-12
        assert grid.log_spots[-1] >= math.log(1.05) + half - 1e-12

    def test_coincident_spot_and_strike(self):
        contract = TarnContract(strike=1.0, target=0.3, beta=1,
                                fixing_times=benchmark_times(),
                                knockout=KnockoutType.NO_GAIN)
        grid = build_grid(contract, flat_model(), FdConfig(), 1.0)
        assert grid.spot_index == strike_node(grid, 1.0)

    def test_near_coincident_falls_back_to_interpolation(self):
        contract = TarnContract(strike=1.0, target=0.3, beta=1,
                                fixing_times=benchmark_times(),
                                knockout=KnockoutType.NO_GAIN)
        grid = build_grid(contract, flat_model(), FdConfig(spot_nodes=101), 1.0 + 1e-9)
        assert grid.spot_index is None
        assert abs(grid.log_spots[strike_node(grid, 1.0)]) < 1e-12

    def test_strike_only_policy(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg = FdConfig(pin_policy=PinPolicy.STRIKE_ONLY_THEN_INTERPOLATE)
        grid = build_grid(contract, flat_model(), cfg, 1.05)
        assert grid.spot_index is None

    @pytest.mark.parametrize("spot", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_spot_rejected_by_name(self, spot):
        # fd_price checks the spot at its entry; build_grid trusts it
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        with pytest.raises(ValueError, match="spot"):
            fd_price(contract, flat_model(), FdConfig(), spot)

    @pytest.mark.parametrize("width, rule", [(math.inf, "a finite real number"),
                                             (math.nan, "a finite real number"),
                                             (0.0, "positive and finite")],
                             ids=["inf", "nan", "0.0"])
    def test_bad_domain_width_rejected_by_name(self, width, rule):
        with pytest.raises(ValueError, match=f"^domain_width_sigmas must be {rule}"):
            FdConfig(domain_width_sigmas=width)

    def test_width_insensitivity_of_price(self):
        # widening the domain from 5 to 7 deviations moves the price by less
        # than the two runs' combined refinement error estimates; both values
        # approximate the same limit with their own discretization error bars
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg5 = FdConfig(domain_width_sigmas=5.0)
        cfg7 = FdConfig(domain_width_sigmas=7.0)
        est5 = estimate_error(contract, flat_model(), cfg5, 1.05)
        est7 = estimate_error(contract, flat_model(), cfg7, 1.05)
        band = (est5.relative_error * abs(est5.coarse.price)
                + est7.relative_error * abs(est7.coarse.price))
        assert abs(est7.coarse.price - est5.coarse.price) <= band


def interior_bands(coef, dx, m):
    """The engine's operator bands of ``coef``: the oracle's on nodes 1..M-2."""
    return tuple(band[1:-1] for band in step_oracle.operator_bands(coef, dx, m))


def step_buffers(rows):
    """``theta_step``'s ``out`` and ``carry`` keywords for one step of
    ``rows`` alone, as :func:`fd._march` makes them for its first step."""
    j, m = rows.shape
    return {"out": np.empty((j, m)), "carry": fd._Carry(np.empty((j, m - 2)))}


def zero_gamma_step(rows, dt, dx, theta, coef):
    """One ``theta_step`` with the zero-gamma closure, on nodes ``dx`` apart."""
    bands = interior_bands(coef, dx, rows.shape[1])
    closure = fd._closure(BoundaryKind.ZERO_GAMMA, 1, None, dx)
    return theta_step(rows, dt, theta, bands, bands, closure, **step_buffers(rows))


def model_coefficients(model, spots, t):
    """The PDE coefficients of ``model`` at ``t``, per node under local volatility."""
    sig = (model.vol.sigma_at(t) if model.has_exact_transition
           else model.vol.interpolate(spots, t))
    variance = sig * sig
    rate = model.domestic.rate_at(t)
    return Coefficients(variance, rate - model.foreign.rate_at(t) - 0.5 * variance,
                        rate)


# vol and domestic rate both step at t = 0.2
KNOTTED = MarketModel(domestic=RateCurve((0.0, 0.2), (0.01, 0.03)),
                      foreign=RateCurve((0.0, 0.29), (0.005, 0.015)),
                      vol=TermStructureVol((0.0, 0.2, 0.37), (0.25, 0.18, 0.3)))


@pytest.mark.parametrize("model, t", [
    (flat_model(), 0.3), (KNOTTED, 0.2), (KNOTTED, 0.3), (smile_model(), 0.3),
], ids=["flat", "term_structure_on_knot", "term_structure_between_knots",
        "local_vol"])
def test_coefficients_at_gives_the_oracle_interior_bands(model, t):
    # a level is its operator bands, bit for bit those of the oracle on
    # nodes 1..M-2: scalars, or (M - 2,) arrays under local volatility
    spots = np.exp(np.linspace(-0.6, 0.6, 50))
    dx = math.log(spots[1] / spots[0])
    got = coefficients_at(model, spots, t, dx)
    want = interior_bands(model_coefficients(model, spots, t), dx, spots.size)
    assert len(got) == 3
    for band, oracle in zip(got, want):
        assert np.shape(band) == (() if model.has_exact_transition else (48,))
        assert np.array_equal(np.broadcast_to(band, oracle.shape), oracle)


class TestThetaStep:
    def test_zero_operator_is_identity(self):
        rows = np.tile(np.linspace(1.0, 2.0, 21), (3, 1))
        rows[1] = 1.5
        coef = Coefficients(variance=0.0, drift=0.0, rate=0.0)
        out = zero_gamma_step(rows, 0.1, 0.05, 0.5, coef)
        # constant rows stay exactly; the linear row satisfies the zero-gamma
        # closure too, so the whole stack is unchanged
        assert np.allclose(out, rows, atol=1e-13)

    def test_pure_discounting_matches_scheme_algebra(self):
        r, dt = 0.07, 0.02
        coef = Coefficients(variance=0.0, drift=r, rate=r)
        rows = np.full((1, 31), 3.0)
        for theta in (0.0, 0.5, 1.0):
            out = zero_gamma_step(rows, dt, 0.01, theta, coef)
            factor = (1.0 - (1.0 - theta) * r * dt) / (1.0 + theta * r * dt)
            # interior nodes follow the rational decay exactly; note the
            # drift term vanishes on a constant row
            assert np.allclose(out[:, 1:-1], 3.0 * factor, rtol=1e-13)

    def test_zero_gamma_relation_holds_after_solve(self):
        rng = np.random.default_rng(3)
        rows = np.abs(rng.standard_normal((1, 41))).cumsum(axis=1)
        coef = Coefficients(variance=0.04, drift=-0.02, rate=0.01)
        out = zero_gamma_step(rows, 0.01, 0.02, 0.5, coef)[0]
        scale = np.max(np.abs(out))
        assert abs(out[0] - 2 * out[1] + out[2]) < 1e-11 * scale
        assert abs(out[-1] - 2 * out[-2] + out[-3]) < 1e-11 * scale

    def test_directional_boundary_rows(self):
        spots = np.exp(np.linspace(-0.5, 0.5, 41))
        dx = np.log(spots[1] / spots[0])
        rng = np.random.default_rng(4)
        rows = np.abs(rng.standard_normal((1, 41))).cumsum(axis=1)
        bands = interior_bands(Coefficients(variance=0.04, drift=-0.02, rate=0.0),
                               dx, 41)
        out = theta_step(rows, 0.01, 0.5, bands, bands, fd._closure(
            BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION, 1, spots, dx),
            **step_buffers(rows))[0]
        assert out[0] == pytest.approx(0.0, abs=1e-14)
        assert out[-1] - out[-2] == pytest.approx(dx * spots[-1], rel=1e-12)
        out = theta_step(rows, 0.01, 0.5, bands, bands, fd._closure(
            BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION, -1, spots, dx),
            **step_buffers(rows))[0]
        assert out[-1] == pytest.approx(0.0, abs=1e-14)
        assert out[1] - out[0] == pytest.approx(-dx * spots[0], rel=1e-12)

    @pytest.mark.parametrize("m", [4, 5, 200])
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("local_vol", [False, True])
    def test_matches_pentadiagonal_oracle(self, m, boundary, local_vol):
        # the end rows folded into rows 1 and M-2 and one tridiagonal solve
        # give the solution of the system that keeps them as rows 0 and M-1
        rng = np.random.default_rng(m)
        spots = np.exp(np.linspace(-0.6, 0.6, m))
        dx = math.log(spots[1] / spots[0])

        def coef(level, rate):
            if local_vol:  # per-node variance and drift, as a smile gives
                variance = level * (1.0 + rng.random(m))
            else:
                variance = level
            return Coefficients(variance=variance, drift=rate - 0.5 * variance,
                                rate=rate)

        coef_from, coef_to = coef(0.04, 0.03), coef(0.06, 0.02)
        bands_from = interior_bands(coef_from, dx, m)
        bands_to = interior_bands(coef_to, dx, m)
        stacks = [rng.standard_normal((1, m)).cumsum(axis=1),
                  rng.standard_normal((6, m)).cumsum(axis=1)]
        for rows, theta, beta in itertools.product(stacks, (0.0, 0.5, 1.0),
                                                   (1, -1)):
            got = theta_step(rows, 0.02, theta, bands_from, bands_to,
                             fd._closure(boundary, beta, spots, dx), **step_buffers(rows))
            want = step_oracle.theta_step(rows, 0.02, dx, theta, coef_from,
                                          coef_to, boundary, spots=spots, beta=beta)
            assert got.shape == want.shape
            scale = np.max(np.abs(want), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_zero_gamma_needs_four_nodes(self):
        # on 3 nodes both zero-gamma end rows are one equation, so every
        # step system would be singular: rejected where the grid is chosen
        with pytest.raises(ValueError, match="^spot_nodes must be at least 4"):
            FdConfig(spot_nodes=3)
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        for nodes, boundary in ((4, BoundaryKind.ZERO_GAMMA),
                                (3, BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION)):
            cfg = FdConfig(spot_nodes=nodes, accumulation_nodes=4,
                           time_steps=40, boundary=boundary)
            assert math.isfinite(fd_price(contract, flat_model(), cfg, 1.05).price)

    def test_european_call_converges_to_closed_form(self):
        # one flow, huge target: the engine must reproduce the lognormal
        # closed form with roughly second order under grid doubling
        model = flat_model()
        contract = TarnContract(strike=1.0, target=1e6, beta=1,
                                fixing_times=(1.0,),
                                knockout=KnockoutType.FULL_GAIN)
        want = vanilla_price(1.05, 1.0, 1, 1.0, model.domestic, model.foreign,
                             model.vol)
        errs = []
        for factor in (1, 2, 4):
            cfg = FdConfig(spot_nodes=60 * factor, accumulation_nodes=8,
                           time_steps=24 * factor)
            got = fd_price(contract, model, cfg, 1.05).price
            errs.append(abs(got - want))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert 1.6 < order1 < 2.6
        assert 1.6 < order2 < 2.6


def record_lapack(monkeypatch):
    """Wrap the LAPACK routines fd binds at import so that each call appends
    its name, ``gtsv`` or ``ptsv``, to the returned list."""
    ran = []
    for name in ("gtsv", "ptsv"):
        routine = getattr(fd, "_" + name)

        def recording(*args, routine=routine, name=name):
            ran.append(name)
            return routine(*args)

        monkeypatch.setattr(fd, "_" + name, recording)
    return ran


def per_node(rng, m, dx, level, rate, foreign, peclet=0.0):
    """Per-node PDE coefficients as a smile gives them: variance within a
    factor 2 of ``level``, and drift r_d - r_f - v/2 plus, with ``peclet``,
    a random advection of cell Peclet number up to ``peclet`` at each node."""
    variance = level * (1.0 + rng.random(m))
    drift = (rate - foreign - 0.5 * variance
             + rng.uniform(-peclet, peclet, m) * variance / dx)
    return Coefficients(variance=variance, drift=drift, rate=rate)


def assert_step_matches_oracle(rows, dt, dx, theta, coef_from, coef_to,
                               boundary=BoundaryKind.ZERO_GAMMA, beta=1):
    """``theta_step`` on nodes ``dx`` apart from spot 1 agrees with the
    pentadiagonal oracle within 1e-12 of each row's largest value.  The
    bands are scalars where the coefficients are, as for exact transitions."""
    m = rows.shape[1]
    spots = np.exp(dx * np.arange(m))
    bands_from, bands_to = (
        tuple(band if np.ndim(coef.variance) else band[0]
              for band in interior_bands(coef, dx, m))
        for coef in (coef_from, coef_to))
    got = theta_step(rows, dt, theta, bands_from, bands_to,
                     fd._closure(boundary, beta, spots, dx), **step_buffers(rows))
    want = step_oracle.theta_step(rows, dt, dx, theta, coef_from, coef_to,
                                  boundary, spots=spots, beta=beta)
    assert np.all(np.isfinite(got))
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    return got


class TestSymmetricStep:
    # a step with per-node implicit bands on 7 nodes or more is solved by
    # LAPACK ptsv on its symmetrized rows 2..M-3, under either closure,
    # whatever its row count; every other step keeps gtsv

    @staticmethod
    def local_vol_step(monkeypatch, m=60, coef_to=None, theta=0.5,
                       rows=24, **step):
        """The LAPACK routines a step on smile-like per-node coefficients
        ran, checked against the oracle."""
        rng = np.random.default_rng(11)
        dx = 1.2 / (m - 1)
        coef_from = per_node(rng, m, dx, 0.04, 0.03, 0.01)
        if coef_to is None:
            coef_to = per_node(rng, m, dx, 0.05, 0.02, 0.01)
        values = rng.standard_normal((rows, m)).cumsum(axis=1)
        ran = record_lapack(monkeypatch)
        assert_step_matches_oracle(values, 0.005, dx, theta, coef_from, coef_to, **step)
        return ran

    @pytest.mark.parametrize("m", [7, 60, 1000])
    def test_local_vol_takes_ptsv(self, monkeypatch, m):
        assert self.local_vol_step(monkeypatch, m) == ["ptsv"]

    def test_scalar_bands_keep_gtsv(self, monkeypatch):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((3, 60)).cumsum(axis=1)
        ran = record_lapack(monkeypatch)
        assert_step_matches_oracle(rows, 0.005, 0.02, 0.5,
                                   Coefficients(0.04, 0.01, 0.03),
                                   Coefficients(0.05, 0.005, 0.02))
        assert ran == ["gtsv"]

    @pytest.mark.parametrize("beta", [1, -1])
    def test_dirichlet_neumann_takes_ptsv(self, monkeypatch, beta):
        ran = self.local_vol_step(
            monkeypatch, boundary=BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION, beta=beta)
        assert ran == ["ptsv"]

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_small_grids_keep_gtsv(self, monkeypatch, m):
        assert self.local_vol_step(monkeypatch, m) == ["gtsv"]

    @pytest.mark.parametrize("m", [60, 1000])
    def test_few_rows_take_ptsv(self, monkeypatch, m):
        # a local-vol lattice marches one row per target (2 in the benchmark)
        # from its first fixing to the valuation date: no row count keeps gtsv
        assert self.local_vol_step(monkeypatch, m, rows=1) == ["ptsv"]
        assert self.local_vol_step(monkeypatch, m, rows=23) == ["ptsv"]

    def test_a_node_at_cell_peclet_one_keeps_gtsv(self, monkeypatch):
        # lower band (v - drift dx) / (2 dx^2) < 0 at one node: that
        # node's product with its neighbour's upper band is negative
        m, dx = 60, 1.2 / 59
        coef = per_node(np.random.default_rng(13), m, dx, 0.05, 0.02, 0.01)
        drift = coef.drift.copy()
        drift[m // 2] = 1.5 * coef.variance[m // 2] / dx
        ran = self.local_vol_step(monkeypatch, m, coef._replace(drift=drift))
        assert ran == ["gtsv"]

    def test_a_step_not_positive_definite_is_redone_by_gtsv(self, monkeypatch):
        # r_d = r_f = -1000 with near-zero drift: every product is positive,
        # but the diagonal 1 + theta dt (v / dx^2 + r_d) of rows 2..M-3 is
        # negative.  A large variance at nodes 1 and M-2, advected towards
        # the ends, keeps the pivots of the folded rows positive.
        m, dx = 60, 1.2 / 59
        variance = 0.05 * (1.0 + np.random.default_rng(14).random(m))
        drift = -0.5 * variance
        variance[[1, -2]] = 1.0
        drift[[1, -2]] = 0.9 / dx, -0.9 / dx
        coef = Coefficients(variance, drift, -1000.0)
        ran = self.local_vol_step(monkeypatch, m, coef, theta=1.0)
        assert ran == ["ptsv", "gtsv"]

    def test_scales_that_could_underflow_keep_gtsv(self, monkeypatch):
        # cell Peclet 0.99 at every node: s grows 14-fold from node to node,
        # beyond 1e100 over the grid
        m, dx = 200, 1.2 / 199
        variance = np.full(m, 0.05)
        coef = Coefficients(variance, 0.99 * variance / dx, 0.0)
        ran = self.local_vol_step(monkeypatch, m, coef)
        assert ran == ["gtsv"]

    def test_a_fold_pivot_that_is_not_positive_keeps_gtsv(self, monkeypatch):
        # row 1 with u0 = 2 u1 - u2 has pivot 1 + theta dt (r_d + drift / dx),
        # here 1 + 0.5 (-1 - 1) = 0 exactly; gtsv pivots past it
        m = 20
        coef = Coefficients(np.full(m, 2.0), np.full(m, -1.0), -1.0)
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((24, m)).cumsum(axis=1)
        ran = record_lapack(monkeypatch)
        assert_step_matches_oracle(rows, 1.0, 1.0, 0.5, coef, coef)
        assert ran == ["gtsv"]

    def test_a_local_vol_pricing_takes_ptsv_on_every_step(self, monkeypatch):
        # a step that falls back to gtsv prices the same to rounding, so
        # only the routines show it: J rows between fixings and the one row
        # before the first fixing all take ptsv
        ran = record_lapack(monkeypatch)
        steps = []
        original = fd.theta_step

        def step(rows, *args, **kwargs):
            start = len(ran)
            out = original(rows, *args, **kwargs)
            steps.append((rows.shape[0], tuple(ran[start:])))
            return out

        monkeypatch.setattr(fd, "theta_step", step)
        config = FdConfig(spot_nodes=60, accumulation_nodes=24, time_steps=40)
        fd_price(benchmark_contract(KnockoutType.PART_GAIN, 0.3), smile_model(), config, 1.0)
        assert len(steps) == config.time_steps
        assert set(steps) == {(config.accumulation_nodes, ("ptsv",)), (1, ("ptsv",))}

    @given(
        m=st.integers(6, 400),
        rows=st.integers(1, 48),
        theta=st.sampled_from([0.0, 0.5, 1.0]),
        peclet=st.floats(0.0, 0.99),
        levels=st.tuples(st.floats(0.005, 0.1), st.floats(0.005, 0.1)),
        rates=st.tuples(st.floats(-0.02, 0.08), st.floats(-0.02, 0.08)),
        boundary=st.sampled_from(list(BoundaryKind)),
        beta=st.sampled_from([1, -1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_oracle_at_any_peclet_below_one(self, m, rows, theta, peclet,
                                                        levels, rates, boundary, beta,
                                                        seed):
        # every product up[i] lo[i+1] is positive; the mesh ratio theta dt
        # v / dx^2 is at most 2, on nodes 0.01 apart
        rng = np.random.default_rng(seed)
        dx = 0.01
        coef_from, coef_to = (per_node(rng, m, dx, level, rate, 0.01, peclet)
                              for level, rate in zip(levels, rates))
        values = rng.standard_normal((rows, m)).cumsum(axis=1)
        out = assert_step_matches_oracle(values, 0.001, dx, theta, coef_from, coef_to,
                                         boundary, beta)
        # the closure holds at both ends of the new level
        scale = np.max(np.abs(out), axis=-1)
        spots = np.exp(dx * np.arange(m))
        if boundary is BoundaryKind.ZERO_GAMMA:
            gaps = (out[:, 0] - 2 * out[:, 1] + out[:, 2],
                    out[:, -1] - 2 * out[:, -2] + out[:, -3])
        elif beta == 1:
            gaps = (out[:, 0], out[:, -1] - out[:, -2] - dx * spots[-1])
        else:
            gaps = (out[:, 0] - out[:, 1] - dx * spots[0], out[:, -1])
        for gap in gaps:
            assert np.all(np.abs(gap) < 1e-11 * scale)


class TestCarriedExplicitSide:
    # a march carries each per-node step's explicit side over to the next
    # step, which makes its own from it and the solved level, whichever
    # routine solved it: the march must be theta_step called step by step,
    # stencil each time

    @staticmethod
    def march_and_reference(monkeypatch, coefs, values, thetas,
                            boundary=BoundaryKind.ZERO_GAMMA, beta=1, dt=0.002):
        """The march of ``values`` (rows, 60), one step per theta of
        ``thetas`` through the levels of ``coefs``, checked against the
        reference; the explicit-side stencils it ran and the LAPACK
        routines."""
        m, dx = 60, 1.2 / 59
        spots = np.exp(dx * np.arange(m))
        levels = [interior_bands(coef, dx, m) for coef in coefs]
        steps = [(dt, th, levels[s], levels[s + 1]) for s, th in enumerate(thetas)]
        closure = fd._closure(boundary, beta, spots, dx)

        want = values
        for step in steps:
            want = theta_step(want, *step, closure, **step_buffers(want))

        stencils = []
        original = fd._explicit_side
        monkeypatch.setattr(fd, "_explicit_side",
                            lambda *args: stencils.append(None) or original(*args))
        ran = record_lapack(monkeypatch)
        got = fd._march(values.copy(), [(None, steps)], closure)
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        return len(stencils), ran

    @staticmethod
    def smile_march(count, rows):
        """``count`` smile-like levels on 60 nodes and ``rows`` rows to march."""
        m, dx = 60, 1.2 / 59
        rng = np.random.default_rng(21)
        coefs = [per_node(rng, m, dx, 0.05, 0.02, 0.01, peclet=0.5) for _ in range(count)]
        return coefs, rng.standard_normal((rows, m)).cumsum(axis=1)

    @pytest.mark.parametrize("beta", [1, -1])
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_march_matches_the_step_by_step_reference(self, monkeypatch, boundary, beta):
        coefs, values = self.smile_march(10, 24)
        # a node at cell Peclet 1.5 at level 4: the step onto it takes gtsv
        m, dx = 60, 1.2 / 59
        drift = coefs[4].drift.copy()
        drift[m // 2] = 1.5 * coefs[4].variance[m // 2] / dx
        coefs[4] = coefs[4]._replace(drift=drift)
        thetas = [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.5, 0.5]
        stencils, ran = self.march_and_reference(monkeypatch, coefs, values, thetas,
                                                 boundary, beta)
        # the stencil runs on the first step and on the step after theta = 0;
        # the other seven steps carry, onto and off level 4 (gtsv) too, and
        # the theta = 0 step solves nothing
        assert stencils == 2
        assert ran == ["ptsv"] * 3 + ["gtsv"] + ["ptsv"] * 4

    def test_a_march_that_declines_ptsv_carries_through_gtsv(self, monkeypatch):
        # a node at cell Peclet 1.5 on every level: every step declines ptsv
        thetas = [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]
        coefs, values = self.smile_march(7, 23)
        m, dx = 60, 1.2 / 59
        for level, coef in enumerate(coefs):
            drift = coef.drift.copy()
            drift[m // 2] = 1.5 * coef.variance[m // 2] / dx
            coefs[level] = coef._replace(drift=drift)
        stencils, ran = self.march_and_reference(monkeypatch, coefs, values, thetas)
        assert stencils == 1
        assert ran == ["gtsv"] * 6

    def test_a_carried_ptsv_not_positive_definite_is_redone_by_gtsv(self, monkeypatch):
        # level 2 has the coefficients of TestSymmetricStep's step that is
        # not positive definite: ptsv declines the carried step onto it
        # after weighting its right-hand side, and gtsv solves the kept e
        coefs, values = self.smile_march(5, 24)
        m, dx = 60, 1.2 / 59
        variance = 0.05 * (1.0 + np.random.default_rng(14).random(m))
        drift = -0.5 * variance
        variance[[1, -2]] = 1.0
        drift[[1, -2]] = 0.9 / dx, -0.9 / dx
        coefs[2] = Coefficients(variance, drift, -1000.0)
        stencils, ran = self.march_and_reference(monkeypatch, coefs, values, [0.5] * 4,
                                                 dt=0.005)
        assert stencils == 1
        assert ran == ["ptsv", "ptsv", "gtsv", "ptsv", "ptsv"]

    @given(
        m=st.integers(6, 400),
        rows=st.integers(1, 48),
        thetas=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=8),
        peclet=st.floats(0.0, 0.99),
        steep=st.one_of(st.none(), st.integers(0, 8)),
        boundary=st.sampled_from(list(BoundaryKind)),
        beta=st.sampled_from([1, -1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_march_matches_the_oracle_step_by_step(self, m, rows, thetas, peclet, steep,
                                                     boundary, beta, seed):
        # TestSymmetricStep's property test's mesh, marched: ptsv and gtsv
        # steps, carried and not; ``steep`` puts a node at cell Peclet 1.5
        # on that level, whose step onto it then takes gtsv
        rng = np.random.default_rng(seed)
        dx, dt = 0.01, 0.001
        coefs = [per_node(rng, m, dx, rng.uniform(0.005, 0.1), rng.uniform(-0.02, 0.08),
                          0.01, peclet) for _ in range(len(thetas) + 1)]
        if steep is not None and steep <= len(thetas):
            drift = coefs[steep].drift.copy()
            drift[m // 2] = 1.5 * coefs[steep].variance[m // 2] / dx
            coefs[steep] = coefs[steep]._replace(drift=drift)
        levels = [interior_bands(coef, dx, m) for coef in coefs]
        spots = np.exp(dx * np.arange(m))
        closure = fd._closure(boundary, beta, spots, dx)
        values = rng.standard_normal((rows, m)).cumsum(axis=1)
        steps = [(dt, th, levels[s], levels[s + 1]) for s, th in enumerate(thetas)]
        got = fd._march(values.copy(), [(None, steps)], closure)
        want = values
        for s, theta in enumerate(thetas):
            want = step_oracle.theta_step(want, dt, dx, theta, coefs[s], coefs[s + 1],
                                          boundary, spots=spots, beta=beta)
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("per_node_bands", [False, True], ids=["scalar", "per_node"])
    def test_an_explicit_step_is_its_explicit_side(self, monkeypatch, per_node_bands,
                                                   boundary):
        # theta = 0 leaves nothing to solve: the step is the three-band
        # stencil with the closure's end values, bit for bit, and runs no
        # LAPACK routine
        m, dx, dt = 60, 0.02, 0.005
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((24, m)).cumsum(axis=1)
        levels = [interior_bands(per_node(rng, m, dx, 0.05, 0.02, 0.01), dx, m)
                  for _ in range(2)]
        if not per_node_bands:
            levels = [tuple(band[0] for band in bands) for bands in levels]
        closure = fd._closure(boundary, 1, np.exp(dx * np.arange(m)), dx)
        want = np.empty_like(rows)
        fd._explicit_side(rows, dt, levels[0], want, np.empty((rows.shape[0], m - 2)))
        (a_lo, b_lo, g_lo), (a_hi, b_hi, g_hi) = closure
        want[:, 0] = a_lo * want[:, 1] + b_lo * want[:, 2] + g_lo
        want[:, -1] = a_hi * want[:, -2] + b_hi * want[:, -3] + g_hi
        ran = record_lapack(monkeypatch)
        got = theta_step(rows, dt, 0.0, *levels, closure, **step_buffers(rows))
        assert np.array_equal(got, want)
        assert ran == []

    def test_a_step_returns_its_out_buffer(self, monkeypatch):
        # the march swaps its two buffers by identity, so a step returns
        # out itself, solved in place, not a view of it, on either solve
        m, dx = 60, 0.02
        rng = np.random.default_rng(22)
        rows = rng.standard_normal((24, m)).cumsum(axis=1)
        closure = fd._closure(BoundaryKind.ZERO_GAMMA, 1, None, dx)
        per_node_bands = interior_bands(per_node(rng, m, dx, 0.05, 0.02, 0.01), dx, m)
        scalar_bands = tuple(band[0] for band in per_node_bands)
        ran = record_lapack(monkeypatch)
        for bands in (scalar_bands, per_node_bands):
            buffers = step_buffers(rows)
            assert theta_step(rows, 0.005, 0.5, bands, bands, closure,
                              **buffers) is buffers["out"]
        assert ran == ["gtsv", "ptsv"]


def accumulation_axis(contract, j_nodes):
    """The ``j_nodes`` accrued amounts of ``contract``'s lattice, uniform
    from zero to the target."""
    return np.linspace(0.0, contract.target, j_nodes)


def smooth_state(grid, accum):
    a = accum[:, None]
    x = grid.log_spots[None, :]
    return np.exp(-a) * (1.3 + np.sin(2.0 * x)) + 0.5 * a


def planned_jump(values, contract, grid, fixing_index=1):
    plan = JumpPlan.build(contract, grid, values.shape[0])
    return apply_jump(values, plan, contract.extra_payments[fixing_index - 1])


class TestApplyJump:
    def make(self, knockout=KnockoutType.NO_GAIN, target=0.3, spot=1.05,
             m=61, j=21):
        contract = TarnContract(strike=1.0, target=target, beta=1,
                                fixing_times=(0.25, 0.5), knockout=knockout)
        cfg = FdConfig(spot_nodes=m, accumulation_nodes=j, time_steps=4)
        grid = build_grid(contract, flat_model(), cfg, spot)
        return contract, grid, accumulation_axis(contract, j)

    def test_out_of_the_money_state_unchanged(self):
        # domain entirely below the strike: gross amount is zero everywhere,
        # so the jump must be a no-op on every row, including the top one
        contract = TarnContract(strike=10.0, target=0.3, beta=1,
                                fixing_times=(0.25, 0.5),
                                knockout=KnockoutType.FULL_GAIN)
        cfg = FdConfig(spot_nodes=41, accumulation_nodes=11, time_steps=4,
                       domain_width_sigmas=1.0)
        grid = build_grid(contract, flat_model(), cfg, 0.5)
        # the strike is pinned as the top node; gross amount is zero there too
        assert grid.spots.max() <= 10.0
        values = smooth_state(grid, accumulation_axis(contract, 11))
        out = planned_jump(values.copy(), contract, grid)
        # but for the strike node's cell, which the breach spot crosses on
        # the rows whose room is under half a cell
        crossed = crossed_cells(contract, grid, 11)
        assert crossed[-1, -1] and np.all(crossed.sum(axis=1) <= 1)
        assert not crossed[:, :-1].any()
        assert np.allclose(out[~crossed], values[~crossed], atol=1e-13)
        # the top row's breached half pays no room: its value is halved
        assert out[-1, -1] == pytest.approx(0.5 * values[-1, -1], rel=1e-14)

    def test_single_fixing_gives_vanilla_payoff(self):
        contract = TarnContract(strike=1.0, target=1e6, beta=1,
                                fixing_times=(0.5,),
                                knockout=KnockoutType.FULL_GAIN)
        cfg = FdConfig(spot_nodes=51, accumulation_nodes=11, time_steps=4)
        grid = build_grid(contract, flat_model(), cfg, 1.05)
        out = planned_jump(np.zeros((11, 51)), contract, grid)
        payoff = np.maximum(grid.spots - 1.0, 0.0)
        assert np.allclose(out[0], payoff, atol=1e-14)

    def test_no_gain_breach_zeroes_the_cell(self):
        contract, grid, accum = self.make(KnockoutType.NO_GAIN)
        values = smooth_state(grid, accum)
        out = planned_jump(values.copy(), contract, grid)
        gross = np.maximum(grid.spots - 1.0, 0.0)[None, :]
        breach = (accum[:, None] + gross >= 0.3) & (gross > 0)
        crossed = crossed_cells(contract, grid, 21)
        assert np.all(out[breach & ~crossed] == 0.0)
        # a breached node whose cell the breach spot crosses keeps its
        # cell's live share
        assert np.all(out[breach & crossed] > 0.0)

    def test_continuation_matches_independent_spline(self):
        # jump-value identity: V_new - payment - extra must equal the natural
        # spline of the pre-jump column at the shifted amount, or zero when
        # the fixing kills the note
        for knockout in KnockoutType:
            contract, grid, accum = self.make(knockout)
            values = smooth_state(grid, accum)
            out = planned_jump(values.copy(), contract, grid)
            crossed = crossed_cells(contract, grid, 21)  # cell averages instead
            for m in range(0, 61, 7):
                ref = CubicSpline(accum, values[:, m], bc_type="natural")
                for j in np.flatnonzero(~crossed[:, m]):
                    o = fixing_outcome(grid.spots[m], accum[j], 1,
                                       contract, allow_at_target=True)
                    residual = out[j, m] - o.payment - o.extra_payment
                    if o.terminated:
                        assert residual == 0.0
                    else:
                        want = ref(accum[j] + o.payment)
                        assert residual == pytest.approx(float(want), abs=1e-10)

    def test_lattice_matches_scalar_outcomes(self):
        # the kernel called as apply_jump calls it, on the whole lattice
        for knockout in KnockoutType:
            contract, grid, accum = self.make(knockout)
            contract = replace_extra(contract, (0.01, 0.02))
            pay, extra, dead = fixing_flows(
                contract.gross(grid.spots), accum[:, None],
                contract.extra_payments[1], contract.knockout, contract.target)
            assert pay.shape == extra.shape == dead.shape == (21, 61)
            for j in range(21):
                for m in range(0, 61, 5):
                    o = fixing_outcome(grid.spots[m], accum[j], 2,
                                       contract, allow_at_target=True)
                    assert pay[j, m] == o.payment
                    assert extra[j, m] == o.extra_payment
                    assert dead[j, m] == o.terminated


def record_lattices(monkeypatch):
    """Make ``fd_price`` append a copy of every post-jump lattice to the
    returned list, last fixing first."""
    lattices = []
    jump = fd.apply_jump

    def recording(values, plan, extra):
        out = jump(values, plan, extra)
        lattices.append(out.copy())
        return out

    monkeypatch.setattr(fd, "apply_jump", recording)
    return lattices


def replace_extra(contract, extras):
    return TarnContract(strike=contract.strike, target=contract.target,
                        beta=contract.beta, fixing_times=contract.fixing_times,
                        knockout=contract.knockout, extra_payments=extras)


# The oracle reads its spline at a node with the node's rounding, up to
# about one ulp of the lattice's largest value.
ORACLE_ULPS = 4


def crossed_cells(contract, grid, j_nodes):
    """The (J, M) mask of the nodes whose cell the planned jump averages."""
    flat = JumpPlan.build(contract, grid, j_nodes).cells[0]
    crossed = np.zeros((j_nodes, grid.spots.size), dtype=bool)
    crossed.ravel()[flat] = True
    return crossed


def assert_jump_matches_oracle(before, after, fixing_index, contract, grid):
    """The band rule of the planned jump, checked against the oracle jump.

    Where the fixing pays (gross > 0), in the band 0 < gross < U, where
    gross >= U knocks every state out and in the cells the breach spot
    crosses, the planned jump is byte-identical to the oracle.  Where it
    pays nothing it is the pre-jump value plus the extra payment exactly,
    outside the crossed cells, and the oracle's spline read at the node
    matches it to a few ulps of the lattice scale, inside them too.
    """
    accum = accumulation_axis(contract, before.shape[0])
    want = jump_oracle.apply_jump(before, fixing_index, contract, grid, accum)
    gross = contract.gross(grid.spots)
    pays = gross > 0.0
    assert after[:, pays].tobytes() == want[:, pays].tobytes(), fixing_index
    _, extra, _ = fixing_flows(
        gross[~pays], accum[:, None],
        contract.extra_payments[fixing_index - 1], contract.knockout,
        contract.target)
    kept = ~crossed_cells(contract, grid, accum.size)[:, ~pays]
    assert np.array_equal(after[:, ~pays][kept], (before[:, ~pays] + extra)[kept])
    scale = max(np.abs(before).max(), np.abs(after).max())
    gap = np.abs(want[:, ~pays] - after[:, ~pays])
    assert np.all(gap <= ORACLE_ULPS * np.spacing(scale)), fixing_index


def record_spline_columns(monkeypatch):
    """Make every spline solve append its column count to the returned
    list."""
    columns = []
    second_derivs = fd._spline_second_derivs

    def recording(values, h):
        columns.append(values.shape[1])
        return second_derivs(values, h)

    monkeypatch.setattr(fd, "_spline_second_derivs", recording)
    return columns


class TestJumpPlan:
    TIMES = benchmark_times(12)
    CONFIG = FdConfig(spot_nodes=90, accumulation_nodes=23, time_steps=60)
    EXTRAS = {
        "none": None,
        "repeat": tuple(0.004 for _ in TIMES),
        "cycle": tuple((0.0, 0.01, 0.002)[k % 3] for k in range(12)),
        "distinct": tuple(0.001 * (k - 4) for k in range(12)),
    }

    def contract(self, knockout, beta, extras):
        return TarnContract(strike=1.0, target=0.3, beta=beta,
                            fixing_times=self.TIMES, knockout=knockout,
                            extra_payments=extras)

    @pytest.mark.parametrize("extras", EXTRAS)
    def test_planned_jumps_match_the_oracle_bytes(self, monkeypatch, extras):
        # every post-jump lattice of a pricing, against the jump derived from
        # scratch for its fixing index; rates on, both directions
        model = flat_model(r_d=0.03, r_f=0.01)
        calls = []
        jump = fd.apply_jump

        def recording(values, plan, extra):
            before = values.copy()
            out = jump(values, plan, extra)
            calls.append((before, out.copy()))
            return out

        monkeypatch.setattr(fd, "apply_jump", recording)
        for knockout in KnockoutType:
            for beta, spot in ((1, 1.05), (-1, 0.97)):
                contract = self.contract(knockout, beta, self.EXTRAS[extras])
                grid = build_grid(contract, model, self.CONFIG, spot)
                fd_price(contract, model, self.CONFIG, spot)
                assert len(calls) == 12
                for k, (before, after) in zip(range(12, 0, -1), calls):
                    assert_jump_matches_oracle(before, after, k, contract, grid)
                calls.clear()

    @pytest.mark.parametrize("beta, spot", [(1, 1.05), (-1, 0.97)])
    def test_only_the_band_is_splined(self, monkeypatch, beta, spot):
        # a fixing splines the spot nodes where it pays without knocking
        # every state out, 0 < gross < U, and no other
        contract = self.contract(KnockoutType.PART_GAIN, beta, None)
        grid = build_grid(contract, flat_model(), self.CONFIG, spot)
        assert grid.spot_index is not None  # no readout spline
        gross = contract.gross(grid.spots)
        band = np.count_nonzero((gross > 0.0) & (gross < contract.target))
        assert 0 < band < np.count_nonzero(gross > 0.0)
        columns = record_spline_columns(monkeypatch)
        fd_price(contract, flat_model(), self.CONFIG, spot)
        assert columns == [band] * contract.num_fixings

    def test_an_empty_band_makes_no_spline_solve(self, monkeypatch):
        # a target below the smallest positive gross amount: every paying
        # node knocks out, so no fixing splines anything
        cfg = FdConfig(spot_nodes=20, accumulation_nodes=8, time_steps=24)
        model = flat_model(r_d=0.02)
        probe = self.contract(KnockoutType.FULL_GAIN, 1, None)
        grid = build_grid(probe, model, cfg, 1.1)
        assert grid.spot_index is not None  # no readout spline
        gross = probe.gross(grid.spots)
        target = 0.5 * gross[gross > 0.0].min()
        contract = TarnContract(
            strike=1.0, target=target, beta=1, fixing_times=self.TIMES,
            knockout=KnockoutType.FULL_GAIN, extra_payments=self.EXTRAS["cycle"])
        grid = build_grid(contract, model, cfg, 1.1)
        assert JumpPlan.build(contract, grid, cfg.accumulation_nodes).band == slice(0, 0)
        columns = record_spline_columns(monkeypatch)
        price = fd_price(contract, model, cfg, 1.1).price
        assert columns == []
        assert math.isfinite(price) and price > 0.0
        fixings = iter(range(contract.num_fixings, 0, -1))
        monkeypatch.setattr(fd, "apply_jump", lambda values, plan, extra:
                            jump_oracle.apply_jump(
                                values, next(fixings), contract, grid,
                                accumulation_axis(contract, cfg.accumulation_nodes)))
        assert price == pytest.approx(fd_price(contract, model, cfg, 1.1).price,
                                      rel=1e-14)

    @pytest.mark.parametrize("target, nodes", [(0.3, 100), (0.9, 55), (0.0304, 23)])
    def test_the_accumulation_axis_runs_exactly_from_zero_to_the_target(
            self, monkeypatch, target, nodes):
        # the plan makes its lattice's axis and keeps only its spacing
        axes = []
        crossed = fd._crossed_cells
        monkeypatch.setattr(fd, "_crossed_cells", lambda contract, grid, accum, *args:
                            axes.append(accum) or crossed(contract, grid, accum, *args))
        contract = benchmark_contract(KnockoutType.NO_GAIN, target)
        grid = build_grid(contract, flat_model(), FdConfig(), 1.05)
        plan = JumpPlan.build(contract, grid, nodes)
        (accum,) = axes
        assert accum.shape == (nodes,)
        assert accum[0] == 0.0 and accum[-1] == target
        assert plan.h == target / (nodes - 1)
        assert np.allclose(np.diff(accum), plan.h, rtol=1e-12, atol=0.0)

    @given(
        strike=st.floats(0.5, 2.0),
        moneyness=st.floats(0.8, 1.25),
        target=st.floats(0.005, 1.0),
        beta=st.sampled_from([1, -1]),
        knockout=st.sampled_from(KnockoutType),
        extras=st.tuples(*[st.sampled_from([0.0, 0.004, -0.01, 0.3])] * 2),
        fixing_index=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_band_jump_matches_the_oracle(self, strike, moneyness, target, beta,
                                          knockout, extras, fixing_index, seed):
        contract = TarnContract(strike=strike, target=target, beta=beta,
                                fixing_times=(0.25, 0.5), knockout=knockout,
                                extra_payments=extras)
        cfg = FdConfig(spot_nodes=30, accumulation_nodes=9, time_steps=4)
        grid = build_grid(contract, flat_model(), cfg, strike * moneyness)
        # a random quadratic in the accrued amount per spot node: smooth
        # across the accumulation grid, as a pricing lattice is
        level, slope, curve = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 30))
        a = accumulation_axis(contract, 9)[:, None] / target
        before = 1.5 + level + a * (slope + a * curve)
        plan = JumpPlan.build(contract, grid, 9)
        after = apply_jump(before, plan, contract.extra_payments[fixing_index - 1])
        assert_jump_matches_oracle(before, after, fixing_index, contract, grid)

    def test_off_grid_readout_matches_the_oracle_bytes(self):
        contract = benchmark_contract(KnockoutType.PART_GAIN, 0.5)
        cfg = replace(self.CONFIG, pin_policy=PinPolicy.STRIKE_ONLY_THEN_INTERPOLATE)
        spot = 1.0137
        grid = build_grid(contract, flat_model(), cfg, spot)
        assert grid.spot_index is None
        row = smooth_state(grid, accumulation_axis(contract, 23))[7]
        for query in (math.log(spot), grid.log_spots[[0, 5, -1]],
                      np.linspace(grid.log_spots[0], grid.log_spots[-1], 37)):
            got = fd.natural_cubic_spline(grid.log_spots, row, query)
            want = jump_oracle.natural_cubic_spline(grid.log_spots, row, query)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == want.tobytes()


SMALL = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)


class TestFdPrice:
    def test_dominance_across_knockout_types(self):
        model = flat_model()
        prices = {
            ko: fd_price(benchmark_contract(ko, 0.4), model, SMALL, 1.05).price
            for ko in KnockoutType
        }
        assert prices[KnockoutType.NO_GAIN] <= prices[KnockoutType.PART_GAIN] + 1e-10
        assert prices[KnockoutType.PART_GAIN] <= prices[KnockoutType.FULL_GAIN] + 1e-10

    def test_lattice_level_dominance(self, monkeypatch):
        # pointwise over the tracked lattices at every fixing; the natural
        # spline is not monotone in its data, so overshoot near the knockout
        # cutoff allows violations up to the local interpolation error
        # (measured ~2e-6 at this grid), never at the 1e-5 * U scale
        lattices = {}
        recorded = record_lattices(monkeypatch)
        for ko in KnockoutType:
            fd_price(benchmark_contract(ko, 0.3), flat_model(), SMALL, 1.05)
            lattices[ko] = recorded[:]
            recorded.clear()
        tol = 1e-5 * 0.3
        for ng, pg, fg in zip(lattices[KnockoutType.NO_GAIN],
                              lattices[KnockoutType.PART_GAIN],
                              lattices[KnockoutType.FULL_GAIN]):
            assert np.max(ng - pg) < tol
            assert np.max(pg - fg) < tol

    def test_nondecreasing_in_target(self):
        model = flat_model()
        values = [
            fd_price(benchmark_contract(KnockoutType.PART_GAIN, u), model,
                     SMALL, 1.05).price
            for u in (0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_discounting_lowers_price(self):
        # equal domestic and foreign rates leave the forward drift unchanged
        # and only discount the flows, so the price must drop strictly.
        # (Bumping the domestic rate alone also lifts the forward and can
        # raise the price; both engines agree on that, so it is not tested
        # as a monotonicity.)
        contract = benchmark_contract(KnockoutType.FULL_GAIN, 0.5)
        base = fd_price(contract, flat_model(), SMALL, 1.05).price
        bumped = fd_price(contract, flat_model(r_d=0.05, r_f=0.05), SMALL,
                          1.05).price
        assert bumped < base

    def test_implicit_and_crank_nicolson_agree(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        model = flat_model()
        cn = estimate_error(contract, model, SMALL, 1.05)
        imp = estimate_error(contract, model, replace(SMALL, theta=1.0), 1.05)
        # a first-order scheme's doubling estimate understates its true error
        # by about half, hence the cushion on the combined band
        band = 3.0 * (cn.relative_error + imp.relative_error) * abs(cn.coarse.price)
        assert abs(cn.coarse.price - imp.coarse.price) <= band

    def test_term_structure_rates_and_vol(self):
        # term-structure inputs that collapse to the flat case must agree
        model = MarketModel(
            domestic=RateCurve((0.0, 0.5), (0.01, 0.01)),
            foreign=RateCurve.flat(0.0),
            vol=ConstantVol(0.2),
        )
        flat = flat_model(r_d=0.01)
        contract = benchmark_contract(KnockoutType.PART_GAIN, 0.5)
        a = fd_price(contract, model, SMALL, 1.05).price
        b = fd_price(contract, flat, SMALL, 1.05).price
        assert a == pytest.approx(b, rel=1e-12)

    def test_flat_local_vol_matches_constant(self):
        surface = LocalVolSurface(
            time_knots=[0.0, 2.0], spot_knots=[0.2, 4.0],
            values=[[0.2, 0.2], [0.2, 0.2]])
        model = MarketModel(domestic=RateCurve.flat(0.0),
                            foreign=RateCurve.flat(0.0), vol=surface)
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        a = fd_price(contract, model, SMALL, 1.05).price
        b = fd_price(contract, flat_model(), SMALL, 1.05).price
        assert a == pytest.approx(b, rel=1e-12)

    def test_extra_payments_add_discounted_strip_when_never_knocked(self):
        model = flat_model(r_d=0.02)
        times = benchmark_times(6)
        extras = tuple(0.01 for _ in times)
        base = TarnContract(strike=1.0, target=1e6, beta=1, fixing_times=times,
                            knockout=KnockoutType.FULL_GAIN)
        with_extra = replace_extra(base, extras)
        cfg = FdConfig(spot_nodes=150, accumulation_nodes=20, time_steps=60)
        a = fd_price(base, model, cfg, 1.05).price
        b = fd_price(with_extra, model, cfg, 1.05).price
        strip = sum(0.01 * math.exp(-0.02 * t) for t in times)
        assert b - a == pytest.approx(strip, rel=1e-9)

    def test_extra_payments_cross_engine(self):
        model = flat_model()
        times = benchmark_times(8)
        contract = TarnContract(strike=1.0, target=0.25, beta=1,
                                fixing_times=times,
                                knockout=KnockoutType.PART_GAIN,
                                extra_payments=tuple(0.005 for _ in times))
        fd = fd_price(contract, model, SMALL, 1.05).price
        mc = mc_price(contract, model, McConfig(n_paths=120_000, seed=5), 1.05)
        assert abs(fd - mc.price) < 4.0 * mc.stderr

    def test_no_extras_price_as_zero_extras(self):
        # both engines read the one stored form, and no cache key reads it
        given_none = benchmark_contract(KnockoutType.PART_GAIN, 0.3)
        given_zeros = replace_extra(given_none, (0.0,) * given_none.num_fixings)
        model, cache = flat_model(), {}

        def priced(contract):
            fd_res = fd_price(contract, model, SMALL, 1.05, cache=cache)
            mc_res = mc_price(contract, model, McConfig(n_paths=4000, seed=5), 1.05,
                              cache=cache)
            return [x.hex() for x in (fd_res.price, mc_res.price, mc_res.stderr)]

        first = priced(given_none)
        held = len(cache)
        assert priced(given_zeros) == first
        assert len(cache) == held

    def test_put_direction_prices_against_mc(self):
        model = flat_model()
        contract = TarnContract(strike=1.0, target=0.3, beta=-1,
                                fixing_times=benchmark_times(10),
                                knockout=KnockoutType.FULL_GAIN)
        fd = fd_price(contract, model, SMALL, 0.98).price
        mc = mc_price(contract, model, McConfig(n_paths=120_000, seed=6), 0.98)
        assert abs(fd - mc.price) < 4.0 * mc.stderr

    def test_boundary_variants_agree(self):
        contract = benchmark_contract(KnockoutType.FULL_GAIN, 0.5)
        model = flat_model()
        zg = fd_price(contract, model, SMALL, 1.05).price
        dn = fd_price(
            contract, model,
            replace(SMALL, boundary=BoundaryKind.DIRICHLET_NEUMANN_BY_DIRECTION),
            1.05).price
        assert zg == pytest.approx(dn, rel=2e-3)

    def test_lattice_dumps_are_finite_and_nonnegative(self, monkeypatch):
        contract = benchmark_contract(KnockoutType.PART_GAIN, 0.3)
        cfg = FdConfig(spot_nodes=101, accumulation_nodes=21, time_steps=40)
        lattices = record_lattices(monkeypatch)
        fd_price(contract, flat_model(), cfg, 1.05)
        assert len(lattices) == 20
        for lattice in lattices:
            assert lattice.shape == (21, 101)
            assert np.all(np.isfinite(lattice))
            # spline/time-stepping undershoot near the knockout cutoff is a
            # discretization artifact; measured ~1e-7 * target at this grid
            assert lattice.min() >= -1e-6 * contract.target

    def test_unstable_explicit_scheme_rejected(self):
        # (1 - 2 theta) dt sigma^2 / dx^2 is 138 here; marching anyway
        # returned -1.6e41 as the price
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg = FdConfig(spot_nodes=400, accumulation_nodes=10, time_steps=20,
                       theta=0.0)
        with pytest.raises(ValueError, match="theta.*time_steps"):
            fd_price(contract, flat_model(), cfg, 1.05)

    def test_stable_explicit_scheme_prices(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg = FdConfig(spot_nodes=60, accumulation_nodes=20, time_steps=400)
        cn = fd_price(contract, flat_model(), cfg, 1.05).price
        explicit = fd_price(contract, flat_model(), replace(cfg, theta=0.0),
                            1.05).price
        assert explicit == pytest.approx(cn, rel=1e-2)

    def test_interpolated_readout_close_to_pinned(self):
        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        model = flat_model()
        pinned = fd_price(contract, model, SMALL, 1.05).price
        inter = fd_price(
            contract, model,
            replace(SMALL, pin_policy=PinPolicy.STRIKE_ONLY_THEN_INTERPOLATE),
            1.05).price
        # the two policies produce different grids, so they agree only up to
        # each grid's own discretization error at this coarse resolution
        assert inter == pytest.approx(pinned, rel=4e-3)

    @pytest.mark.parametrize("policy", list(PinPolicy))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_lattice_is_never_priced(self, monkeypatch, bad, policy):
        # the solves do not check their input, so the price is checked: one
        # bad cell in each jump reaches the spot row, in a direct call and
        # through the front end, which records the error instead of a price,
        # for each target of a shared lattice; read at a node or off a
        # spline, it is the same error
        original = fd.apply_jump

        def spoiled(values, plan, extra):
            out = original(values, plan, extra)
            out[-1, -1] = bad
            return out

        monkeypatch.setattr(fd, "apply_jump", spoiled)
        small = replace(SMALL, pin_policy=policy)
        assert (build_grid(benchmark_contract(KnockoutType.NO_GAIN, 0.3),
                           flat_model(), small, 1.05).spot_index is None) == (
            policy is PinPolicy.STRIKE_ONLY_THEN_INTERPOLATE)
        config = replace(cli.preset_table1(), engines=("fd",), fd=small,
                         targets=(0.3, 0.9), knockouts=(KnockoutType.NO_GAIN,))
        with np.errstate(all="ignore"):  # inf - inf warns on its way
            with pytest.raises(ValueError, match="^FD price is not finite"):
                fd_price(benchmark_contract(KnockoutType.NO_GAIN, 0.3),
                         flat_model(), small, 1.05)
            records = cli.run(config)
        assert len(records) == 2
        for record in records:
            assert record.status.startswith("error: FD price is not finite")
            assert math.isnan(record.price)


class TestErrorEstimate:
    def test_manufactured_arithmetic(self, monkeypatch):
        prices = {(10, 4, 10): 0.1956, (20, 8, 20): 0.1955}

        def stub(contract, model, config, spot):
            key = (config.spot_nodes, config.accumulation_nodes, config.time_steps)
            return PriceResult(price=prices[key], wall_time=0.0, grid_shape=key)

        monkeypatch.setattr(fd, "fd_price", stub)

        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg = FdConfig(spot_nodes=10, accumulation_nodes=4, time_steps=10)
        est = estimate_error(contract, flat_model(), cfg, 1.05)
        assert est.relative_error == pytest.approx(abs(0.1956 - 0.1955) / 0.1955)
        assert est.relative_error == pytest.approx(5.115e-4, rel=1e-3)
        assert est.coarse.price == 0.1956
        assert est.refined.price == 0.1955

    def test_identical_prices_give_zero(self, monkeypatch):
        def stub(contract, model, config, spot):
            return PriceResult(price=0.42, wall_time=0.0, grid_shape=(1, 1, 1))

        monkeypatch.setattr(fd, "fd_price", stub)

        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        est = estimate_error(contract, flat_model(), FdConfig(), 1.05)
        assert est.relative_error == 0.0

    def test_zero_refined_price_rejected(self, monkeypatch):
        def stub(contract, model, config, spot):
            return PriceResult(price=0.0, wall_time=0.0, grid_shape=(1, 1, 1))

        monkeypatch.setattr(fd, "fd_price", stub)

        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        with pytest.raises(ValueError, match="relative error undefined"):
            estimate_error(contract, flat_model(), FdConfig(), 1.05)


class TestConvergenceOrder:
    def test_synthetic_second_order_model(self, monkeypatch):
        def stub(contract, model, config, spot):
            err = 3.0 / config.spot_nodes ** 2
            return PriceResult(price=0.5 + err, wall_time=0.0,
                               grid_shape=(config.spot_nodes, 1, 1))

        monkeypatch.setattr(fd, "fd_price", stub)

        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        cfg = FdConfig(spot_nodes=64, accumulation_nodes=8, time_steps=8)
        study = convergence_order(contract, flat_model(), cfg, 1.05)
        assert study.order == pytest.approx(2.0, abs=1e-12)

    def test_converged_difference_rejected(self, monkeypatch):
        def stub(contract, model, config, spot):
            return PriceResult(price=1.0, wall_time=0.0, grid_shape=(1, 1, 1))

        monkeypatch.setattr(fd, "fd_price", stub)

        contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
        with pytest.raises(ValueError, match="converged below measurable"):
            convergence_order(contract, flat_model(), FdConfig(), 1.05)
