import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from tarnpricer import (
    ConstantVol,
    ExactTransitionUnavailable,
    FdConfig,
    KnockoutType,
    LocalVolSurface,
    McConfig,
    RateCurve,
    TarnContract,
    TermStructureVol,
    fd_price,
    market,
    mc_price,
    vanilla_price,
)
from tarnpricer.fd import build_grid
from tarnpricer.market import discount_factor, integrated_variance
from tarnpricer.mc import BATCH_SIZE

from conftest import smile_model
from surface_oracle import bilinear

FLAT0 = RateCurve.flat(0.0)


class TestDiscounting:
    def test_zero_rate(self):
        assert discount_factor(FLAT0, 0.0, 3.7) == 1.0

    def test_flat_rate(self):
        assert discount_factor(RateCurve.flat(0.05), 0.0, 1.0) == pytest.approx(
            math.exp(-0.05), rel=1e-15)

    def test_piecewise_exact(self):
        curve = RateCurve(times=(0.0, 0.5), rates=(0.02, 0.04))
        assert discount_factor(curve, 0.0, 1.0) == pytest.approx(
            math.exp(-0.03), rel=1e-15)

    def test_multiplicative(self):
        curve = RateCurve(times=(0.0, 0.3, 1.1, 2.0), rates=(0.01, 0.05, -0.02, 0.03))
        rng = np.random.default_rng(5)
        for _ in range(50):
            t0, t1, t2 = np.sort(rng.uniform(0.0, 3.0, size=3))
            lhs = discount_factor(curve, t0, t1) * discount_factor(curve, t1, t2)
            assert lhs == pytest.approx(discount_factor(curve, t0, t2), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateCurve(times=(0.5,), rates=(0.01,))
        with pytest.raises(ValueError):
            RateCurve(times=(0.0, 0.5, 0.5), rates=(0.01, 0.02, 0.03))
        with pytest.raises(ValueError):
            discount_factor(FLAT0, 1.0, 0.5)

    @pytest.mark.parametrize("times", [(0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_knot_rejected_by_name(self, times):
        with pytest.raises(ValueError, match="^times must be a sequence of finite real numbers"):
            RateCurve(times, (0.01, 0.02))


class TestIntegratedVariance:
    def test_flat(self):
        assert integrated_variance(ConstantVol(0.2), 0.0, 30 / 365) == pytest.approx(
            0.04 * 30 / 365, rel=1e-15)

    def test_piecewise(self):
        vol = TermStructureVol(times=(0.0, 0.5), sigmas=(0.1, 0.3))
        assert integrated_variance(vol, 0.0, 1.0) == pytest.approx(0.05, rel=1e-15)

    @pytest.mark.parametrize("times", [(0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_knot_rejected_by_name(self, times):
        with pytest.raises(ValueError, match="^times must be a sequence of finite real numbers"):
            TermStructureVol(times, (0.1, 0.2))

    def test_local_vol_rejected(self):
        surface = LocalVolSurface(
            time_knots=[0.0, 1.0], spot_knots=[0.5, 2.0],
            values=[[0.2, 0.2], [0.2, 0.2]])
        with pytest.raises(ExactTransitionUnavailable):
            integrated_variance(surface, 0.0, 1.0)

    def test_additive_and_nonnegative(self):
        vol = TermStructureVol(times=(0.0, 0.4, 0.9), sigmas=(0.15, 0.35, 0.2))
        rng = np.random.default_rng(9)
        for _ in range(50):
            t0, t1, t2 = np.sort(rng.uniform(0.0, 2.0, size=3))
            a = integrated_variance(vol, t0, t1)
            b = integrated_variance(vol, t1, t2)
            c = integrated_variance(vol, t0, t2)
            assert a >= 0.0 and b >= 0.0
            assert a + b == pytest.approx(c, rel=1e-13, abs=1e-18)


def quadrature_vanilla(s0, strike, beta, t, r_d, r_f, sigma):
    """Independent oracle: numeric quadrature of payoff times lognormal density.

    Absolute resolution is ~1e-13; deep out-of-the-money values below that
    cannot be resolved to a relative tolerance by any quadrature.
    """
    drift = (r_d - r_f - 0.5 * sigma * sigma) * t
    sd = sigma * math.sqrt(t)
    kink = (math.log(strike / s0) - drift) / sd

    def integrand(z):
        s = s0 * math.exp(drift + sd * z)
        return max(beta * (s - strike), 0.0) * norm.pdf(z)

    points = [kink] if -40.0 < kink < 40.0 else None
    val, _ = integrate.quad(integrand, -40.0, 40.0, limit=800, points=points,
                            epsabs=1e-16, epsrel=1e-12)
    return math.exp(-r_d * t) * val


class TestVanillaPrice:
    def test_vanishing_volatility_limit(self):
        got = vanilla_price(1.05, 1.0, 1, 1.0, FLAT0, FLAT0, ConstantVol(1e-9))
        assert got == pytest.approx(0.05, abs=1e-12)

    def test_zero_variance_pays_the_discounted_forward_intrinsic(self):
        # sigma^2 = 1e-340 underflows to 0, so the price is the discounted
        # forward intrinsic value e^-0.01 (1.05 e^0.01 - 1)
        got = vanilla_price(1.05, 1.0, 1, 1.0, RateCurve.flat(0.01), FLAT0,
                            ConstantVol(1e-170))
        assert got == 0.05995016625083199

    def test_pinned_quadrature_value(self):
        # frozen from the quadrature oracle above
        got = vanilla_price(1.05, 1.0, 1, 30 / 365, FLAT0, FLAT0, ConstantVol(0.2))
        assert got == pytest.approx(0.056449041071, abs=1e-10)

    def test_quadrature_sweep(self):
        for moneyness in (0.8, 1.0, 1.2):
            for sigma in (0.05, 0.2, 0.5):
                for t in (0.1, 0.75, 2.0):
                    for beta in (1, -1):
                        got = vanilla_price(
                            moneyness, 1.0, beta, t,
                            RateCurve.flat(0.03), RateCurve.flat(0.01),
                            ConstantVol(sigma))
                        want = quadrature_vanilla(
                            moneyness, 1.0, beta, t, 0.03, 0.01, sigma)
                        assert got == pytest.approx(want, rel=1e-8, abs=1e-13)

    def test_put_call_parity(self):
        dom, fgn = RateCurve.flat(0.04), RateCurve.flat(0.015)
        for s0 in (0.8, 1.0, 1.2):
            for sigma in (0.1, 0.4):
                for t in (0.25, 1.5):
                    vol = ConstantVol(sigma)
                    call = vanilla_price(s0, 1.0, 1, t, dom, fgn, vol)
                    put = vanilla_price(s0, 1.0, -1, t, dom, fgn, vol)
                    want = s0 * math.exp(-0.015 * t) - math.exp(-0.04 * t)
                    assert call - put == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_term_structure_variance_used(self):
        vol = TermStructureVol(times=(0.0, 0.5), sigmas=(0.1, 0.3))
        got = vanilla_price(1.0, 1.0, 1, 1.0, FLAT0, FLAT0, vol)
        # same total variance as a flat sigma of sqrt(0.05)
        want = vanilla_price(1.0, 1.0, 1, 1.0, FLAT0, FLAT0,
                             ConstantVol(math.sqrt(0.05)))
        assert got == pytest.approx(want, rel=1e-13)

    def test_same_bits_as_scipy_stats_norm_cdf(self, rng, monkeypatch):
        cases = []
        for _ in range(300):
            s0, strike = rng.uniform(0.3, 3.0, size=2)
            t, sigma = rng.uniform(0.01, 5.0), rng.uniform(0.01, 0.8)
            r_d, r_f = rng.uniform(-0.02, 0.08, size=2)
            cases.append((s0, strike, int(rng.choice([1, -1])), t, RateCurve.flat(r_d),
                          RateCurve.flat(r_f), ConstantVol(sigma)))
        got = [vanilla_price(*case) for case in cases]
        monkeypatch.setattr(market, "ndtr", norm.cdf)
        want = [vanilla_price(*case) for case in cases]
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    @pytest.mark.parametrize("spot, strike, expiry, message", [
        (math.nan, 1.0, 1.0, "spot must be positive and finite"),
        (-1.05, 1.0, 1.0, "spot must be positive and finite"),
        (0.0, 1.0, 1.0, "spot must be positive and finite"),
        (1.05, math.nan, 1.0, "strike must be positive and finite"),
        (1.05, -1.0, 1.0, "strike must be positive and finite"),
        (1.05, 0.0, 1.0, "strike must be positive and finite"),
        (1.05, math.inf, 1.0, "strike must be positive and finite"),
        (1.05, 1.0, math.nan, "expiry must be positive and finite"),
        (1.05, 1.0, math.inf, "expiry must be positive and finite"),
        (1.05, 1.0, 0.0, "expiry must be positive"),
    ], ids=["nan-spot", "negative-spot", "zero-spot", "nan-strike",
            "negative-strike", "zero-strike", "inf-strike", "nan-expiry",
            "inf-expiry", "zero-expiry"])
    def test_bad_input_rejected_by_name(self, spot, strike, expiry, message):
        with pytest.raises(ValueError, match=message):
            vanilla_price(spot, strike, 1, expiry, FLAT0, FLAT0, ConstantVol(0.2))

    def test_local_vol_unsupported(self):
        surface = LocalVolSurface(
            time_knots=[0.0, 1.0], spot_knots=[0.5, 2.0],
            values=[[0.2, 0.2], [0.2, 0.2]])
        with pytest.raises(ExactTransitionUnavailable):
            vanilla_price(1.0, 1.0, 1, 1.0, FLAT0, FLAT0, surface)


class TestLocalVol:
    mesh = LocalVolSurface(
        time_knots=[0.0, 1.0],
        spot_knots=[0.5, 1.5],
        values=[[0.10, 0.30], [0.20, 0.40]],
    )

    def test_constant_spec_everywhere(self):
        assert ConstantVol(0.2).sigma_at(0.77) == 0.2

    def test_term_structure_steps(self):
        vol = TermStructureVol(times=(0.0, 0.5), sigmas=(0.1, 0.3))
        assert vol.sigma_at(0.25) == 0.1
        assert vol.sigma_at(0.5) == 0.3
        assert vol.sigma_at(10.0) == 0.3

    def test_mesh_nodes_reproduced(self):
        for i, t in enumerate(self.mesh.time_knots):
            for j, s in enumerate(self.mesh.spot_knots):
                assert self.mesh.interpolate(s, t) == pytest.approx(
                    self.mesh.values[i, j], rel=1e-15)

    def test_cell_center_average(self):
        got = self.mesh.interpolate(1.0, 0.5)
        assert got == pytest.approx((0.10 + 0.30 + 0.20 + 0.40) / 4, rel=1e-15)

    def test_clamping_outside_mesh(self):
        assert self.mesh.interpolate(99.0, 99.0) == pytest.approx(0.40)
        assert self.mesh.interpolate(0.01, -5.0) == pytest.approx(0.10)

    def test_vector_queries(self):
        out = self.mesh.interpolate(np.array([0.5, 1.5]), 0.0)
        assert np.allclose(out, [0.10, 0.30])

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "surface.txt"
        body = np.zeros((3, 3))
        body[0, 1:] = self.mesh.spot_knots
        body[1:, 0] = self.mesh.time_knots
        body[1:, 1:] = self.mesh.values
        np.savetxt(path, body)
        loaded = LocalVolSurface.from_file(path)
        assert np.allclose(loaded.values, self.mesh.values)
        assert np.allclose(loaded.spot_knots, self.mesh.spot_knots)
        assert np.allclose(loaded.time_knots, self.mesh.time_knots)

    def test_from_file_needs_a_three_by_three_matrix(self, tmp_path):
        path = tmp_path / "surface.txt"
        np.savetxt(path, np.full((2, 2), 0.2))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: surface file "
                                             "needs at least a 3x3 matrix$"):
            LocalVolSurface.from_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalVolSurface(time_knots=[0.0, 1.0], spot_knots=[1.0, 0.5],
                            values=[[0.2, 0.2], [0.2, 0.2]])
        with pytest.raises(ValueError):
            LocalVolSurface(time_knots=[0.0, 1.0], spot_knots=[0.5, 2.0],
                            values=[[0.2, -0.2], [0.2, 0.2]])

    @pytest.mark.parametrize("field, time_knots, spot_knots", [
        ("time_knots", [0.0, math.nan], [0.5, 2.0]),
        ("time_knots", [0.0, math.inf], [0.5, 2.0]),
        ("spot_knots", [0.0, 1.0], [math.nan, 2.0]),
        ("spot_knots", [0.0, 1.0], [0.5, math.inf]),
    ])
    def test_non_finite_knot_rejected_by_name(self, field, time_knots, spot_knots):
        with pytest.raises(ValueError, match=f"^{field} must hold finite real numbers"):
            LocalVolSurface(time_knots=time_knots, spot_knots=spot_knots,
                            values=[[0.2, 0.2], [0.2, 0.2]])


@st.composite
def surfaces(draw):
    """A valid mesh of 2-6 time knots and 2-15 spot knots."""
    def knots(start, n):
        gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
        return np.cumsum([draw(start)] + gaps)

    tk = knots(st.floats(0.0, 1.0), draw(st.integers(2, 6)))
    sk = knots(st.floats(0.1, 2.0), draw(st.integers(2, 15)))
    values = draw(st.lists(st.floats(0.01, 2.0), min_size=tk.size * sk.size,
                           max_size=tk.size * sk.size))
    return LocalVolSurface(time_knots=tk, spot_knots=sk,
                           values=np.reshape(values, (tk.size, sk.size)))


@given(surfaces(), st.data())
def test_interpolate_matches_bilinear_oracle(surface, data):
    # one time-row blend read by np.interp against the per-spot bilinear
    # gather: within 4 ulps of the surface's largest sigma, exact at and
    # beyond both spot ends, and a float for a scalar spot
    tk, sk = surface.time_knots, surface.spot_knots
    t = data.draw(st.floats(tk[0] - 1.0, tk[-1] + 1.0) | st.sampled_from(list(tk)))
    spot = st.floats(sk[0] - 1.0, sk[-1] + 1.0) | st.sampled_from(list(sk))
    spots = np.array(data.draw(st.lists(spot, min_size=1, max_size=20)))
    got = surface.interpolate(spots, t)
    want = bilinear(surface, spots, t)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(surface.values.max()))
    ends = (spots <= sk[0]) | (spots >= sk[-1])
    assert np.array_equal(got[ends], want[ends])
    one = surface.interpolate(float(spots[0]), t)
    assert type(one) is float and one == got[0]


@pytest.mark.parametrize("substeps", [1, 3])
def test_mc_looks_up_the_surface_once_per_batch_fixing_and_substep(
        monkeypatch, substeps):
    calls = count_lookups(monkeypatch)
    contract = TarnContract(strike=1.0, target=0.2, beta=1,
                            fixing_times=(0.1, 0.2, 0.3, 0.4),
                            knockout=KnockoutType.PART_GAIN)
    config = McConfig(n_paths=BATCH_SIZE + 1, seed=5, substeps_per_interval=substeps)
    mc_price(contract, smile_model(), config, 1.0)
    assert len(calls) == 2 * contract.num_fixings * substeps
    assert sorted(calls) == [1] * (len(calls) // 2) + [BATCH_SIZE] * (len(calls) // 2)


def test_fd_looks_up_the_surface_once_per_time_level(monkeypatch):
    calls = count_lookups(monkeypatch)
    contract = TarnContract(strike=1.0, target=0.2, beta=1,
                            fixing_times=(0.1, 0.2, 0.35),
                            knockout=KnockoutType.PART_GAIN)
    config = FdConfig(spot_nodes=60, accumulation_nodes=10, time_steps=40)
    model = smile_model()
    grid = build_grid(contract, model, config, 1.0)
    fd_price(contract, model, config, 1.0)
    assert len(calls) == sum(n + 1 for n in grid.steps_per_interval)
    assert set(calls) == {config.spot_nodes}


def count_lookups(monkeypatch):
    """The spot count of every LocalVolSurface.interpolate call, as made."""
    calls = []
    original = LocalVolSurface.interpolate

    def counting(self, spot, t):
        calls.append(np.size(spot))
        return original(self, spot, t)

    monkeypatch.setattr(LocalVolSurface, "interpolate", counting)
    return calls


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes most of a second to import and is only needed for
    # the normal CDF, which scipy.special.ndtr provides
    import tarnpricer

    src = os.path.dirname(os.path.dirname(tarnpricer.__file__))
    code = "import sys, tarnpricer; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
