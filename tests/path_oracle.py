"""Path-major, fixing-by-fixing Monte Carlo kernels: the oracle the engine's
fixing-major simulation ``tarnpricer.mc.simulate_fixing_paths`` and its
knockout-time payoff ``tarnpricer.contract.batch_present_value`` are tested
against.

The simulation draws one vector of normals per fixing (per substep under
local volatility) and fills a C-ordered (n_paths, K) array column by
column; the payoff walks the fixings in order, carrying the accrued amount
and the alive flags, with every fixing's flows from
``tarnpricer.contract.fixing_flows``; the control is the gross amounts of
those C-ordered paths times the discounts.  ``column_estimates`` is the
estimator that holds every case's whole payoff column, which the engine's
streaming pass reproduces up to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from tarnpricer import MarketModel, TarnContract
from tarnpricer.contract import fixing_flows
from tarnpricer.market import discount_factor, integrated_variance, vanilla_price
from tarnpricer.mc import standard_error


def simulate_fixing_paths(
    model: MarketModel,
    spot: float,
    fixing_times,
    n_paths: int,
    rng: np.random.Generator,
    substeps_per_interval: int = 1,
) -> np.ndarray:
    """Same contract as the engine's: (n_paths, len(fixing_times)) spots."""
    fixing_times = tuple(float(t) for t in fixing_times)
    out = np.empty((n_paths, len(fixing_times)))
    log_s = np.full(n_paths, math.log(spot))
    t_prev = 0.0
    for k, t in enumerate(fixing_times):
        if model.has_exact_transition:
            var = integrated_variance(model.vol, t_prev, t)
            drift = (
                model.domestic.integral(t_prev, t)
                - model.foreign.integral(t_prev, t)
                - 0.5 * var
            )
            log_s = log_s + drift + math.sqrt(var) * rng.standard_normal(n_paths)
        else:
            dt = (t - t_prev) / substeps_per_interval
            for s in range(substeps_per_interval):
                t_s = t_prev + s * dt
                sig = model.vol.interpolate(np.exp(log_s), t_s)
                nu = (
                    model.domestic.rate_at(t_s)
                    - model.foreign.rate_at(t_s)
                    - 0.5 * sig * sig
                )
                log_s = log_s + nu * dt + sig * math.sqrt(dt) * rng.standard_normal(n_paths)
        out[:, k] = log_s
        t_prev = t
    return np.exp(out)


def walk_present_value(
    spot_paths: np.ndarray,
    cases: tuple[TarnContract, ...],
    discounts: np.ndarray,
) -> np.ndarray:
    """Discounted value of each row of ``spot_paths`` to each of ``cases``,
    one row per case, each walked fixing by fixing on its own."""
    return np.array([_walk(spot_paths, contract, discounts) for contract in cases])


def _walk(spot_paths, contract, discounts):
    paths = np.asarray(spot_paths, dtype=float)
    n = paths.shape[0]
    value = np.zeros(n)
    accrued = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for k in range(1, contract.num_fixings + 1):
        payment, extra, dead = fixing_flows(
            contract.gross(paths[:, k - 1]), accrued,
            contract.extra_payments[k - 1], contract.knockout, contract.target,
        )
        payment = np.where(alive, payment, 0.0)
        value += discounts[k - 1] * (payment + np.where(alive, extra, 0.0))
        accrued += payment
        alive &= ~dead
    return value


def control_values(spot_paths, contract, discounts):
    """Discounted uncapped vanilla strip along each path, the control."""
    gross = np.maximum(contract.beta * (spot_paths - contract.strike), 0.0)
    return gross @ discounts


def column_estimates(cases, model, config, spot, batch_size):
    """(price, stderr, coefficient) of each of ``cases`` from whole columns.

    The engine's paths (batch ``b`` of ``batch_size`` paths drawn from the
    seeded Philox stream jumped ``b`` times) are priced by the kernels above
    and held whole: each case's coefficient is its pilot's ``np.cov`` slope
    on the first tenth of the paths (or the pinned one), and its price and
    standard error are ``samples.mean()`` and ``standard_error(samples)``
    over the samples after the pilot.
    """
    times = cases[0].fixing_times
    discounts = np.array([discount_factor(model.domestic, 0.0, t) for t in times])
    n, base = config.n_paths, np.random.Philox(config.seed)
    batches = [simulate_fixing_paths(model, spot, times, min(batch_size, n - start),
                                     np.random.Generator(base.jumped(b)),
                                     config.substeps_per_interval)
               for b, start in enumerate(range(0, n, batch_size))]
    payoffs = np.concatenate([walk_present_value(p, cases, discounts) for p in batches], axis=1)
    if not (config.control_variate and model.has_exact_transition):
        return [(float(row.mean()), standard_error(row), None) for row in payoffs]
    controls = np.concatenate([control_values(p, cases[0], discounts) for p in batches])
    mean = sum(vanilla_price(spot, cases[0].strike, cases[0].beta, t,
                             model.domestic, model.foreign, model.vol) for t in times)
    n_pilot = max(2, n // 10) if config.cv_coefficient is None else 0
    out = []
    for row in payoffs:
        if n_pilot:
            cov = np.cov(row[:n_pilot], controls[:n_pilot])
            lam = float(cov[0, 1]) / float(cov[1, 1]) if cov[1, 1] > 0.0 else 0.0
        else:
            lam = float(config.cv_coefficient)
        samples = row[n_pilot:] - lam * (controls[n_pilot:] - mean)
        out.append((float(samples.mean()), standard_error(samples), lam))
    return out
