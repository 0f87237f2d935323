"""Monte Carlo reference pricer with a vanilla-strip control variate.

Paths are sampled only at the fixing dates whenever the volatility is flat
or a term structure, using the exact lognormal transition between fixings.
A local volatility surface has no closed-form transition, so those models
are stepped with a log-Euler scheme using a configurable number of substeps
per fixing interval.

A batch's paths are held fixing-major, one contiguous row of spots per
fixing, and priced from each path's knockout time (see
:func:`~tarnpricer.contract.batch_present_value`): the fixing at which the
cumulative gross amount first reaches the target.

Randomness comes from the counter-based Philox generator: batch ``b`` of a
run draws from an independent stream obtained by jumping the seeded base
generator ``b`` times, so every path is a pure function of (seed, batch,
row).  One pricing runs on the calling thread: it simulates and prices its
batches one after another, in batch order.

The cases of one run share their simulation and their payoff pass.  A
pricing given the run's ``cache`` dict and its ``cases`` prices every case
that shares its paths, group by group; in a group's pass each batch is
simulated once, so the cases see common random numbers, and priced for the
whole group in one payoff pass: the gross amounts and their running sums
are made once per batch, and each case adds only its knockout times and
breach flows.  A group holds one payoff column per case, and its columns
fit ``_GROUP_BYTES`` (8 MiB): table1's 12 cases of 200k paths, 1.6 MB
each, are 3 groups of 4, which simulate its 13 batches 39 times instead
of 156 and make 39 payoff passes instead of 156.  With the control
variate on, the first group's pass makes the control column and its
closed-form mean, and the later groups reuse them.  The other cases'
results wait in the dict for their own calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .contract import TarnContract, batch_present_value, check_cases, sharing_cases
from .market import (
    MarketModel,
    check_count,
    check_fields,
    check_positive,
    discount_factor,
    integrated_variance,
    vanilla_price,
)

__all__ = [
    "BATCH_SIZE",
    "McConfig",
    "McResult",
    "mc_price",
]

# Fixed batch size; part of the reproducibility contract, never tune per run.
BATCH_SIZE = 16384
# The payoff columns of one group of cases fit this many bytes (cases *
# n_paths * 8).  Groups of 4 of table1's 1.6 MB columns raised its peak RSS
# by about 6%; one group of all 12 columns, 19 MB, by about 23%.
_GROUP_BYTES = 8 * 2**20


@dataclass(frozen=True)
class McConfig:
    """Simulation settings for one pricing run.

    ``cv_coefficient`` pins the control-variate coefficient (1.0 gives the
    plain subtract-the-control estimator); when None the coefficient is
    estimated from a pilot tranche of the first tenth of the paths and the
    price is estimated from the remaining paths only, which keeps the
    estimator unbiased.  A pinned coefficient needs ``control_variate``.
    """

    n_paths: int = 200_000
    seed: int = 12345
    substeps_per_interval: int = 1
    control_variate: bool = True
    cv_coefficient: float | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        for name, minimum in (("n_paths", 2), ("seed", 0), ("substeps_per_interval", 1)):
            check_count(getattr(self, name), name, minimum)
        if self.cv_coefficient is not None and not self.control_variate:
            raise ValueError("cv_coefficient is pinned but control_variate is off")


@dataclass(frozen=True)
class McResult:
    """Estimate, its standard error and control-variate diagnostics.

    ``cv_coefficient`` is None when no control variate was used.
    ``wall_time`` is the seconds of the pricing divided among the cases
    priced with it (see :func:`mc_price`): each reports an equal share, so
    a run's shares sum to its MC seconds.
    """

    price: float
    stderr: float
    cv_coefficient: float | None
    wall_time: float
    cv_downgraded: bool = False


def standard_error(samples) -> float:
    """Standard error of the mean: population standard deviation over sqrt(n).

    ``samples`` is the 1-D float array of at least two samples that
    :func:`mc_price` passes (``McConfig`` and its pilot check see to the
    count).  Two passes over the samples shifted by the first one: the
    shift keeps large offsets out of the sums, and constant samples give
    exactly zero.
    """
    n = samples.size
    shifted = samples - samples[0]
    shifted -= shifted.mean()
    return math.sqrt(float(shifted @ shifted) / n) / math.sqrt(n)


def simulate_fixing_paths(
    model: MarketModel,
    spot: float,
    fixing_times: tuple[float, ...],
    n_paths: int,
    rng: np.random.Generator,
    substeps_per_interval: int = 1,
) -> np.ndarray:
    """Sample ``n_paths`` joint fixing-date values of the FX rate.

    Exact lognormal transitions when the model admits them; otherwise
    log-Euler with ``substeps_per_interval`` steps per fixing interval,
    the volatility frozen at each substep's start state.
    Returns an array of shape (n_paths, len(fixing_times)): the transpose
    of a C-ordered fixing-major buffer, so each fixing's values are
    contiguous.  Exact transitions draw all the normals in one call, which
    reads the generator's stream in the same order as one draw of
    ``n_paths`` per fixing.
    """
    buf = np.empty((len(fixing_times), n_paths))
    log_s = math.log(spot)
    t_prev = 0.0
    if model.has_exact_transition:
        rng.standard_normal(out=buf)
        step = np.empty(n_paths)
        # log_s is log(spot), then the previous fixing's row of buf
        for k, t in enumerate(fixing_times):
            var = integrated_variance(model.vol, t_prev, t)
            drift = (
                model.domestic.integral(t_prev, t)
                - model.foreign.integral(t_prev, t)
                - 0.5 * var
            )
            buf[k] *= math.sqrt(var)
            buf[k] += np.add(log_s, drift, out=step)
            log_s = buf[k]
            t_prev = t
    else:
        log_s = np.full(n_paths, log_s)
        for k, t in enumerate(fixing_times):
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
            buf[k] = log_s
            t_prev = t
    return np.exp(buf, out=buf).T


def _control_values(paths, contract, discounts):
    """Discounted uncapped vanilla strip along each path (the control).

    ``contract.gross`` returns a C-ordered array whatever the layout of
    ``paths``, which fixes the product's summation order and so its bits.
    """
    return contract.gross(paths) @ discounts


def _groups(cases: tuple, n_paths: int) -> list:
    """``cases`` split in order into the fewest groups whose payoff columns
    fit ``_GROUP_BYTES``, with sizes that differ by at most one."""
    n_groups = -(-len(cases) // max(1, _GROUP_BYTES // (8 * n_paths)))
    bounds = [g * len(cases) // n_groups for g in range(n_groups + 1)]
    return [cases[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _estimate(payoffs, controls, control_mean, n_pilot, config):
    """(price, stderr, coefficient) of one case's payoff column.

    A price or standard error that is not finite raises ``ValueError``.
    """
    if controls is not None:
        if config.cv_coefficient is not None:
            lam = float(config.cv_coefficient)
        else:
            # the pilot's least-squares slope: covariance and variance of one ddof
            cov = np.cov(payoffs[:n_pilot], controls[:n_pilot])
            lam = float(cov[0, 1]) / float(cov[1, 1]) if cov[1, 1] > 0.0 else 0.0
        samples = payoffs[n_pilot:] - lam * (controls[n_pilot:] - control_mean)
    else:
        lam = None
        samples = payoffs
    price, stderr = float(samples.mean()), standard_error(samples)
    for name, value in (("price", price), ("standard error", stderr)):
        if not math.isfinite(value):
            raise ValueError(f"MC {name} is not finite ({value}): a path's present "
                             "value or control is a NaN or an infinity")
    return price, stderr, lam


def _price_group(group, model, config, spot, control):
    """Price ``group`` in one pass over the batches.

    Returns each case's (price, stderr, coefficient), or the exception its
    estimate raised, and the control: the control column and its
    closed-form mean, or None without the control variate.  A ``control``
    passed in is returned as it is; with the control variate on and
    ``control`` None, this pass makes it.
    """
    times = group[0].fixing_times
    discounts = np.array([discount_factor(model.domestic, 0.0, t) for t in times])
    use_cv = config.control_variate and model.has_exact_transition

    n = config.n_paths
    n_pilot = max(2, n // 10) if use_cv and config.cv_coefficient is None else 0
    if n - n_pilot < 2:
        raise ValueError(f"n_paths must leave at least 2 paths after the {n_pilot}-path "
                         f"control-variate pilot, got {n}")
    payoffs = np.empty((len(group), n))
    controls = np.empty(n) if use_cv and control is None else None
    base = np.random.Philox(config.seed)
    for b in range(-(-n // BATCH_SIZE)):
        # batch b - 1 stays alive while batch b is simulated: freed first,
        # its pages go back to the system and batch b faults them in again
        rows = slice(b * BATCH_SIZE, min((b + 1) * BATCH_SIZE, n))
        paths = simulate_fixing_paths(model, spot, times, rows.stop - rows.start,
                                      np.random.Generator(base.jumped(b)),
                                      config.substeps_per_interval)
        payoffs[:, rows] = batch_present_value(paths, group, discounts)
        if controls is not None:
            controls[rows] = _control_values(paths, group[0], discounts)

    if controls is not None:
        control = controls, sum(
            vanilla_price(spot, group[0].strike, group[0].beta, t,
                          model.domestic, model.foreign, model.vol)
            for t in times
        )
    controls, control_mean = control or (None, None)
    outcomes = []
    for column in payoffs:
        try:
            outcomes.append(_estimate(column, controls, control_mean, n_pilot, config))
        except ValueError as exc:  # its traceback would keep this frame's arrays
            outcomes.append(exc.with_traceback(None))
    return outcomes, control


def mc_price(
    contract: TarnContract,
    model: MarketModel,
    config: McConfig,
    spot: float,
    *,
    cache: dict | None = None,
    cases: tuple[TarnContract, ...] = (),
) -> McResult:
    """Estimate the note value by simulation.

    The control variate is the sum of the single-fixing vanilla flows, whose
    mean is known in closed form; it is only available under exact
    transitions and is silently downgraded (with a flag on the result) for
    local volatility models.

    ``cache`` is a dict the caller owns and ``cases`` the contracts of the
    run, ``contract`` among them.  Given both, a pricing prices every case
    that shares ``contract``'s paths and control column: the cases with its
    schedule, strike and direction, each once however often it is listed.
    They are split in order into the fewest groups whose payoff columns (8
    bytes a path and case) fit 8 MiB, with sizes that differ by at most
    one, and priced one group after another: in a group's pass each batch
    is simulated once and priced for every case of the group in one payoff
    pass.  The first pass makes the control column and its mean, and the
    later passes reuse them.  Each case reports an
    equal share of the call's seconds as its ``wall_time``.  The other
    cases' results, or the exceptions their estimates raised, are stored in
    the dict, keyed by the contract, model, spot and whole config, and
    their own calls return them (a stored exception is raised as a fresh
    one of its type and message).  The dict is not locked.  Without a
    dict, or with ``contract`` not in ``cases``, the case is priced alone,
    with its own control column.  Either way no more than two batches are
    alive at a time, and the estimate is the same bit for bit.

    Every batch is simulated and priced on the calling thread, in batch
    order.  A price or standard error that is not finite raises
    ``ValueError``.
    """
    started = time.perf_counter()
    check_positive(spot, "spot")
    check_cases(cases)
    if cache is None:  # no other case's result would be kept
        cache, cases = {}, ()
    result_key = ("mc.result", model, spot, config)
    if result_key + (contract,) not in cache:
        same, outcomes, control = sharing_cases(contract, cases), [], None
        for group in _groups(same, config.n_paths):
            estimates, control = _price_group(group, model, config, spot, control)
            outcomes += estimates
        share = (time.perf_counter() - started) / len(same)
        downgraded = config.control_variate and not model.has_exact_transition
        for case, outcome in zip(same, outcomes):
            if not isinstance(outcome, Exception):
                price, stderr, lam = outcome
                outcome = McResult(price=price, stderr=stderr, cv_coefficient=lam,
                                   wall_time=share, cv_downgraded=downgraded)
            cache[result_key + (case,)] = outcome
    outcome = cache[result_key + (contract,)]
    if isinstance(outcome, Exception):  # raised, it would hold the callers' frames
        raise type(outcome)(*outcome.args)
    return outcome
