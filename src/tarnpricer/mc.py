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
that shares its paths in one pass over the batches: each batch is
simulated once, so the cases see common random numbers, and priced for
all of them in one payoff pass, which makes the gross amounts and their
running sums once, each distinct target's knockout times once, and each
case only its breach-fixing flows.  No payoff column is held.  Each
batch's samples are reduced per case to a count, a mean and a sum of
squared deviations, and merged into the case's running totals (Chan,
Golub & LeVeque, 1983); only the control-variate pilot's values are
kept until it fixes the coefficient.  The other cases' results wait in
the dict for their own calls.
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
# The values a pass holds across its batches, its cases' pilot values and
# one batch's values (cases * (n_pilot + batch rows) * 8 bytes), fit this
# many bytes: table1's 12 cases take 3.5 MB.
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

    ``samples`` is a 1-D float array of at least two samples.  Two passes
    over the samples shifted by the first one: the shift keeps large
    offsets out of the sums, and constant samples give exactly zero.  This
    is the definition :func:`mc_price` reproduces, up to rounding, from its
    merged batch moments.
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


def _groups(cases: tuple, held: int) -> list:
    """``cases`` split in order into the fewest groups whose ``held`` values
    a case fit ``_GROUP_BYTES``, with sizes that differ by at most one."""
    n_groups = -(-len(cases) // max(1, _GROUP_BYTES // (8 * held)))
    bounds = [g * len(cases) // n_groups for g in range(n_groups + 1)]
    return [cases[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _merged(moments, samples):
    """``moments`` (the count, and each row's mean and sum of squared
    deviations) merged with the next (rows, n) block of ``samples`` by the
    pairwise update of Chan, Golub & LeVeque.  Each row is reduced on its
    own, as :func:`standard_error` reduces a column, so constant samples
    give exactly their value and a zero sum."""
    count, mean, m2 = moments
    first = samples[:, :1]
    shifted = samples - first
    offset = shifted.mean(axis=1)
    shifted -= offset[:, None]
    n = samples.shape[1]
    total = count + n
    delta = first[:, 0] + offset - mean
    return (total, mean + delta * (n / total),
            m2 + np.square(shifted, out=shifted).sum(axis=1)
            + delta * delta * (count * n / total))


def _price_group(group, model, config, spot, control_mean, n_pilot):
    """Each case of ``group``'s (price, stderr, coefficient) from one pass
    over the batches: the first ``n_pilot`` paths are held until they fit
    the coefficients, and every later path's sample is merged into its
    case's moments.  ``control_mean`` is None without the control variate.
    """
    times = group[0].fixing_times
    discounts = np.array([discount_factor(model.domestic, 0.0, t) for t in times])
    pilot_values, pilot_controls = np.empty((len(group), n_pilot)), np.empty(n_pilot)
    pinned = control_mean is not None and not n_pilot
    lam = np.full(len(group), float(config.cv_coefficient)) if pinned else None
    moments = 0, np.zeros(len(group)), np.zeros(len(group))
    base = np.random.Philox(config.seed)
    for start in range(0, config.n_paths, BATCH_SIZE):
        # the previous batch stays alive while this one is simulated: freed
        # first, its pages go back to the system and this batch faults them in
        rows = min(BATCH_SIZE, config.n_paths - start)
        paths = simulate_fixing_paths(model, spot, times, rows,
                                      np.random.Generator(base.jumped(start // BATCH_SIZE)),
                                      config.substeps_per_interval)
        values = batch_present_value(paths, group, discounts)
        if control_mean is not None:
            controls = _control_values(paths, group[0], discounts)
        k = min(max(n_pilot - start, 0), rows)  # this batch's pilot paths
        if k:
            pilot_values[:, start:start + k] = values[:, :k]
            pilot_controls[start:start + k] = controls[:k]
            if start + k == n_pilot:
                # each pilot's least-squares slope: covariance and variance of one ddof
                covs = [np.cov(row, pilot_controls) for row in pilot_values]
                lam = np.array([c[0, 1] / c[1, 1] if c[1, 1] > 0.0 else 0.0 for c in covs])
        if k < rows:
            samples = values[:, k:]
            if lam is not None:
                samples = samples - lam[:, None] * (controls[k:] - control_mean)
            moments = _merged(moments, samples)
    count, mean, m2 = moments
    stderr = np.sqrt(m2 / count) / math.sqrt(count)
    return list(zip(mean.tolist(), stderr.tolist(),
                    [None] * len(group) if lam is None else lam.tolist()))


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
    that shares ``contract``'s paths and control (the cases with its
    schedule, strike and direction, each once however often it is listed)
    in one pass over the batches.  Across the pass a case holds only its
    pilot values and one batch's values, 8 bytes each; cases whose values
    exceed 8 MiB are split in order into the fewest groups that fit, with
    sizes that differ by at most one, a pass each.  Each case reports an
    equal share of the call's seconds as its ``wall_time``.  Every case's
    result, a failing case's too, is stored in the dict, keyed by the
    contract, model, spot and whole config, and the case's own call
    returns it.  The dict is not locked.  Without a dict, or with
    ``contract`` not in ``cases``, the case is priced alone.  Either way no
    more than two batches are alive at a time, and the estimate is the same
    bit for bit.

    A price or standard error that is not finite is never returned: the
    call for that case raises ``ValueError``, naming the price first.
    """
    started = time.perf_counter()
    check_positive(spot, "spot")
    check_cases(cases)
    if cache is None:  # no other case's result would be kept
        cache, cases = {}, ()
    result_key = ("mc.result", model, spot, config)
    if result_key + (contract,) not in cache:
        n = config.n_paths
        use_cv = config.control_variate and model.has_exact_transition
        n_pilot = max(2, n // 10) if use_cv and config.cv_coefficient is None else 0
        if n - n_pilot < 2:
            raise ValueError(f"n_paths must leave at least 2 paths after the {n_pilot}-path "
                             f"control-variate pilot, got {n}")
        control_mean = sum(
            vanilla_price(spot, contract.strike, contract.beta, t,
                          model.domestic, model.foreign, model.vol)
            for t in contract.fixing_times
        ) if use_cv else None
        same, estimates = sharing_cases(contract, cases), []
        for group in _groups(same, n_pilot + min(n, BATCH_SIZE)):
            estimates += _price_group(group, model, config, spot, control_mean, n_pilot)
        share = (time.perf_counter() - started) / len(same)
        downgraded = config.control_variate and not use_cv
        for case, (price, stderr, lam) in zip(same, estimates):
            cache[result_key + (case,)] = McResult(
                price=price, stderr=stderr, cv_coefficient=lam, wall_time=share,
                cv_downgraded=downgraded)
    result = cache[result_key + (contract,)]
    for name, value in (("price", result.price), ("standard error", result.stderr)):
        if not math.isfinite(value):
            raise ValueError(f"MC {name} is not finite ({value}): a path's "
                             "present value or control is a NaN or an infinity")
    return result
