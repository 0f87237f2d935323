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
row), whichever thread simulates its batch.  A local-volatility path set
of more than one batch is simulated two batches at a time: the calling
thread simulates batch ``b`` while one helper thread, started for the
pricing and joined before it returns, simulates batch ``b + 1``.  The
Euler substeps' random draws and surface lookups run in numpy outside the
interpreter lock, so the two overlap.  Exact-transition batches, a few
short numpy calls each, are simulated one after another on the calling
thread: on two threads they measured slower, with more memory.  Payoffs
are priced on the calling thread in batch order, so prices and standard
errors do not depend on the dispatch.

The cases of one run share their simulation through one ``cache`` dict:
cases with the same model, spot, schedule, seed, path count and substeps
see the same paths.  A path set of at most ``_HELD_PATH_BYTES`` (8 MiB)
is simulated by the first pricing and held there batch by batch, so the
later pricings simulate nothing and start no thread.  A larger path set
is simulated again for every case, holding no more than a batch or two
at a time.  With the control variate on, the control column and its
closed-form mean are computed once per strike and direction.
"""

from __future__ import annotations

import contextvars
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .contract import TarnContract, batch_present_value
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
# A path set of at most this many bytes (n_paths * fixings * 8) is held in a
# run's cache and simulated once per run: local_vol's 50k x 12-fixing Euler
# set is 4.8 MB.  table1's and refine's 200k x 20-fixing set, 32 MB, is kept
# out by this budget: holding it raised their peak RSS from 72 to 100 MB.
_HELD_PATH_BYTES = 8 * 2**20


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


def mc_price(
    contract: TarnContract,
    model: MarketModel,
    config: McConfig,
    spot: float,
    *,
    cache: dict | None = None,
) -> McResult:
    """Estimate the note value by simulation.

    The control variate is the sum of the single-fixing vanilla flows, whose
    mean is known in closed form; it is only available under exact
    transitions and is silently downgraded (with a flag on the result) for
    local volatility models.  ``cache`` is a dict the caller owns:
    pricings passed the same dict reuse the control column with its mean
    and, when the path set is at most ``_HELD_PATH_BYTES``, every batch of
    it, each keyed by everything it depends on and held read-only; with
    no dict, a pricing holds one or two batches at a time.  Only
    the calling thread writes to it, and it is not locked.  The estimate
    is the same bit for bit with or without it.

    A local-volatility path set of more than one batch that is not held
    yet is simulated two batches at a time, on the calling thread and one
    helper thread that the call starts and joins; an exception raised in
    either reaches the caller.  A pricing whose batches are all held
    simulates nothing and starts no thread.  Every batch is priced on the
    calling thread, in batch order.  A price or standard error that is not
    finite raises ``ValueError``.
    """
    started = time.perf_counter()
    check_positive(spot, "spot")
    times = contract.fixing_times
    discounts = np.array(
        [discount_factor(model.domestic, 0.0, t) for t in times]
    )
    exact = model.has_exact_transition
    use_cv = config.control_variate and exact
    downgraded = config.control_variate and not exact

    n = config.n_paths
    n_pilot = max(2, n // 10) if use_cv and config.cv_coefficient is None else 0
    if n - n_pilot < 2:
        raise ValueError(f"n_paths must leave at least 2 paths after the {n_pilot}-path "
                         f"control-variate pilot, got {n}")
    # without the caller's dict no later pricing could read the paths, so
    # a pricing holds no more than a batch or two of them
    held = cache is not None and n * len(times) * 8 <= _HELD_PATH_BYTES
    cache = {} if cache is None else cache
    key = (model, spot, times, config.seed, n, config.substeps_per_interval)
    control_key = ("mc.controls",) + key + (contract.strike, contract.beta)
    payoffs = np.empty(n)
    controls = np.empty(n) if use_cv and control_key not in cache else None
    base = np.random.Philox(config.seed)
    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE

    def simulate(b):
        rng = np.random.Generator(base.jumped(b))
        return simulate_fixing_paths(model, spot, times, min(BATCH_SIZE, n - b * BATCH_SIZE),
                                     rng, config.substeps_per_interval)

    batch_keys = [("mc.paths", b) + key for b in range(n_batches)]

    def price_batch(b, paths):
        if held:  # on the calling thread only: the cache is not locked
            paths.setflags(write=False)
            cache[batch_keys[b]] = paths
        rows = slice(b * BATCH_SIZE, min((b + 1) * BATCH_SIZE, n))
        payoffs[rows] = batch_present_value(paths, contract, discounts)
        if controls is not None:
            controls[rows] = _control_values(paths, contract, discounts)

    stored = held and all(k in cache for k in batch_keys)
    if stored or exact or n_batches == 1:
        for b in range(n_batches):
            # batch b - 1 stays alive while batch b is simulated: freed first,
            # its pages go back to the system and batch b faults them in again
            paths = cache[batch_keys[b]] if stored else simulate(b)
            price_batch(b, paths)
    else:
        # leaving the block joins the helper, also when a batch raises; the
        # helper runs in a copy of the caller's context, so under the
        # caller's np.errstate
        with ThreadPoolExecutor(max_workers=1) as helper:
            for b in range(0, n_batches, 2):
                ahead = (helper.submit(contextvars.copy_context().run, simulate, b + 1)
                         if b + 1 < n_batches else None)
                price_batch(b, simulate(b))
                if ahead is not None:
                    price_batch(b + 1, ahead.result())

    if use_cv:
        if control_key not in cache:
            controls.setflags(write=False)
            cache[control_key] = controls, sum(
                vanilla_price(spot, contract.strike, contract.beta, t,
                              model.domestic, model.foreign, model.vol)
                for t in times
            )
        controls, control_mean = cache[control_key]
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
    return McResult(
        price=price,
        stderr=stderr,
        cv_coefficient=lam,
        wall_time=time.perf_counter() - started,
        cv_downgraded=downgraded,
    )
