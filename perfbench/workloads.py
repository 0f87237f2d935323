"""Workload inputs and output checks for the tarnpricer benchmark.

A workload is a sequence of passes.  A pass is a list of jobs; each job is
one run configuration that the benchmark hands to ``tarnpricer.cli.run``
and whose records it serializes with ``tarnpricer.cli.emit``, exactly as
the ``price`` command does.  Pass ``i`` of a workload is a pure function of
``(seed, i)``, so the same seed always gives the same inputs and no pass
repeats the inputs of another (a later result cache cannot profit from
benchmark repetition that real users would not have).

Each workload also carries its correctness check.  A check receives one job
and the records parsed back from the emitted text and returns the keys
``(engine, knockout, target)`` of the engine calls that failed it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tarnpricer import cli
from tarnpricer.contract import KnockoutType
from tarnpricer.fd import FdConfig
from tarnpricer.market import (
    LocalVolSurface,
    MarketModel,
    RateCurve,
    TermStructureVol,
    vanilla_price,
)
from tarnpricer.mc import McConfig

# Dominance order: a note that pays less on the knockout fixing is worth less.
KNOCKOUTS = (KnockoutType.NO_GAIN, KnockoutType.PART_GAIN, KnockoutType.FULL_GAIN)

# The paper's 12-case table: (knockout, target) -> FD price, MC price and the
# MC standard error as a percentage of the MC price.
PUBLISHED = {
    ("no_gain", 0.3): (0.1955, 0.1955, 0.10),
    ("no_gain", 0.5): (0.3286, 0.3288, 0.10),
    ("no_gain", 0.7): (0.4505, 0.4507, 0.10),
    ("no_gain", 0.9): (0.5633, 0.5633, 0.10),
    ("part_gain", 0.3): (0.2445, 0.2446, 0.08),
    ("part_gain", 0.5): (0.3818, 0.3819, 0.09),
    ("part_gain", 0.7): (0.5061, 0.5063, 0.10),
    ("part_gain", 0.9): (0.6200, 0.6203, 0.10),
    ("full_gain", 0.3): (0.2978, 0.2979, 0.08),
    ("full_gain", 0.5): (0.4386, 0.4389, 0.09),
    ("full_gain", 0.7): (0.5644, 0.5646, 0.10),
    ("full_gain", 0.9): (0.6790, 0.6792, 0.10),
}

TINY_FD = FdConfig(spot_nodes=40, accumulation_nodes=8, time_steps=40)
TINY_PATHS = 2048


@dataclass(frozen=True)
class Job:
    """One ``cli.run`` input plus what its check needs besides the records.

    ``strip`` is the discounted uncapped vanilla strip of the job's
    contract (an upper bound on every knockout variant), when it has a
    closed form.
    """

    config: cli.RunConfig
    strip: float | None = None


@dataclass(frozen=True)
class Workload:
    """``pass_s`` is about one pass's seconds, probes included, on the host
    ``baseline.json`` was taken on; a run makes ``seconds // pass_s`` passes.
    ``probe_grid`` is the (spot, accumulation) node counts the speed probe
    solves on, and ``probe_ref_s`` the probe's median seconds on that host.
    """

    name: str
    make_pass: Callable[[int, int, bool], list[Job]]  # (seed, pass index, tiny)
    check: Callable[[Job, list], set]
    pass_s: float
    probe_grid: tuple[int, int] = (500, 100)
    probe_ref_s: float = 0.012


def _key(rec) -> tuple:
    return (rec.engine, rec.knockout, rec.target)


def _ok(rec) -> bool:
    return rec.status.startswith("ok") and math.isfinite(rec.price)


def _prices(records) -> dict:
    """(engine, knockout, target) -> record, for the successful engine calls."""
    return {_key(r): r for r in records if r.engine in ("fd", "mc") and _ok(r)}


def _dominance_failures(by_key, engine, target) -> set:
    """Keys of an engine's cases that break no_gain <= part_gain <= full_gain."""
    tol = 1e-10 * target
    keys = [(engine, ko.value, target) for ko in KNOCKOUTS]
    bad = set()
    for lo, hi in zip(keys, keys[1:]):
        if lo in by_key and hi in by_key and by_key[lo].price > by_key[hi].price + tol:
            bad |= {lo, hi}
    return bad


def _cross_failures(by_key, knockout, target, stderrs) -> set:
    """Both engines' keys when |FD - MC| exceeds ``stderrs`` MC standard errors."""
    fd_key, mc_key = ("fd", knockout, target), ("mc", knockout, target)
    if fd_key not in by_key or mc_key not in by_key:
        return set()
    fd, mc = by_key[fd_key], by_key[mc_key]
    if abs(fd.price - mc.price) > stderrs * mc.error_metric:
        return {fd_key, mc_key}
    return set()


# --- table1: the paper's run -------------------------------------------------

def table1_pass(seed: int, index: int, tiny: bool) -> list[Job]:
    config = cli.preset_table1()
    if tiny:
        config = dataclasses.replace(
            config, targets=(0.3,), fd=TINY_FD,
            mc=dataclasses.replace(config.mc, n_paths=TINY_PATHS))
    return [Job(config)]


def check_published(job: Job, records) -> set:
    """Acceptance criteria 1-3 on every case of the job.

    FD within 0.2% of the published FD price; MC within 3 published
    standard errors of the published MC price with stderr/price in
    [0.04%, 0.20%]; |FD - MC| within 3 MC standard errors.
    """
    by_key = _prices(records)
    bad = set()
    for (engine, knockout, target), rec in by_key.items():
        fd_ref, mc_ref, se_pct = PUBLISHED[(knockout, target)]
        if engine == "fd":
            if abs(rec.price - fd_ref) > 0.002 * fd_ref:
                bad.add((engine, knockout, target))
        elif (abs(rec.price - mc_ref) > 3.0 * mc_ref * se_pct / 100.0
              or not 0.0004 <= rec.error_metric / rec.price <= 0.0020):
            bad.add((engine, knockout, target))
        if engine == "fd":
            bad |= _cross_failures(by_key, knockout, target, 3.0)
    return bad


# --- refine: the doubled-grid error estimate at large M and J ---------------

def refine_pass(seed: int, index: int, tiny: bool) -> list[Job]:
    """The refined no_gain U=0.3 case, then MC alone on the U=0.5 cases.

    The MC-only job gives mc_price_s_p50 four samples per pass instead of
    one; it prices cases the refined job does not.
    """
    (job,) = table1_pass(seed, index, tiny)
    config = dataclasses.replace(
        job.config, targets=(0.3,), knockouts=(KnockoutType.NO_GAIN,), refine=True)
    mc_only = dataclasses.replace(job.config, targets=(0.5,), engines=("mc",))
    return [Job(config), Job(mc_only)]


def check_refine(job: Job, records) -> set:
    """Criteria 1-3 on the case plus a refined relative error of at most 0.1%."""
    bad = check_published(job, records)
    for key, rec in _prices(records).items():
        if key[0] == "fd" and not rec.error_metric <= 0.001:
            bad.add(key)
    return bad


# --- sweep: many small pricings in the shape of criterion 7 -----------------

SWEEP_FIXINGS = tuple(range(4, 13))  # one contract per count in every pass


def _piecewise(rng, times, low, high):
    """Two or three pieces with knots strictly inside fixing intervals."""
    edges = (0.0,) + times
    picks = sorted(rng.choice(len(times), size=int(rng.integers(1, 3)), replace=False))
    knots = [0.0] + [edges[i] + float(rng.uniform(0.2, 0.8)) * (edges[i + 1] - edges[i])
                     for i in picks]
    values = [float(rng.uniform(low, high)) for _ in knots]
    return tuple(knots), tuple(values)


def sweep_pass(seed: int, index: int, tiny: bool) -> list[Job]:
    rng = np.random.default_rng([seed, index])
    fd_cfg = TINY_FD if tiny else FdConfig(spot_nodes=200, accumulation_nodes=50,
                                           time_steps=200)
    jobs = []
    for n, k in enumerate(rng.permutation(SWEEP_FIXINGS)):
        k = int(k)
        beta = 1 if n % 2 == 0 else -1
        strike = float(rng.uniform(0.85, 1.15))
        spot = float(rng.uniform(0.9, 1.1))
        spacing = float(rng.uniform(0.04, 0.12))
        times = tuple(spacing * (j + 1) for j in range(k))
        model = MarketModel(
            domestic=RateCurve(*_piecewise(rng, times, 0.0, 0.05)),
            foreign=RateCurve.flat(float(rng.uniform(0.0, 0.04))),
            vol=TermStructureVol(*_piecewise(rng, times, 0.1, 0.35)),
        )
        strip = sum(vanilla_price(spot, strike, beta, t, model.domestic,
                                  model.foreign, model.vol) for t in times)
        target = max(float(rng.uniform(0.3, 0.8)) * strip, 0.005)
        config = cli.RunConfig(
            strike=strike, beta=beta, targets=(target,), knockouts=KNOCKOUTS,
            fixing_times=times, extra_payments=None, model=model, spot=spot,
            engines=("fd", "mc"), fd=fd_cfg,
            mc=McConfig(n_paths=TINY_PATHS if tiny else 16384,
                        seed=int(rng.integers(2**31))),
        )
        jobs.append(Job(config, strip))
    return jobs


def check_sweep(job: Job, records) -> set:
    """Dominance per engine within 1e-10*U, and 0 <= price <= vanilla strip."""
    by_key = _prices(records)
    (target,) = job.config.targets
    bad = _dominance_failures(by_key, "fd", target) | _dominance_failures(by_key, "mc", target)
    for key, rec in by_key.items():
        if not 0.0 <= rec.price <= job.strip:
            bad.add(key)
    return bad


# --- local_vol: the bypass workload -----------------------------------------

def _smile_surface(rng, spot) -> LocalVolSurface:
    """Seeded smile: level, skew and curvature in log-moneyness, mild term slope."""
    time_knots = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    spot_knots = spot * np.exp(np.linspace(-0.6, 0.6, 13))
    level = rng.uniform(0.12, 0.22)
    skew = rng.uniform(-0.12, 0.04)
    curve = rng.uniform(0.1, 0.4)
    slope = rng.uniform(-0.02, 0.02)
    z = np.log(spot_knots / spot)
    values = level + skew * z + curve * z * z + slope * time_knots[:, None]
    return LocalVolSurface(time_knots, spot_knots, np.maximum(values, 0.05))


# Resolutions at which both engines' discretization errors are small beside
# the check's 4 MC standard errors (50k paths, about 0.3% of the price).  At
# 400 spot nodes FD was off by up to 9 standard errors on no_gain and
# full_gain: their payoff jumps where the note knocks out, an O(dx) error,
# and pinning a spot within 3% of the strike stretches dx up to twice the
# nominal step.  At 4 Euler substeps MC was low by 0.8 standard errors on
# average.  At these settings FD stays within 1.1 standard errors of FD at
# 2000x80x400 and MC's bias is about 0.2 (perfbench/README.md, "Resolution").
LOCAL_VOL_FD = FdConfig(spot_nodes=1000, accumulation_nodes=80, time_steps=200)
LOCAL_VOL_SUBSTEPS = 16


def local_vol_pass(seed: int, index: int, tiny: bool) -> list[Job]:
    rng = np.random.default_rng([seed, index])
    spot = float(rng.uniform(0.95, 1.05))
    strike = float(spot * rng.uniform(0.97, 1.03))
    times = tuple(30.0 * (j + 1) / 365.0 for j in range(12))
    model = MarketModel(
        domestic=RateCurve.flat(float(rng.uniform(0.01, 0.04))),
        foreign=RateCurve.flat(float(rng.uniform(0.005, 0.03))),
        vol=_smile_surface(rng, spot),
    )
    low = float(rng.uniform(0.1, 0.2))
    config = cli.RunConfig(
        strike=strike, beta=1, targets=(low, 2.0 * low), knockouts=KNOCKOUTS,
        fixing_times=times, extra_payments=None, model=model, spot=spot,
        engines=("fd", "mc"),
        fd=TINY_FD if tiny else LOCAL_VOL_FD,
        mc=McConfig(n_paths=TINY_PATHS if tiny else 50_000,
                    seed=int(rng.integers(2**31)),
                    substeps_per_interval=LOCAL_VOL_SUBSTEPS),
    )
    return [Job(config)]


def check_local_vol(job: Job, records) -> set:
    """CV reported as disabled, dominance per engine and target, |FD-MC| <= 4 stderr."""
    by_key = _prices(records)
    bad = {key for key, rec in by_key.items()
           if key[0] == "mc" and "control variate disabled" not in rec.status}
    for target in job.config.targets:
        bad |= _dominance_failures(by_key, "fd", target)
        bad |= _dominance_failures(by_key, "mc", target)
        for ko in KNOCKOUTS:
            bad |= _cross_failures(by_key, ko.value, target, 4.0)
    return bad


def _expected(job: Job) -> set:
    c = job.config
    return {(e, ko.value, t) for e in c.engines for ko in c.knockouts for t in c.targets}


def expected_calls(job: Job) -> int:
    """Engine calls the front end makes for the job: one per engine and case."""
    return len(_expected(job))


def failed_keys(job: Job, records, check) -> set:
    """Engine calls with no record, an error, a non-finite price or a failed check."""
    engine_records = [r for r in records if r.engine in ("fd", "mc")]
    bad = _expected(job) - {_key(r) for r in engine_records}
    bad |= {_key(r) for r in engine_records if not _ok(r)}
    return bad | check(job, records)


WORKLOADS = {
    w.name: w for w in (
        Workload("table1", table1_pass, check_published, 18.0),
        # refine's 1000x200 arrays spill out of the caches a 500x100 probe
        # runs in, so its speed follows memory contention that only a probe
        # on its own grid sees.
        Workload("refine", refine_pass, check_refine, 11.0, (1000, 200), 0.029),
        Workload("sweep", sweep_pass, check_sweep, 3.6),
        # As refine's, local_vol's probe solves on the workload's own FD grid.
        Workload("local_vol", local_vol_pass, check_local_vol, 11.0, (1000, 80), 0.015),
    )
}
