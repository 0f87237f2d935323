"""Rates, discounting and volatility specifications used by both engines.

Rate curves and term-structure volatilities are piecewise constant so that
discount factors and integrated variances are exact; curve handling then
contributes nothing to the numerical error budget when the two engines are
compared.  Local volatility is a surface sampled on a rectangular mesh with
bilinear interpolation, clamped at the mesh edges.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr

__all__ = [
    "RateCurve",
    "ConstantVol",
    "TermStructureVol",
    "LocalVolSurface",
    "MarketModel",
    "ExactTransitionUnavailable",
    "vanilla_price",
]


class ExactTransitionUnavailable(ValueError):
    """No closed-form transition density exists for the given volatility."""


def _piecewise_integral(times, values, t0, t1):
    """Exact integral of a right-continuous step function over [t0, t1]."""
    total = 0.0
    n = len(times)
    for i in range(n):
        seg_lo = times[i]
        seg_hi = times[i + 1] if i + 1 < n else math.inf
        lo = max(seg_lo, t0)
        hi = min(seg_hi, t1)
        if hi > lo:
            total += values[i] * (hi - lo)
    return total


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant instantaneous rate r(t).

    ``times`` are the left endpoints of the pieces, starting at 0; the last
    piece extends indefinitely.  A flat curve is the one-piece case.
    """

    times: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.times) != len(self.rates) or not self.times:
            raise ValueError("times and rates must be nonempty and equal length")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite")
        if self.times[0] != 0.0:
            raise ValueError("first rate knot must be at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("rate knots must be strictly increasing")
        if not all(np.isfinite(r) for r in self.rates):
            raise ValueError("rates must be finite")

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        return cls((0.0,), (float(rate),))

    def rate_at(self, t: float) -> float:
        idx = bisect.bisect_right(self.times, t) - 1
        return self.rates[max(idx, 0)]

    def integral(self, t0: float, t1: float) -> float:
        """Exact ``int_{t0}^{t1} r(u) du``."""
        if t0 > t1:
            raise ValueError("integral requires t0 <= t1")
        return _piecewise_integral(self.times, self.rates, t0, t1)


def discount_factor(curve: RateCurve, t0: float, t1: float) -> float:
    """``exp(-int_{t0}^{t1} r(u) du)``, exact for the piecewise-constant curve."""
    if t0 < 0.0:
        raise ValueError("discounting requires t0 >= 0")
    return math.exp(-curve.integral(t0, t1))


@dataclass(frozen=True)
class ConstantVol:
    """Single volatility level."""

    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")

    def sigma_at(self, t: float) -> float:
        return self.sigma

    def max_sigma(self, horizon: float) -> float:
        return self.sigma


@dataclass(frozen=True)
class TermStructureVol:
    """Piecewise-constant sigma(t), same knot layout as :class:`RateCurve`."""

    times: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if len(self.times) != len(self.sigmas) or not self.times:
            raise ValueError("times and sigmas must be nonempty and equal length")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite")
        if self.times[0] != 0.0:
            raise ValueError("first volatility knot must be at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("volatility knots must be strictly increasing")
        if not all(s > 0.0 and np.isfinite(s) for s in self.sigmas):
            raise ValueError("sigmas must be positive and finite")

    def sigma_at(self, t: float) -> float:
        idx = bisect.bisect_right(self.times, t) - 1
        return self.sigmas[max(idx, 0)]

    def max_sigma(self, horizon: float) -> float:
        active = [s for knot, s in zip(self.times, self.sigmas) if knot < horizon]
        return max(active) if active else self.sigmas[0]


@dataclass(frozen=True, eq=False)
class LocalVolSurface:
    """sigma(S, t) sampled on a rectangular mesh, bilinear in between.

    Rows of ``values`` follow ``time_knots``, columns follow ``spot_knots``.
    Queries outside the mesh clamp to the nearest edge, which keeps the
    volatility bounded and positive at far grid boundaries.
    """

    time_knots: np.ndarray
    spot_knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        tk = np.asarray(self.time_knots, dtype=float)
        sk = np.asarray(self.spot_knots, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if tk.ndim != 1 or sk.ndim != 1 or vals.shape != (tk.size, sk.size):
            raise ValueError("values must have shape (len(time_knots), len(spot_knots))")
        if tk.size < 2 or sk.size < 2:
            raise ValueError("mesh needs at least two knots per axis")
        for arr, name in ((tk, "time_knots"), (sk, "spot_knots")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(tk) <= 0) or np.any(np.diff(sk) <= 0):
            raise ValueError("mesh knots must be strictly increasing")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("mesh volatilities must be positive and finite")
        for arr, name in ((tk, "time_knots"), (sk, "spot_knots"), (vals, "values")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_file(cls, path) -> "LocalVolSurface":
        """Load a plain-text matrix: first row spot knots, first column time
        knots, corner cell ignored, remaining cells the sigma values."""
        raw = np.loadtxt(path, dtype=float, ndmin=2)
        if raw.shape[0] < 3 or raw.shape[1] < 3:
            raise ValueError(f"{path}: surface file needs at least a 3x3 matrix")
        return cls(time_knots=raw[1:, 0], spot_knots=raw[0, 1:], values=raw[1:, 1:])

    def interpolate(self, spot, t: float):
        """Bilinear sigma at (spot, t); spot may be a scalar or an array."""
        s = np.clip(np.asarray(spot, dtype=float), self.spot_knots[0], self.spot_knots[-1])
        tq = min(max(float(t), self.time_knots[0]), self.time_knots[-1])
        i = np.searchsorted(self.time_knots, tq, side="right") - 1
        i = min(max(i, 0), self.time_knots.size - 2)
        j = np.searchsorted(self.spot_knots, s, side="right") - 1
        j = np.clip(j, 0, self.spot_knots.size - 2)
        wt = (tq - self.time_knots[i]) / (self.time_knots[i + 1] - self.time_knots[i])
        ws = (s - self.spot_knots[j]) / (self.spot_knots[j + 1] - self.spot_knots[j])
        lo = self.values[i, j] * (1.0 - ws) + self.values[i, j + 1] * ws
        hi = self.values[i + 1, j] * (1.0 - ws) + self.values[i + 1, j + 1] * ws
        out = lo * (1.0 - wt) + hi * wt
        return float(out) if np.isscalar(spot) else out

    def max_sigma(self, horizon: float) -> float:
        return float(self.values.max())


VolatilitySpec = ConstantVol | TermStructureVol | LocalVolSurface


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Domestic and foreign rate curves plus a volatility specification."""

    domestic: RateCurve
    foreign: RateCurve
    vol: VolatilitySpec

    @property
    def has_exact_transition(self) -> bool:
        """True when fixing-to-fixing transitions are lognormal in closed form."""
        return not isinstance(self.vol, LocalVolSurface)


def integrated_variance(vol: VolatilitySpec, t0: float, t1: float) -> float:
    """Exact ``int_{t0}^{t1} sigma(u)^2 du`` for flat or term-structure vol."""
    if t0 > t1:
        raise ValueError("integrated_variance requires t0 <= t1")
    if isinstance(vol, ConstantVol):
        return vol.sigma ** 2 * (t1 - t0)
    if isinstance(vol, TermStructureVol):
        return _piecewise_integral(vol.times, [s * s for s in vol.sigmas], t0, t1)
    raise ExactTransitionUnavailable(
        "exact transition unavailable: a local volatility surface has no "
        "closed-form integrated variance; simulate with Euler substeps instead"
    )


def check_spot(spot: float) -> None:
    """Reject a spot that is not positive and finite, naming it."""
    if not (spot > 0.0 and math.isfinite(spot)):
        raise ValueError(f"spot must be positive and finite, got {spot!r}")


def check_integer_fields(config) -> None:
    """Reject a bool or a non-integral value in any field of the dataclass
    ``config`` annotated ``int``, naming the field; a silent ``int()`` would
    truncate it.  The annotation is the string 'int' under postponed
    evaluation of annotations, else the type itself."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int) and (isinstance(value, bool)
                                or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


def vanilla_price(
    spot: float,
    strike: float,
    beta: int,
    expiry: float,
    domestic: RateCurve,
    foreign: RateCurve,
    vol: VolatilitySpec,
) -> float:
    """Lognormal price of the single flow ``beta*(S(T)-X)`` floored at zero.

    ``beta = +1`` is a call on the FX rate, ``beta = -1`` a put.  Needs a
    flat or term-structure volatility (total variance must be exact); used
    by the Monte Carlo engine as the control-variate mean and throughout
    the tests as a closed-form limit.
    """
    check_spot(spot)
    if not (strike > 0.0 and math.isfinite(strike)):
        raise ValueError(f"strike must be positive and finite, got {strike!r}")
    if not (expiry > 0.0 and math.isfinite(expiry)):
        raise ValueError(f"expiry must be positive and finite, got {expiry!r}")
    if beta not in (1, -1):
        raise ValueError("beta must be +1 or -1")
    variance = integrated_variance(vol, 0.0, expiry)
    df_d = discount_factor(domestic, 0.0, expiry)
    df_f = discount_factor(foreign, 0.0, expiry)
    forward = spot * df_f / df_d
    if variance == 0.0:
        return df_d * max(beta * (forward - strike), 0.0)
    sd = math.sqrt(variance)
    d1 = (math.log(forward / strike) + 0.5 * variance) / sd
    d2 = d1 - sd
    return df_d * beta * (forward * ndtr(beta * d1) - strike * ndtr(beta * d2))
