"""Rates, discounting and volatility specifications used by both engines.

Rate curves and term-structure volatilities are piecewise constant so that
discount factors and integrated variances are exact; curve handling then
contributes nothing to the numerical error budget when the two engines are
compared.  Local volatility is a surface sampled on a rectangular mesh with
bilinear interpolation, clamped at the mesh edges.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
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


def _piece_at(times, values, t):
    """The value at ``t`` of a right-continuous step function (flat before it)."""
    return values[max(bisect.bisect_right(times, t) - 1, 0)]


def _check_pieces(curve, values_name: str, positive: bool) -> None:
    """Check a step function's ``times`` and ``values_name``."""
    check_fields(curve)
    times, values = curve.times, getattr(curve, values_name)
    if len(times) != len(values) or not times:
        raise ValueError(f"times and {values_name} must be nonempty and equal length")
    if times[0] != 0.0:
        raise ValueError(f"times must start at t = 0, got {times[0]}")
    check_increasing(times, "times")
    if positive:
        for v in values:
            check_positive(v, values_name)


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant instantaneous rate r(t).

    ``times`` are the left endpoints of the pieces, starting at 0; the last
    piece extends indefinitely.  A flat curve is the one-piece case.
    """

    times: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_pieces(self, "rates", positive=False)

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        return cls((0.0,), (rate,))

    def rate_at(self, t: float) -> float:
        return _piece_at(self.times, self.rates, t)

    def integral(self, t0: float, t1: float) -> float:
        """Exact ``int_{t0}^{t1} r(u) du``."""
        if t0 > t1:
            raise ValueError("integral requires t0 <= t1")
        return _piecewise_integral(self.times, self.rates, t0, t1)


def discount_factor(curve: RateCurve, t0: float, t1: float) -> float:
    """``exp(-int_{t0}^{t1} r(u) du)``, exact for the piecewise-constant curve."""
    return math.exp(-curve.integral(t0, t1))


@dataclass(frozen=True)
class ConstantVol:
    """Single volatility level."""

    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", check_positive(self.sigma, "sigma"))

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
        _check_pieces(self, "sigmas", positive=True)

    def sigma_at(self, t: float) -> float:
        return _piece_at(self.times, self.sigmas, t)

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
        arrays = []
        for name in ("time_knots", "spot_knots", "values"):
            raw = np.asarray(getattr(self, name))
            # a bool or a string would convert silently
            if raw.dtype.kind not in "iuf" or not np.isfinite(raw).all():
                raise ValueError(f"{name} must hold finite real numbers, "
                                 f"got {_shown(raw.tolist())}")
            arrays.append(np.array(raw, dtype=float))  # a copy, frozen below
        tk, sk, vals = arrays
        if tk.ndim != 1 or sk.ndim != 1 or vals.shape != (tk.size, sk.size):
            raise ValueError("values must have shape (len(time_knots), len(spot_knots))")
        if tk.size < 2 or sk.size < 2:
            raise ValueError("time_knots and spot_knots must hold two knots or more")
        check_increasing(tk, "time_knots")
        check_increasing(sk, "spot_knots")
        check_positive(float(vals.min()), "values")
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
        """Bilinear sigma at (spot, t); spot may be a scalar or an array.

        The two time rows around ``t`` are blended once into one row of
        sigmas at the spot knots, then ``np.interp`` reads that row at every
        spot.  Linear in time and then linear in spot is the bilinear value;
        queries beyond any edge clamp to it.
        """
        tq = min(max(float(t), self.time_knots[0]), self.time_knots[-1])
        i = np.searchsorted(self.time_knots, tq, side="right") - 1
        i = min(max(i, 0), self.time_knots.size - 2)
        wt = (tq - self.time_knots[i]) / (self.time_knots[i + 1] - self.time_knots[i])
        row = self.values[i] * (1.0 - wt) + self.values[i + 1] * wt
        out = np.interp(spot, self.spot_knots, row)
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

    def __post_init__(self) -> None:
        for name, kinds in (("domestic", (RateCurve,)), ("foreign", (RateCurve,)),
                            ("vol", (ConstantVol, TermStructureVol, LocalVolSurface))):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise ValueError(f"{name} must be a {expected}, got {value!r}")

    @property
    def has_exact_transition(self) -> bool:
        """True when fixing-to-fixing transitions are lognormal in closed form."""
        return not isinstance(self.vol, LocalVolSurface)


def integrated_variance(vol: VolatilitySpec, t0: float, t1: float) -> float:
    """Exact ``int_{t0}^{t1} sigma(u)^2 du`` for flat or term-structure vol."""
    if isinstance(vol, ConstantVol):
        return vol.sigma ** 2 * (t1 - t0)
    if isinstance(vol, TermStructureVol):
        return _piecewise_integral(vol.times, [s * s for s in vol.sigmas], t0, t1)
    raise ExactTransitionUnavailable(
        "exact transition unavailable: a local volatility surface has no "
        "closed-form integrated variance; simulate with Euler substeps instead"
    )


def _is_float(value) -> bool:
    """A real number, no bool, that a float can hold (not ``10**400``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_finite(value) -> bool:
    """A real number, no bool, that is finite as a float."""
    return _is_float(value) and math.isfinite(value)


def _is_int(value) -> bool:
    """An integer, no bool, that a float can hold."""
    return isinstance(value, numbers.Integral) and _is_float(value)


def _shown(value) -> str:
    """``repr(value)``, which raises for an int of more than 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return "a value with an int too long to print"


def check_positive(value, name: str) -> float:
    """``value`` as a float if it is a positive, finite real and no bool."""
    if not (_is_finite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")
    return float(value)


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int if it is an integer of at least ``minimum``, no
    bool, that a float can hold."""
    if not (_is_int(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum} that a "
                         f"float can hold, got {_shown(value)}")
    return int(value)


def check_increasing(values, name: str) -> None:
    """Reject a sequence of knots ``values`` that is not strictly increasing."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {_shown(values)}")


def check_beta(beta) -> int:
    """``beta`` as an int if it is +1 or -1 and no bool (before int() truncates)."""
    if isinstance(beta, bool) or beta not in (1, -1):
        raise ValueError(f"beta must be +1 or -1, got {_shown(beta)}")
    return int(beta)


def check_fields(config, names=None) -> None:
    """Reject a field of the dataclass ``config`` that holds the wrong kind
    of value, naming the field (as ``names`` maps it, if given).

    A field annotated ``int`` holds an integral value that is not a bool (a
    silent ``int()`` would truncate it) and that a float can hold, ``bool``
    a bool, ``float`` a real number that is not a bool and is finite as a
    float, ``tuple[float, ...]`` such numbers (then stored as a tuple of
    floats), and one whose default is an enum member a member of that enum.
    An annotation ending ``| None`` also allows None.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        full = f.type.__name__ if isinstance(f.type, type) else str(f.type)
        spec = full.removesuffix(" | None")
        if value is None and spec != full:
            continue
        if spec == "float":
            kind, ok = "a finite real number", _is_finite(value)
        elif spec == "tuple[float, ...]":
            kind = "a sequence of finite real numbers"
            with contextlib.suppress(TypeError):  # a generator is read once
                value = value if isinstance(value, str) else tuple(value)
            if ok := isinstance(value, tuple) and all(map(_is_finite, value)):
                object.__setattr__(config, f.name, tuple(map(float, value)))
        elif spec == "int":
            kind, ok = "an integer that a float can hold", _is_int(value)
        elif spec == "bool":
            kind, ok = "a bool", isinstance(value, bool)
        elif isinstance(f.default, enum.Enum):
            kind = f"a {type(f.default).__name__}"
            ok = isinstance(value, type(f.default))
        else:
            continue
        if not ok:
            name = (names or {}).get(f.name, f.name)
            raise ValueError(f"{name} must be {kind}, got {_shown(value)}")


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
    for value, name in ((spot, "spot"), (strike, "strike"), (expiry, "expiry")):
        check_positive(value, name)
    beta = check_beta(beta)
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
