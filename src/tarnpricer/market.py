"""Rates, discounting and volatility specifications used by both engines.

Rate curves and term-structure volatilities are piecewise constant so that
discount factors and integrated variances are exact; curve handling then
contributes nothing to the numerical error budget when the two engines are
compared.  Local volatility is a surface sampled on a rectangular mesh with
bilinear interpolation, clamped at the mesh edges.

Every constructor and entry point checks its input by the one rule here:
:func:`check_positive`, :func:`check_count`, :func:`check_beta`,
:func:`check_fields`, ``_check_pieces``.
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


def _check_pieces(curve, values_name: str, knot_word: str, positive: bool) -> None:
    """Check a step function's ``times`` and ``values_name``, its knots named ``knot_word``."""
    check_fields(curve)
    times, values = curve.times, getattr(curve, values_name)
    if len(times) != len(values) or not times:
        raise ValueError(f"times and {values_name} must be nonempty and equal length")
    if not all(math.isfinite(t) for t in times):
        raise ValueError("times must be finite")
    if times[0] != 0.0:
        raise ValueError(f"first {knot_word} knot must be at t = 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{knot_word} knots must be strictly increasing")
    if positive:
        for v in values:
            check_positive(v, values_name)
    elif not all(math.isfinite(v) for v in values):
        raise ValueError(f"{values_name} must be finite")


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant instantaneous rate r(t).

    ``times`` are the left endpoints of the pieces, starting at 0; the last
    piece extends indefinitely.  A flat curve is the one-piece case.
    """

    times: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_pieces(self, "rates", "rate", positive=False)

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
    if t0 < 0.0:
        raise ValueError("discounting requires t0 >= 0")
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
        _check_pieces(self, "sigmas", "volatility", positive=True)

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
            if raw.dtype.kind not in "iuf":  # a bool or a string converts silently
                raise ValueError(f"{name} must hold real numbers, got dtype {raw.dtype}")
            arrays.append(np.array(raw, dtype=float))  # a copy, frozen below
        tk, sk, vals = arrays
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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_float(value) -> bool:
    """A real number, no bool, that a float can hold (not ``10**400``)."""
    if not _is_real(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _shown(value) -> str:
    """``repr(value)``, which raises for an int of more than 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return "a value with an int too long to print"


def check_positive(value, name: str) -> float:
    """``value`` as a float if it is a positive, finite real and no bool."""
    if not (_is_float(value) and value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")
    return float(value)


def check_count(value, name: str) -> int:
    """``value`` as an int if it is an integer of at least 1, no bool, that
    a float can hold."""
    if not (isinstance(value, numbers.Integral) and _is_float(value) and value >= 1):
        raise ValueError(f"{name} must be an integer of at least 1 that a float "
                         f"can hold, got {_shown(value)}")
    return int(value)


def check_beta(beta) -> int:
    """``beta`` as an int if it is +1 or -1 and no bool (before int() truncates)."""
    if isinstance(beta, bool) or beta not in (1, -1):
        raise ValueError(f"beta must be +1 or -1, got {_shown(beta)}")
    return int(beta)


def check_fields(config, names=None) -> None:
    """Reject a field of the dataclass ``config`` that holds the wrong kind
    of value, naming the field (as ``names`` maps it, if given).

    A field annotated ``int`` holds an integral value that is not a bool (a
    silent ``int()`` would truncate it), ``bool`` a bool, ``float`` a real
    number that is not a bool and that a float can hold,
    ``tuple[float, ...]`` such numbers (then stored as a tuple of floats),
    and one whose default is an enum member a member of that enum.  An
    annotation ending ``| None`` also allows None.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        full = f.type.__name__ if isinstance(f.type, type) else str(f.type)
        spec = full.removesuffix(" | None")
        if value is None and spec != full:
            continue
        if spec == "float":
            kind, ok = "a real number", _is_float(value)
        elif spec == "tuple[float, ...]":
            kind = "a sequence of real numbers"
            with contextlib.suppress(TypeError):  # a generator is read once
                value = value if isinstance(value, str) else tuple(value)
            if ok := isinstance(value, tuple) and all(map(_is_float, value)):
                object.__setattr__(config, f.name, tuple(map(float, value)))
        elif spec == "int":
            kind, ok = "an integer", isinstance(value, numbers.Integral) and _is_real(value)
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
