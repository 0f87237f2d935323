"""Pricing of FX target accumulation redemption notes.

A lattice engine tracks one PDE solution per accrued-amount node and
applies spline-interpolated jump conditions at the fixing dates; a Monte
Carlo engine with a vanilla-strip control variate serves as the reference.
"""

from .contract import KnockoutType, TarnContract
from .fd import (
    BoundaryKind,
    ConvergenceStudy,
    ErrorEstimate,
    FdConfig,
    PinPolicy,
    PriceResult,
    convergence_order,
    estimate_error,
    fd_price,
    natural_cubic_spline,
)
from .market import (
    ConstantVol,
    ExactTransitionUnavailable,
    LocalVolSurface,
    MarketModel,
    RateCurve,
    TermStructureVol,
    vanilla_price,
)
from .mc import McConfig, McResult, mc_price

__version__ = "0.1.0"
