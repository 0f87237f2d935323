"""Pricing of FX target accumulation redemption notes.

A lattice engine tracks one PDE solution per accrued-amount node and
applies spline-interpolated jump conditions at the fixing dates; a Monte
Carlo engine with a vanilla-strip control variate serves as the reference.
"""

from .contract import (
    KnockoutType,
    TarnContract,
    batch_present_value,
    fixing_flows,
)
from .fd import (
    BoundaryKind,
    ConvergenceStudy,
    ErrorEstimate,
    FdConfig,
    FdGrid,
    PinPolicy,
    JumpPlan,
    PriceResult,
    apply_jump,
    build_grid,
    convergence_order,
    estimate_error,
    fd_price,
    natural_cubic_spline,
    theta_step,
    tridiagonal_solve,
)
from .market import (
    ConstantVol,
    ExactTransitionUnavailable,
    LocalVolSurface,
    MarketModel,
    RateCurve,
    TermStructureVol,
    discount_factor,
    integrated_variance,
    vanilla_price,
)
from .mc import (
    McConfig,
    McResult,
    mc_price,
    simulate_fixing_paths,
    standard_error,
)

__version__ = "0.1.0"
