"""The package exports what a user prices with; engine steps stay in their
submodules."""

import pytest

import tarnpricer
from tarnpricer import contract, fd, market, mc

SUBMODULES = {"cli", "contract", "fd", "market", "mc"}

PUBLIC = {
    "KnockoutType", "TarnContract",
    "BoundaryKind", "ConvergenceStudy", "ErrorEstimate", "FdConfig", "PinPolicy",
    "PriceResult", "convergence_order", "estimate_error", "fd_price",
    "natural_cubic_spline",
    "ConstantVol", "ExactTransitionUnavailable", "LocalVolSurface", "MarketModel",
    "RateCurve", "TermStructureVol", "vanilla_price",
    "McConfig", "McResult", "mc_price",
}

INTERNAL = [
    (fd, "JumpPlan"), (fd, "apply_jump"), (fd, "theta_step"), (fd, "build_grid"),
    (fd, "FdGrid"), (fd, "tridiagonal_solve"), (fd, "coefficients_at"),
    (contract, "batch_present_value"), (contract, "fixing_flows"),
    (contract, "shared_terms"), (contract, "sharing_cases"), (contract, "check_cases"),
    (mc, "simulate_fixing_paths"), (mc, "standard_error"),
    (mc, "batch_present_value"),
    (market, "integrated_variance"), (market, "discount_factor"),
]


def test_package_exports_exactly_the_user_names():
    names = {n for n in vars(tarnpricer) if not n.startswith("_")} - SUBMODULES
    assert names == PUBLIC
    assert len(PUBLIC) == 22


@pytest.mark.parametrize("module, name", INTERNAL,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in INTERNAL])
def test_engine_internal_stays_in_its_submodule(module, name):
    assert hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(tarnpricer, name)
