"""Exact prices of two-fixing notes by quadrature: the reference the FD and
MC engines are tested against where neither is exact.

With two fixings and an exact lognormal transition (flat or term-structure
volatility, which enters only as each fixing interval's integrated
variance) the price is a one-dimensional integral over the first fixing's
spot S1.  Given S1, the
second fixing's expected flow is in closed form: with ``g = max(beta (S2
- K), 0)`` the gross amount and ``c = U - g(S1)`` the room left under the
target, it is ``E[g 1{g < c}]`` (no_gain), ``E[min(g, c)]`` (part_gain)
or ``E[g]`` (full_gain), each from lognormal vanilla moments (Garman &
Kohlhagen).  An extra payment is paid with each fixing the note lives
through, and under full_gain at the breach too: the second one adds
``e2 P(g < c)`` (no_gain) or ``e2`` (full_gain).  Under part_gain the
extra is scaled by ``c / g`` at the breach, which takes an inner
quadrature, so extras are priced under no_gain and full_gain only.  The
integrand is smooth between two breakpoints: the strike, where ``g(S1)``
has a kink, and the first fixing's breach spot ``K + beta U``, where the
note dies.  Each panel is one ``scipy.integrate.quad``
(QUADPACK) over the standard normal variate of ``log S1``.  Nothing of the
engines is used, only the model's curves.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.special import ndtr

from tarnpricer import KnockoutType, MarketModel, TarnContract
from tarnpricer.market import discount_factor, integrated_variance


def _vanilla(forward, strike, sd, beta):
    """``E[max(beta (S - strike), 0)]`` and ``P(beta (S - strike) > 0)`` for
    a lognormal S of mean ``forward`` and log standard deviation ``sd``."""
    if strike <= 0.0:  # a put struck at or below zero: never in the money
        return 0.0, 0.0
    d1 = (math.log(forward / strike) + 0.5 * sd * sd) / sd
    d2 = d1 - sd
    value = beta * (forward * ndtr(beta * d1) - strike * ndtr(beta * d2))
    return value, ndtr(beta * d2)


def _second_flow(contract, forward, sd, room):
    """The second fixing's expected flow, its extra payment included,
    undiscounted, for a note with ``room`` left under the target and the
    second spot lognormal of mean ``forward`` and log standard deviation
    ``sd``."""
    gross, _ = _vanilla(forward, contract.strike, sd, contract.beta)
    extra = contract.extra_payments[1]
    if contract.knockout is KnockoutType.FULL_GAIN:
        return gross + extra
    # E[max(g - c, 0)] and P(g > c): the vanilla struck at the breach spot
    above, breach = _vanilla(forward, contract.strike + contract.beta * room, sd,
                             contract.beta)
    capped = gross - above  # E[min(g, c)]
    if contract.knockout is KnockoutType.PART_GAIN:
        return capped
    return capped - room * breach + extra * (1.0 - breach)  # E[(g + e2) 1{g < c}]


def price(contract: TarnContract, model: MarketModel, spot: float) -> float:
    """The exact price of a two-fixing ``contract``, with extra payments
    unless it is part_gain, under an exact-transition ``model`` (flat or
    term-structure volatility), to about 1e-13 relative."""
    assert contract.num_fixings == 2
    assert contract.knockout is not KnockoutType.PART_GAIN or not any(contract.extra_payments)
    assert model.has_exact_transition
    t1, t2 = contract.fixing_times
    strike, target, beta = contract.strike, contract.target, contract.beta
    df1, df2 = (discount_factor(model.domestic, 0.0, t) for t in (t1, t2))

    def growth(a, b):
        return model.domestic.integral(a, b) - model.foreign.integral(a, b)

    sd1 = math.sqrt(integrated_variance(model.vol, 0.0, t1))
    sd2 = math.sqrt(integrated_variance(model.vol, t1, t2))
    mean1 = math.log(spot) + growth(0.0, t1) - 0.5 * sd1 * sd1
    carry = math.exp(growth(t1, t2))
    extra = contract.extra_payments[0]
    breach_pays = {KnockoutType.FULL_GAIN: None, KnockoutType.PART_GAIN: target,
                   KnockoutType.NO_GAIN: 0.0}[contract.knockout]

    def integrand(z):
        s1 = math.exp(mean1 + sd1 * z)
        gross = max(beta * (s1 - strike), 0.0)
        if gross >= target:  # the first fixing breaches
            value = df1 * (gross + extra if breach_pays is None else breach_pays)
        else:
            value = df1 * (gross + extra) + df2 * _second_flow(contract, s1 * carry, sd2,
                                                               target - gross)
        return value * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    breaks = sorted((math.log(s) - mean1) / sd1
                    for s in (strike, strike + beta * target) if s > 0.0)
    edges = [-math.inf] + breaks + [math.inf]
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))
