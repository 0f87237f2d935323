"""Scalar, one-state-at-a-time cash-flow rules: the oracle the engines'
vectorized kernel ``tarnpricer.contract.fixing_flows`` is tested against."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from tarnpricer import KnockoutType, TarnContract


class CashFlowOutcome(NamedTuple):
    """Result of evaluating one fixing from a live state."""

    payment: float
    extra_payment: float
    terminated: bool


def raw_cash_flow(spot: float, contract: TarnContract) -> float:
    """Gross fixing amount ``beta * (spot - strike)``, floored at zero.

    This is the amount before any target/knockout logic is applied.
    """
    return max(contract.beta * (spot - contract.strike), 0.0)


def fixing_outcome(
    spot: float,
    accumulated: float,
    fixing_index: int,
    contract: TarnContract,
    allow_at_target: bool = False,
) -> CashFlowOutcome:
    """Cash flows of fixing ``fixing_index`` given the accrued amount so far.

    ``accumulated`` must describe a live state, i.e. lie in ``[0, target)``.
    States at or past the target are dead and have no cash flows; they are
    rejected rather than guessed at.  The lattice engine needs the limit of
    the live value as the accrued amount approaches the target from below,
    so ``allow_at_target=True`` additionally admits ``accumulated == target``,
    where a breach fires only for a strictly positive gross amount (a zero
    gross amount leaves the limiting state untouched, alive).
    """
    target = contract.target
    if accumulated < 0.0:
        raise ValueError("accumulated amount must be nonnegative")
    limit_ok = allow_at_target and accumulated == target
    if accumulated >= target and not limit_ok:
        raise ValueError(
            "accumulated amount is at or past the target; the note is dead "
            "and has no further cash flows"
        )
    if not 1 <= fixing_index <= contract.num_fixings:
        raise ValueError(f"fixing index {fixing_index} outside 1..{contract.num_fixings}")

    gross = raw_cash_flow(spot, contract)
    extra = contract.extra_payments[fixing_index - 1]
    breached = accumulated + gross >= target and gross > 0.0
    if not breached:
        return CashFlowOutcome(gross, extra, False)

    kind = contract.knockout
    if kind is KnockoutType.FULL_GAIN:
        return CashFlowOutcome(gross, extra, True)
    if kind is KnockoutType.NO_GAIN:
        return CashFlowOutcome(0.0, 0.0, True)
    # Part gain: pay the shortfall to the target.  Algebraically this is
    # weight * gross with weight = (target - accumulated) / gross; the
    # subtraction form avoids the division (gross > 0 on a breach anyway).
    payment = target - accumulated
    weight = payment / gross
    return CashFlowOutcome(payment, weight * extra, True)


def path_present_value(
    spot_path: Sequence[float],
    contract: TarnContract,
    discounts: Sequence[float],
) -> float:
    """Discounted value of one realized fixing-date path.

    ``spot_path`` and ``discounts`` hold one entry per fixing date.  The
    accrued amount starts at zero; once a fixing terminates the note, later
    fixings contribute nothing.
    """
    k_total = contract.num_fixings
    if len(spot_path) != k_total or len(discounts) != k_total:
        raise ValueError("spot_path and discounts must have one entry per fixing")
    accumulated = 0.0
    value = 0.0
    for k in range(1, k_total + 1):
        outcome = fixing_outcome(spot_path[k - 1], accumulated, k, contract)
        value += discounts[k - 1] * (outcome.payment + outcome.extra_payment)
        accumulated += outcome.payment
        if outcome.terminated:
            break
    return value
