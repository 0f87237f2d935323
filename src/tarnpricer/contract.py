"""Contract terms and cash-flow rules for target accumulation notes.

A target accumulation redemption note (TARN) on an FX rate pays
``beta * (S - X)`` at each fixing date whenever that amount is positive
(``beta = +1`` buys the foreign currency, ``beta = -1`` sells it).
Payments accrue toward a target level ``U``.  The first fixing whose gross
payment would lift the accrued total to or past the target knocks the note
out; the knockout type decides how much of that final payment is made.
All amounts are per unit of notional foreign currency.

Both pricing engines take every fixing's cash flows from one kernel,
:func:`fixing_flows`: Monte Carlo on its simulated paths, the lattice on
its (accumulation x spot) nodes.  Their results can therefore differ only
by numerical method, never by payoff convention.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .market import _shown, check_beta, check_fields, check_increasing, check_positive

__all__ = [
    "KnockoutType",
    "TarnContract",
]


class KnockoutType(enum.Enum):
    """Treatment of the payment that would breach the target.

    The breach test always uses the gross amount: the first fixing whose
    gross payment would lift the accrued total to or past the target knocks
    the note out, whatever the type.  The type only decides what that last
    fixing pays.  FULL_GAIN pays it in full, so the total paid may end
    above the target.  PART_GAIN trims it so the total lands on the target
    exactly.  NO_GAIN cancels it entirely, so the total always ends
    strictly below the target.
    """

    FULL_GAIN = "full_gain"
    NO_GAIN = "no_gain"
    PART_GAIN = "part_gain"


@dataclass(frozen=True)
class TarnContract:
    """Terms of one note.  Immutable, shareable across concurrent pricings.

    ``fixing_times`` are year fractions from the valuation date, strictly
    increasing and positive.  ``extra_payments`` holds one amount per
    fixing paid alongside the regular flow; it is subject to the same
    knockout weighting but never counts toward the accrued total.  It is
    stored as one float per fixing, all zeros when none are given, so a
    contract given none equals one given zeros.  Every rejection message
    starts with the name of the offending field.
    """

    strike: float
    target: float
    beta: int
    fixing_times: tuple[float, ...]
    knockout: KnockoutType
    extra_payments: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", check_beta(self.beta))
        check_fields(self)
        object.__setattr__(self, "strike", check_positive(self.strike, "strike"))
        object.__setattr__(self, "target", check_positive(self.target, "target"))
        if not isinstance(self.knockout, KnockoutType):
            raise ValueError(f"knockout must be a KnockoutType, got {self.knockout!r}")
        if not self.fixing_times:
            raise ValueError("fixing_times must hold at least one date")
        check_positive(self.fixing_times[0], "fixing_times")
        check_increasing(self.fixing_times, "fixing_times")
        if self.extra_payments is not None and len(self.extra_payments) != self.num_fixings:
            raise ValueError(
                f"extra_payments must have exactly {self.num_fixings} entries "
                f"to match the fixing schedule, got {len(self.extra_payments)}"
            )
        object.__setattr__(self, "extra_payments",
                           self.extra_payments or (0.0,) * self.num_fixings)

    @property
    def num_fixings(self) -> int:
        return len(self.fixing_times)

    @property
    def maturity(self) -> float:
        return self.fixing_times[-1]

    def gross(self, spots):
        """Gross fixing amount ``beta * (spot - strike)``, floored at zero.

        Returns a new C-ordered array of the shape of ``spots``, built in
        place in that one allocation.
        """
        amount = np.subtract(spots, self.strike, out=np.empty(np.shape(spots)))
        amount *= self.beta
        return np.maximum(amount, 0.0, out=amount)


# The terms on which the cases of a run share work: cases with equal terms
# have one spot grid and set of interval maps in the lattice, and one set of
# paths and control values in Monte Carlo.
shared_terms = operator.attrgetter("fixing_times", "strike", "beta")


def check_cases(cases) -> None:
    """Reject ``cases`` unless it is a tuple of :class:`TarnContract`."""
    if type(cases) is not tuple or not all(isinstance(c, TarnContract) for c in cases):
        raise ValueError(f"cases must be a tuple of TarnContract, got {_shown(cases)}")


def sharing_cases(contract: TarnContract, cases: tuple) -> tuple:
    """The cases with ``contract``'s :data:`shared_terms`, in order, each
    once; ``(contract,)`` when it is not in ``cases``."""
    if contract not in cases:
        return (contract,)
    terms = shared_terms(contract)
    return tuple(dict.fromkeys(c for c in cases if shared_terms(c) == terms))


def fixing_flows(gross, accrued, extra, kind: KnockoutType, target: float):
    """Cash flows of one fixing: ``(payment, extra, dead)``.

    ``gross`` is the float array of the fixing's gross amounts (see
    :meth:`TarnContract.gross`), ``accrued`` the amount paid so far, which
    broadcasts against ``gross``, and ``extra`` the fixing's extra payment,
    which broadcasts to their shape.  A fixing breaches
    when ``accrued + gross >= target`` with ``gross > 0``; ``dead`` marks
    the breaches, and ``kind`` decides what a breach pays (the part-gain
    extra is scaled by the same ratio as its payment).  The accrued amount
    grows by ``payment``.  Monte Carlo calls this on live path states, in
    ``[0, target)``; the lattice also calls it at the top accumulation
    node, ``accrued == target``, the limit of a live state from below,
    where only a strictly positive gross amount breaches.  The outputs have
    the broadcast shape and may be read-only views of the inputs.
    """
    dead = (accrued + gross >= target) & (gross > 0.0)
    if kind is KnockoutType.FULL_GAIN:
        return (np.broadcast_to(gross, dead.shape),
                np.broadcast_to(extra, dead.shape), dead)
    payment, breach_extra = breach_flows(gross, target - accrued, extra, kind)
    return np.where(dead, payment, gross), np.where(dead, breach_extra, extra), dead


def breach_flows(gross, room, extra, kind: KnockoutType):
    """What a breaching fixing pays: ``(payment, extra)`` for the gross
    amount ``gross`` with ``room = target - accrued`` left under the target
    and the fixing's extra payment ``extra``, all broadcasting.  Full gain
    pays both in full, no gain neither, and part gain the room, with the
    extra scaled by ``room / gross``, or by ``room`` where ``gross`` is
    zero, as it can be only with no room left.  :func:`fixing_flows` pays
    this on its breaches; the lattice also pays it on the breached side of
    a spot cell that the breach spot crosses."""
    if kind is KnockoutType.FULL_GAIN:
        return gross, extra
    if kind is KnockoutType.NO_GAIN:
        return 0.0, 0.0
    safe_gross = np.where(gross > 0.0, gross, 1.0)
    return room, (room / safe_gross) * extra


def batch_present_value(
    spot_paths: np.ndarray,
    cases: tuple,
    discounts: np.ndarray,
) -> np.ndarray:
    """Discounted value of each row of ``spot_paths`` (one column per
    fixing) to each of ``cases``: row i of the result is case i's.

    :func:`~tarnpricer.mc._price_group`, the one caller, passes a float
    array of shape (n_paths, K), a nonempty tuple of contracts with equal
    :data:`shared_terms` and K fixings, and one discount factor per fixing,
    so none of this is checked here.  A path's value to a case is a
    function of its knockout time: the accrued amount starts at zero and
    grows by every gross amount until the breach fixing, ``tau``, the count
    of fixings whose cumulative gross amount stays below the case's target
    (monotone, so those are the first ``tau``).  The fixings before ``tau``
    pay their gross amount and extra; the breach fixing pays what
    :func:`fixing_flows` gives it, and later fixings pay nothing.  Terms
    are added in fixing order, so each row matches a fixing-by-fixing walk
    bit for bit.  Each quantity is made once for all the cases it depends
    on: the gross amounts and their running sums once; per distinct
    target, ``tau``, the breaching paths and their breach fixings, the
    amount accrued before those and the gross amounts at them; per
    distinct ``extra_payments``, the discounted running sums of the paid
    flows, and per (target, extras) their value at ``tau - 1``.  A case
    makes only its breach flows.  The work runs on ``spot_paths.T``, so a
    fixing-major buffer passed as its transpose is read row by row.
    """
    first = cases[0]
    k_total = first.num_fixings
    accrued = first.gross(spot_paths.T)  # row k: accrued through fixing k + 1
    for k in range(1, k_total):
        accrued[k] += accrued[k - 1]

    # Each target keeps its tau in the narrowest type that holds it: the mask
    # sums in that type in half the time of count_nonzero, which sums in intp.
    count_type = np.min_scalar_type(k_total)
    knockouts = {}  # target -> tau, breaching paths, breach fixings, accrued before
    for target in dict.fromkeys(case.target for case in cases):
        tau = (accrued < target).sum(axis=0, dtype=count_type)
        hit = np.flatnonzero(tau < k_total)
        at = tau[hit].astype(np.intp)
        knockouts[target] = tau, hit, at, np.where(at > 0, accrued[at - 1, hit], 0.0)
    # Free the accrued rows before the gross amounts are taken again: with
    # two (K, n) temporaries live, the allocator hands about 5 MB a batch
    # back to the system and faults it in again, which costs more.
    del accrued

    gross = first.gross(spot_paths.T)
    breach_gross = {target: gross[at, hit]  # gathered before paid overwrites gross
                    for target, (_, hit, at, _) in knockouts.items()}
    value = np.zeros((len(cases), spot_paths.shape[0]))  # a walk's sum starts at +0.0
    columns = np.arange(spot_paths.shape[0])
    sharing = {}  # extra_payments -> target -> the indices of the cases with both
    for i, case in enumerate(cases):
        sharing.setdefault(case.extra_payments, {}).setdefault(case.target, []).append(i)
    for count, (extra_payments, targets) in enumerate(sharing.items(), 1):
        extras = np.array(extra_payments)
        # Discounted flows summed in fixing order, in place: row k then holds
        # what the fixings through k + 1 pay a path still alive after them.
        # The last extras take the gross amounts' own buffer.
        paid = gross if count == len(sharing) else gross.copy()
        paid += extras[:, None]
        paid *= discounts[:, None]
        for k in range(1, k_total):
            paid[k] += paid[k - 1]
        for target, indices in targets.items():
            tau, hit, at, before = knockouts[target]
            gross_at, extras_at = breach_gross[target], extras[at]
            tau = tau.astype(np.intp)  # so that tau - 1 does not wrap
            survived = np.where(tau > 0, paid[tau - 1, columns], 0.0)
            for i in indices:
                payment, extra, _ = fixing_flows(gross_at, before, extras_at,
                                                 cases[i].knockout, target)
                value[i] += survived
                value[i, hit] += discounts[at] * (payment + extra)
    return value
