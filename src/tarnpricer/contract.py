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
    if kind is KnockoutType.NO_GAIN:
        return np.where(dead, 0.0, gross), np.where(dead, 0.0, extra), dead
    # Part gain pays the shortfall to the target, and the extra scaled by
    # shortfall / gross (gross > 0 on a breach).
    shortfall = target - accrued
    safe_gross = np.where(gross > 0.0, gross, 1.0)
    return (np.where(dead, shortfall, gross),
            np.where(dead, (shortfall / safe_gross) * extra, extra), dead)


def batch_present_value(
    spot_paths: np.ndarray,
    cases: tuple,
    discounts: np.ndarray,
) -> np.ndarray:
    """Discounted value of each row of ``spot_paths`` (one column per
    fixing) to each of ``cases``: row i of the result is case i's.

    ``cases`` is a nonempty tuple of contracts with equal
    :data:`shared_terms`, and ``discounts`` holds one discount factor per
    fixing.  A path's value to a case is a function of its knockout time:
    the accrued amount starts at zero and grows by every gross amount until
    the breach fixing, ``tau``, the count of fixings whose cumulative gross
    amount stays below the case's target (monotone, so those are the first
    ``tau``).  The fixings before ``tau`` pay their gross amount and extra;
    the breach fixing pays what :func:`fixing_flows` gives it, and later
    fixings pay nothing.  Terms are added in fixing order, so each row
    matches a fixing-by-fixing walk bit for bit.  The gross amounts and
    their running sums are the same for every case, so they are made once
    for all, and the discounted running sums of the paid flows once per
    distinct ``extra_payments``.  The work runs on ``spot_paths.T``, so a
    fixing-major buffer passed as its transpose is read row by row.
    """
    if not cases or any(shared_terms(c) != shared_terms(cases[0]) for c in cases):
        raise ValueError("cases must be a nonempty tuple of contracts with equal "
                         "fixing_times, strike and beta")
    first = cases[0]
    paths = np.asarray(spot_paths, dtype=float)
    k_total = first.num_fixings
    if paths.ndim != 2 or paths.shape[1] != k_total:
        raise ValueError("spot_paths must have shape (n_paths, num_fixings)")
    discounts = np.asarray(discounts, dtype=float)
    if discounts.shape != (k_total,):
        raise ValueError(f"discounts must have shape ({k_total},), "
                         f"got {discounts.shape}")

    accrued = first.gross(paths.T)  # row k: accrued through fixing k + 1
    for k in range(1, k_total):
        accrued[k] += accrued[k - 1]

    # Each case keeps only its tau while the (K, n) arrays are made, in the
    # narrowest type that holds it: summed in that type, the mask takes half
    # the time of count_nonzero, which sums in intp.
    count_type = np.min_scalar_type(k_total)

    def breaches(tau):
        """The paths that breach, and their breach fixings, 0-based."""
        hit = np.flatnonzero(tau < k_total)
        return hit, tau[hit].astype(np.intp)

    taus, accrued_at = [], []
    for case in cases:
        taus.append((accrued < case.target).sum(axis=0, dtype=count_type))
        hit, at = breaches(taus[-1])
        accrued_at.append(np.where(at > 0, accrued[at - 1, hit], 0.0))
    # Free the accrued rows before the gross amounts are taken again: with
    # two (K, n) temporaries live, the allocator hands about 5 MB a batch
    # back to the system and faults it in again, which costs more.
    del accrued

    gross = first.gross(paths.T)
    breach_values = []  # each case's discounted flows at its breach fixings
    for case, tau in zip(cases, taus):
        hit, at = breaches(tau)
        extras = np.array(case.extra_payments)
        payment, extra, _ = fixing_flows(gross[at, hit], accrued_at.pop(0), extras[at],
                                         case.knockout, case.target)
        breach_values.append(discounts[at] * (payment + extra))

    value = np.zeros((len(cases), paths.shape[0]))  # a walk's sum starts at +0.0
    columns = np.arange(paths.shape[0])
    sharing = {}  # extra_payments -> the indices of the cases with them
    for i, case in enumerate(cases):
        sharing.setdefault(case.extra_payments, []).append(i)
    for count, (extras, indices) in enumerate(sharing.items(), 1):
        # Discounted flows summed in fixing order, in place: row k then holds
        # what the fixings through k + 1 pay a path still alive after them.
        # The last extras take the gross amounts' own buffer.
        paid = gross if count == len(sharing) else gross.copy()
        paid += np.array(extras)[:, None]
        paid *= discounts[:, None]
        for k in range(1, k_total):
            paid[k] += paid[k - 1]
        for i in indices:
            tau = taus[i].astype(np.intp)
            value[i] += np.where(tau > 0, paid[tau - 1, columns], 0.0)
            value[i, np.flatnonzero(tau < k_total)] += breach_values[i]
    return value
