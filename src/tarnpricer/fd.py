"""Finite difference engine for the accumulating knockout note.

The solver tracks one one-dimensional PDE solution per node of an auxiliary
grid in the accrued payment amount.  Between fixing dates each tracked
solution obeys the usual log-spot pricing PDE and is marched backward with
a theta scheme.  A step is one tridiagonal solve for all rows: the boundary
closure, made once per pricing (:func:`_closure`), is substituted into rows
1 and M-2, and the end values are set from it after the solve.  Under local
volatility a step is symmetrized and solved by one direct call of LAPACK
``ptsv`` (:func:`_symmetric_step`) where its cell Peclet numbers are below
1 and it steps 4 rows or more.  Every other tridiagonal system, a step's
and a spline's, is one LAPACK band array solved by one direct call of
``gtsv`` (:func:`_solve_bands`), without ``scipy.linalg.solve_banded``'s
per-call checks; so no solve rejects a NaN or an infinity, and
:func:`fd_price` instead refuses to return a non-finite price.  At a
fixing date the tracked solutions exchange
information through a jump condition: for every spot node where the fixing
pays less than the target, ``0 < gross < U``, the post-fixing values across
the accumulation grid are interpolated with a natural cubic spline at the
amount the fixing shifts the state to, giving the continuation value, and
the fixing's cash flow is added on top.  The other spot nodes need no
spline: where the gross amount is zero the state does not move, and where
it reaches the target every state knocks out. After the first fixing only
the zero-accrual solution remains relevant and is marched down to the
valuation date.  The shift is applied forward, from the pre-fixing amount
at a grid node to the (generally off-grid) post-fixing amount, which can
pass the target: that is how the knockout enters the lattice.  The fixing's
cash flows come from :func:`tarnpricer.contract.fixing_flows`, the kernel
Monte Carlo uses too. A fixing enters its jump only through its extra
payment, which is the amount times a per-cell factor, so a pricing builds
everything in the jump that does not depend on the lattice values (the cash
flows, the spot nodes that are splined, and where and with which weights
each of their shifted amounts is read on its spline) once as a
:class:`JumpPlan` and reuses it at every fixing; per fixing only the spline
system is solved and read.

Between fixings every tracked row is marched by the same operator, made
once per time level as its bands (:func:`coefficients_at`).  When the
bands are scalars (flat or term-structure volatility), an interval's
whole march is one affine map ``row -> row @ P + p0`` on the spot axis,
so the engine builds that map once and then applies it to all rows with
a single matrix product.  An interval is made once, as its runs of
identical steps in order (start-up steps and volatility or rate knots
start new runs), each run keyed by what makes its steps equal: the
interval's step length, theta and the operator bands of the step's two
levels.  A long run's map is its one-step map, got by one
:func:`theta_step` on identity rows and one zero row, raised to the
run's length by repeated squaring and composed onto the map so far; a
short run, such as a start-up step or the step across a knot, costs no
more to march than to power and is marched onto the map so far instead.
Intervals with equal run keys and lengths share one map.  A map
is built only when that costs less than stepping the rows that pass
through its intervals, in this pricing and the other cases of its run on
its schedule, strike and direction: both costs are estimated in seconds
from per-step and per-product constants measured on a 2-core Xeon.
Otherwise the rows are stepped, each step with its own length.
Every interval's runs and map or None are one ``"fd.intervals"`` entry
of a ``cache`` dict, keyed by the call's inputs less the target and the
knockout type, which neither reads; so the cases of a run, passed one
dict and the run's ``cases`` as with :func:`~tarnpricer.mc.mc_price`,
make them once.  That dict is the engine's only cache: no memo outlives
it.  Local volatility has per-node bands that change every step;
it is marched step by step and holds no entry.  So a pricing is one
backward loop: at each fixing a jump, then the interval's map applied or
its steps marched.

A march (:func:`_march`) steps its rows in two (J, M) buffers that it
swaps, each step solved in place in the one that does not hold its
input.  A step makes its explicit side once, before it picks its solve.
Under local volatility that side is carried to the next step, which
makes its own from it and the solved level in three passes instead of
the five of the three-band stencil (:func:`theta_step`).
"""

from __future__ import annotations

import enum
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv as _gtsv
from scipy.linalg.lapack import dptsv as _ptsv

from .contract import TarnContract, check_cases, fixing_flows, shared_terms, sharing_cases
from .market import MarketModel, check_count, check_fields, check_positive

__all__ = [
    "PinPolicy",
    "BoundaryKind",
    "FdConfig",
    "PriceResult",
    "ErrorEstimate",
    "ConvergenceStudy",
    "ZeroPivotError",
    "natural_cubic_spline",
    "fd_price",
    "estimate_error",
    "convergence_order",
]


class PinPolicy(enum.Enum):
    """Which critical prices are forced onto spot-grid nodes."""

    STRIKE_AND_SPOT = "strike_and_spot"
    STRIKE_ONLY_THEN_INTERPOLATE = "strike_only_then_interpolate"


class BoundaryKind(enum.Enum):
    """Boundary closure of the spatial operator.

    ZERO_GAMMA imposes a vanishing second difference of the solution at both
    ends, which is contract independent as long as the payoff is at most
    linear in the underlying far out.  DIRICHLET_NEUMANN_BY_DIRECTION uses
    the classic call conditions (zero value below, unit slope in the spot
    above) for ``beta = +1`` and the mirrored put conditions for
    ``beta = -1``.
    """

    ZERO_GAMMA = "zero_gamma"
    DIRICHLET_NEUMANN_BY_DIRECTION = "dirichlet_neumann_by_direction"


@dataclass(frozen=True)
class FdConfig:
    """Resolution and scheme settings for one pricing run."""

    spot_nodes: int = 500
    accumulation_nodes: int = 100
    time_steps: int = 500
    theta: float = 0.5
    domain_width_sigmas: float = 3.5
    pin_policy: PinPolicy = PinPolicy.STRIKE_AND_SPOT
    boundary: BoundaryKind = BoundaryKind.ZERO_GAMMA
    implicit_startup_steps: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for name, minimum in (("spot_nodes", 3), ("accumulation_nodes", 4),
                              ("time_steps", 1), ("implicit_startup_steps", 0)):
            check_count(getattr(self, name), name, minimum)
        if self.boundary is BoundaryKind.ZERO_GAMMA and self.spot_nodes < 4:
            # both zero-gamma end rows would be one equation: singular steps
            raise ValueError("spot_nodes must be at least 4 with the "
                             "zero_gamma boundary")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        check_positive(self.domain_width_sigmas, "domain_width_sigmas")


@dataclass(frozen=True, eq=False)
class FdGrid:
    """Realized grids for one pricing run.

    ``spot_index`` is the node of the initial spot, or None when the spot is
    off-grid and the price is read by a one-off spline interpolation in the
    log-spot.  The strike is always a node.
    """

    log_spots: np.ndarray
    spots: np.ndarray
    dx: float
    spot_index: int | None
    accum_nodes: np.ndarray
    h: float
    steps_per_interval: tuple[int, ...]
    fixing_times: tuple[float, ...]

    def __post_init__(self) -> None:
        self.log_spots.setflags(write=False)
        self.spots.setflags(write=False)
        self.accum_nodes.setflags(write=False)


@dataclass(frozen=True)
class PriceResult:
    """Price per unit notional plus run diagnostics."""

    price: float
    wall_time: float
    grid_shape: tuple[int, int, int]


@dataclass(frozen=True)
class ErrorEstimate:
    """Relative error proxy from doubling every grid dimension."""

    relative_error: float
    coarse: PriceResult
    refined: PriceResult


@dataclass(frozen=True)
class ConvergenceStudy:
    """Observed order from three nested grids (1x, 2x, 4x)."""

    order: float
    results: tuple[PriceResult, PriceResult, PriceResult]


class ZeroPivotError(ValueError):
    """A linear solve hit a zero pivot; the message names the row."""


def _solve_bands(ab, rhs, overwrite_rhs=False):
    """Solve the tridiagonal system ``ab`` (``ab[1 + i - j, j] = a[i, j]``,
    overwritten) for ``rhs``, (n,) or (n, k), by LAPACK ``gtsv``.

    Every FD tridiagonal solve comes here but the symmetric steps of
    :func:`_symmetric_step`.  LAPACK is called directly:
    ``scipy.linalg.solve_banded((1, 1), ...)`` ends in the same ``gtsv``
    call, bit for bit, but its batching, validation and finiteness check
    cost three times the solve itself at 200 nodes.  ``rhs`` is solved in
    place when ``overwrite_rhs`` is set and it is Fortran-contiguous.  A
    non-finite entry is not checked for here; :func:`fd_price` refuses a
    non-finite price instead.
    """
    # overwrite_dl, overwrite_d, overwrite_du and overwrite_b, positional:
    # keywords cost f2py about 1 us of a 6 us call
    *_, x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, True, True, True,
                        overwrite_rhs)
    if info > 0:
        raise ZeroPivotError(f"zero pivot at row {info - 1} of the tridiagonal system")
    return x


# perfbench times the spline solves by this name, apart from theta_step's;
# ROADMAP's "Align perfbench with today's engine" and "Phase timings owned
# by the engines" each free it
tridiagonal_solve = _solve_bands


def _spline_second_derivs(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivatives of natural cubic splines, one per column.

    ``values`` has shape (J, M): each column holds the data of one spline on
    a uniform grid of spacing ``h``.  Natural end conditions set the second
    derivative to zero at both ends; one tridiagonal solve covers all
    columns.
    """
    j_nodes = values.shape[0]
    rhs = np.zeros_like(values)
    inner = rhs[1:-1]  # 6 (v[j+1] - 2 v[j] + v[j-1]) / h^2, built in place
    np.multiply(values[1:-1], 2.0, out=inner)
    np.subtract(values[2:], inner, out=inner)
    inner += values[:-2]
    inner *= 6.0
    inner /= h * h
    ab = np.ones((3, j_nodes))  # diagonal 4, off-diagonals 1, identity end rows
    ab[1, 1:-1] = 4.0
    ab[0, 1] = ab[2, -2] = 0.0
    return tridiagonal_solve(ab, rhs)


def _spline_reads(x0, h, queries, j_nodes):
    """Where per-column splines are read, and with which weights.

    ``queries`` has shape (Q, M), entry (q, m) to be read on column m of a
    (J, M) node array, and lies inside the node range.  Returns
    ``(index, t, cubic_lo, cubic_hi)``: the flat index of the lower node of
    each query's segment in the raveled node array, the query's fractional
    position ``t`` in the segment, ``s^3 - s`` and ``t^3 - t`` with
    ``s = 1 - t``.  None of it depends on the node values.
    """
    t = queries - x0
    t /= h
    index = np.floor(t).astype(np.int64)
    np.clip(index, 0, j_nodes - 2, out=index)
    t -= index
    index *= queries.shape[1]
    index += np.arange(queries.shape[1])
    s = 1.0 - t
    cubic_lo = s ** 3
    cubic_lo -= s
    del s
    cubic_hi = t ** 3
    cubic_hi -= t
    return index, t, cubic_lo, cubic_hi


def _spline_eval(values, second_derivs, h, reads):
    """Per-column splines read at :func:`_spline_reads` ``reads``.

    The result is ``s y_lo + t y_hi + h^2/6 ((s^3 - s) m_lo + (t^3 - t)
    m_hi)``; the upper node of a segment is read from the raveled arrays
    offset by one row.  Evaluated in place, second derivatives first and
    dropped once read, to hold few (Q, M) temporaries at once.
    """
    index, t, cubic_lo, cubic_hi = reads
    row = values.shape[1]
    m2 = np.ravel(second_derivs)
    del second_derivs
    cubic = m2.take(index)
    cubic *= cubic_lo
    upper = m2[row:].take(index)
    del m2
    upper *= cubic_hi
    cubic += upper
    del upper
    y = np.ravel(values)
    s = 1.0 - t
    s *= y.take(index)
    high = y[row:].take(index)
    high *= t
    s += high
    del high
    cubic *= h * h / 6.0
    s += cubic
    return s


def natural_cubic_spline(nodes, values, queries):
    """Natural cubic spline through uniformly spaced nodes.

    Zero second derivative is imposed at both ends; the coefficients come
    from a single tridiagonal solve.  Interior accuracy is fourth order in
    the spacing for smooth data.  Queries outside the node range are a hard
    error, because every caller must decide on knockout/continuation
    semantics before asking for a value; so are NaN queries and non-finite
    values.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.size < 3:
        raise ValueError("spline nodes must be three or more")
    if values.shape != nodes.shape:
        raise ValueError("values must match nodes in shape")
    if not np.isfinite(values).all():
        raise ValueError("spline values must be finite")
    gaps = np.diff(nodes)
    h = gaps[0]
    if h <= 0.0 or not np.allclose(gaps, h, rtol=1e-9, atol=0.0):
        raise ValueError("spline nodes must be uniformly spaced and increasing")
    q = np.asarray(queries, dtype=float)
    if np.isnan(q).any():
        raise ValueError("spline queries must not be NaN")
    pad = 1e-12 * (nodes[-1] - nodes[0])
    if np.any(q < nodes[0] - pad) or np.any(q > nodes[-1] + pad):
        raise ValueError("spline query outside the node range")
    q_col = np.clip(q, nodes[0], nodes[-1]).reshape(-1, 1)
    col = values.reshape(-1, 1)
    reads = _spline_reads(nodes[0], h, q_col, nodes.size)
    m2 = _spline_second_derivs(col, h)
    return _spline_eval(col, m2, h, reads).reshape(q.shape)


def _allocate_steps(total: int, durations) -> tuple[int, ...]:
    """Split ``total`` time steps across intervals, proportional to length.

    Every interval gets at least one step; leftovers go to the largest
    fractional entitlements.
    """
    k = len(durations)
    if total < k:
        raise ValueError(f"time_steps must be at least the {k} fixing intervals, "
                         f"got {total}")
    horizon = sum(durations)
    raw = [total * d / horizon for d in durations]
    counts = [max(1, int(math.floor(r))) for r in raw]
    while sum(counts) > total:
        i = max(range(k), key=lambda j: counts[j])
        counts[i] -= 1
    spare = total - sum(counts)
    by_fraction = sorted(range(k), key=lambda j: raw[j] - math.floor(raw[j]), reverse=True)
    for i in by_fraction[:spare]:
        counts[i] += 1
    return tuple(counts)


def _build_log_grid(ln_spot, ln_strike, half_width, m_nodes, policy):
    """Uniform log-spot nodes with the strike (and maybe the spot) pinned.

    Returns (nodes, spacing, strike index, spot index or None).  The domain
    starts as [ln_spot - half_width, ln_spot + half_width], is extended to
    contain the strike, and is then widened as little as the node budget
    allows so the pinned points land exactly on nodes.
    """
    lo = min(ln_spot - half_width, ln_strike)
    hi = max(ln_spot + half_width, ln_strike)
    gap = abs(ln_spot - ln_strike)
    if policy is PinPolicy.STRIKE_AND_SPOT and gap > 0.0:
        # Most cells between the two pins that still lets m_nodes cover
        # [lo, hi]; more cells means finer spacing, hence least widening.
        q_start = min(m_nodes - 1, int(math.floor((m_nodes - 1) * gap / (hi - lo))) + 1)
        for q in range(max(q_start, 1), 0, -1):
            dx = gap / q
            n_lo = max(int(math.ceil((ln_strike - lo) / dx - 1e-9)), 0)
            n_hi = max(int(math.ceil((hi - ln_strike) / dx - 1e-9)), 0)
            if n_lo + n_hi <= m_nodes - 1:
                spare = (m_nodes - 1) - (n_lo + n_hi)
                n_lo += spare // 2
                x = ln_strike + dx * (np.arange(m_nodes) - n_lo)
                offset = q if ln_spot > ln_strike else -q
                return x, dx, n_lo, n_lo + offset
        # Spot and strike too close for this node budget: pin the strike
        # only and interpolate the price at the spot afterwards.
    span = hi - lo
    frac = (ln_strike - lo) / span
    min_lo = 1 if ln_strike > lo else 0
    min_hi = 1 if hi > ln_strike else 0
    n_lo = min(max(int(round(frac * (m_nodes - 1))), min_lo), m_nodes - 1 - min_hi)
    n_hi = m_nodes - 1 - n_lo
    dx_lo = (ln_strike - lo) / n_lo if n_lo > 0 else 0.0
    dx_hi = (hi - ln_strike) / n_hi if n_hi > 0 else 0.0
    dx = max(dx_lo, dx_hi)
    x = ln_strike + dx * (np.arange(m_nodes) - n_lo)
    spot_index = n_lo if ln_spot == ln_strike else None
    return x, dx, n_lo, spot_index


def build_grid(
    contract: TarnContract,
    model: MarketModel,
    config: FdConfig,
    spot: float,
) -> FdGrid:
    """Construct the log-spot grid, accumulation grid and step allocation.

    The log-spot domain spans ``domain_width_sigmas`` representative
    standard deviations either side of the spot (representative volatility:
    the largest level the specification can reach over the note's life).
    The accumulation grid runs uniformly from zero to the target.
    """
    check_positive(spot, "spot")
    horizon = contract.maturity
    sigma_bar = model.vol.max_sigma(horizon)
    half_width = config.domain_width_sigmas * sigma_bar * math.sqrt(horizon)
    x, dx, strike_index, spot_index = _build_log_grid(
        math.log(spot), math.log(contract.strike), half_width,
        config.spot_nodes, config.pin_policy,
    )
    spots = np.exp(x)
    spots[strike_index] = contract.strike  # remove round-trip noise at the pins
    if spot_index is not None:
        spots[spot_index] = spot
    accum = np.linspace(0.0, contract.target, config.accumulation_nodes)
    h = contract.target / (config.accumulation_nodes - 1)
    times = (0.0,) + contract.fixing_times
    durations = [b - a for a, b in zip(times, times[1:])]
    steps = _allocate_steps(config.time_steps, durations)
    return FdGrid(
        log_spots=x,
        spots=spots,
        dx=dx,
        spot_index=spot_index,
        accum_nodes=accum,
        h=h,
        steps_per_interval=steps,
        fixing_times=contract.fixing_times,
    )


def coefficients_at(model: MarketModel, spots: np.ndarray, t: float, dx: float):
    """The log-spot PDE's operator at time ``t`` as its bands ``(lo, di,
    up)``: the weights of ``u[i-1]``, ``u[i]`` and ``u[i+1]`` in row i of
    the interior nodes 1..M-2, on nodes ``dx`` apart.  Each is a scalar, or
    an (M - 2,) array under local volatility, whose surface is read at all
    M ``spots``."""
    if model.has_exact_transition:
        sig = model.vol.sigma_at(t)
    else:
        sig = model.vol.interpolate(spots, t)[1:-1]
    variance = sig * sig
    r_d = model.domestic.rate_at(t)
    half = 0.5 * variance / (dx * dx)
    adv = (r_d - model.foreign.rate_at(t) - 0.5 * variance) / (2.0 * dx)
    return half - adv, -2.0 * half - r_d, half + adv


def _explicit_side(rows, w, bands, out, work):
    """The explicit half of a theta step: ``u[i] + w (L u)[i]`` on the
    interior nodes of ``rows`` (J, M), for the operator ``bands``, written
    into the interior columns of ``out`` (J, M), with ``work`` (J, M - 2)
    as the temporary: the three-band stencil, five full passes."""
    lo, di, up = bands
    inner = out[:, 1:-1]
    np.multiply(rows[:, 1:-1], 1.0 + w * di, out=inner)
    np.multiply(rows[:, :-2], w * lo, out=work)
    inner += work
    np.multiply(rows[:, 2:], w * up, out=work)
    inner += work


@dataclass(eq=False)
class _Carry:
    """What a march's steps pass on: its (J, M - 2) temporary, ``work``,
    and a per-node step's explicit side ``e``, ``side``, a (J, M) array
    made by the first such step.  ``bands`` are that step's implicit bands
    and ``c`` its ``-theta dt``; ``bands`` is None when ``side`` holds
    nothing to carry: after a scalar-band step, whose march makes no side,
    and after a theta 0 step, whose level gives no ``L u``."""

    work: np.ndarray
    side: np.ndarray | None = None
    bands: tuple | None = None
    c: float = 0.0


# The symmetric step is taken when its block, rows 2..M-3, holds at least
# three rows.  Smaller grids keep gtsv, which costs no more there; on 4
# nodes the folded rows 1 and M-2 are neighbours, with no block between.
_SYMMETRIC_MIN_NODES = 7

# ... and when it steps at least this many rows: its per-node vector work,
# about 25 us a step at 1000 nodes, is not earned back on fewer.  Marching
# 17 local-vol steps, both solves making their explicit side from the
# carry (2-core Xeon, medians of 150 marches, two rounds), ptsv took 72-107
# against 45-62 us a step for gtsv on 1 row of 1000 nodes, 93-96 against
# 75-77 on 4, 129-131 against 121-122 on 8 and 161-170 against 164-172 on
# 12; at 2000 nodes 101 against 68 on 1 row, 165-195 against 146-160 on 4
# and 215-233 against 223-236 on 8; at 200 nodes ptsv was slower up to 16
# rows.  Since gtsv steps carry too, the break-even is about 8-12 rows at
# 1000-2000 nodes, no longer 4.  The threshold stays 4: a pricing marches
# one row or its J rows (80 in the local-vol benchmark), on the same side
# of either.
_SYMMETRIC_MIN_ROWS = 4

# The row weights span at most this ratio (normalized to at most 1, none
# below 1e-200), so no weighted value is pushed towards the subnormals.
_MIN_LOG_SCALE = 2.0 * math.log(1e-100)


def _closure(boundary, beta, spots, dx):
    """A pricing's boundary closure, ``(a, b, g)`` at the lower end and at
    the upper: each end value is ``a`` times its interior neighbour plus
    ``b`` times the next node plus ``g``.  Zero gamma, ``u0 = 2 u1 - u2``
    and its mirror, is ``(2, -1, 0)`` at both ends; Dirichlet/Neumann is
    ``(0, 0, 0)`` where the payoff vanishes and a unit slope in the spot,
    ``(1, 0, dx S)`` on the grid's ``spots``, at the other end."""
    if boundary is BoundaryKind.ZERO_GAMMA:
        return (2.0, -1.0, 0.0), (2.0, -1.0, 0.0)
    zero = (0.0, 0.0, 0.0)
    if beta == 1:
        return zero, (1.0, 0.0, dx * float(spots[-1]))
    return (1.0, 0.0, dx * float(spots[0])), zero


def _symmetric_step(out, bands_to, c, closure):
    """Solve the theta step whose right-hand side, the explicit side, is in
    ``out`` for per-node implicit bands by one LAPACK ``ptsv``, in place;
    or return False when it must take ``gtsv`` instead.

    Rows 1 and M-2, which the substituted ``closure`` makes unsymmetric,
    are eliminated into rows 2 and M-3 first.  When every product
    ``up[i] lo[i+1]`` of rows 2..M-3 is positive (a cell Peclet number
    below 1), weighting those rows by ``d``, ``d[i+1] / d[i] = up[i] /
    lo[i+1]``, makes them symmetric, with diagonal ``d (1 + c di)`` and
    off-diagonal ``c d[i] up[i]``; with a positive diagonal and strict
    diagonal dominance they are positive definite.  Rows 1 and M-2 are
    weighted by the inverses of their pivots, so one multiply by the
    weights makes the right-hand side, ``ptsv`` solves it with rows 0, 1,
    M-2 and M-1 as decoupled identity rows, and the level is read straight
    off the solve once rows 1 and M-2 are back-substituted.

    ``gtsv`` is left the steps where a product is not positive, where the
    weights would span more than 1e200, and where a folded row's pivot is
    not positive (rows 1 and M-2 are eliminated without a row exchange):
    ``out`` is then untouched.  It is also left the steps where ``ptsv``
    finds the block not positive definite after all, ``out`` then weighted
    and unsolved.
    """
    lo, di, up = bands_to
    m = out.shape[1]
    if not (up[1:-2] * lo[2:-1] > 0.0).all():
        return False
    weights = np.ones(m)  # per row; rows 2..M-3 are d
    d = weights[2:-2]
    d[0] = 0.0
    np.cumsum(np.log(up[1:-2] / lo[2:-1]), out=d[1:])
    d -= d.max()
    if not d.min() >= _MIN_LOG_SCALE:
        return False
    np.exp(d, out=d)

    # rows 1 and M-2 with u0 = a u1 + b u2 + g and its mirror: each row's
    # pivot, its coupling to row 2 (M-3) over that pivot, and row 2's
    # (M-3's) weight of it; g moves to the right-hand side
    (a_lo, b_lo, g_lo), (a_hi, b_hi, g_hi) = closure
    pivot1 = 1.0 + c * (di[0] + a_lo * lo[0])
    pivot2 = 1.0 + c * (di[-1] + a_hi * up[-1])
    if not (pivot1 > 0.0 and pivot2 > 0.0):
        return False
    couple1 = c * (up[0] + b_lo * lo[0]) / pivot1
    couple2 = c * (lo[-1] + b_hi * up[-1]) / pivot2
    weight1, weight2 = c * lo[1], c * up[-2]
    diag = np.ones(m)
    diag[2:-2] = 1.0 + c * di[1:-1]
    diag[2] -= weight1 * couple1
    diag[-3] -= weight2 * couple2
    diag[2:-2] *= d
    off = np.zeros(m - 1)
    np.multiply(d[:-1], c * up[1:-2], out=off[2:-2])
    weights[1] = 1.0 / pivot1
    weights[-2] = 1.0 / pivot2

    out[:, 1] -= g_lo * (c * lo[0])
    out[:, -2] -= g_hi * (c * up[-1])
    out[:, 2] -= (weight1 / pivot1) * out[:, 1]
    out[:, -3] -= (weight2 / pivot2) * out[:, -2]
    out *= weights
    # overwrite_d, overwrite_e and overwrite_b, positional as in _solve_bands
    *_, info = _ptsv(diag, off, out.T, True, True, True)
    if info:
        return False  # not positive definite after all: ptsv left out unsolved
    out[:, 1] -= couple1 * out[:, 2]
    out[:, -2] -= couple2 * out[:, -3]
    return True


def _banded_step(out, bands_to, c, closure):
    """Solve the theta step whose right-hand side is in ``out`` by one
    LAPACK ``gtsv``, in place, for any band shape, with the ``closure``
    substituted into rows 1 and M-2; rows 0 and M-1 are left identity
    rows, whose values :func:`theta_step` sets."""
    # Implicit side I - theta dt L, stored as ab[1 + i - j, j] = a[i, j].
    lo, di, up = bands_to
    m = out.shape[1]
    ab = np.zeros((3, m))
    ab[0, 2:] = c * up
    ab[1, 1:-1] = 1.0 + c * di
    ab[2, :-2] = c * lo
    ab[1, 0] = ab[1, -1] = 1.0
    # row 1 with u0 = a u1 + b u2 + g substituted, and its mirror row M-2
    (a_lo, b_lo, g_lo), (a_hi, b_hi, g_hi) = closure
    out[:, 1] -= g_lo * ab[2, 0]
    ab[1, 1] += a_lo * ab[2, 0]
    ab[0, 2] += b_lo * ab[2, 0]
    ab[2, 0] = 0.0
    out[:, -2] -= g_hi * ab[0, -1]
    ab[1, -2] += a_hi * ab[0, -1]
    ab[2, -3] += b_hi * ab[0, -1]
    ab[0, -1] = 0.0

    # A zero pivot is not seen for theta in [0, 1] and sigma > 0.  The one
    # singular case, zero gamma on 3 nodes (both end rows are then one
    # equation), is rejected by FdConfig, whose grids every caller marches.
    _solve_bands(ab, out.T, overwrite_rhs=True)


def theta_step(rows, dt: float, theta: float, bands_from, bands_to, closure, *,
               out=None, carry=None):
    """One backward time step of the theta scheme on the log-spot PDE.

    ``rows`` is a (J, M) float array; every row is stepped independently
    with the same matrix.  :func:`_march`, the one caller, passes a positive
    ``dt``, so it is not checked here.  ``bands_from`` are the operator
    bands of :func:`coefficients_at` at the level being left (explicit
    side, weight 1 - theta) and ``bands_to`` those at the level being
    solved for (implicit side, weight theta).  The step makes its explicit
    side once, then solves for it.  The pricing's ``closure``
    (:func:`_closure`) is substituted into rows 1 and M-2, so the step is
    one tridiagonal solve for all rows, and sets the end values after it,
    so it holds exactly at the new level.  The solve is ``ptsv`` on the
    symmetrized system (:func:`_symmetric_step`) when the implicit bands
    are per-node arrays (local volatility), M >= 7 and J >= 4, else, or
    when that declines, ``gtsv`` (:func:`_banded_step`).  Scalar bands,
    whose steps mostly feed interval maps, keep ``gtsv``: at 1-73 rows on
    200 nodes the symmetric step was slower.

    The step is solved in place in ``out``, a C-contiguous (J, M) array
    that does not overlap ``rows``, new by default, and returns ``out``
    itself.  The keyword arguments are :func:`_march`'s: ``carry``, a
    :class:`_Carry` passed from step to step, lends the step its
    temporary and carries a per-node step's explicit side ``e`` to the
    next step, whichever routine solved it.  A solved level ``u``
    satisfies ``u + c L u = e`` on rows 1..M-2, with ``c = -theta dt`` and
    ``L`` the operator of ``bands_to``, so the next step, whose
    ``bands_from`` are those bands, makes its explicit side as ``(1 - q) u
    + q e`` with ``q = w / c`` and its own ``w = (1 - theta) dt``: exact in
    algebra, though not bit for bit.  The three-band stencil runs instead
    on a march's first step, on a step after a theta 0 step, on a step
    whose ``bands_from`` are not the previous step's ``bands_to``, and on
    every scalar-band step.  A ``ptsv`` that finds its system not
    positive definite is redone by ``gtsv`` from the kept ``e``.
    """
    w = (1.0 - theta) * dt
    c = -theta * dt
    j, m = rows.shape
    if out is None:
        out = np.empty((j, m))
    if carry is None:
        carry = _Carry(np.empty((j, m - 2)))
    if carry.bands is bands_from:
        # the carry's passes run on whole rows: numpy took about 4 times as
        # long on the (J, M - 2) interior views
        q = w / carry.c
        np.multiply(rows, 1.0 - q, out=out)
        carry.side *= q
        out += carry.side
    else:
        _explicit_side(rows, w, bands_from, out, carry.work)
    out[:, 0] = out[:, -1] = 0.0  # the identity rows' right-hand side
    per_node = np.ndim(bands_to[0]) > 0
    # scalar bands make no side, and a theta 0 step's level gives no L u
    carry.bands, carry.c = bands_to if per_node and c else None, c
    if carry.bands is not None:
        if carry.side is None:
            carry.side = np.empty((j, m))
        np.copyto(carry.side, out)
    symmetric = j >= _SYMMETRIC_MIN_ROWS and m >= _SYMMETRIC_MIN_NODES and per_node
    if not (symmetric and _symmetric_step(out, bands_to, c, closure)):
        if symmetric and c:
            np.copyto(out, carry.side)  # ptsv may have declined out weighted
        _banded_step(out, bands_to, c, closure)
    (a_lo, b_lo, g_lo), (a_hi, b_hi, g_hi) = closure
    out[:, 0] = a_lo * out[:, 1] + b_lo * out[:, 2] + g_lo
    out[:, -1] = a_hi * out[:, -2] + b_hi * out[:, -3] + g_hi
    return out


def _intervals(cache, cases, model, contract, grid, config, spot, closure):
    """The (runs, map or None) pair of every interval, last first, as the
    backward loop takes them, ``runs`` as :func:`_interval_runs` makes them.

    None means that stepping the interval's rows costs less than its map
    (P, p0), ``row -> row @ P + p0``.  Intervals with equal run keys and
    lengths share one map, decided once by :func:`_map_pays` from the rows
    one pricing marches through each (one in the first interval, J in the
    others) and the count of ``cases`` on ``contract``'s terms, 1 without
    a dict.  The pairs, a tuple with read-only maps, are one ``cache``
    entry keyed by the count and the call's inputs less the target and
    the knockout type, which neither they nor ``grid`` read.  Local
    volatility holds none: its steps carry per-node levels and are made
    one interval at a time as the loop reaches them.
    """
    times = (0.0,) + grid.fixing_times

    def runs(k):
        return _interval_runs(model, grid, times[k + 1], times[k],
                              grid.steps_per_interval[k], config)

    k_total = len(grid.fixing_times)
    if not model.has_exact_transition:
        return ((runs(k), None) for k in reversed(range(k_total)))
    m = grid.spots.size
    if cache is None:
        cache, cases = {}, ()
    count = len(sharing_cases(contract, cases))
    key = ("fd.intervals", count, model, config, spot) + shared_terms(contract)
    if key not in cache:
        made = [runs(k) for k in range(k_total)]
        shared = defaultdict(list)  # run keys and lengths -> the intervals
        for k, interval in enumerate(made):
            shared[tuple((run_key, len(run)) for run_key, run in interval)].append(k)
        maps = [None] * k_total
        for ks in shared.values():
            first = made[ks[0]]
            rows = [config.accumulation_nodes if k else 1 for k in ks]
            if _map_pays([len(run) for _, run in first], rows, count, m):
                mapped = _build_map(first, m, closure)
                for k in ks:
                    maps[k] = mapped
        cache[key] = tuple(zip(made, maps))
    return reversed(cache[key])


def _interval_runs(model, grid, t_hi, t_lo, n_steps, config):
    """The steps from t_hi down to t_lo as runs of equal steps, in order:
    (key, steps) pairs, each step (dt, theta, bands_from, bands_to) with
    its own dt and the operator bands of :func:`coefficients_at`, made once
    per level.

    A scalar step is keyed by its interval's nominal dt to 12 significant
    digits, theta and the operator bands: the steps' own dts differ in the
    last bits and could round apart, and so do the nominal dts of equal
    intervals at fixing dates such as ``k * 30 / 365``, which must still
    share one map.  Local-volatility steps are runs of one, keyed None.
    """
    dt = (t_hi - t_lo) / n_steps
    nominal = float(f"{dt:.11e}")
    levels = [t_hi - s * dt for s in range(n_steps)] + [t_lo]
    bands = [coefficients_at(model, grid.spots, t, grid.dx) for t in levels]
    runs = []
    for s in range(n_steps):
        theta = 1.0 if s < config.implicit_startup_steps else config.theta
        bf, bt = bands[s], bands[s + 1]
        key = (nominal, theta) + bf + bt if model.has_exact_transition else None
        if key is None or not runs or runs[-1][0] != key:
            runs.append((key, []))
        runs[-1][1].append((levels[s] - levels[s + 1], theta, bf, bt))
    return tuple((key, tuple(run)) for key, run in runs)


# Rows marched together while a map is marched through steps: bounds the
# temporaries at a few (rows, M) arrays instead of a few (M, M) ones.
_MAP_BLOCK_ROWS = 128

# Map entries below the square root of the smallest normal float are
# dropped, so no product of two kept entries underflows: BLAS runs several
# times slower on the subnormal floats an underflow leaves (one squaring of
# a one-step map at M = 2000: 1.05 s kept, 0.13 s dropped).  A dropped entry
# moves a price by less than M * 1.5e-154 of its inputs.
_NEGLIGIBLE = math.sqrt(sys.float_info.min)


def _drop_negligible(stacked):
    """Zero the entries of ``stacked`` below ``_NEGLIGIBLE``, in place."""
    for start in range(0, len(stacked), _MAP_BLOCK_ROWS):
        block = stacked[start:start + _MAP_BLOCK_ROWS]
        # boolean temporaries only: an eighth of a float block each
        np.copyto(block, 0.0,
                  where=(block < _NEGLIGIBLE) & (block > -_NEGLIGIBLE))


def _march_map(stacked, step, n, closure):
    """The stacked map ``stacked`` followed by ``n`` copies of ``step``.

    A map ``x -> x @ P + p`` is held as one (M + 1, M) array, P over p.
    Marched in place, block by block, are the images of the unit rows and
    of the zero row, P + p and p; subtracting the marched p again leaves
    the new linear part.
    """
    m = stacked.shape[1]
    stacked[:m] += stacked[m]
    for start in range(0, m + 1, _MAP_BLOCK_ROWS):
        block = stacked[start:start + _MAP_BLOCK_ROWS]
        marched = _march(block, [(None, [step] * n)], closure)
        if marched is not block:
            block[:] = marched
    stacked[:m] -= stacked[m]
    _drop_negligible(stacked)
    return stacked


def _compose(first, then):
    """The stacked map ``first`` followed by ``then``: ``x @ P + p`` and then
    ``@ Q + q`` is ``x @ (P @ Q) + (p @ Q + q)``, one product."""
    m = then.shape[1]
    out = first @ then[:m]
    out[m] += then[m]
    _drop_negligible(out)
    return out


# Seconds per theta step on r rows of M nodes, _STEP_S + _NODE_S * r * M,
# and per (M + 1, M) by (M, M) product, _PRODUCT_S * M**3, for the map or
# march choice of _intervals.  Best of 7-15 rounds in fresh
# processes on a 2-core Xeon (Python 3.11, numpy 2.4, scipy 1.17).  Steps
# of 1-200 rows and the blocked (M + 1)-row steps of a build, at M =
# 200-2000, took 0.8-1.5 times the fit.  Products at M = 200-2000 took
# 2.0-3.2e-11 M**3 s with the default BLAS threads and 3.2-4.6e-11 with
# one; numpy's BLAS pool can stall for tens of times longer right after
# scipy's solves, and best rounds leave that out.
_STEP_S = 6e-5
_NODE_S = 2e-8
_PRODUCT_S = 4e-11


def _power_products(n, first):
    """The (M, M) products :func:`_build_map` spends to power a run of
    ``n`` steps (the ``first`` run of its interval has no map so far to be
    composed onto), or None when marching the run costs no more."""
    products = n.bit_length() + n.bit_count() - 2 + (not first)
    return products if n > 1 + products else None


def _map_pays(lengths, rows, count, m) -> bool:
    """Whether building an interval map costs less than marching its rows.

    ``lengths`` are the run lengths of the map's steps, ``rows`` the rows
    one pricing marches through each interval the map serves and ``count``
    how many pricings share the map.  Marching pays a step per interval
    and time step; building pays :func:`_build_map`'s (M + 1)-row steps
    and products, plus one (rows, M) by (M, M) product per pricing.
    """
    def step(r):
        return _STEP_S + _NODE_S * r * m

    march = count * sum(lengths) * sum(step(r) for r in rows)
    build = count * _PRODUCT_S * sum(rows) * m * m
    for i, n in enumerate(lengths):
        products = _power_products(n, first=i == 0)
        build += (n * step(m + 1) if products is None
                  else step(m + 1) + products * _PRODUCT_S * m ** 3)
    return build < march


def _build_map(runs, m, closure):
    """(P, p0) of the interval's :func:`_interval_runs` ``runs`` on M = ``m``
    nodes, built run by run, each taken as its first step repeated.

    Marching a run of n identical steps onto the map so far costs n steps
    of M + 1 rows.  Powering it costs one such step, the one-step map,
    plus (M, M) products: binary powering (repeated squaring, multiplying
    in the powers of n's set bits) and one more to compose it onto the map
    so far (:func:`_power_products`).  A product took 0.2-0.9 of an
    (M + 1)-row step's time at M = 200-500 and 0.9-2.6 at M = 1000-2000
    (2-core Xeon, best rounds; the larger figures with one BLAS thread).  A
    run is powered only when n exceeds one plus its product count, so up
    to M = 1000 the build takes at most about as long as marching every
    step, and far less for long runs.  That marches start-up steps, the
    step across a knot and runs of up to 3 steps (5 after another run), and
    powers longer runs.  :func:`_map_pays` prices a build from the same
    product count.  Every consumed power is dropped at once, so at most
    three (M + 1, M) arrays are live: the map so far, the current power and
    the product being formed.
    """
    total = None
    for _, run in runs:
        step, n = run[0], len(run)
        if _power_products(n, first=total is None) is None:
            if total is None:
                total = np.eye(m + 1, m)
            total = _march_map(total, step, n, closure)
            continue
        power = _march_map(np.eye(m + 1, m), step, 1, closure)
        while n:
            if n & 1:
                total = power if total is None else _compose(total, power)
            n >>= 1
            power = _compose(power, power) if n else None
    total.setflags(write=False)  # every pricing given the cache reads it
    return total[:m], total[m]


def _march(values, runs, closure):
    """March ``values`` (rows, M), C-contiguous, through the steps of
    ``runs``, (key, steps) pairs, one theta step each with the step's own
    dt, in two buffers: ``values`` itself, overwritten, and one more of
    its shape.  Each step writes into the buffer that does not hold its
    input, which the next step then overwrites; the march's one
    :class:`_Carry` lends every step its temporary and carries each
    symmetric step's explicit side to the next.  Returns the buffer that
    holds the last step's level."""
    spare = np.empty(values.shape)
    carry = _Carry(np.empty((values.shape[0], values.shape[1] - 2)))
    for _, steps in runs:
        for dt, th, bf, bt in steps:
            out = theta_step(values, dt, th, bf, bt, closure, out=spare, carry=carry)
            values, spare = out, values
    return values


def _check_explicit_stability(grid, model, config) -> None:
    """Reject a theta < 1/2 scheme whose explicit part would blow up.

    Von Neumann: the scheme is stable when
    (1 - 2 theta) * dt * sigma^2 / dx^2 <= 1 on every step.
    """
    if config.theta >= 0.5:
        return
    starts = (0.0,) + grid.fixing_times
    dt = max((b - a) / n for a, b, n in
             zip(starts, grid.fixing_times, grid.steps_per_interval))
    sigma = model.vol.max_sigma(grid.fixing_times[-1])
    ratio = (1.0 - 2.0 * config.theta) * dt * sigma * sigma / (grid.dx * grid.dx)
    if ratio > 1.0:
        raise ValueError(
            f"unstable explicit scheme: theta = {config.theta} with "
            f"time_steps = {config.time_steps} gives (1 - 2 theta) dt sigma^2 "
            f"/ dx^2 = {ratio:.3g} > 1; raise theta to 0.5 or more, or "
            "raise time_steps"
        )


@dataclass(frozen=True, eq=False)
class JumpPlan:
    """Everything in a fixing jump that does not depend on the lattice.

    A fixing enters the jump only through its extra payment, which is the
    amount times a per-cell factor, so one plan serves every fixing of a
    pricing.  It holds the fixing's cash flows on the (J, M) lattice
    (``payment``, the ``dead`` breach mask and ``extra_weight``, the
    factor of the extra payment: :func:`tarnpricer.contract.fixing_flows`
    of a unit extra), the ``band`` of spot nodes whose gross amount lies in
    ``(0, U)``, and where each of the band's cells has its shifted amount
    read on its spot node's spline (``reads``, see :func:`_spline_reads`).
    The gross amount ``max(beta (S - K), 0)`` is monotone along the sorted
    spot nodes, so the band is one slice, from the first such node to the
    last; an empty band is ``slice(0, 0)``.
    """

    grid: FdGrid
    payment: np.ndarray
    dead: np.ndarray
    extra_weight: np.ndarray
    band: slice
    reads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def build(cls, contract: TarnContract, grid: FdGrid) -> "JumpPlan":
        """The plan of every fixing of ``contract`` on ``grid``."""
        accum = grid.accum_nodes[:, None]
        gross = contract.gross(grid.spots)
        payment, extra_weight, dead = fixing_flows(
            gross, accum, 1.0, contract.knockout, contract.target,
        )
        paying = np.flatnonzero((gross > 0.0) & (gross < contract.target))
        band = (slice(int(paying[0]), int(paying[-1]) + 1) if paying.size
                else slice(0, 0))
        queries = accum + payment[:, band]
        np.minimum(queries, contract.target, out=queries)
        reads = _spline_reads(0.0, grid.h, queries, grid.accum_nodes.size)
        return cls(grid, payment, dead, extra_weight, band, reads)


def apply_jump(values: np.ndarray, plan: JumpPlan, extra: float) -> np.ndarray:
    """Fixing-date update of the tracked values ``(J, M)`` (the forward shift).

    For each spot node of the plan's band, one natural cubic spline is
    built over the tracked values across the accumulation grid and read at
    the shifted amounts ``A + payment``; the band's columns are solved and
    read as one view.  A fixing that kills the note has zero continuation;
    otherwise the shifted amount of a live state never exceeds the target,
    so the spline is only ever read inside its node range.  Outside the
    band the jump is exact without a spline: where the gross amount is zero
    nothing is paid and no state moves or knocks out, so the continuation
    is the value itself; where it is at least the target every state
    (``A >= 0``) knocks out.  The new value is continuation plus the
    fixing's payment and its extra payment ``extra`` times the plan's
    weight, on the whole lattice.  The last fixing runs through the same
    code on an all-zero lattice, which is exactly the
    worthless-after-expiry final condition.  Everything but the spline
    itself comes from ``plan``.
    """
    h = plan.grid.h
    continuation = values.copy()
    inside = values[:, plan.band]
    if inside.size:
        # Second derivatives passed inline, so _spline_eval can free them
        # before it reads the values: this bounds the jump's peak memory.
        continuation[:, plan.band] = _spline_eval(
            inside, _spline_second_derivs(inside, h), h, plan.reads)
    continuation[plan.dead] = 0.0
    continuation += plan.payment
    if extra:
        continuation += extra * plan.extra_weight
    return continuation


def fd_price(
    contract: TarnContract,
    model: MarketModel,
    config: FdConfig,
    spot: float,
    *,
    cache: dict | None = None,
    cases: tuple[TarnContract, ...] = (),
) -> PriceResult:
    """Price the note by backward induction on the tracked lattice.

    Starts from a zero lattice at the last fixing, alternates fixing-date
    jumps with theta-scheme marching over each interval, and after the first
    fixing marches only the zero-accrual solution down to the valuation
    date.  The price is the value at the spot node, or a one-off spline
    interpolation in the log-spot when the spot is off-grid.
    ``cache`` is a dict the caller owns (not locked) and the engine's only
    cache: calls given one dict share one ``"fd.intervals"`` entry, every
    interval's runs and read-only map or None, keyed by the call's inputs
    less the target and the knockout type (see :func:`_intervals`), until
    the caller drops it; by default it lives for this call.  ``cases``, a
    tuple of the run's contracts as for :func:`~tarnpricer.mc.mc_price`,
    decides only whether an interval is mapped or its rows are marched:
    the maps serve the cases on ``contract``'s schedule, strike and
    direction, or ``contract`` alone without a dict or outside ``cases``.
    A non-finite price is never returned: it raises ValueError.
    """
    check_cases(cases)
    started = time.perf_counter()
    grid = build_grid(contract, model, config, spot)
    _check_explicit_stability(grid, model, config)
    closure = _closure(config.boundary, contract.beta, grid.spots, grid.dx)
    # maps are built before the jump plan and the lattice take their memory
    intervals = _intervals(cache, cases, model, contract, grid, config, spot, closure)
    plan = JumpPlan.build(contract, grid)
    values = np.zeros((config.accumulation_nodes, config.spot_nodes))
    for k, (runs, mapped) in zip(range(contract.num_fixings, 0, -1), intervals):
        values = apply_jump(values, plan, contract.extra_payments[k - 1])
        if k == 1:
            values = values[:1]
        if mapped is None:
            values = _march(values, runs, closure)
        else:
            matrix, offset = mapped
            values = values @ matrix
            values += offset
    row = values[0]
    if grid.spot_index is not None:
        price = float(row[grid.spot_index])
    elif np.isfinite(row).all():
        price = float(natural_cubic_spline(grid.log_spots, row, math.log(spot)))
    else:
        price = math.nan  # the spline would reject the row with its own message
    if not math.isfinite(price):
        # the solves do not check for NaN or inf, but either reaches the
        # spot row through the solves, the splines and the map products
        raise ValueError(f"FD price is not finite ({price}): the lattice "
                         "holds a NaN or an infinity")
    return PriceResult(
        price=price,
        wall_time=time.perf_counter() - started,
        grid_shape=(config.spot_nodes, config.accumulation_nodes, config.time_steps),
    )


def _ladder(contract, model, config, spot, factors) -> list[PriceResult]:
    """One pricing per factor, on ``config`` with every grid dimension
    multiplied by it."""
    return [fd_price(contract, model, replace(
        config, spot_nodes=f * config.spot_nodes,
        accumulation_nodes=f * config.accumulation_nodes,
        time_steps=f * config.time_steps), spot) for f in factors]


def estimate_error(
    contract: TarnContract,
    model: MarketModel,
    config: FdConfig,
    spot: float,
) -> ErrorEstimate:
    """Relative error proxy: rerun with every dimension doubled.

    The relative gap between the two prices tracks the coarse grid's true
    relative error when the scheme converges at second order, so that the
    doubled grid's own error is a quarter of the coarse grid's.  Where the
    knockout makes the value jump it can converge much more slowly, and
    the proxy then understates the error: for a no-gain note with beta -1,
    strike 1.1294, spot 1.0761, target 0.0304, fixings at 0.158 and 0.317,
    flat sigma 0.0876, r_d 0.0552 and r_f -0.00125, a 200x50x200 grid
    reports 0.85% against an actual 3.86% (the exact quadrature price),
    the refined error being 0.77 of the coarse one.
    """
    coarse, refined = _ladder(contract, model, config, spot, (1, 2))
    if refined.price == 0.0:
        raise ValueError("relative error undefined: refined price is zero")
    rel = abs(coarse.price - refined.price) / abs(refined.price)
    return ErrorEstimate(relative_error=rel, coarse=coarse, refined=refined)


def convergence_order(
    contract: TarnContract,
    model: MarketModel,
    config: FdConfig,
    spot: float,
) -> ConvergenceStudy:
    """Observed order from three grids nested by simultaneous doubling."""
    results = _ladder(contract, model, config, spot, (1, 2, 4))
    v1, v2, v3 = (r.price for r in results)
    denom = abs(v2 - v3)
    if denom == 0.0:
        raise ValueError("converged below measurable difference")
    return ConvergenceStudy(
        order=math.log2(abs(v1 - v2) / denom),
        results=tuple(results),
    )
