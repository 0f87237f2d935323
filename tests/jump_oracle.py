"""The fixing jump computed from scratch at every fixing: the oracle the
engine's planned jump ``tarnpricer.fd.apply_jump`` is tested against.

Cash flows, shifted amounts, spline segments and weights, and every node's
breached cell fraction and the two sides of its cell average, are all
derived here from the fixing index on every call, on the whole lattice;
the spline is read with ``take_along_axis`` gathers per column, so no part
of the engine's jump plan is shared with it except the spline system
solve.
"""

from __future__ import annotations

import numpy as np

from tarnpricer import KnockoutType, TarnContract
from tarnpricer.contract import fixing_flows
from tarnpricer.fd import FdGrid, _spline_second_derivs


def spline_eval(values, second_derivs, x0, h, queries):
    """Per-column natural splines of ``values`` (J, M) read at ``queries``
    (Q, M), entry (q, m) on column m; the queries lie inside the nodes."""
    j_nodes = values.shape[0]
    t = queries - x0
    t /= h
    seg = np.floor(t).astype(np.int64)
    np.clip(seg, 0, j_nodes - 2, out=seg)
    t -= seg
    s = 1.0 - t
    cubic = s ** 3
    cubic -= s
    cubic *= np.take_along_axis(second_derivs, seg, axis=0)
    s *= np.take_along_axis(values, seg, axis=0)
    seg += 1
    upper = t ** 3
    upper -= t
    upper *= np.take_along_axis(second_derivs, seg, axis=0)
    cubic += upper
    del upper
    t *= np.take_along_axis(values, seg, axis=0)
    s += t
    cubic *= h * h / 6.0
    s += cubic
    return s


def natural_cubic_spline(nodes, values, query):
    """One natural spline through uniform ``nodes`` read at ``query``."""
    col = np.asarray(values, dtype=float).reshape(-1, 1)
    h = nodes[1] - nodes[0]
    q = np.clip(np.asarray(query, dtype=float), nodes[0], nodes[-1])
    second = _spline_second_derivs(col, h)
    return spline_eval(col, second, nodes[0], h, q.reshape(-1, 1)).reshape(q.shape)


def apply_jump(values: np.ndarray, fixing_index: int, contract: TarnContract,
               grid: FdGrid, accum_nodes: np.ndarray) -> np.ndarray:
    """The forward jump of fixing ``fixing_index`` on the (J, M) lattice
    over ``grid``'s spots and the J uniform ``accum_nodes``, cell-averaged
    where the breach spot crosses a node's log-spot cell."""
    h = accum_nodes[1] - accum_nodes[0]
    accum = accum_nodes[:, None]
    gross = contract.gross(grid.spots)
    extra_payment = contract.extra_payments[fixing_index - 1]
    payment, extra, dead = fixing_flows(gross, accum, extra_payment,
                                        contract.knockout, contract.target)
    queries = accum + payment
    np.minimum(queries, contract.target, out=queries)
    second = _spline_second_derivs(values, h)
    spline = spline_eval(values, second, 0.0, h, queries)
    continuation = spline.copy()
    continuation[dead] = 0.0
    continuation += payment
    continuation += extra

    # every node's breached fraction of its cell [x - dx/2, x + dx/2]:
    # beta = +1 breaches above S* = K + beta (U - A), beta = -1 below it,
    # and a put row with no positive S* never breaches
    room = contract.target - accum_nodes
    breach_spot = contract.strike + contract.beta * room
    ln_breach = np.full(room.shape, -np.inf)
    positive = breach_spot > 0.0
    ln_breach[positive] = np.log(breach_spot[positive])
    fraction = (grid.log_spots[None, :] - ln_breach[:, None]) / grid.dx
    fraction *= contract.beta
    fraction += 0.5
    fraction[~positive] = 0.0
    crossed = (fraction > 0.0) & (fraction < 1.0)

    room = np.broadcast_to(room[:, None], values.shape)
    gross = np.broadcast_to(gross, values.shape)
    # the live side: a breached node's shift lands on the target, pays the
    # room and continues from the top row
    alive = np.where(dead, values[-1], spline)
    alive_paid = np.where(dead, room, gross)
    # the breached side, at the node's gross amount or, at a live node, at
    # the room, where the cell's breach begins
    at = np.where(dead, gross, room)
    if contract.knockout is KnockoutType.NO_GAIN:
        dead_paid, factor = np.zeros(values.shape), np.zeros(values.shape)
    elif contract.knockout is KnockoutType.FULL_GAIN:
        dead_paid, factor = at, np.ones(values.shape)
    else:
        dead_paid = room
        factor = room / np.where(at > 0.0, at, 1.0)
    # (1 - f) (alive + paid + e) + f (paid + e factor), summed as
    # (1 - f) alive + [(1 - f) paid + f paid] + e [f factor + (1 - f)]
    live = 1.0 - fraction
    alive *= live
    alive += live * alive_paid + fraction * dead_paid
    alive += extra_payment * (fraction * factor + live)
    continuation[crossed] = alive[crossed]
    return continuation
