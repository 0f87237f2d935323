"""The fixing jump computed from scratch at every fixing: the oracle the
engine's planned jump ``tarnpricer.fd.apply_jump`` is tested against.

Cash flows, shifted amounts, spline segments and weights are all derived
here from the fixing index on every call, and the spline is read with
``take_along_axis`` gathers per column, so no part of the engine's jump
plan is shared with it except the spline system solve.
"""

from __future__ import annotations

import numpy as np

from tarnpricer import TarnContract
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
               grid: FdGrid) -> np.ndarray:
    """The forward jump of fixing ``fixing_index`` on the (J, M) lattice."""
    accum = grid.accum_nodes[:, None]
    payment, extra, dead = fixing_flows(
        contract.gross(grid.spots), accum, contract.extra_payments[fixing_index - 1],
        contract.knockout, contract.target,
    )
    queries = accum + payment
    np.minimum(queries, contract.target, out=queries)
    second = _spline_second_derivs(values, grid.h)
    continuation = spline_eval(values, second, 0.0, grid.h, queries)
    continuation[dead] = 0.0
    continuation += payment
    continuation += extra
    return continuation
