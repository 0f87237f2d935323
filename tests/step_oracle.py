"""The theta step as a pentadiagonal solve: the oracle the engine's
tridiagonal ``tarnpricer.fd.theta_step`` is tested against.

The zero-gamma end rows ``u0 - 2 u1 + u2 = 0`` and ``u[M-1] - 2 u[M-2] +
u[M-3] = 0`` are kept as rows 0 and M-1 of the system, which makes it
pentadiagonal; the explicit side is built from whole bands.  Nothing of
the engine's step is shared with it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from tarnpricer import BoundaryKind


def operator_bands(coef, dx, m):
    """The spatial operator's bands on all M nodes (only 1..M-2 used)."""
    v = np.broadcast_to(np.asarray(coef.variance, dtype=float), (m,))
    d = np.broadcast_to(np.asarray(coef.drift, dtype=float), (m,))
    half = 0.5 * v / (dx * dx)
    adv = d / (2.0 * dx)
    return half - adv, -2.0 * half - coef.rate, half + adv


def theta_step(rows, dt, dx, theta, coef_from, coef_to,
               boundary=BoundaryKind.ZERO_GAMMA, spots=None, beta=1):
    """One backward theta step of ``rows`` (M,) or (J, M)."""
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    work = rows[None, :] if single else rows
    m = work.shape[1]

    lo_f, di_f, up_f = operator_bands(coef_from, dx, m)
    w = (1.0 - theta) * dt
    rhs = work.copy()
    rhs[:, 1:-1] += w * (
        lo_f[1:-1] * work[:, :-2]
        + di_f[1:-1] * work[:, 1:-1]
        + up_f[1:-1] * work[:, 2:]
    )

    lo_t, di_t, up_t = operator_bands(coef_to, dx, m)
    ab = np.zeros((5, m))
    ab[1, 2:] = -theta * dt * up_t[1:-1]
    ab[2, 1:-1] = 1.0 - theta * dt * di_t[1:-1]
    ab[3, : m - 2] = -theta * dt * lo_t[1:-1]

    if boundary is BoundaryKind.ZERO_GAMMA:
        ab[2, 0] = 1.0
        ab[1, 1] = -2.0
        ab[0, 2] = 1.0
        ab[2, m - 1] = 1.0
        ab[3, m - 2] = -2.0
        ab[4, m - 3] = 1.0
        rhs[:, 0] = 0.0
        rhs[:, -1] = 0.0
    elif beta == 1:
        ab[2, 0] = 1.0
        rhs[:, 0] = 0.0
        ab[2, m - 1] = 1.0
        ab[3, m - 2] = -1.0
        rhs[:, -1] = dx * spots[-1]
    else:
        ab[2, 0] = -1.0
        ab[1, 1] = 1.0
        rhs[:, 0] = -dx * spots[0]
        ab[2, m - 1] = 1.0
        rhs[:, -1] = 0.0

    out = scipy.linalg.solve_banded((2, 2), ab, rhs.T).T
    return out[0] if single else out
