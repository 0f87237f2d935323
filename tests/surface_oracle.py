"""Bilinear lookup on a local-volatility mesh, gathered cell by cell: the
oracle ``tarnpricer.market.LocalVolSurface.interpolate`` is tested against.

Each spot is clipped to the mesh, its spot cell found by search and its
four corner sigmas gathered; the two time rows are blended per spot, after
the spot weights.  The engine blends the time rows once and reads the
blended row with ``np.interp``.
"""

from __future__ import annotations

import numpy as np


def bilinear(surface, spot, t):
    """sigma at (spot, t), clamped at every edge of the mesh."""
    tk, sk, v = surface.time_knots, surface.spot_knots, surface.values
    s = np.clip(np.asarray(spot, dtype=float), sk[0], sk[-1])
    tq = min(max(float(t), tk[0]), tk[-1])
    i = min(max(np.searchsorted(tk, tq, side="right") - 1, 0), tk.size - 2)
    j = np.clip(np.searchsorted(sk, s, side="right") - 1, 0, sk.size - 2)
    wt = (tq - tk[i]) / (tk[i + 1] - tk[i])
    ws = (s - sk[j]) / (sk[j + 1] - sk[j])
    lo = v[i, j] * (1.0 - ws) + v[i, j + 1] * ws
    hi = v[i + 1, j] * (1.0 - ws) + v[i + 1, j + 1] * ws
    return lo * (1.0 - wt) + hi * wt
