"""Spans around the library's public functions, recorded from outside.

The engines look their collaborators up through module namespaces at call
time (``tarnpricer.fd.theta_step``, ``scipy.linalg.solve_banded``, ...), so
replacing those attributes with timing wrappers sees every call without a
change to the library.  ``patched`` installs wrappers and always puts the
originals back.

A span is (name, parent, start, end, count).  A span's self time is its
duration minus the durations of its direct children.  Spans stay in memory
until the caller folds them into per-name totals with ``totals``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    count: int  # work done in the call: 1, or rows / paths where that is the unit
    start: float = 0.0
    end: float = 0.0


@dataclass(frozen=True)
class Target:
    """Attribute ``attr`` of ``owner`` is wrapped and recorded as span ``name``.

    ``count`` maps the call's arguments to the span's count.  With
    ``parent`` set, only calls made directly under a span of that name are
    recorded; other calls pass through and stay in their caller's self time.
    """

    owner: object
    attr: str
    name: str
    count: object = None
    parent: str | None = None


def _rows(rows, *args, **kwargs) -> int:
    shape = getattr(rows, "shape", None)
    return 1 if shape is None or len(shape) == 1 else shape[0]


def _paths(model, spot, fixing_times, n_paths, *args, **kwargs) -> int:
    return n_paths


def engine_targets() -> list[Target]:
    """Engine calls as the front end makes them; one span per engine call.

    On ``refine`` the FD engine call is ``estimate_error``, which prices
    twice through its default ``pricer`` argument.
    """
    from tarnpricer import cli

    return [
        Target(cli, "fd_price", "fd.price"),
        Target(cli, "estimate_error", "fd.price"),
        Target(cli, "mc_price", "mc.price"),
    ]


def layer_targets() -> list[Target]:
    """Every layer boundary the per-layer metrics are taken at."""
    import scipy.linalg

    from tarnpricer import cli, fd, market, mc

    return engine_targets() + [
        Target(cli, "run", "cli.run"),
        Target(cli, "emit", "cli.emit"),
        Target(fd, "build_grid", "fd.build_grid"),
        Target(fd, "coefficients_at", "fd.coefficients_at"),
        Target(fd, "theta_step", "fd.theta_step", _rows),
        Target(scipy.linalg, "solve_banded", "fd.solve_banded", parent="fd.theta_step"),
        Target(fd, "apply_jump", "fd.apply_jump"),
        Target(fd, "tridiagonal_solve", "fd.tridiagonal_solve"),
        Target(fd, "natural_cubic_spline", "fd.readout_interp"),
        Target(mc, "simulate_fixing_paths", "mc.simulate_fixing_paths", _paths),
        Target(mc, "batch_present_value", "contract.batch_present_value"),
        Target(mc, "standard_error", "mc.standard_error"),
        Target(mc, "vanilla_price", "market.vanilla_price"),
        Target(market.LocalVolSurface, "interpolate", "market.LocalVolSurface.interpolate"),
    ]


@contextmanager
def patched(targets, wrap):
    """Set each target's attribute to ``wrap(original, target)``.

    The originals are always put back, in reverse order, so patches can nest.
    """
    saved = []
    try:
        for t in targets:
            original = getattr(t.owner, t.attr)
            saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, wrap(original, t))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def record(self, name, fn) -> Span:
        """Call ``fn()`` inside a span ``name`` under the innermost open span."""
        index = len(self.spans)
        self._record(name, self._open[-1] if self._open else -1, 1, fn, (), {})
        return self.spans[index]

    def _record(self, name, parent, count, fn, args, kwargs):
        span = Span(name, parent, count)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def wrap(self, fn, target: Target):
        spans, open_ = self.spans, self._open
        name, count, only_under = target.name, target.count, target.parent

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            if only_under is not None and (parent < 0 or spans[parent].name != only_under):
                return fn(*args, **kwargs)
            n = count(*args, **kwargs) if count else 1
            return self._record(name, parent, n, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def patched(self, targets):
        return patched(targets, self.wrap)

    def totals(self) -> dict:
        """name -> {"self_s", "calls", "count"} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict = {}
        for s, inner in zip(self.spans, child):
            agg = out.setdefault(s.name, {"self_s": 0.0, "calls": 0, "count": 0})
            agg["self_s"] += s.end - s.start - inner
            agg["calls"] += 1
            agg["count"] += s.count
        return out

    def clear(self) -> None:
        self.spans.clear()
