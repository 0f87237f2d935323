"""Every library attribute that ``perfbench/tracing.py`` patches by name
exists, and the front end calls its engine targets once per case, so that
a change to either fails here and not only in a benchmark run."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import layer_targets  # noqa: E402

TARGETS = layer_targets()


@pytest.mark.parametrize("target", TARGETS,
                         ids=[f"{t.owner.__name__}.{t.attr}" for t in TARGETS])
def test_every_layer_target_exists(target):
    assert hasattr(target.owner, target.attr)


def test_a_theta_step_span_counts_its_rows():
    # perfbench's fd.theta_step.rows is the first argument's row count: a
    # signature that moved the (J, M) rows would break it silently
    import numpy as np

    from tarnpricer import BoundaryKind, fd
    from test_fd import step_buffers
    from tracing import Tracer

    (target,) = [t for t in TARGETS if t.name == "fd.theta_step"]
    tracer = Tracer()
    step = tracer.wrap(fd.theta_step, target)
    rows = np.ones((5, 12))
    closure = fd._closure(BoundaryKind.ZERO_GAMMA, 1, None, 0.1)
    buffers = step_buffers(rows)
    out = step(rows, 0.01, 0.5, (1.0, -2.0, 1.0), (1.0, -2.0, 1.0), closure, **buffers)
    assert out is buffers["out"] and out.shape == rows.shape
    assert [(s.name, s.count) for s in tracer.spans] == [("fd.theta_step", 5)]


def test_the_engine_s_theta_steps_count_their_rows():
    # the same count through the engine's own calls: a local-vol pricing
    # marches J rows between fixings and one row before the first, so
    # every span counts J or 1, whatever keywords the march passes
    from conftest import benchmark_contract, smile_model
    from tarnpricer import FdConfig, KnockoutType, fd
    from tracing import Tracer

    (target,) = [t for t in TARGETS if t.name == "fd.theta_step"]
    tracer = Tracer()
    config = FdConfig(spot_nodes=60, accumulation_nodes=10, time_steps=40)
    contract = benchmark_contract(KnockoutType.PART_GAIN, 0.3)
    with tracer.patched([target]):
        fd.fd_price(contract, smile_model(), config, 1.0)
    counts = [s.count for s in tracer.spans]
    assert len(counts) == config.time_steps
    assert set(counts) == {config.accumulation_nodes, 1}


def test_cli_run_makes_one_engine_call_per_case():
    # perfbench times each engine call as an fd.price or mc.price span, and
    # a pass with none is an error there: a run whose cases share their
    # work must still call each engine once per case
    from tarnpricer import cli
    from tarnpricer.mc import McConfig
    from tracing import engine_targets, patched
    from workloads import TINY_FD, TINY_PATHS

    config = dataclasses.replace(cli.preset_table1(), fd=TINY_FD,
                                 mc=McConfig(n_paths=TINY_PATHS))
    calls = []

    def counted(fn, target):
        def call(contract, *args, **kwargs):
            calls.append((target.attr, contract.knockout, contract.target))
            return fn(contract, *args, **kwargs)
        return call

    with patched(engine_targets(), counted):
        records = cli.run(config)
    cases = [(ko, u) for ko in config.knockouts for u in config.targets]
    assert len(cases) == 12
    assert calls == [(attr,) + case for case in cases for attr in ("fd_price", "mc_price")]
    assert all(r.status == "ok" for r in records)
