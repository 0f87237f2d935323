"""One run of one workload, in a fresh process; started by ``run.py``.

The process imports ``tarnpricer`` from the checkout's ``src``, builds the
first pass's inputs and prices one tiny job through the same code path so
that lazy imports and first-call costs land in set-up, then prints
``ready``.  With ``--setup-only`` it then only times the speed probe five
times.  Otherwise it times ``--seconds`` over the workload's nominal pass
length whole passes (at least one), checks every emitted record, and prints
one JSON object as its last line: per-pass wall times, engine-call
latencies, the speed probe's times, per-layer span totals when
``--trace 1``, the failure count, peak resident memory and the machine
description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass

    def blas(cfg, key):
        dep = cfg["Build Dependencies"].get(key, {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    np_cfg = numpy.show_config(mode="dicts")
    sp_cfg = scipy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np_cfg, "blas"),
        "numpy_lapack": blas(np_cfg, "lapack"),
        "scipy_lapack": blas(sp_cfg, "lapack"),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def make_probe(m: int, j: int):
    """A fixed job, timed around every engine call to follow the host's speed.

    On a shared host the speed of one core drifts by tens of percent over
    minutes.  The probe mixes what the engines spend time in (banded LAPACK
    solves on an (m, j) right-hand side, as for a grid of m spot and j
    accumulation nodes, gathers over a 1.6 MB array, an interpreter loop)
    and does not depend on tarnpricer, so a run's engine time over its
    median probe time stays put while both drift.
    """
    import numpy as np
    import scipy.linalg

    solve = scipy.linalg.solve_banded  # bound now, never a traced wrapper
    rng = np.random.default_rng(0)
    bands = np.array([[0.1], [-0.5], [2.0], [-0.5], [0.1]]) * np.ones(m)
    rhs = rng.standard_normal((m, j))
    table = rng.standard_normal((200, 1000))
    order = np.argsort(table[:1], axis=1).repeat(200, axis=0)
    ones = np.ones(j - 2)

    def probe() -> None:
        for _ in range(3):
            x = solve((2, 2), bands, rhs)
            np.maximum(x[:, :-2] - x[:, 2:], 0.0) @ ones
            np.take_along_axis(table, order, axis=1).sum()
        acc = 0.0
        for i in range(10000):
            acc += i * 0.5

    return probe


PROBE_EVERY_S = 0.5


def run_passes(workload, seed, n_passes, trace, first, probe):
    """Time ``n_passes`` whole passes; return (pass summaries, [(jobs, emitted texts)]).

    The speed probe runs just before every engine call and at the end of
    each pass: once, plus once per PROBE_EVERY_S since it last ran, so long
    calls get as many probes as short ones per second.  Each probe is a span
    "bench.probe", so its time leaves the self time of the span it runs
    under; it is also left out of pass wall times.
    """
    import tracing
    from tarnpricer import cli

    tracer = tracing.Tracer()
    probe_s: list[float] = []  # every probe's seconds in this pass
    calls: list[tuple] = []  # (engine span name, seconds) in this pass
    last = 0.0

    def tick() -> None:
        nonlocal last
        for _ in range(1 + int((time.perf_counter() - last) / PROBE_EVERY_S)):
            span = tracer.record("bench.probe", probe)
            probe_s.append(span.end - span.start)
        last = time.perf_counter()

    def timed(fn, target):
        def call(*args, **kwargs):
            tick()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((target.name, time.perf_counter() - t0))
        return call

    passes, outputs = [], []
    jobs = first
    layers = tracer.patched(tracing.layer_targets()) if trace else nullcontext()
    with layers, tracing.patched(tracing.engine_targets(), timed):
        for index in range(n_passes):
            if index:
                jobs = workload.make_pass(seed, index, False)
            t0 = last = time.perf_counter()
            texts = [cli.emit(cli.run(job.config), "records") for job in jobs]
            wall = time.perf_counter() - t0 - sum(probe_s)
            tick()
            passes.append({
                "wall_s": wall,
                "fd_s": [t for name, t in calls if name == "fd.price"],
                "mc_s": [t for name, t in calls if name == "mc.price"],
                "probe_s": list(probe_s),
                "layers": tracer.totals() if trace else None,
            })
            outputs.append((jobs, texts))
            probe_s.clear()
            calls.clear()
            tracer.clear()
    return passes, outputs


def check_outputs(workload, outputs):
    """(attempted, failed, descriptions of the first failures)."""
    import workloads
    from tarnpricer import cli

    attempted = failed = 0
    notes = []
    for jobs, texts in outputs:
        for job, text in zip(jobs, texts):
            records = cli.read_records(text)
            bad = workloads.failed_keys(job, records, workload.check)
            attempted += workloads.expected_calls(job)
            failed += len(bad)
            described = [f"{e} {k} target={t:.6g}" for e, k, t in sorted(bad)]
            notes += described[: max(0, 20 - len(notes))]
    return attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import tarnpricer

    if not Path(tarnpricer.__file__).resolve().is_relative_to(SRC):
        print(f"tarnpricer imported from {tarnpricer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    first = workload.make_pass(args.seed, 0, False)
    probe = make_probe(*workload.probe_grid)
    run_passes(workload, args.seed, 1, False, workload.make_pass(args.seed, 0, True)[:1],
               probe)
    print("ready", flush=True)
    if args.setup_only:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            probe()
            times.append(time.perf_counter() - t0)
        print(json.dumps({"probe_s": times, "probe_ref_s": workload.probe_ref_s}))
        return 0

    # A fixed number of passes, so the sample count does not follow host speed.
    n_passes = max(1, int(args.seconds / workload.pass_s))
    passes, outputs = run_passes(workload, args.seed, n_passes, bool(args.trace), first, probe)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, notes = check_outputs(workload, outputs)
    print(json.dumps({
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": notes,
        "peak_rss_kb": peak_rss_kb,
        "probe_ref_s": workload.probe_ref_s,
        "machine": machine(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
