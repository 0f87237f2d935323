"""tarnpricer benchmark: one workload per call, or every workload with --report.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --report [--seconds 22] [--seed 1] [--out FILE]

A run starts fresh worker processes (``worker.py``): two that only set up
(untraced runs only), then one that sets up and measures.  Set-up time is taken here, from
starting the process to its ``ready`` line.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--report`` runs every workload untraced and then traced and prints every
metric with its unit and sample count, the failure share, the tracing
overhead and the machine.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("table1", "refine", "sweep", "local_vol")
SETUP_SAMPLES = 3  # fresh processes per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a run ends within this, or fails
# Time metrics are seconds at reference speed: measured seconds times the
# workload's probe_ref_s over the median time of the speed probes run in the
# same process (worker.make_probe, workloads.Workload).

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fd_price_s_p50": "s",
    "mc_price_s_p50": "s",
    "pricings_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# metric -> (spans summed, span field, divided by).  Self times are seconds
# per pass; counts are per engine call of the engine that makes them ("fd":
# fd_price, or estimate_error on refine; "mc": mc_price; "all": both).
PER_LAYER = {
    "fd.price.s": (("fd.price",), "self_s", "pass"),
    "fd.build_grid.s": (("fd.build_grid",), "self_s", "pass"),
    "fd.coefficients_at.s": (("fd.coefficients_at",), "self_s", "pass"),
    "fd.coefficients_at.calls": (("fd.coefficients_at",), "calls", "fd"),
    "fd.theta_step.s": (("fd.theta_step",), "self_s", "pass"),
    "fd.theta_step.calls": (("fd.theta_step",), "calls", "fd"),
    "fd.theta_step.rows": (("fd.theta_step",), "count", "fd"),
    "fd.solve_banded.s": (("fd.solve_banded",), "self_s", "pass"),
    "fd.solve_banded.calls": (("fd.solve_banded",), "calls", "fd"),
    "fd.apply_jump.s": (("fd.apply_jump",), "self_s", "pass"),
    "fd.apply_jump.calls": (("fd.apply_jump",), "calls", "fd"),
    "fd.tridiagonal_solve.s": (("fd.tridiagonal_solve",), "self_s", "pass"),
    "fd.tridiagonal_solve.calls": (("fd.tridiagonal_solve",), "calls", "fd"),
    "fd.readout_interp.calls": (("fd.readout_interp",), "calls", "fd"),
    "mc.price.s": (("mc.price",), "self_s", "pass"),
    "mc.simulate_fixing_paths.s": (("mc.simulate_fixing_paths",), "self_s", "pass"),
    "mc.simulate_fixing_paths.calls": (("mc.simulate_fixing_paths",), "calls", "mc"),
    "mc.paths": (("mc.simulate_fixing_paths",), "count", "mc"),
    "contract.batch_present_value.s": (("contract.batch_present_value",), "self_s", "pass"),
    "mc.standard_error.s": (("mc.standard_error",), "self_s", "pass"),
    "market.s": (("market.vanilla_price", "market.LocalVolSurface.interpolate"),
                 "self_s", "pass"),
    "market.vanilla_price.calls": (("market.vanilla_price",), "calls", "mc"),
    "market.LocalVolSurface.interpolate.calls": (
        ("market.LocalVolSurface.interpolate",), "calls", "all"),
    "cli.run.s": (("cli.run",), "self_s", "pass"),
    "cli.emit.s": (("cli.emit",), "self_s", "pass"),
}
# Printed by --report only.  Each is exactly zero on the workloads that never
# call it, so the per-run output reports their sum, market.s, instead.
REPORT_ONLY = {
    "market.vanilla_price.s": (("market.vanilla_price",), "self_s", "pass"),
    "market.LocalVolSurface.interpolate.s": (
        ("market.LocalVolSurface.interpolate",), "self_s", "pass"),
}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float):
    """Start a worker; return (seconds to its ready line, its result or None)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - started, 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    try:
        return ready, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result: {exc}") from None


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run: the measured worker, after set-up-only ones when untraced."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        ready, probes = spawn(base + ["--seconds", "0", "--setup-only"], deadline)
        setups.append(ready * probes["probe_ref_s"] / statistics.median(probes["probe_s"]))
    ready, result = spawn(base + ["--seconds", repr(seconds), "--trace", str(int(trace))],
                          deadline)
    result["setup_s"] = setups + [ready * factor(result)]
    return result


def factor(result) -> float:
    """Reference seconds per measured second: probe_ref_s over the median probe."""
    return result["probe_ref_s"] / statistics.median(
        t for p in result["passes"] for t in p["probe_s"])


def end_to_end(result) -> dict:
    """name -> (value, sample count)."""
    passes = result["passes"]
    k = factor(result)
    fd = [t * k for p in passes for t in p["fd_s"]]
    mc = [t * k for p in passes for t in p["mc_s"]]
    if not fd or not mc:
        raise BenchError("a pass made no call to one of the engines")
    walls = [p["wall_s"] * k for p in passes]
    return {
        "setup_s": (statistics.median(result["setup_s"]), len(result["setup_s"])),
        "wall_s": (statistics.median(walls), len(passes)),
        "fd_price_s_p50": (statistics.median(fd), len(fd)),
        "mc_price_s_p50": (statistics.median(mc), len(mc)),
        "pricings_per_s": (statistics.median(
            (len(p["fd_s"]) + len(p["mc_s"])) / w for p, w in zip(passes, walls)),
            len(passes)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, 1),
    }


def per_layer(result, table=PER_LAYER) -> dict:
    """name -> value, from the span totals of every pass."""
    passes = result["passes"]
    k = factor(result)
    totals: dict = {}
    for p in passes:
        for name, agg in p["layers"].items():
            into = totals.setdefault(name, dict.fromkeys(agg, 0))
            for field, v in agg.items():
                into[field] += v
    n_fd = sum(len(p["fd_s"]) for p in passes)
    n_mc = sum(len(p["mc_s"]) for p in passes)
    basis = {"pass": len(passes), "fd": n_fd, "mc": n_mc, "all": n_fd + n_mc}
    out = {metric: sum(totals.get(s, {}).get(field, 0) for s in spans) / basis[per]
           * (k if field == "self_s" else 1)
           for metric, (spans, field, per) in table.items()}
    out["trace.wall_s"] = statistics.fmean(p["wall_s"] for p in passes) * k
    return out


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith(".s") or name.endswith("wall_s") else "count"


def high_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    q = math.floor(100 * (len(samples) - 10) / len(samples)) if samples else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def report(seed: int, seconds: float, out: str | None) -> int:
    """Every workload untraced then traced; one table per workload."""
    doc = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        plain = measure(name, seed, seconds, False)
        traced = measure(name, seed, seconds, True)
        doc["machine"] = plain["machine"]
        e2e = end_to_end(plain)
        layers = per_layer(traced, {**PER_LAYER, **REPORT_ONLY})
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        overhead = layers["trace.wall_s"] / e2e["wall_s"][0] - 1.0
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith(".s") and k not in ("market.s",))
        print(f"== {name} == (times at reference speed; measured seconds x "
              f"{factor(plain):.4f})")
        for metric, (value, n) in e2e.items():
            print(f"  {metric:<28} {value:12.6g} {END_TO_END[metric]:<6} n={n}")
        print(f"  {'failed_frac':<28} {failed / attempted:12.6g} {'1':<6} "
              f"n={attempted} ({failed} failed)")
        for engine in ("fd", "mc"):
            k = factor(plain)
            samples = [t * k for p in plain["passes"] for t in p[f"{engine}_s"]]
            hp = high_percentile(samples)
            if hp:
                print(f"  {engine}_price_s_p{hp[0]:<19} {hp[1]:12.6g} s      n={len(samples)}")
        print(f"  traced run: wall_s {layers['trace.wall_s']:.6g} s, overhead "
              f"{overhead:+.2%}, span self times sum to {self_sum:.6g} s per pass")
        for metric, value in layers.items():
            print(f"    {metric:<42} {value:14.6g} {unit(metric)}")
        for note in plain["failures"] + traced["failures"]:
            print(f"  FAILED {note}")
        doc["workloads"][name] = {
            "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "n": n}
                           for k, (v, n) in e2e.items()},
            "failed_frac": failed / attempted,
            "attempted": attempted,
            "per_layer": layers,
            "trace_overhead": overhead,
            "factor": factor(plain),
        }
    print("machine: " + json.dumps(doc["machine"]))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--out", help="with --report, also write the report as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tarnpricer" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'tarnpricer'}", file=sys.stderr)
        return 2
    try:
        if args.report:
            return report(args.seed, args.seconds, args.out)
        if not args.workload:
            parser.error("--workload or --report is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics = {k: {"value": v, "unit": unit(k)} for k, v in per_layer(result).items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, (v, _) in end_to_end(result).items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in result["failures"]:
        print(f"FAILED {note}", file=sys.stderr)
    print("machine: " + json.dumps(result["machine"]), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
