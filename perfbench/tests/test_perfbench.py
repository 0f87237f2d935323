"""Self-tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tarnpricer import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_run(name, seed=7, trace=True):
    """One tiny pass in-process, shaped like a worker result."""
    wl = workloads.WORKLOADS[name]
    passes, outputs = worker.run_passes(wl, seed, 1, trace, wl.make_pass(seed, 0, True),
                                        worker.make_probe(*wl.probe_grid))
    attempted, failed, _ = worker.check_outputs(wl, outputs)
    return {"passes": passes, "attempted": attempted, "failed": failed, "setup_s": [1.0],
            "peak_rss_kb": 1024, "probe_ref_s": wl.probe_ref_s}, outputs


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_runs_tiny(name):
    result, outputs = tiny_run(name)
    (jobs, texts), = outputs
    assert result["attempted"] == sum(workloads.expected_calls(j) for j in jobs) > 0
    for value, n in run.end_to_end(result).values():
        assert math.isfinite(value) and value > 0 and n >= 1
    layers = run.per_layer(result)
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["fd.theta_step.calls"] > 0 and layers["mc.simulate_fixing_paths.calls"] > 0
    (p,) = result["passes"]
    assert min(p["fd_s"] + p["mc_s"] + p["probe_s"]) > 0


def test_table1_counts_per_price():
    result, _ = tiny_run("table1")
    layers = run.per_layer(result)
    steps = workloads.TINY_FD.time_steps
    assert layers["fd.theta_step.calls"] == steps
    assert layers["fd.solve_banded.calls"] == steps
    assert layers["fd.coefficients_at.calls"] == 2 * steps
    assert layers["fd.apply_jump.calls"] == layers["fd.tridiagonal_solve.calls"] == 20
    assert layers["mc.paths"] == workloads.TINY_PATHS


@pytest.mark.parametrize("name", ["sweep", "local_vol"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    make = workloads.WORKLOADS[name].make_pass

    def prints(seed, index):
        return [cli.fingerprint(j.config) for j in make(seed, index, False)]

    assert prints(5, 0) == prints(5, 0)
    assert prints(5, 1) == prints(5, 1)
    assert prints(5, 0) != prints(6, 0)
    assert prints(5, 0) != prints(5, 1)


@pytest.mark.parametrize("name", ["table1", "refine"])
def test_published_inputs_ignore_the_seed(name):
    make = workloads.WORKLOADS[name].make_pass
    assert ([cli.fingerprint(j.config) for j in make(1, 0, False)]
            == [cli.fingerprint(j.config) for j in make(2, 3, False)])


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(run.REPORT_ONLY)
    names += ["trace.wall_s"] + list(run.WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER) + ["trace.wall_s"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"])


def test_wrappers_are_removed_afterwards():
    targets = tracing.layer_targets()
    originals = [getattr(t.owner, t.attr) for t in targets]
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer.patched(targets):
            assert all(getattr(t.owner, t.attr) is not o for t, o in zip(targets, originals))
            raise KeyError("leave the block by an exception")
    assert all(getattr(t.owner, t.attr) is o for t, o in zip(targets, originals))


def test_child_spans_never_exceed_their_parent(monkeypatch):
    kept = []

    class KeepingTracer(tracing.Tracer):
        def clear(self):
            kept.extend(self.spans)
            super().clear()

    monkeypatch.setattr(tracing, "Tracer", KeepingTracer)
    wl = workloads.WORKLOADS["local_vol"]
    (summary,), _ = worker.run_passes(wl, 3, 1, True, wl.make_pass(3, 0, True),
                                      worker.make_probe(*wl.probe_grid))
    spans = kept
    assert spans and {s.name for s in spans} >= {"cli.run", "fd.solve_banded", "bench.probe",
                                                 "market.LocalVolSurface.interpolate"}
    assert all(spans[s.parent].name == "cli.run" for s in spans
               if s.name == "bench.probe" and s.parent >= 0)
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    assert all(agg["self_s"] >= 0 for agg in summary["layers"].values())
    assert all(spans[s.parent].name == "fd.theta_step"
               for s in spans if s.name == "fd.solve_banded")


def test_checks_flag_a_wrong_price():
    job = workloads.WORKLOADS["sweep"].make_pass(4, 0, True)[0]
    records = cli.read_records(cli.emit(cli.run(job.config), "records"))
    assert workloads.failed_keys(job, records, workloads.check_sweep) == set()
    no_gain = next(r for r in records if r.engine == "fd" and r.knockout == "no_gain")
    broken = [r if r is not no_gain else
              cli.ResultRecord(**{**r.to_dict(), "price": 2 * job.strip})
              for r in records]
    assert ("fd", "no_gain", no_gain.target) in workloads.failed_keys(
        job, broken, workloads.check_sweep)
    missing = [r for r in records if r is not no_gain]
    assert ("fd", "no_gain", no_gain.target) in workloads.failed_keys(
        job, missing, workloads.check_sweep)


def test_local_vol_check_flags_engines_five_stderr_apart():
    job = workloads.WORKLOADS["local_vol"].make_pass(4, 0, True)[0]
    records = cli.read_records(cli.emit(cli.run(job.config), "records"))
    mc = next(r for r in records if r.engine == "mc" and r.knockout == "part_gain")
    fd = next(r for r in records if r.engine == "fd" and r.knockout == "part_gain"
              and r.target == mc.target)
    broken = [r if r is not fd else
              cli.ResultRecord(**{**r.to_dict(), "price": mc.price + 5 * mc.error_metric})
              for r in records]
    assert {("fd", "part_gain", mc.target), ("mc", "part_gain", mc.target)} <= (
        workloads.failed_keys(job, broken, workloads.check_local_vol))


def test_one_run_prints_the_contract_line():
    for trace, names in ((0, list(run.END_TO_END)),
                         (1, list(run.PER_LAYER) + ["trace.wall_s"])):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "sweep", "--seed", "2",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert list(line["metrics"]) == names
        assert line["attempted"] >= 1 and isinstance(line["failed"], int)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
