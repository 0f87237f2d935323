"""The verdict and run order of ``tools/bench_pairs.py``, on hand-made runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import schedule, verdict  # noqa: E402

METRICS = bench_pairs.end_to_end()


def test_every_end_to_end_metric_has_a_direction_and_a_bound():
    assert METRICS and {"wall_s", "peak_rss_mb"} <= set(METRICS)
    for better, bound in METRICS.values():
        assert better in ("lower", "higher") and bound > 0


def worse_by(better, fraction, value=10.0):
    """``value`` moved by ``fraction`` of itself in the worse direction."""
    return value * (1 - fraction if better == "higher" else 1 + fraction)


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_verdict_against_the_metric_bound(metric):
    better, bound = METRICS[metric]
    tight = [9.99, 10.0, 10.0, 10.01]
    for fraction, want in ((1.5, "worse"), (0.5, "within bound")):
        change = [worse_by(better, fraction * bound)] * 4
        assert verdict(better, bound, tight, change) == want
    assert verdict(better, bound, tight, tight) == "within bound"
    # quartiles at 10 -+ 20 bound: a spread of 4 bounds of the median
    wide = [10.0 - 3 * bound * 10, 10.0 - 2 * bound * 10, 10.0,
            10.0 + 2 * bound * 10, 10.0 + 3 * bound * 10]
    assert verdict(better, bound, wide, [10.0] * 5) == "unresolved"
    assert verdict(better, bound, wide, [worse_by(better, 1.5 * bound)] * 5) == "worse"
    beats_all = (max(wide) + 1 if better == "higher" else min(wide) / 2)
    assert verdict(better, bound, wide, [beats_all] * 5) == "within bound"
    # one change run that fails to beat every parent run leaves it unresolved
    assert verdict(better, bound, wide, [beats_all] * 4 + [10.0]) == "unresolved"


def test_verdict_reads_worse_in_the_metric_direction():
    parent = [100.0, 100.0, 100.0]
    assert verdict("higher", 0.25, parent, [70.0] * 3) == "worse"
    assert verdict("lower", 0.25, parent, [70.0] * 3) == "within bound"
    assert verdict("lower", 0.25, parent, [130.0] * 3) == "worse"
    assert verdict("higher", 0.25, parent, [130.0] * 3) == "within bound"


def test_schedule_warms_up_each_side_then_alternates_pairs():
    assert list(schedule(range(5, 8))) == [
        ("warm-up", "parent", 5), ("warm-up", "change", 5),
        ("pair 0", "parent", 5), ("pair 0", "change", 5),
        ("pair 1", "change", 6), ("pair 1", "parent", 6),
        ("pair 2", "parent", 7), ("pair 2", "change", 7),
    ]


def checkout(root, *pycache):
    """A checkout directory under ``root`` with a ``__pycache__`` at each of
    ``pycache``, relative paths."""
    (root / "src" / "tarnpricer").mkdir(parents=True)
    (root / "perfbench").mkdir()
    for where in pycache:
        (root / where / "__pycache__").mkdir(parents=True)
    return root


@pytest.mark.parametrize("where", ["src/tarnpricer", "perfbench", "src"])
def test_holds_pycache_under_src_or_perfbench(tmp_path, where):
    assert bench_pairs.holds_pycache(checkout(tmp_path / "a", where))
    # a __pycache__ elsewhere, or none, does not count
    assert not bench_pairs.holds_pycache(checkout(tmp_path / "b", "tests"))
    assert not bench_pairs.holds_pycache(checkout(tmp_path / "c"))


@pytest.mark.parametrize("held", ["parent", "change"])
def test_one_checkout_with_pycache_stops_before_any_run(tmp_path, monkeypatch, held):
    def run(*args):
        raise AssertionError("a run was started")

    monkeypatch.setattr(bench_pairs, "run", run)
    sides = {side: checkout(tmp_path / side, *(["src/tarnpricer"] if side == held else []))
             for side in ("parent", "change")}
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main([str(sides["parent"]), str(sides["change"]),
                          "--workload", "table1", "--seeds", "1-2"])
    assert str(stopped.value).startswith(f"only the {held} checkout, {sides[held]}, "
                                         "holds __pycache__")


@pytest.mark.parametrize("pycache", [[], ["src/tarnpricer"]], ids=["neither", "both"])
def test_neither_or_both_checkouts_with_pycache_go_on(tmp_path, monkeypatch, pycache):
    started = []

    def run(checkout, workload, seed):
        started.append(checkout)
        raise SystemExit("stopped at the first run")

    monkeypatch.setattr(bench_pairs, "run", run)
    parent, change = (checkout(tmp_path / side, *pycache) for side in ("parent", "change"))
    with pytest.raises(SystemExit, match="^stopped at the first run$"):
        bench_pairs.main([str(parent), str(change), "--workload", "table1", "--seeds", "1"])
    assert started == [parent]
