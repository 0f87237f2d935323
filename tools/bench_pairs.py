"""Run the benchmark on two checkouts in alternating pairs and compare them.

For each seed of the range, in order, this runs::

    python3 perfbench/run.py --workload W --seed S --seconds 22 --trace 0

once in each checkout, each run in its own checkout directory; the parent
runs first in even-indexed pairs (0, 2, ...) and second in odd ones.  Before
pair 0 it makes one warm-up run in each checkout, parent first, on the first
seed: the first run of a set reads fast on every scaled time, so it is
printed as ``warm-up`` and left out of the comparison.  It prints one line
per run (its pair or ``warm-up``, side, seed, ``correct``, ``failed`` over
``attempted`` and its end-to-end metrics) as the runs finish, then one line
per end-to-end metric over the pairs::

    metric  parent median [Q1, Q3] -> change median  (+x.x%)  wins/pairs
            bound B: verdict

Quartiles are ``statistics.quantiles(..., method="inclusive")`` over the
parent's runs.  A pair is a win when the change's value is better in the
direction ``BENCHMARK.json`` gives for the metric; a tie wins for neither.
B is the metric's bound in ``BENCHMARK.json``, a fraction of the parent's
median, and the verdict is ``worse`` when the change's median is worse than
the parent's by more than that, else ``unresolved`` when the parent's
quartile distance is wider than that unless every change run beats every
parent run, else ``within bound``.  Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload local_vol --seeds 2571-2580

PARENT and CHANGE are checkout directories, each with its own
``perfbench/run.py``.  A run that exits non-zero or prints no result stops
the comparison, with its standard error shown.  So does a pair of
checkouts of which exactly one holds a ``__pycache__`` directory under
``src/`` or ``perfbench/``, before any run: ``perfbench/run.py`` writes no
``.pyc`` files, so a checkout without them compiles every module in every
run, and its ``peak_rss_mb`` reads about 1 MB higher for equal code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced run of ``perfbench/run.py`` in ``checkout``: its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "22", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["machine"] = next((line for line in proc.stderr.splitlines()
                              if line.startswith("machine: ")), "machine: unknown")
    return result


def holds_pycache(checkout: Path) -> bool:
    """Whether ``checkout`` holds a ``__pycache__`` directory under ``src/``
    or ``perfbench/``."""
    return any(path.is_dir() for top in ("src", "perfbench")
               for path in (checkout / top).rglob("__pycache__"))


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


SIDES = ("parent", "change")


def schedule(seeds: range):
    """The runs of a comparison in order, as (label, side, seed): one
    warm-up per side on the first seed, parent first, then one pair per
    seed, the parent first in even-indexed pairs and second in odd ones."""
    for side in SIDES:
        yield "warm-up", side, seeds[0]
    for index, seed in enumerate(seeds):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            yield f"pair {index}", side, seed


def end_to_end() -> dict:
    """Each end-to-end metric of ``BENCHMARK.json``: (better, bound)."""
    return {m["name"]: (m["better"], m["bound"])
            for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3 of ``values``."""
    if len(values) < 2:
        return (statistics.median(values),) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(metric: str, better: str, parent: list[float], change: list[float]) -> str:
    q1, median, q3 = quartiles(parent)
    new = statistics.median(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return (f"{metric:<16} {median:.4g} [{q1:.4g}, {q3:.4g}] -> {new:.4g}  "
            f"({100 * (new / median - 1):+.1f}%)  {wins}/{len(parent)}")


def verdict(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """``worse``, ``unresolved`` or ``within bound``: the change's median
    against the parent's, then the parent's spread, each against ``bound``
    times the parent's median."""
    q1, median, q3 = quartiles(parent)
    sign = 1 if better == "higher" else -1
    if sign * (statistics.median(change) - median) < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range FIRST-LAST, one pair per seed")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    values: dict = {"parent": {}, "change": {}}
    held = [side for side in SIDES if holds_pycache(sides[side])]
    if len(held) == 1:
        sys.exit(f"only the {held[0]} checkout, {sides[held[0]]}, holds __pycache__ under "
                 "src/ or perfbench/, which lowers its peak_rss_mb: remove it, or "
                 "import both checkouts once")

    for label, side, seed in schedule(args.seeds):
        result = run(sides[side], args.workload, seed)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        shown = " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
        print(f"{label} seed {seed} {side:<6} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        if label != "warm-up":
            for k, v in metrics.items():
                values[side].setdefault(k, []).append(v)
    print(result["machine"])
    print(f"{args.workload}: parent median [Q1, Q3] -> change median, change wins / pairs")
    for metric, (better, bound) in end_to_end().items():
        if metric in values["parent"]:
            parent, change = values["parent"][metric], values["change"][metric]
            print(summary(metric, better, parent, change))
            print(f"{'':<16} bound {bound:g}: {verdict(better, bound, parent, change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
