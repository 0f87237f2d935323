"""The record comparison of ``tools/records_digest.py``, on hand-made lines."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import records_digest  # noqa: E402
from records_digest import moves, relative_move  # noqa: E402


def line(engine, price, error_metric=1e-4, **fields):
    """One record line as ``tarnpricer.cli.emit`` writes it."""
    record = dict(engine=engine, knockout="no_gain", target=0.3, price=price,
                  error_metric=error_metric, error_kind="stderr", grid="g",
                  wall_time_s=0.0, fingerprint="f", status="ok") | fields
    return json.dumps(record, sort_keys=True)


BEFORE = ["table1 3", line("fd", 0.25), line("mc", 0.2), line("diff", 0.05, 0.25)]


def test_equal_outputs_move_nothing():
    largest, fd_identical = moves(BEFORE, list(BEFORE))
    assert fd_identical and set(largest.values()) == {0.0}
    # every number field of each engine is listed, no text field
    assert set(largest) == {(e, f) for e in ("fd", "mc", "diff")
                            for f in ("target", "price", "error_metric", "wall_time_s")}


def test_an_mc_move_is_its_largest_relative_move():
    after = ["table1 3", line("fd", 0.25), line("mc", 0.2 * (1 + 2**-50)),
             line("diff", 0.05, 0.25)]
    second = ["sweep 1", line("mc", 0.4, 1e-4 * (1 + 2**-48))]
    largest, fd_identical = moves(BEFORE + ["sweep 1", line("mc", 0.4)], after + second)
    assert fd_identical
    assert largest["mc", "price"] == pytest.approx(2**-50, rel=1e-3)
    assert largest["mc", "error_metric"] == pytest.approx(2**-48, rel=1e-3)
    assert largest["fd", "price"] == largest["diff", "price"] == 0.0


def test_an_fd_move_is_named():
    after = ["table1 3", line("fd", 0.25 + 1e-12), line("mc", 0.2), line("diff", 0.05, 0.25)]
    largest, fd_identical = moves(BEFORE, after)
    assert not fd_identical and largest["fd", "price"] == pytest.approx(4e-12)


def test_a_changed_text_field_is_an_infinite_move():
    failed = line("mc", math.nan, None, status="error: MC price is not finite (nan)")
    largest, fd_identical = moves(BEFORE, BEFORE[:2] + [failed] + BEFORE[3:])
    assert fd_identical
    assert largest["mc", "status"] == largest["mc", "price"] == math.inf
    assert ("fd", "status") not in largest


@pytest.mark.parametrize("a, b, want", [
    (0.5, 0.5, 0.0), (math.nan, math.nan, 0.0), (None, None, 0.0), ("ok", "ok", 0.0),
    (2.0, 3.0, 0.5), (-2.0, -3.0, 0.5), (0.0, 1e-300, math.inf), (1.0, math.nan, math.inf),
    (math.nan, 1.0, math.inf), (None, 1.0, math.inf), ("ok", "error", math.inf),
])
def test_relative_move(a, b, want):
    assert relative_move(a, b) == want


@pytest.mark.parametrize("after", [BEFORE[:3], ["refine 3"] + BEFORE[1:],
                                   BEFORE[:1] + ["refine 3"] + BEFORE[2:]],
                         ids=["fewer_lines", "other_workload", "header_for_record"])
def test_outputs_of_other_inputs_are_rejected(after):
    with pytest.raises(ValueError):
        moves(BEFORE, after)


def test_the_cli_form_prints_each_move_and_the_fd_verdict(tmp_path, capsys):
    after = ["table1 3", line("fd", 0.25), line("mc", 0.3), line("diff", 0.05, 0.25)]
    (tmp_path / "a.txt").write_text("\n".join(BEFORE) + "\n")
    (tmp_path / "b.txt").write_text("\n".join(after) + "\n")
    records_digest.main(["--compare", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
    out = capsys.readouterr().out.splitlines()
    assert "mc price 0.5" in out and "fd price 0" in out
    assert out[-1] == "fd records identical: yes"


TWO_WORKLOADS = BEFORE + ["local_vol 2", line("fd", 0.5), line("mc", 0.45)]


def test_each_workload_has_its_own_moves():
    # local_vol's FD price moves; table1's records are equal
    after = BEFORE + ["local_vol 2", line("fd", 0.5 * (1 + 2**-49)), line("mc", 0.45)]
    per = records_digest.workload_moves(TWO_WORKLOADS, after)
    assert list(per) == ["table1", "local_vol"]
    table1, table1_fd_identical = per["table1"]
    assert table1_fd_identical and set(table1.values()) == {0.0}
    local_vol, local_vol_fd_identical = per["local_vol"]
    assert not local_vol_fd_identical
    assert local_vol["fd", "price"] == pytest.approx(2**-49, rel=1e-3)
    assert local_vol["mc", "price"] == 0.0 and ("diff", "price") not in local_vol


def test_workload_moves_reject_other_inputs():
    with pytest.raises(ValueError):
        records_digest.workload_moves(TWO_WORKLOADS, TWO_WORKLOADS[:4] + ["refine 2"]
                                      + TWO_WORKLOADS[5:])


def test_the_cli_form_prints_each_workload_then_the_pooled_lines(tmp_path, capsys):
    after = BEFORE + ["local_vol 2", line("fd", 0.75), line("mc", 0.45)]
    (tmp_path / "a.txt").write_text("\n".join(TWO_WORKLOADS) + "\n")
    (tmp_path / "b.txt").write_text("\n".join(after) + "\n")
    records_digest.main(["--compare", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
    out = capsys.readouterr().out.splitlines()
    assert "table1 fd price 0" in out and "table1 fd records identical: yes" in out
    assert "local_vol fd price 0.5" in out and "local_vol fd records identical: no" in out
    assert "local_vol mc price 0" in out
    assert out.index("table1 fd records identical: yes") < out.index("local_vol fd price 0.5")
    assert "fd price 0.5" in out and out[-1] == "fd records identical: no"
