"""The medians ``tools/raw_calls.py`` prints, on a hand-made worker result."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from raw_calls import medians  # noqa: E402

# two passes as perfbench/worker.py reports them: each pass's unscaled wall
# seconds (probes left out), its engine calls' and its probes' seconds
RESULT = {
    "probe_ref_s": 0.012,
    "passes": [
        {"wall_s": 1.0, "fd_s": [0.5, 1e-4, 1e-4], "mc_s": [0.3, 5e-5],
         "probe_s": [0.024, 0.020]},
        {"wall_s": 1.4, "fd_s": [0.7, 2e-4, 2e-4], "mc_s": [0.4, 7e-5],
         "probe_s": [0.028, 0.016]},
    ],
}


def test_medians_of_a_canned_worker_result():
    got = medians(RESULT)
    assert list(got) == ["fd_raw_p50", "mc_raw_p50", "probe_p50", "factor",
                         "wall_raw_p50", "fd_p50", "mc_p50"]
    assert got["fd_raw_p50"] == pytest.approx(2e-4)
    assert got["mc_raw_p50"] == pytest.approx(0.5 * (7e-5 + 0.3))
    assert got["probe_p50"] == pytest.approx(0.022)
    assert got["factor"] == pytest.approx(0.012 / 0.022)
    # the raw pass wall is not scaled: a probe that runs slow leaves it be
    assert got["wall_raw_p50"] == pytest.approx(1.2)
    assert got["fd_p50"] == pytest.approx(2e-4 * 0.012 / 0.022)
    assert got["mc_p50"] == pytest.approx(0.5 * (7e-5 + 0.3) * 0.012 / 0.022)
