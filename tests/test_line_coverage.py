"""The command line of ``tools/line_coverage.py``, read before any tracing."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import line_coverage  # noqa: E402


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--verbose"], 2)],
                         ids=["help", "unknown-flag"])
def test_arguments_are_read_before_tracing_starts(monkeypatch, capsys, argv, code):
    def no_tracing():
        pytest.fail("tracing started")

    monkeypatch.setattr(line_coverage, "Tracer", no_tracing)
    with pytest.raises(SystemExit) as exit_:
        line_coverage.main(argv)
    assert exit_.value.code == code
    if code == 0:
        assert "List the statements of" in capsys.readouterr().out
