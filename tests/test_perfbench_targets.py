"""Every library attribute that ``perfbench/tracing.py`` patches by name
exists, so that renaming one in ``src/`` fails here and not only in a
traced benchmark run."""

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
