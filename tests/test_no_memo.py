"""The engines keep no process-wide memo: every cache is a dict the caller
passes in, so a price never depends on what was priced before it."""

import pytest

from tarnpricer import contract, fd, market, mc


@pytest.mark.parametrize("module", [fd, mc, market, contract],
                         ids=lambda module: module.__name__)
def test_no_module_attribute_is_a_memo(module):
    # functools.lru_cache and functools.cache wrappers carry cache_info
    memos = [name for name, value in vars(module).items()
             if hasattr(value, "cache_info")]
    assert memos == []
