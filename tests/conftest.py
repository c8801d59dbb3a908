import pytest

from drttp import core


@pytest.fixture(autouse=True)
def _empty_grid_memo():
    """Each test starts with an empty grid memo, so a test that counts maps
    or memo hits does not depend on which tests ran before it."""
    core._memo.cache_clear()
