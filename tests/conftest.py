import pytest

from sphuni import statistics


@pytest.fixture(autouse=True)
def _cold_null_memo():
    # every test starts with no null law kept, so whether a test scores a
    # fresh Monte Carlo null pass does not depend on the tests run before it
    statistics._null_memo.clear()
