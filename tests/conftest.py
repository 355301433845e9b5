import pytest

from conekit import quiverrep


@pytest.fixture(autouse=True)
def _cold_extension_generators():
    """Each test starts with no K-theory generators kept from another: a
    warm memo would hide the module walk from a test that counts it."""
    quiverrep._EXTENSION_GENERATORS.clear()
