"""Test-suite configuration shared by every tier-1 test module."""

import pytest


def pytest_configure(config):
    # ``python -O`` strips every bare ``assert``, so the suite would pass
    # while checking little beyond ``pytest.raises`` and numpy's asserts.
    if not __debug__:
        raise pytest.UsageError("the tests rely on assert statements; run them without -O")
