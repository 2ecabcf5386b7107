"""Test-suite configuration shared by every tier-1 test module."""

import pytest

from diqkd_lab import architectures, photonics


def pytest_configure(config):
    # ``python -O`` strips every bare ``assert``, so the suite would pass
    # while checking little beyond ``pytest.raises`` and numpy's asserts.
    if not __debug__:
        raise pytest.UsageError("the tests rely on assert statements; run them without -O")


@pytest.fixture
def clear_link_caches():
    """A callable that empties every cache of the architectures and photonics layers.

    A run after it starts cold: it calls every op that a cached source,
    ancilla or amplifier term would let it skip, whichever tests ran first.
    """

    def clear():
        for module in (architectures, photonics):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    return clear
