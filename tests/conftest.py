import importlib

import pytest

# by module path: the package namespace re-exports a function named theta
theta_module = importlib.import_module("nctorus.theta")


@pytest.fixture
def fresh_eta_sample():
    """An empty cache of the eta check's seeded residuals before and after
    the test, so that residuals formed with a patched eta reach no other
    test."""
    theta_module._seeded_eta_residuals.cache_clear()
    yield
    theta_module._seeded_eta_residuals.cache_clear()
