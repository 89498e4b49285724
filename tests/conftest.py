"""Tier-1 settings: a fold or saturation warning that a test does not expect fails it."""


def pytest_configure(config):
    # registered here, not in pyproject.toml: pytest resolves the filters there
    # on every run, also where hodoflow is not importable (perfbench's tests)
    for category in ("UnivalenceWarning", "SaturationWarning"):
        config.addinivalue_line("filterwarnings", f"error::hodoflow.errors.{category}")
