"""Session-scoped runs of the default scenarios, each built once for every
test module that checks it."""

import time

import pytest

from ringswarm.scenarios import bimodal_config, monomodal_config, run_microscopic, tracking_config


@pytest.fixture(scope="session")
def mono_run():
    """The default monomodal run without density samples, and its wall time
    in seconds (criterion 1 bounds it)."""
    t0 = time.perf_counter()
    record = run_microscopic(monomodal_config(record_density=False))
    return record, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bimodal_run():
    """The default bimodal run without agent samples."""
    return run_microscopic(bimodal_config(record_agents=False))


@pytest.fixture(scope="session")
def tracking_run():
    """The default tracking run without agent samples."""
    return run_microscopic(tracking_config(record_agents=False))
