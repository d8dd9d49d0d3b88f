import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conway_genera import genera, modforms, oracle, sigma
from conway_genera.conway import bundled_data


@pytest.fixture(scope="session")
def data():
    return bundled_data()


@pytest.fixture
def cold_caches():
    """Clear the series caches of modforms, genera, sigma and oracle before
    and after the test, so that it builds every series afresh and leaves no
    series built from a patched input to later tests.  The caches are
    collected before the test runs, so a builder the test patches is still
    cleared through its original."""
    caches = [fn for module in (modforms, genera, sigma, oracle)
              for fn in vars(module).values() if hasattr(fn, "cache_clear")]
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()
