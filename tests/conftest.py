import numpy as np
import pytest

from mpmech.matched_pair import validation_report
from mpmech.sl2c import builtin_pairs


@pytest.fixture(scope="session")
def pairs():
    return builtin_pairs()


@pytest.fixture(scope="session")
def sl2c_derived(pairs):
    return pairs["sl2c_derived"]


@pytest.fixture(scope="session")
def sl2c_printed(pairs):
    return pairs["sl2c_printed"]


@pytest.fixture(scope="session")
def e3_heavytop(pairs):
    return pairs["e3_heavytop"]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def compatibility_defects():
    """Reads the values of a pair's two compatibility checks, condition 1 first,
    off its validation report."""
    def read(mp):
        report = {c.name: c.value for c in validation_report(mp)}
        return report["compatibility condition 1"], report["compatibility condition 2"]
    return read
