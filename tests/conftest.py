import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run and host, so that two runs of the suite
# compare like with like; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

from cstarpow.algebra import make_algebra


@pytest.fixture(scope="session")
def m2():
    return make_algebra([2])


@pytest.fixture(scope="session")
def m23():
    return make_algebra([2, 3])


@pytest.fixture(scope="session")
def c2():
    return make_algebra([1, 1])


@pytest.fixture(scope="session")
def c3():
    return make_algebra([1, 1, 1])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
