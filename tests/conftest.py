import numpy as np
import pytest

from cases import sample_lengths
from hytet import EdgeLengths


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_cases(rng):
    """Thirty interior valid tetrahedra, fixed across the session seed."""
    return [sample_lengths(rng) for _ in range(30)]


@pytest.fixture
def all_ones():
    return EdgeLengths(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
