import numpy as np
import pytest

from illposed import gaussian_blur_problem, hilbert_problem


@pytest.fixture(scope="session")
def hilbert8():
    prob = hilbert_problem(8)
    return prob, prob.decomposition


@pytest.fixture(scope="session")
def gauss32():
    prob = gaussian_blur_problem(32, 0.05)
    return prob, prob.decomposition


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
