import hypothesis
import numpy as np
import pytest

from weyllab.model import ModelParams

# derandomize: every run draws the same examples, so a tree that passes
# the suite once passes it every time, and a counterexample found once
# is found again.
hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
