import hypothesis
import numpy as np

from rsedlab.randomness import SignFunction, SubsetPermutation

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


def identity_permutation(shape):
    """p(x) = x on [0, 2**n), as an explicit table."""
    return SubsetPermutation(shape, table=np.arange(shape.dim, dtype=np.uint32))


def zero_sign_function(shape):
    """f(x) = 0 on [0, 2**n), as explicit bits."""
    return SignFunction(shape, bits=np.zeros(shape.dim, dtype=np.uint8))
