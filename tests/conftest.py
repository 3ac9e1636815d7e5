import hypothesis
import numpy as np

from rsedlab.bitcore import join
from rsedlab.randomness import FeistelSpec, SignFunction, SubsetPermutation
from rsedlab.rng import WordStream, fisher_yates

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


def basis_state(dim, x):
    """The one-hot amplitudes of |x> in dimension dim."""
    amps = np.zeros(dim, dtype=np.complex128)
    amps[x] = 1.0
    return amps


def subset_phase_state(p, f, a, shape) -> np.ndarray:
    """Oracle: the binary-phase subset state 2**(-k/2) sum_b
    (-1)^{f(join(b, a))} |p(join(b, a))>, built from its formula."""
    xs = np.array([join(b, a, shape) for b in range(shape.subdim)], dtype=np.uint32)
    amps = np.zeros(shape.dim)
    amps[p.forward_array(xs)] = (1.0 - 2.0 * f.sign_array(xs)) / np.sqrt(shape.subdim)
    return amps


def identity_permutation(shape):
    """p(x) = x on [0, 2**n), as an explicit table."""
    return SubsetPermutation(shape, table=np.arange(shape.dim, dtype=np.uint32))


def zero_sign_function(shape):
    """f(x) = 0 on [0, 2**n), as explicit bits."""
    return SignFunction(shape, bits=np.zeros(shape.dim, dtype=np.uint8))


def backend_permutation(shape, seed, backend):
    """The seeded permutation on a named backend at any n: the Fisher-Yates
    table ("explicit") that sample_permutation draws for n <= 16, or the
    Feistel network ("feistel") it draws above."""
    if backend == "explicit":
        return SubsetPermutation(shape, table=fisher_yates(shape.dim, seed))
    return SubsetPermutation(shape, feistel=FeistelSpec(shape.n, int(seed.state())))


def backend_sign_function(shape, seed, backend):
    """The seeded sign function on a named backend at any n: the stream bits
    ("explicit") that sample_sign_function draws for n <= 16, or the keyed
    PRF ("keyed_prf") it draws above."""
    if backend == "explicit":
        return SignFunction(shape, bits=WordStream(seed).bits(shape.dim))
    return SignFunction(shape, key=int(seed.state()))
