"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from serrewt.galois_params import (
    SHAPE_NONSPLIT,
    SHAPE_PEU,
    SHAPE_SPLIT,
    SHAPE_TRES,
    Irreducible,
    Reducible,
)
from serrewt.weights import VirtualClass

TEST_PRIMES = [3, 5, 7, 11, 13]


@st.composite
def params(draw, primes=TEST_PRIMES):
    """A random valid inertial parameter at one of the given primes."""
    p = draw(st.sampled_from(primes))
    if draw(st.booleans()):
        a = draw(st.integers(0, p - 2))
        b = draw(st.integers(a + 1, p - 1))
        return Irreducible(p, a, b)
    m = draw(st.integers(0, p - 2))
    r = draw(st.integers(0, p - 2))
    lam = draw(st.booleans())
    if r == 1 and lam:
        shape = draw(st.sampled_from([SHAPE_SPLIT, SHAPE_PEU, SHAPE_TRES]))
    else:
        shape = draw(st.sampled_from([SHAPE_SPLIT, SHAPE_NONSPLIT]))
    return Reducible(p, m, r, shape, lam)


@st.composite
def classes(draw, primes=TEST_PRIMES):
    """A random VirtualClass at one of the given primes, built by the checking
    constructor from coefficients in [-3, 3], zeros included."""
    p = draw(st.sampled_from(primes))
    keys = st.tuples(st.integers(0, p - 2), st.integers(1, p))
    return VirtualClass(p, draw(st.dictionaries(keys, st.integers(-3, 3), max_size=2 * p)))
