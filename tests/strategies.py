"""Shared hypothesis strategies, and the twists by a power of omega that
the twist-equivariance tests compare the weight-set recipes under."""

from hypothesis import strategies as st

from serrewt.galois_params import (
    SHAPE_NONSPLIT,
    SHAPE_PEU,
    SHAPE_SPLIT,
    SHAPE_TRES,
    Irreducible,
    Reducible,
    normalize_level2,
)
from serrewt.weights import SerreWeight, VirtualClass

TEST_PRIMES = [3, 5, 7, 11, 13]


def param_twist(param, t):
    """The parameter of omega^t (x) rho."""
    p = param.p
    if isinstance(param, Irreducible):
        return Irreducible(p, *normalize_level2(p, p * param.a + param.b + t * (p + 1)))
    return Reducible(p, (param.twist + t) % (p - 1), param.ratio, param.shape, param.lambda_equal)


def twist_weight(w, t):
    """det^t (x) w."""
    return SerreWeight(w.p, (w.a + t) % (w.p - 1), w.b)


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
