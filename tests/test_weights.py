"""Tests for Serre weights, symmetric-power decomposition and k_min."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrewt import weights
from serrewt.errors import UnsupportedPrimeError
from serrewt.galois_params import Irreducible, Reducible, enumerate_params
from serrewt.oracle import verify_decomposition
from serrewt.recipes import _bm_weights, bm_multiplicity, kisin_mu, serre_k
from serrewt.verify import run_suite
from serrewt.weights import (
    _MR_BOUND,
    SerreWeight,
    VirtualClass,
    _decompose,
    _least_k,
    _miller_rabin,
    decompose_sym,
    is_odd_prime,
    k_min_closed,
    sym_class,
)

from peeling_reference import decompose_affine, decompose_loop
from strategies import classes, twist_weight

PRIMES = [3, 5, 7, 11, 13]


def W(p, a, b):
    return SerreWeight(p, a, b)


# ---------------------------------------------------------------------------
# SerreWeight basics


@pytest.mark.parametrize(
    "p,a,b,dim",
    [(5, 0, 1, 1), (5, 2, 5, 5), (7, 3, 4, 4)],
)
def test_weight_dim(p, a, b, dim):
    assert W(p, a, b).b == dim


def test_is_odd_prime_matches_a_sieve_below_2e5():
    # both paths: trial division below 2^18, and Miller-Rabin on its own
    # for every odd n > 41 (the strong pseudoprimes to base 2 among them)
    top = 2 * 10**5
    sieve = [True] * top
    sieve[0] = sieve[1] = False
    for d in range(2, int(top**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, top, d))
    for n in range(-3, top):
        expected = n > 2 and sieve[n]
        assert is_odd_prime(n) == expected, n
        if n > 41 and n % 2:
            assert _miller_rabin(n) == expected, n


@pytest.mark.parametrize("n, expected", [
    (100000000000000000039, True),
    (2**61 - 1, True),
    (2**89 - 1, None),                       # above the bound
    (3215031751, False),                     # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),            # ... to bases 2..31
    (318665857834031151167461, False),       # ... to bases 2..37
    (_MR_BOUND, None),                       # ... to bases 2..41
    (_MR_BOUND + 2, None),
    (10**30, False),                         # even: no primality test needed
])
def test_is_odd_prime_large(n, expected):
    if expected is None:
        with pytest.raises(UnsupportedPrimeError):
            is_odd_prime(n)
    else:
        assert is_odd_prime(n) is expected


def test_weight_validation():
    with pytest.raises(ValueError):
        W(5, 4, 1)  # a > p-2
    with pytest.raises(ValueError):
        W(5, 0, 6)  # b > p
    with pytest.raises(ValueError):
        W(5, 0, 0)
    with pytest.raises(ValueError):
        W(9, 0, 1)  # not prime
    with pytest.raises(ValueError):
        W(2, 0, 1)  # even prime


NON_INT_CALLS = {
    "serre_k(Irreducible(5.0, 0, 1))": lambda: serre_k(Irreducible(5.0, 0, 1)),
    "Irreducible(5, 0, 1.0)": lambda: Irreducible(5, 0, 1.0),
    "Reducible(5, 1.0, 0, ...)": lambda: Reducible(5, 1.0, 0, "split", True),
    "Reducible(5, 0, 0.5, ...)": lambda: Reducible(5, 0, 0.5, "split", True),
    "k_min_closed(SerreWeight(5.0, 1, 2))": lambda: k_min_closed(SerreWeight(5.0, 1, 2)),
    "SerreWeight(5, 0.5, 1)": lambda: SerreWeight(5, 0.5, 1),
    "SerreWeight(5, 1, 2.0)": lambda: SerreWeight(5, 1, 2.0),
    "VirtualClass(7.5)": lambda: VirtualClass(7.5),
    "VirtualClass(5, {(0.5, 1): 1})": lambda: VirtualClass(5, {(0.5, 1): 1}),
    "VirtualClass(5, {(0, 1): 0.5})": lambda: VirtualClass(5, {(0, 1): 0.5}),
    "VirtualClass(5, {(0, 1): '1'})": lambda: VirtualClass(5, {(0, 1): "1"}),
    "sym_class(5, 3).twist(1.0)": lambda: sym_class(5, 3).twist(1.0),
    "sym_class(5, 3).twist('1')": lambda: sym_class(5, 3).twist("1"),
    "run_suite([5.0])": lambda: run_suite([5.0]),
    "enumerate_params(5.0)": lambda: enumerate_params(5.0),
    "decompose_sym(5, 7.0)": lambda: decompose_sym(5, 7.0),
    # 7.0 == 7, but it is not read from 7's cache entry
    "sym_class(5, 7.0) after 7": lambda: (decompose_sym(5, 7), sym_class(5, 7.0)),
    # a bool is no int: True == 1 and isinstance(True, int) hold
    "decompose_sym(5, True)": lambda: decompose_sym(5, True),
    "sym_class(5, True) after 1": lambda: (decompose_sym(5, 1), sym_class(5, True)),
    "VirtualClass(5, {(0, 1): True})": lambda: VirtualClass(5, {(0, 1): True}),
    "VirtualClass(5, {(True, 1): 1})": lambda: VirtualClass(5, {(True, 1): 1}),
    "sym_class(5, 3).twist(True)": lambda: sym_class(5, 3).twist(True),
    "run_suite([5], ['kmin'], jobs=True)": lambda: run_suite([5], ["kmin"], jobs=True),
    "bm_multiplicity(Irreducible(5, 0, 1), True)": lambda: bm_multiplicity(Irreducible(5, 0, 1), True),
    "Irreducible(5, False, True)": lambda: Irreducible(5, False, True),
    "Reducible(5, True, 0, 'split', True)": lambda: Reducible(5, True, 0, "split", True),
    "Reducible(5, 0, 0, 'split', 'yes')": lambda: Reducible(5, 0, 0, "split", "yes"),
    "kisin_mu(Irreducible(5, 0, 1), 0.0, 0)": lambda: kisin_mu(Irreducible(5, 0, 1), 0.0, 0),
    "kisin_mu(Irreducible(5, 0, 1), True, 0)": lambda: kisin_mu(Irreducible(5, 0, 1), True, 0),
    "kisin_mu(Irreducible(5, 0, 1), None, 0)": lambda: kisin_mu(Irreducible(5, 0, 1), None, 0),
    "kisin_mu(Irreducible(5, 0, 1), 0, True)": lambda: kisin_mu(Irreducible(5, 0, 1), 0, True),
    # a key that is not an (a, b) pair
    "VirtualClass(5, {1: 1})": lambda: VirtualClass(5, {1: 1}),
    "VirtualClass(5, {True: 1})": lambda: VirtualClass(5, {True: 1}),
    "VirtualClass(5, {(0, 1, 2): 1})": lambda: VirtualClass(5, {(0, 1, 2): 1}),
    "VirtualClass(5, {(0,): 1})": lambda: VirtualClass(5, {(0,): 1}),
    "VirtualClass(5, {'01': 1})": lambda: VirtualClass(5, {"01": 1}),
}


@pytest.mark.parametrize("name", NON_INT_CALLS)
def test_a_non_int_is_rejected_as_a_value_error(name):
    # every rejection is a ValueError; a float equal to an int is no int
    with pytest.raises(ValueError):
        NON_INT_CALLS[name]()


@pytest.mark.parametrize("N", [-1.0, -3.0, 7.0, 2.5])
def test_sym_class_names_a_non_int_index(N):
    # checked before the N = -1 and N < -1 branches: -1.0 gave the zero
    # class and -3.0 the fold's message about N = 1.0
    with pytest.raises(ValueError, match=f"^N must be an int, got {N!r}$"):
        sym_class(5, N)


@pytest.mark.parametrize("fn, N", [(decompose_sym, 7.0), (decompose_sym, 2.5), (verify_decomposition, 7.0)],
                         ids=["decompose_sym-7.0", "decompose_sym-2.5", "verify_decomposition-7.0"])
def test_the_fold_names_a_non_int_index(fn, N):
    # the fold checks the type before the sign: a non-int N got the
    # message for a negative one, "N must be >= 0, got 7.0"
    with pytest.raises(ValueError, match=f"^N must be an int, got {N!r}$"):
        fn(5, N)


# (function, p, N, its ValueError message); sym_class tests N's type before p,
# and a list, as a dict would merge the keys N = 7 and N = 7.0
ENTRY_REJECTIONS = [
    (decompose_sym, 4, 7, "p must be an odd prime, got 4"),
    (decompose_sym, 4, 7.0, "p must be an odd prime, got 4"),
    (decompose_sym, 5, -1, "N must be >= 0, got -1"),
    (decompose_sym, 5, 7.0, "N must be an int, got 7.0"),
    (decompose_sym, 5, True, "N must be an int, got True"),
    (sym_class, 4, 7, "p must be an odd prime, got 4"),
    (sym_class, 4, -1, "p must be an odd prime, got 4"),
    (sym_class, 4, 7.0, "N must be an int, got 7.0"),
    (sym_class, 5, 7.0, "N must be an int, got 7.0"),
    (sym_class, 5, True, "N must be an int, got True"),
    (verify_decomposition, 4, 7, "p must be an odd prime, got 4"),
    (verify_decomposition, 4, 7.0, "p must be an odd prime, got 4"),
    (verify_decomposition, 5, -1, "N must be >= 0, got -1"),
    (verify_decomposition, 5, 7.0, "N must be an int, got 7.0"),
    (verify_decomposition, 5, True, "N must be an int, got True"),
]


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "after-int"])
@pytest.mark.parametrize("fn, p, N, message", ENTRY_REJECTIONS,
                         ids=[f"{fn.__name__}({p!r}, {N!r})" for fn, p, N, _ in ENTRY_REJECTIONS])
def test_an_entry_point_rejects_p_and_N_before_the_cache(fn, p, N, message, cached):
    # the decomposition cache is untyped, so (5, 7.0) and (5, True) would
    # hit the entries of (5, 7) and (5, 1): the entry points check first
    _decompose.cache_clear()
    if cached:
        decompose_sym(5, 7)
        sym_class(5, 1)
        assert _decompose.cache_info().currsize == 2
    with pytest.raises(ValueError) as exc:
        fn(p, N)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_the_decomposition_cache_is_the_untyped_fold():
    assert _decompose.__wrapped__ is weights._fold
    assert not _decompose.cache_parameters()["typed"]


@pytest.mark.parametrize("n", [7.5, 5.0])
def test_is_odd_prime_of_a_non_int_is_false(n):
    assert is_odd_prime(n) is False


@pytest.mark.parametrize(
    "p,a,b,t,expect",
    [(5, 1, 2, 1, (2, 2)), (5, 3, 4, 2, (1, 4)), (7, 2, 5, 6, (2, 5))],
)
def test_twist_weight(p, a, b, t, expect):
    w = twist_weight(W(p, a, b), t)
    assert (w.a, w.b) == expect


# ---------------------------------------------------------------------------
# VirtualClass arithmetic


def test_virtual_class_arithmetic():
    x = VirtualClass(5, {(0, 2): 1, (1, 4): 2})
    y = VirtualClass(5, {(1, 4): -2, (3, 1): 1})
    z = x + y
    assert dict(z.items()).get(W(5, 1, 4), 0) == 0
    assert len(z) == 2
    assert x - x == VirtualClass(5)
    assert not VirtualClass(5)
    assert dict((-x).items()).get(W(5, 0, 2), 0) == -1
    assert x.twist(4) == x  # full period
    assert [c for _, c in y.items()] == [-2, 1] and [c for _, c in x.items()] == [1, 2]


def test_virtual_class_rejects_mixed_primes():
    # a key is a weight at the class's prime: 0 <= a <= p-2, 1 <= b <= p
    for key in ((4, 1), (0, 0), (0, 6)):
        with pytest.raises(ValueError):
            VirtualClass(5, {key: 1})
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="^cannot add classes at different primes$"):
            op(VirtualClass(5, {(0, 1): 1}), VirtualClass(7, {(0, 1): 1}))
    # a weight at another prime has coefficient 0
    assert dict(VirtualClass(5, {(0, 1): 1}).items()).get(W(5, 0, 1), 0) == 1
    assert dict(VirtualClass(5, {(0, 1): 1}).items()).get(W(7, 0, 1), 0) == 0


@given(classes(), st.data(), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_arithmetic_cancels_and_stores_no_zero(x, data, t):
    y = data.draw(classes([x.p]))
    assert x - y == x + (-y)
    assert len(x - x) == 0 and len(x + (-x)) == 0
    assert (x + y) - y == x and (x - y) + y == x
    for r in (x + y, x - y, -x, x.twist(t), y - x):
        assert r == _checked(r)  # a stored zero would differ from the rebuild


def test_virtual_class_json_ordering():
    x = VirtualClass(5, {(1, 4): 1, (0, 2): 3, (1, 1): -2})
    assert x.to_json_obj() == [
        {"a": 0, "b": 2, "mult": 3},
        {"a": 1, "b": 1, "mult": -2},
        {"a": 1, "b": 4, "mult": 1},
    ]


# ---------------------------------------------------------------------------
# decompose_sym


def test_decompose_below_p_is_irreducible():
    assert decompose_sym(7, 3) == VirtualClass(7, {(0, 4): 1})
    assert decompose_sym(5, 0) == VirtualClass(5, {(0, 1): 1})


def test_decompose_sym_p_equals_p():
    # Sym^p splits as Sym^1 plus det (x) Sym^(p-2)
    for p in (3, 5, 7, 11):
        assert decompose_sym(p, p) == VirtualClass(p, {(0, 2): 1, (1, p - 1): 1})


def test_decompose_p3_n4():
    # one recursion step with n = 2; the det^2 factor reduces to det^0
    factors = decompose_sym(3, 4)
    assert factors == VirtualClass(3, {(0, 3): 1, (0, 1): 1, (1, 1): 1})
    assert sum(m * w.b for w, m in factors.items()) == 5


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_sym(5, -1)
    with pytest.raises(ValueError):
        decompose_sym(4, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_dimension_conservation_and_central_character(p):
    for N in range(0, 5 * p * p + 1, 7):
        factors = decompose_sym(p, N)
        assert sum(m * w.b for w, m in factors.items()) == N + 1
        assert all(m >= 1 for _, m in factors.items())
        for w, _ in factors.items():
            assert (2 * w.a + w.b - 1) % (p - 1) == N % (p - 1)


@given(
    p=st.sampled_from(PRIMES),
    N=st.integers(min_value=0, max_value=2000),
)
@settings(max_examples=60, deadline=None)
def test_dimension_conservation_property(p, N):
    factors = decompose_sym(p, N)
    assert sum(m * w.b for w, m in factors.items()) == N + 1


def test_decompose_handles_huge_n():
    # O(p) steps whatever N, so 10**30 is as quick as 10**3; the affine
    # form of the reference loop gives the expected factors
    N = 10**30
    factors = decompose_sym(3, N)
    assert sum(m * w.b for w, m in factors.items()) == N + 1
    assert _decompose.__wrapped__(3, N) == decompose_affine(3, N)


# ---------------------------------------------------------------------------
# the period-(p-1) fold against the full peeling loop


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 47])
def test_decompose_matches_loop_below_3P(p):
    for N in range(3 * (p * p - 1)):
        assert _decompose.__wrapped__(p, N) == decompose_loop(p, N), (p, N)


@pytest.mark.parametrize("p", PRIMES)
def test_decompose_matches_loop_seeded(p):
    rng = random.Random(7 * p)
    for N in [10**5] + [rng.randrange(10**5) for _ in range(40)]:
        assert _decompose.__wrapped__(p, N) == decompose_loop(p, N), (p, N)


@pytest.mark.parametrize("p", PRIMES)
def test_decompose_period_identity(p):
    # D(N + P) - D(N) is one full period of p-1 peeling steps: effective,
    # and a function of N mod p-1 alone
    P = p * p - 1
    seen = {}
    for N in range(3 * P):
        lo, hi = _decompose.__wrapped__(p, N), _decompose.__wrapped__(p, N + P)
        step = {key: hi.get(key, 0) - lo.get(key, 0) for key in set(lo) | set(hi)}
        assert min(step.values()) >= 0, (p, N)
        assert seen.setdefault(N % (p - 1), step) == step, (p, N)


def _check_fold(p, N, expected):
    factors = _decompose.__wrapped__(p, N)
    assert type(factors) is dict and 0 not in factors.values(), (p, N)
    assert factors == expected, (p, N)
    if (N + 1) // (p + 1) >= p - 1:  # a whole period: a copy of the residue's counts, never them
        assert factors is not weights._period(p, N % (p - 1))[1], (p, N)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 47])
def test_step_tables_match_the_peeling_loop(p):
    # every N < 4P and some far N, with the tables warm in ascending and in
    # descending order, then with them emptied before each N
    P = p * p - 1
    far = [10**6] + [10**12 + r for r in range(p - 1)]
    expected = {N: decompose_loop(p, N) for N in range(4 * P)}
    expected.update((N, decompose_affine(p, N)) for N in far)
    weights._period.cache_clear()
    for order in (sorted(expected), sorted(expected, reverse=True)):
        for N in order:
            _check_fold(p, N, expected[N])
    assert weights._period.cache_info().currsize == p - 1
    for N in expected:
        weights._period.cache_clear()
        _check_fold(p, N, expected[N])
    weights._period.cache_clear()


def test_a_part_period_builds_no_table():
    # a residue's key list grows only as far as the N folded needs, so a
    # cold residue costs no more steps than the N itself has; its counts
    # (the table) are filled only once the list holds a whole period
    big = 100000000000000000039  # a 21-digit prime
    weights._period.cache_clear()
    assert _decompose.__wrapped__(big, 3 * (big + 1) + 4) == decompose_loop(big, 3 * (big + 1) + 4)
    keys, counts = weights._period(big, (3 * (big + 1) + 4) % (big - 1))
    assert (len(keys), counts) == (6, {})  # S = 3 steps
    for p in (5, 47):
        weights._period.cache_clear()
        _decompose.__wrapped__(p, p * p - 3)  # p-2 steps
        assert weights._period.cache_info().currsize == 1
        keys, counts = weights._period(p, (p * p - 3) % (p - 1))
        assert (len(keys), counts) == (2 * (p - 2), {})
        weights._period.cache_clear()
        _decompose.__wrapped__(p, p * p - 2)  # p-1 steps, one whole period
        assert weights._period.cache_info().currsize == 1
        keys, counts = weights._period(p, (p * p - 2) % (p - 1))
        assert len(keys) == 2 * (p - 1) and counts == Counter(keys)
    weights._period.cache_clear()


@pytest.mark.parametrize("p", [5, 13, 47])
def test_decompositions_share_their_residues_key_tuples(p):
    # every key but the remainder's (S mod p-1, M+1) is the very tuple the
    # residue's list holds, in part and in whole periods
    _decompose.cache_clear()
    weights._period.cache_clear()
    for N in [*range(0, 3 * (p * p - 1), 7), 10**9 + 3]:
        S = (N + 1) // (p + 1)
        factors = _decompose(p, N)
        held = {id(key) for key in weights._period(p, N % (p - 1))[0]}
        remainder = (S % (p - 1), N - S * (p + 1) + 1)
        for key in factors:
            assert id(key) in held or key == remainder, (p, N, key)
    _decompose.cache_clear()
    weights._period.cache_clear()


def test_an_interrupted_extension_leaves_no_half_list(monkeypatch):
    # a _steps that raises part-way through growing a list must leave no
    # entry that a later fold would read as grown
    steps = weights._steps

    def failing(p, N, start, stop):
        for i, key in enumerate(steps(p, N, start, stop)):
            if i == 5:
                raise MemoryError
            yield key

    for p, N in [(13, 100), (13, 13 * 13 - 2), (47, 47 * 47 + 500), (47, 10**6)]:
        weights._period.cache_clear()
        _decompose.__wrapped__(p, p + 1 + N % (p - 1))  # one step already grown
        monkeypatch.setattr(weights, "_steps", failing)
        with pytest.raises(MemoryError):
            _decompose.__wrapped__(p, N)
        monkeypatch.setattr(weights, "_steps", steps)
        assert _decompose.__wrapped__(p, N) == decompose_loop(p, N), (p, N)
        assert _decompose.__wrapped__(p, N + p * p - 1) == decompose_loop(p, N + p * p - 1), (p, N)
    weights._period.cache_clear()


# ---------------------------------------------------------------------------
# multiplicity of one weight in Sym^(k-2)


def test_jh_multiplicity():
    assert dict(decompose_sym(5, 7 - 2).items()).get(W(5, 0, 2), 0) == 1
    assert dict(decompose_sym(5, 7 - 2).items()).get(W(5, 0, 5), 0) == 0
    assert dict(decompose_sym(5, 3 - 2).items()).get(W(5, 0, 2), 0) == 1
    with pytest.raises(ValueError):
        decompose_sym(5, 1 - 2)


# ---------------------------------------------------------------------------
# sym_class and the periodic relation


def test_sym_class_conventions():
    assert sym_class(5, -1) == VirtualClass(5)
    assert sym_class(5, 2) == VirtualClass(5, {(0, 3): 1})


def test_sym_class_negative_three():
    # -[det^(-2) (x) Sym^1] at p = 5; det^(-2) = det^2 since -2 = 2 mod 4.
    # The periodic relation at n = -1 pins the value independently:
    # [S_3] - [S_(-1)] = det (x) ([S_(-3)] - [S_(-7)]).
    got = sym_class(5, -3)
    assert got == VirtualClass(5, {(2, 2): -1})
    lhs = sym_class(5, 3) - sym_class(5, -1)
    rhs = (sym_class(5, -3) - sym_class(5, -7)).twist(1)
    assert lhs == rhs


@pytest.mark.parametrize("p", PRIMES)
def test_periodic_relation_on_stated_range(p):
    for n in range(-2 * p, 4 * p + 1):
        lhs = sym_class(p, n + p - 1) - sym_class(p, n)
        rhs = (sym_class(p, n - 2) - sym_class(p, n - p - 1)).twist(1)
        assert lhs == rhs, (p, n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_recursion_identity(p):
    for n in range(1, p):
        for k in range(1, 3 * p + 1):
            lhs = sym_class(p, n + k * (p - 1))
            rhs = (
                sym_class(p, n)
                + VirtualClass(p, {(n % (p - 1), p - n): 1})
                + sym_class(p, n + (k - 1) * (p - 1) - 2).twist(1)
            )
            assert lhs == rhs, (p, n, k)


# ---------------------------------------------------------------------------
# derived classes: built unchecked, with the checking constructor as reference


def _checked(x):
    """x rebuilt by the checking constructor from its own pairs."""
    return VirtualClass(x.p, {(e["a"], e["b"]): e["mult"] for e in x.to_json_obj()})


@pytest.mark.parametrize("p", PRIMES)
def test_derived_classes_equal_their_checked_rebuild(p):
    for N in range(-3 * p * p, 3 * p * p + 1):
        x, y = sym_class(p, N), sym_class(p, N - 1)
        derived = [x, x.twist(1), x - y, y - x, x + y, x + x, x - x, -x]
        if N >= 0:
            derived.append(decompose_sym(p, N))
        for r in derived:
            assert r == _checked(r), (p, N)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_shared_decompositions_are_never_mutated(p):
    # decompose_sym and sym_class wrap the cached dict itself, uncopied, so
    # no arithmetic on them nor any check may write into it
    top = 3 * p * p
    snapshot = {N: _decompose.__wrapped__(p, N) for N in range(top + 1)}
    assert run_suite([p], ["main", "kmin", "recursion"])["pass"]
    test_derived_classes_equal_their_checked_rebuild(p)  # +, -, unary - and twist on every sym_class
    for N in range(top + 1):
        assert decompose_sym(p, N)._coeffs is _decompose(p, N)
        assert _decompose(p, N) == snapshot[N], (p, N)


def test_recursion_check_checks_one_weight_per_lemma_item(monkeypatch):
    # the lemma's V(n, p-n) is the only class it builds from caller pairs
    calls = []
    check = weights._require_weight_range

    def counted(p, a, b):
        calls.append((a, b))
        check(p, a, b)

    monkeypatch.setattr(weights, "_require_weight_range", counted)
    assert run_suite([13], ["recursion"])["pass"]
    assert len(calls) <= (13 - 1) * 3 * 13  # lemma items: n in [1, p-1], k in [1, 3p]


# ---------------------------------------------------------------------------
# k_min_closed


def test_k_min_closed_at_zero_twist():
    # Sym^(b-1) itself is irreducible, so the answer is b + 1 for every b
    for p in (3, 5, 7, 11):
        for b in range(1, p + 1):
            assert k_min_closed(W(p, 0, b)) == b + 1


def test_k_min_closed_on_the_boundary():
    for p in (5, 7, 11):
        for a in range(0, p - 1):
            assert k_min_closed(W(p, a, p - a)) == a + p + 1


def test_k_min_closed_example_by_scan():
    # independent scan: the first symmetric power containing V(1,2) at p=5
    target = W(5, 1, 2)
    first = next(k for k in range(2, 25) if dict(decompose_sym(5, k - 2).items()).get(target, 0) > 0)
    assert first == 9
    assert k_min_closed(target) == 9


@pytest.mark.parametrize("p", [3, 5, 7])
def test_k_min_closed_range_and_congruence(p):
    seen = set()
    for a in range(p - 1):
        for b in range(1, p + 1):
            k = k_min_closed(W(p, a, b))
            assert 2 <= k <= p * p - 1
            assert k % (p - 1) == (2 * a + b + 1) % (p - 1)
            seen.add(k)
    assert min(seen) == 2


# ---------------------------------------------------------------------------
# the least-k scan against a plain scan of the full peeling loop


def _reference_least_k(p, support, loops):
    for k in range(2, p * p + 1):
        factors = loops[k - 2]
        if sum(factors.get(key, 0) * c for key, c in support) > 0:
            return k
    return None


@pytest.mark.parametrize("p", PRIMES)
def test_least_k_matches_a_plain_scan(p):
    loops = [decompose_loop(p, N) for N in range(p * p - 1)]
    cases = [_bm_weights(param) for param in enumerate_params(p)]
    cases += [(((a, b), 1),) for a in range(p - 1) for b in range(1, p + 1)]
    for support in cases:
        expected = _reference_least_k(p, support, loops)
        assert _least_k.__wrapped__(p, support) == _least_k(p, support) == expected, (p, support)
