"""Tests for the Brauer-character and scan oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrewt.oracle import (
    CentralClass,
    NonsplitClass,
    SplitClass,
    class_exponents,
    cyclotomic_poly,
    field_log,
    k_min_search,
    p_regular_classes,
    verify_decomposition,
)
from serrewt.weights import SerreWeight, decompose_sym, k_min_closed

from brauer_reference import (
    brauer_char_sym,
    brauer_char_weight,
    cyclo_one,
    cyclo_zero,
    zeta_power,
)


def _poly_eval_power_check(phi, n):
    """phi divides x^n - 1 but no x^d - 1 with d < n (primitivity)."""
    # remainder of x^d - 1 modulo phi via repeated shifts
    deg = len(phi) - 1

    def x_pow_mod(d):
        cur = [0] * deg
        cur[0] = 1
        for _ in range(d):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(deg):
                    cur[i] -= top * phi[i]
        return cur

    for d in range(1, n):
        if n % d:
            continue
        rem = x_pow_mod(d)
        rem[0] -= 1
        assert any(rem), f"phi_{n} divides x^{d} - 1"
    rem = x_pow_mod(n)
    rem[0] -= 1
    assert not any(rem)


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_24():
    # the p = 5 modulus; certified primitive, then frozen
    phi = cyclotomic_poly(24)
    assert len(phi) - 1 == 8
    _poly_eval_power_check(phi, 24)
    assert phi == (1, 0, 0, 0, -1, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [8, 48, 120, 168])
def test_cyclotomic_primitivity(n):
    _poly_eval_power_check(cyclotomic_poly(n), n)


def test_zeta_power_relations():
    n = 24
    z = zeta_power(n, 1)
    acc = cyclo_one(n)
    for _ in range(24):
        acc = acc * z
    assert acc == cyclo_one(n)
    assert zeta_power(n, 25) == z
    assert zeta_power(n, 12) == -cyclo_one(n)
    assert (zeta_power(n, 7) * zeta_power(n, 17)) == cyclo_one(n)


# ---------------------------------------------------------------------------
# classes


def test_class_counts():
    assert len(p_regular_classes(3)) == 6  # 2 + 1 + 3
    assert len(p_regular_classes(5)) == 20  # 4 + 6 + 10
    for p in (3, 5, 7, 11, 13):
        classes = p_regular_classes(p)
        central = [c for c in classes if isinstance(c, CentralClass)]
        split = [c for c in classes if isinstance(c, SplitClass)]
        nonsplit = [c for c in classes if isinstance(c, NonsplitClass)]
        assert len(central) == p - 1
        assert len(split) == (p - 1) * (p - 2) // 2
        assert len(nonsplit) == p * (p - 1) // 2
        assert len(classes) == p * (p - 1)


def test_nonsplit_class_representatives():
    for c in p_regular_classes(7):
        if isinstance(c, NonsplitClass):
            n = 48
            assert c.j % 8 != 0  # not divisible by p+1
            assert c.j == min(c.j, (7 * c.j) % n)


def test_field_log_embedding():
    # the multiplicative group of F_p embeds at index divisible by p+1
    for p in (3, 5, 7):
        n = p * p - 1
        assert field_log(p, 1) == 0
        for x in range(1, p):
            assert field_log(p, x) % (p + 1) == 0
        logs = {field_log(p, x) for x in range(1, p)}
        assert len(logs) == p - 1
    with pytest.raises(ValueError):
        field_log(5, 0)


# ---------------------------------------------------------------------------
# Brauer characters


def test_char_of_trivial_weight():
    for c in p_regular_classes(5):
        assert brauer_char_weight(SerreWeight(5, 0, 1), c) == cyclo_one(24)


def test_char_of_determinant_powers():
    p, n = 5, 24
    for x in range(1, p):
        c = CentralClass(p, x)
        i = field_log(p, x)
        for a in range(p - 1):
            got = brauer_char_weight(SerreWeight(p, a, 1), c)
            assert got == zeta_power(n, 2 * i * a)


def test_char_of_standard_rep():
    p, n = 5, 24
    for c in p_regular_classes(p):
        if isinstance(c, SplitClass):
            got = brauer_char_weight(SerreWeight(p, 0, 2), c)
            expected = zeta_power(n, field_log(p, c.x)) + zeta_power(n, field_log(p, c.y))
            assert got == expected


def test_char_sym_basics():
    p, n = 5, 24
    for c in p_regular_classes(p):
        assert brauer_char_sym(p, 0, c) == cyclo_one(n)
    x = 2
    c = CentralClass(p, x)
    assert brauer_char_sym(p, 1, c) == 2 * zeta_power(n, field_log(p, x))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_char_sym_p_matches_decomposition(p):
    n = p * p - 1
    factors = decompose_sym(p, p)
    for c in p_regular_classes(p):
        lhs = brauer_char_sym(p, p, c)
        rhs = cyclo_zero(n)
        for w, mult in factors.items():
            rhs = rhs + mult * brauer_char_weight(w, c)
        assert lhs == rhs


@given(
    p=st.sampled_from([3, 5]),
    a=st.integers(0, 3),
    b=st.integers(1, 5),
    t=st.integers(0, 10),
    ci=st.integers(0, 19),
)
@settings(max_examples=60, deadline=None)
def test_char_of_twist(p, a, b, t, ci):
    if a > p - 2 or b > p:
        return
    classes = p_regular_classes(p)
    c = classes[ci % len(classes)]
    n = p * p - 1
    w = SerreWeight(p, a, b)
    i, i2 = class_exponents(c)
    lhs = brauer_char_weight(w.twist(t), c)
    rhs = zeta_power(n, t * (i + i2)) * brauer_char_weight(w, c)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# verify_decomposition


@pytest.mark.parametrize("p,N", [(5, 5), (3, 4), (7, 4)])
def test_verify_decomposition_examples(p, N):
    report = verify_decomposition(p, N)
    assert report.passed
    assert report.classes_checked == p * (p - 1)
    assert report.to_json_obj()["failures"] == []


@pytest.mark.parametrize("p", [3, 5])
def test_fast_path_agrees_with_ring_elements(p):
    # the vectorized checker must agree with the per-class CyclotomicElement
    # reference in brauer_reference
    n = p * p - 1
    for N in range(0, 3 * p + 1):
        report = verify_decomposition(p, N)
        assert report.passed
        factors = decompose_sym(p, N)
        for c in p_regular_classes(p):
            lhs = brauer_char_sym(p, N, c)
            rhs = cyclo_zero(n)
            for w, mult in factors.items():
                rhs = rhs + mult * brauer_char_weight(w, c)
            assert lhs == rhs, (p, N, c)


def test_verify_decomposition_rejects_negative():
    with pytest.raises(ValueError):
        verify_decomposition(5, -1)


# ---------------------------------------------------------------------------
# k_min_search


def test_k_min_search_examples():
    for p in (3, 5, 7):
        for b in range(1, p + 1):
            assert k_min_search(p, SerreWeight(p, 0, b)) == b + 1
    assert k_min_search(5, SerreWeight(5, 1, 2)) == 9
    assert k_min_search(3, SerreWeight(3, 1, 3)) == 8


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_k_min_search_agrees_with_closed_form(p):
    for a in range(p - 1):
        for b in range(1, p + 1):
            w = SerreWeight(p, a, b)
            assert k_min_search(p, w) == k_min_closed(w)
