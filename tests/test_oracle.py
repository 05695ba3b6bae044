"""Tests for the Brauer-character and scan oracles."""

import hashlib
import json
import random
import time
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrewt import cli, oracle, weights
from serrewt.oracle import (
    cyclotomic_poly,
    k_min_search,
    p_regular_classes,
    verify_decomposition,
)
from serrewt.verify import run_suite
from serrewt.weights import SerreWeight, _decompose, decompose_sym, k_min_closed

from brauer_reference import (
    brauer_char_sym,
    brauer_char_weight,
    cyclo_one,
    cyclo_zero,
    dense_residual,
    zeta_power,
)
from strategies import twist_weight


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
# classes: eigenvalue-exponent pairs (i, i')


def _kind(p, c):
    """central iff i = i'; split iff i != i' and p+1 divides both; non-split
    iff p+1 does not divide i."""
    i, i2 = c
    if i == i2:
        return "central"
    if i % (p + 1) == 0 and i2 % (p + 1) == 0:
        return "split"
    assert i % (p + 1) != 0, c
    return "nonsplit"


def _of_kind(p, kind):
    return [c for c in p_regular_classes(p) if _kind(p, c) == kind]


def test_class_counts():
    assert len(p_regular_classes(3)) == 6  # 2 + 1 + 3
    assert len(p_regular_classes(5)) == 20  # 4 + 6 + 10
    for p in (3, 5, 7, 11, 13):
        classes = p_regular_classes(p)
        kinds = [_kind(p, c) for c in classes]
        # central, then split, then non-split
        assert kinds == sorted(kinds, key=["central", "split", "nonsplit"].index)
        assert kinds.count("central") == p - 1
        assert kinds.count("split") == (p - 1) * (p - 2) // 2
        assert kinds.count("nonsplit") == p * (p - 1) // 2
        assert len(classes) == p * (p - 1)
        assert len(set(classes)) == len(classes)
        # distinct as unordered pairs, and the set of unordered pairs is
        # independent of the generator: replacing zeta by zeta^s, s a unit
        # mod p^2 - 1, multiplies every exponent by s and permutes the set
        n = p * p - 1
        pairs = {tuple(sorted(c)) for c in classes}
        assert len(pairs) == len(classes)
        for s in range(1, n):
            if gcd(s, n) == 1:
                assert {tuple(sorted((s * i % n, s * i2 % n))) for i, i2 in classes} == pairs, (p, s)
    # central ((p+1)k, (p+1)k) in k order, then split with i < i'
    assert p_regular_classes(5)[:10] == (
        (0, 0), (6, 6), (12, 12), (18, 18),
        (0, 6), (0, 12), (0, 18), (6, 12), (6, 18), (12, 18),
    )


def test_nonsplit_class_representatives():
    n = 48
    for j, j2 in _of_kind(7, "nonsplit"):
        assert j % 8 != 0  # not divisible by p+1
        assert j2 == (7 * j) % n
        assert j == min(j, j2)


def test_units_embedding():
    # the multiplicative group of F_p lifts to the (p+1)-th powers of zeta:
    # the central classes are ((p+1)k, (p+1)k) for k = 0..p-2
    for p in (3, 5, 7):
        central = _of_kind(p, "central")
        assert central[0] == (0, 0)  # x = 1
        logs = {i for i, _ in central}
        assert len(logs) == p - 1
        assert all(i % (p + 1) == 0 for i in logs)
        for i, i2 in _of_kind(p, "split"):
            assert i in logs and i2 in logs


# ---------------------------------------------------------------------------
# Brauer characters


def test_char_of_trivial_weight():
    for c in p_regular_classes(5):
        assert brauer_char_weight(SerreWeight(5, 0, 1), c) == cyclo_one(24)


def test_char_of_determinant_powers():
    p, n = 5, 24
    for c in _of_kind(p, "central"):
        i = c[0]
        for a in range(p - 1):
            got = brauer_char_weight(SerreWeight(p, a, 1), c)
            assert got == zeta_power(n, 2 * i * a)


def test_char_of_standard_rep():
    p, n = 5, 24
    for c in _of_kind(p, "split"):
        got = brauer_char_weight(SerreWeight(p, 0, 2), c)
        expected = zeta_power(n, c[0]) + zeta_power(n, c[1])
        assert got == expected


def test_char_sym_basics():
    p, n = 5, 24
    for c in p_regular_classes(p):
        assert brauer_char_sym(p, 0, c) == cyclo_one(n)
    c = _of_kind(p, "central")[1]  # (p+1, p+1)
    assert brauer_char_sym(p, 1, c) == 2 * zeta_power(n, c[0])


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
    i, i2 = c
    lhs = brauer_char_weight(twist_weight(w, t), c)
    rhs = zeta_power(n, t * (i + i2)) * brauer_char_weight(w, c)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# verify_decomposition


@pytest.mark.parametrize("p,N", [(5, 5), (3, 4), (7, 4), (31, 3 * 31**2)])
def test_verify_decomposition_examples(p, N):
    report = verify_decomposition(p, N)
    assert report.passed
    assert report.classes_checked == p * (p - 1)
    assert report.failures == []


@pytest.mark.parametrize("p", [3, 5])
def test_fast_path_agrees_with_ring_elements(p):
    # the torus-count certificate must agree with the per-class
    # CyclotomicElement reference in brauer_reference
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


def _twist(p, factors, key):
    mult = factors.pop(key)
    twisted = ((key[0] + 1) % (p - 1), key[1])
    factors[twisted] = factors.get(twisted, 0) + mult


def _twist_least(p, N, factors):
    _twist(p, factors, min(factors))


def _seeded_fault(p, N, factors):
    """One fault chosen by a seed per (p, N): a factor twisted by det,
    dropped, or a weight added."""
    rng = random.Random(p * 100003 + N)
    kind, key = rng.choice(("twist", "drop", "add")), rng.choice(sorted(factors))
    if kind == "twist":
        _twist(p, factors, key)
    elif kind == "drop":
        del factors[key]
    else:
        extra = (rng.randrange(p - 1), rng.randrange(1, p + 1))
        factors[extra] = factors.get(extra, 0) + 1


def _plant_wrong_factor(monkeypatch, fault=_twist_least):
    """Give the oracle a faulty decomposition: by default one factor
    twisted by det, so the claimed dimensions still add up to N + 1."""
    correct = weights._fold

    def faulty(p, N):
        factors = dict(correct(p, N))
        fault(p, N, factors)
        return factors

    monkeypatch.setattr(oracle, "_fold", faulty)


def test_brauer_failure_names_its_class(monkeypatch, capsys):
    _plant_wrong_factor(monkeypatch)
    names = {repr(c) for c in p_regular_classes(5)}
    failures = [f for N in range(3 * 5 + 1) for f in verify_decomposition(5, N).failures]
    assert failures
    assert all(f["class"] in names for f in failures)
    assert all(any(f["residual"]) for f in failures)

    report = run_suite([3, 5], ["brauer"])
    assert report["pass"] is False
    assert all(run["failures"] for run in report["runs"])
    # an entry keeps the rows of the first three failing classes, in class
    # order, and counts every failing class
    counts = set()
    for run in report["runs"]:
        p = run["p"]
        for entry in run["failures"]:
            full = verify_decomposition(p, entry["param"]["N"]).failures
            assert entry["actual"] == full[:3]
            assert entry["classes_failed"] == len(full)
            counts.add(len(full))
    assert max(counts) > 3  # some entries are cut

    # --jobs 1 keeps the run in this process, where the fault is planted
    code = cli.main(["verify", "-p", "3", "--checks", "brauer", "--jobs", "1", "--format", "json"])
    assert code == 1
    entry = json.loads(capsys.readouterr().out)["runs"][0]["failures"][0]
    assert entry["actual"][0]["class"] in {repr(c) for c in p_regular_classes(3)}
    assert entry["classes_failed"] >= len(entry["actual"])



# sha256 of the entries under the default fault, recorded before the
# torus counts were kept as one set of rows: at p = 13 of json.dumps of
# each N's failures, N = 0..3p^2 in turn; at p = 47 of one N's failures;
# and of run_suite([13], ["brauer"]) with its "ms" fields removed
BRAUER_FAILURE_SHA256 = {
    13: "1c7c04003e058343a30ae31ce57eb3451881d90bec5bf1a4739b392843df1e72",
    (47, 0): "a4bceb1f768e0c33c6cd4bd5f3cb7f9207007f743dfcd17419fc2503808c7a91",
    (47, 3000): "9210aecb180b05f6fa936e623a0708b6ecfd23ba1bd0e91e02cbf81235e5bdb6",
    (47, 3 * 47**2): "bf8a03bec84ef0f3d8f79bbd42af822bdbf60a4421a503728e98e3543c837c90",
    "run_suite": "9c4192aa70cf55ff8812ae11534f1f7d06941a78133639ec700e584a400f9c66",
}


def test_brauer_failure_bytes_are_pinned(monkeypatch):
    # the dense reference covers p <= 11; this pins every failure entry at
    # p = 13 and at spaced N at p = 47, byte for byte
    _plant_wrong_factor(monkeypatch)
    digest = hashlib.sha256()
    for N in range(3 * 13**2 + 1):
        digest.update(json.dumps(verify_decomposition(13, N).failures).encode())
    got = {13: digest.hexdigest()}
    for key in BRAUER_FAILURE_SHA256:
        if isinstance(key, tuple):
            got[key] = hashlib.sha256(json.dumps(verify_decomposition(*key).failures).encode()).hexdigest()
    report = run_suite([13], ["brauer"])
    for run in report["runs"]:
        del run["ms"]
    got["run_suite"] = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert got == BRAUER_FAILURE_SHA256


@pytest.mark.parametrize("p", [3, 5])
def test_brauer_failures_match_ring_reference(monkeypatch, p):
    # a class fails iff its exponent multisets differ, which a differing
    # Brauer character implies: the library flags every class the ring
    # reference flags
    _plant_wrong_factor(monkeypatch)
    n = p * p - 1
    for N in range(3 * p + 1):
        factors = oracle._fold(p, N)
        flagged = set()
        for c in p_regular_classes(p):
            rhs = cyclo_zero(n)
            for (a, b), mult in factors.items():
                rhs = rhs + mult * brauer_char_weight(SerreWeight(p, a, b), c)
            if brauer_char_sym(p, N, c) != rhs:
                flagged.add(repr(c))
        assert flagged, (p, N)  # a twisted factor is wrong at every N
        report = verify_decomposition(p, N)
        assert flagged <= {f["class"] for f in report.failures}, (p, N)
        for f in report.failures:
            assert len(f["residual"]) == n
            assert sum(f["residual"]) == 0  # the fault keeps dimensions


def _principal_series_swap(p, N, factors):
    """Swap the constituents V(0, 2) + V(1, p-1) of one principal series
    for those of another with the same central character: the characters
    differ at split classes only."""
    m = p - 1
    pair = next(
        ((a, b), ((a + b - 1) % m, p + 1 - b))
        for a in range(m)
        for b in range(1, p + 1)
        if (2 * a + b - 1) % m == 1 and {(a, b), ((a + b - 1) % m, p + 1 - b)} != {(0, 2), (1, m)}
    )
    for key, delta in zip([(0, 2), (1, m), *pair], (1, 1, -1, -1)):
        factors[key] = factors.get(key, 0) + delta


def _failures_are_the_nonzero_dense_rows(monkeypatch, p, fault):
    """Check every N <= 3p^2 under the fault: a class fails iff its
    term-by-term residual is nonzero, and carries that residual.  Returns
    which tori see a nonzero row at some N, as (split or central classes,
    non-split classes) pairs."""
    _plant_wrong_factor(monkeypatch, fault)
    seen = set()
    for N in range(3 * p * p + 1):
        factors = oracle._fold(p, N)
        expected = []
        tori = [False, False]
        for c in p_regular_classes(p):
            row = dense_residual(p, N, factors, c)
            if any(row):
                expected.append({"class": repr(c), "residual": row})
                tori[c[0] % (p + 1) != 0] = True
        assert expected, (p, N)
        assert verify_decomposition(p, N).failures == expected, (p, N)
        seen.add(tuple(tori))
    return seen


@pytest.mark.parametrize("fault", [_twist_least, _seeded_fault])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_failures_are_the_nonzero_dense_rows(monkeypatch, p, fault):
    seen = _failures_are_the_nonzero_dense_rows(monkeypatch, p, fault)
    if p == 3:
        # at p = 3 some N fail at non-split classes only, so the split
        # count alone would pass them
        assert (False, True) in seen, seen


@pytest.mark.parametrize("p", [5, 7, 11])
def test_principal_series_swap_is_seen_at_split_classes_only(monkeypatch, p):
    # with the case above, each torus's count is needed: dropping either
    # lets one of these faults pass
    seen = _failures_are_the_nonzero_dense_rows(monkeypatch, p, _principal_series_swap)
    assert seen == {(True, False)}, seen


def _planted_faults(p, N, factors):
    """The correct factors and four faults, each seeded by (p, N): one
    multiplicity moved by 1, a factor twisted by det, a factor's b
    shifted, and a stray factor off Sym^N's central character N mod p-1."""
    rng = random.Random(p * 100019 + N)
    m = p - 1
    key = rng.choice(sorted(factors))
    moved, twisted, shifted, stray = (dict(factors) for _ in range(4))
    moved[key] += rng.choice((1, -1))
    _twist(p, twisted, key)
    mult = shifted.pop(key)
    shifted[key[0], key[1] % p + 1] = shifted.get((key[0], key[1] % p + 1), 0) + mult
    a, b = next((a, b) for a in rng.sample(range(m), m) for b in range(1, p + 1)
                if (2 * a + b - 1 - N) % m)
    stray[a, b] = stray.get((a, b), 0) + 1
    return [factors, moved, twisted, shifted, stray]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_run_length_decision_matches_dense_count(monkeypatch, p):
    # the rows of runs pass an N iff every class's term-by-term residual
    # is zero; only the correct factors pass
    classes = p_regular_classes(p)
    for N in range(3 * p * p + 1):
        for i, claimed in enumerate(_planted_faults(p, N, _decompose(p, N))):
            monkeypatch.setattr(oracle, "_fold", lambda p, N: claimed)
            dense = all(not any(dense_residual(p, N, claimed, c)) for c in classes)
            assert verify_decomposition(p, N).passed == dense == (i == 0), (p, N, i)


def _out_of_range_claims(p, N, factors):
    """Claimed dicts with keys outside 0 <= a < p-1, 1 <= b <= p, each
    (claim, whether its characters are Sym^N's, or None if not fixed):
    Sym^N as the one key (0, N + 1); a factor's a moved by +-(p-1), and to
    p-1 from 0; weights counted with b <= 0, which have none; a factor
    twisted by det without reducing a, which moves it off Sym^N's central
    character; a factor's b raised to p+1 and to 2p.  Three more are whole
    turns on both tori, p-1 and p+1 dividing (p^2-1)/2, so only the row's
    total rejects them: the factors plus (0, (p^2-1)/2), the factors plus
    (1, p^2-1), and no factor at all where N + 1 = (p^2-1)/2."""
    m = p - 1
    key = min(factors)
    top = max(factors)
    out = [({(0, N + 1): 1}, True)]
    for shift in (m, -m):
        claim = dict(factors)
        mult = claim.pop(key)
        claim[key[0] + shift, key[1]] = mult
        out.append((claim, True))
    if key[0] == 0:
        claim = dict(factors)
        claim[m, key[1]] = claim.pop(key)
        out.append((claim, True))
    out.append(({**factors, (0, 0): 5, (1, -1): 2, (m, -p): -3}, True))
    twisted = dict(factors)
    twisted[top[0] + 1, top[1]] = twisted.pop(top)
    out.append((twisted, False))
    for b in (p + 1, 2 * p):
        claim = dict(factors)
        mult = claim.pop(key)
        claim[key[0], b] = claim.get((key[0], b), 0) + mult
        out.append((claim, None))
    half = (p * p - 1) // 2
    out.append(({**factors, (0, half): 1}, False))
    out.append(({**factors, (1, 2 * half): 1}, False))
    if N + 1 == half:
        out.append(({}, False))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_out_of_range_factors_match_the_dense_count(monkeypatch, p):
    # the runs hold for any claimed dict: a key outside the weight range
    # fails exactly the classes whose term-by-term residual is nonzero
    classes = p_regular_classes(p)
    decided = set()
    for N in range(3 * p * p + 1):
        for claimed, passes in _out_of_range_claims(p, N, _decompose(p, N)):
            monkeypatch.setattr(oracle, "_fold", lambda p, N: claimed)
            expected = []
            for c in classes:
                row = dense_residual(p, N, claimed, c)
                if any(row):
                    expected.append({"class": repr(c), "residual": row})
            assert verify_decomposition(p, N).failures == expected, (p, N, claimed)
            assert passes in (None, not expected), (p, N, claimed)
            decided.add(not expected)
    assert decided == {True, False}


def test_passing_n_accumulates_no_row(monkeypatch):
    # a passing N is decided on the difference arrays; only a failing N
    # sums them into cells
    calls = []

    def counting(d):
        calls.append(len(d))
        return accumulate(d)

    monkeypatch.setattr(oracle, "accumulate", counting)
    for N in range(3 * 13**2 + 1):
        assert verify_decomposition(13, N).passed, N
    assert calls == []

    _plant_wrong_factor(monkeypatch)
    for N in range(3 * 13**2 + 1):
        del calls[:]
        assert not verify_decomposition(13, N).passed, N
        assert calls, N


def test_verify_decomposition_at_huge_n(monkeypatch):
    start = time.perf_counter()
    assert verify_decomposition(5, 10**30).passed
    assert time.perf_counter() - start < 1

    _plant_wrong_factor(monkeypatch)
    start = time.perf_counter()
    failures = verify_decomposition(5, 10**30).failures
    assert time.perf_counter() - start < 1
    assert failures
    for f in failures:
        assert len(f["residual"]) == 24
        assert sum(f["residual"]) == 0  # the fault keeps dimensions


def test_brauer_sym_side_ignores_decompose(monkeypatch):
    # the Sym^N side comes from class exponents alone: with no claimed
    # factors, every class must fail
    monkeypatch.setattr(oracle, "_fold", lambda p, N: {})
    classes = {repr(c) for c in p_regular_classes(5)}
    for N in range(16):
        report = verify_decomposition(5, N)
        assert {f["class"] for f in report.failures} == classes, N


def test_passing_n_visits_no_class(monkeypatch):
    # a passing N is decided by the cells of the two torus counts alone;
    # only a failing N lists and walks the classes, reading the nonzero
    # cells into p^2 - 1 counts per class
    def unlisted(p):
        raise AssertionError("a passing N listed the classes")

    monkeypatch.setattr(oracle, "p_regular_classes", unlisted)
    report = verify_decomposition(47, 3 * 47**2)
    assert report.passed
    assert report.classes_checked == 2162


def test_verify_decomposition_rejects_negative():
    with pytest.raises(ValueError):
        verify_decomposition(5, -1)


# ---------------------------------------------------------------------------
# k_min_search


def test_k_min_search_examples():
    for p in (3, 5, 7):
        for b in range(1, p + 1):
            assert k_min_search(SerreWeight(p, 0, b)) == b + 1
    assert k_min_search(SerreWeight(5, 1, 2)) == 9
    assert k_min_search(SerreWeight(3, 1, 3)) == 8


def test_k_min_search_decomposes_one_residue_class():
    # Sym^(k-2), k <= p^2, has p+1 powers of w's central character, and
    # V(p-2, p) first occurs at k = p^2 - 1
    p = 47
    for a in (0, 1, 22, 44, 45):
        for b in (1, 2, 24, 46, 47):
            _decompose.cache_clear()
            weights._least_k.cache_clear()  # a memo hit would decompose nothing
            k_min_search(SerreWeight(p, a, b))
            assert _decompose.cache_info().misses <= p + 1, (a, b)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_k_min_search_agrees_with_closed_form(p):
    for a in range(p - 1):
        for b in range(1, p + 1):
            w = SerreWeight(p, a, b)
            assert k_min_search(w) == k_min_closed(w)
