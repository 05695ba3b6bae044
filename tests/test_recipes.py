"""Tests for the three minimal-weight recipes and the two weight-set recipes."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrewt import cli, recipes
from serrewt.errors import InternalInvariantError
from serrewt.galois_params import (
    SHAPE_NONSPLIT,
    SHAPE_PEU,
    SHAPE_SPLIT,
    SHAPE_TRES,
    Irreducible,
    Reducible,
    enumerate_params,
    param_to_dict,
)
from serrewt.recipes import (
    bdj_weight_set,
    bm_multiplicity,
    bm_set,
    k_cris,
    k_min_of_set,
    kisin_mu,
    mu_support,
    serre_k,
    weight_report,
)
from serrewt.oracle import k_min_search
from serrewt.weights import SerreWeight, _decompose, _least_k, decompose_sym, k_min_closed

from strategies import param_twist, params, twist_weight

PRIMES = [3, 5, 7, 11, 13]


def W(p, a, b):
    return SerreWeight(p, a, b)


def weight_set(p, pairs):
    return tuple(sorted(W(p, a, b) for a, b in pairs))


# ---------------------------------------------------------------------------
# serre_k


@pytest.mark.parametrize("p", PRIMES)
def test_serre_k_tres(p):
    assert serre_k(Reducible(p, 0, 1, SHAPE_TRES, True)) == p + 1
    for m in range(p - 1):
        assert serre_k(Reducible(p, m, 1, SHAPE_TRES, True)) == p + 1 + m * (p + 1)


@pytest.mark.parametrize("p", PRIMES)
def test_serre_k_trivial_pair_gives_p(p):
    # both inertia exponents zero: weight 1 is excluded, so k = p
    for shape, lam in [(SHAPE_SPLIT, True), (SHAPE_SPLIT, False),
                       (SHAPE_NONSPLIT, True), (SHAPE_NONSPLIT, False)]:
        assert serre_k(Reducible(p, 0, 0, shape, lam)) == p


def test_serre_k_irreducible():
    q = Irreducible(5, 0, 3)
    assert serre_k(q) == 4
    assert k_min_of_set(q) == 4  # the main theorem at this point
    for p in (5, 7, 11):
        for a in range(p - 1):
            for b in range(a + 1, p):
                assert serre_k(Irreducible(p, a, b)) == p * a + b + 1


def test_serre_k_generic_nonsplit():
    # exponents {3, 2}: k = 10 + 3 + 1; agrees with k_min of the single
    # weight V(3,3) the non-split row produces
    q = Reducible(5, 3, 3, SHAPE_NONSPLIT, False)
    assert serre_k(q) == 14
    assert k_min_closed(W(5, 3, 3)) == 14


def test_serre_k_peu_value():
    for p in (3, 5, 7):
        for m in range(p - 1):
            assert serre_k(Reducible(p, m, 1, SHAPE_PEU, True)) == m * (p + 1) + 2


def test_serre_k_nonsplit_wraparound():
    # twist + ratio = 0 mod p-1: the sub-character exponent is represented
    # as p-1, not 0, for a non-split extension (tame non-split extensions
    # with ramified ratio do not exist, so the wild normalization applies)
    q = Reducible(5, 1, 3, SHAPE_NONSPLIT, False)
    assert serre_k(q) == 10
    assert k_min_of_set(q) == 10
    # while a split record with the same exponents reduces them
    q_split = Reducible(5, 1, 3, SHAPE_SPLIT, False)
    assert serre_k(q_split) == 2
    assert k_min_of_set(q_split) == 2


@given(x=params())
@settings(max_examples=200, deadline=None)
def test_serre_k_range(x):
    assert 2 <= serre_k(x) <= x.p * x.p - 1


def test_serre_normalization_equivalence():
    # the peu value m(p+1) + 2 is reproduced by the generic formula for
    # every ratio-1 record except split ones at the wrap-around twist p-2
    for p in PRIMES:
        for m in range(p - 1):
            expected = m * (p + 1) + 2
            assert serre_k(Reducible(p, m, 1, SHAPE_PEU, True)) == expected
            assert serre_k(Reducible(p, m, 1, SHAPE_NONSPLIT, False)) == expected
            if m < p - 2:
                assert serre_k(Reducible(p, m, 1, SHAPE_SPLIT, False)) == expected
                assert serre_k(Reducible(p, m, 1, SHAPE_SPLIT, True)) == expected


# ---------------------------------------------------------------------------
# bdj_weight_set


@pytest.mark.parametrize("p", [5, 7, 11])
def test_bdj_irreducible_untwisted(p):
    for s in range(1, p):
        got = bdj_weight_set(Irreducible(p, 0, s))
        assert got == weight_set(p, [(0, s), ((s - 1) % (p - 1), p + 1 - s)])


def test_bdj_p3_split_ratio_one():
    got = bdj_weight_set(Reducible(3, 0, 1, SHAPE_SPLIT, True))
    assert got == weight_set(3, [(0, 3), (0, 1), (1, 3), (1, 1)])


def test_bdj_tres_twisted():
    # the single-weight tres row, twisted by det^2
    got = bdj_weight_set(Reducible(5, 2, 1, SHAPE_TRES, True))
    assert got == weight_set(5, [(2, 5)])


def test_bdj_more_rows():
    p = 7
    # generic non-split row: one weight
    assert bdj_weight_set(Reducible(p, 0, 3, SHAPE_NONSPLIT, True)) == weight_set(p, [(0, 3)])
    # generic split row: two weights
    assert bdj_weight_set(Reducible(p, 0, 2, SHAPE_SPLIT, True)) == weight_set(
        p, [(0, 2), (2, 4)]
    )
    # split at ratio p-2: three weights
    assert bdj_weight_set(Reducible(p, 0, p - 2, SHAPE_SPLIT, True)) == weight_set(
        p, [(0, p - 2), (p - 2, p), (p - 2, 1)]
    )
    # trivial ratio: one weight of dimension p-1
    assert bdj_weight_set(Reducible(p, 0, 0, SHAPE_SPLIT, True)) == weight_set(p, [(0, p - 1)])
    # split at ratio 1 for p > 3: three weights
    assert bdj_weight_set(Reducible(p, 0, 1, SHAPE_SPLIT, True)) == weight_set(
        p, [(0, p), (0, 1), (1, p - 2)]
    )


@given(x=params(), t=st.integers(-6, 12))
@settings(max_examples=200, deadline=None)
def test_bdj_twist_equivariance(x, t):
    twisted = bdj_weight_set(param_twist(x, t))
    expected = tuple(sorted(twist_weight(w, t) for w in bdj_weight_set(x)))
    assert twisted == expected


@given(x=params())
@settings(max_examples=150, deadline=None)
def test_bdj_nonempty_and_canonical(x):
    ws = bdj_weight_set(x)
    assert ws
    assert list(ws) == sorted(set(ws))


# ---------------------------------------------------------------------------
# k_min_of_set


@pytest.mark.parametrize("p", PRIMES)
def test_k_min_of_set_tres(p):
    assert k_min_of_set(Reducible(p, 0, 1, SHAPE_TRES, True)) == p + 1


def test_k_min_of_set_split_ratio_one():
    q = Reducible(5, 0, 1, SHAPE_SPLIT, True)
    assert bdj_weight_set(q) == weight_set(5, [(0, 5), (0, 1), (1, 3)])
    assert sorted(k_min_closed(w) for w in bdj_weight_set(q)) == [2, 6, 10]
    assert k_min_of_set(q) == 2


@given(x=params())
@settings(max_examples=100, deadline=None)
def test_k_min_of_set_attained(x):
    k = k_min_of_set(x)
    attaining = [w for w in bdj_weight_set(x) if k_min_closed(w) == k]
    assert attaining
    assert all(decompose_sym(x.p, k - 2).coefficient(w) > 0 for w in attaining)


def test_minimal_weight_not_unique_for_interior_split():
    # both weights of the split row attain the minimum
    for p in (7, 11, 13):
        for m in range(1, p - 1):
            for r in range(2, p - 2):
                if m + r > p - 2:
                    continue
                q = Reducible(p, m, r, SHAPE_SPLIT, True)
                ws = bdj_weight_set(q)
                k = k_min_of_set(q)
                assert len(ws) == 2
                assert [k_min_closed(w) for w in ws] == [k, k], (p, m, r)


# ---------------------------------------------------------------------------
# kisin_mu


@pytest.mark.parametrize("p", PRIMES)
def test_mu_split_equal_lambdas_at_trivial_ratio(p):
    q = Reducible(p, 0, 0, SHAPE_SPLIT, True)
    assert kisin_mu(q, p - 2, 0) == 4


@pytest.mark.parametrize("p", PRIMES)
def test_mu_tres_killed_at_n_zero(p):
    q = Reducible(p, 0, 1, SHAPE_TRES, True)
    assert kisin_mu(q, 0, 0) == 0
    # ratio omega also presents at n = p-1 (omega^p = omega); tres is not
    # peu, so no boost there, just the plain match
    assert kisin_mu(q, p - 1, 0) == 1


def test_mu_no_match_is_zero():
    q = Reducible(5, 0, 2, SHAPE_NONSPLIT, False)
    assert kisin_mu(q, 0, 0) == 0
    assert kisin_mu(q, 3, 2) == 0
    assert kisin_mu(Irreducible(5, 0, 3), 0, 1) == 0


def test_mu_index_validation():
    q = Irreducible(5, 0, 3)
    with pytest.raises(ValueError):
        kisin_mu(q, 5, 0)
    with pytest.raises(ValueError):
        kisin_mu(q, 0, 4)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_mu_support_matches_full_scan(p):
    # the direct cell enumeration must agree with evaluating the recipe on
    # every cell of the table
    for q in enumerate_params(p):
        support = {(n, m): mu for n, m, mu in mu_support(q)}
        for n in range(p):
            for m in range(p - 1):
                assert kisin_mu(q, n, m) == support.get((n, m), 0), (q, n, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_candidate_cells_are_sorted_unique_cells_within_the_bound(p):
    # each list is sorted and unique, inside [0, p-1] x [0, p-2], and as
    # short as the docstring says: 2 cells at most, 4 for a split record
    sizes = Counter()
    for q in enumerate_params(p):
        cells = recipes._candidate_cells(q)
        assert cells == sorted(set(cells)), q
        assert all(0 <= n <= p - 1 and 0 <= m <= p - 2 for n, m in cells), (q, cells)
        split = isinstance(q, Reducible) and q.shape == SHAPE_SPLIT
        assert 1 <= len(cells) <= (4 if split else 2), (q, cells)
        sizes[split, len(cells)] += 1
    # the bounds are reached: 4 split cells only at p = 3 (ratio 1, both orderings)
    assert sizes[False, 2] and sizes[True, 4 if p == 3 else 3]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mu_value_profile(p):
    for q in enumerate_params(p):
        for n, m, mu in mu_support(q):
            assert mu in (1, 2, 4)
            if mu == 4:
                assert n == p - 2
                assert q.shape == SHAPE_SPLIT and q.lambda_equal
            if mu == 2:
                # boost cases: peu-or-trivial at n = p-1, or split with
                # unequal lambdas at n = p-2
                assert (
                    n == p - 1 and q.lambda_equal and q.shape in (SHAPE_SPLIT, SHAPE_PEU)
                ) or (n == p - 2 and q.shape == SHAPE_SPLIT and not q.lambda_equal)


# ---------------------------------------------------------------------------
# bm_set


def test_bm_set_irreducible():
    p = 5
    for s in range(1, p):
        got = bm_set(Irreducible(p, 0, s))
        assert got == weight_set(p, [(0, s), ((s - 1) % (p - 1), p + 1 - s)])


def test_bm_set_p3_split_ratio_one():
    got = bm_set(Reducible(3, 0, 1, SHAPE_SPLIT, True))
    assert got == weight_set(3, [(0, 1), (0, 3), (1, 1), (1, 3)])


@pytest.mark.parametrize("p", PRIMES)
def test_bm_set_tres(p):
    assert bm_set(Reducible(p, 0, 1, SHAPE_TRES, True)) == weight_set(p, [(0, p)])


@given(x=params(), t=st.integers(-6, 12))
@settings(max_examples=150, deadline=None)
def test_bm_twist_equivariance(x, t):
    twisted = bm_set(param_twist(x, t))
    expected = tuple(sorted(twist_weight(w, t) for w in bm_set(x)))
    assert twisted == expected


# ---------------------------------------------------------------------------
# bm_multiplicity and k_cris


def test_bm_multiplicity_at_weight_two():
    # Sym^0 is V(0,1); the record of the weight-2 crystalline lift
    q = Reducible(5, 0, 1, SHAPE_SPLIT, False)
    assert bm_multiplicity(q, 2) == 1
    assert bm_multiplicity(Reducible(5, 0, 1, SHAPE_TRES, True), 2) == 0


def test_bm_multiplicity_empty_intersection():
    q = Reducible(5, 2, 1, SHAPE_TRES, True)  # single weight V(2,5)
    assert bm_multiplicity(q, 4) == 0
    with pytest.raises(ValueError, match="^k must be >= 2, got 1$"):
        bm_multiplicity(q, 1)


@pytest.mark.parametrize("k", [7.0, 1.5, "7"])
def test_bm_multiplicity_names_a_non_int_k(k):
    # 7.0 reached the fold as N = 5.0 and its message named neither k nor 7.0
    with pytest.raises(ValueError, match=f"^k must be an int, got {k!r}$"):
        bm_multiplicity(Irreducible(5, 0, 1), k)


@pytest.mark.parametrize("p", PRIMES)
def test_k_cris_examples(p):
    assert k_cris(Reducible(p, 0, 1, SHAPE_SPLIT, False)) == 2
    assert k_cris(Reducible(p, 0, 1, SHAPE_TRES, True)) == p + 1


def test_k_cris_irreducible():
    assert k_cris(Irreducible(5, 0, 3)) == 4


@given(x=params(primes=[3, 5, 7]))
@settings(max_examples=80, deadline=None)
def test_k_cris_is_least_k_with_positive_multiplicity(x):
    # literal re-scan without the residue shortcut
    k = k_cris(x)
    assert bm_multiplicity(x, k) > 0
    for j in range(2, k):
        assert bm_multiplicity(x, j) == 0


@given(x=params(primes=[3, 5, 7]))
@settings(max_examples=80, deadline=None)
def test_k_cris_equals_min_over_bm_set(x):
    assert k_cris(x) == min(k_min_closed(w) for w in bm_set(x))


def test_k_cris_decomposes_only_the_support_residues():
    # Sym^(k-2), k <= p^2, has p+1 powers in each residue class mod p-1, and
    # only the classes of the support weights' central characters are scanned
    p = 47
    for param in enumerate_params(p)[::97]:
        residues = {(2 * m + n) % (p - 1) for n, m, _ in mu_support(param)}
        _decompose.cache_clear()
        _least_k.cache_clear()  # a memo hit would decompose nothing
        k_cris(param)
        assert _decompose.cache_info().misses <= (p + 1) * len(residues), param


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_crystalline_spectrum_is_serre_k_mod_p_minus_1(p):
    # bm_multiplicity(param, k) > 0 exactly at the k >= k(rho) with
    # k = k(rho) mod p-1, for k in [2, 3p^2 + 2]: no verify check reads the
    # spectrum above its least k
    top = 3 * p * p + 2
    for param in enumerate_params(p):
        spectrum = [k for k in range(2, top + 1) if bm_multiplicity(param, k) > 0]
        assert spectrum == list(range(serre_k(param), top + 1, p - 1)), param


def test_empty_support_breaches_an_invariant(monkeypatch, capsys):
    # B(rho) is never empty, so a scan over an empty support is a breach (exit 3)
    monkeypatch.setattr(recipes, "mu_support", lambda param: [])
    with pytest.raises(InternalInvariantError):
        k_cris(Irreducible(5, 0, 3))
    assert cli.main(["weights", '{"p":5,"type":"irreducible","a":0,"b":3}']) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal invariant breached: ")


# ---------------------------------------------------------------------------
# the theorems, spot-checked here, exhaustively in test_verify


@pytest.mark.parametrize("p", [3, 5])
def test_main_theorem_small_primes(p):
    for q in enumerate_params(p):
        assert serre_k(q) == k_min_of_set(q) == k_cris(q), q


@pytest.mark.parametrize("p", [3, 5])
def test_weight_sets_agree_small_primes(p):
    for q in enumerate_params(p):
        assert bdj_weight_set(q) == bm_set(q), q


@pytest.mark.parametrize("p", [3, 5, 7, 47])
def test_pair_forms_are_the_public_weight_sets(p):
    # verify compares W(rho) and B(rho) as pairs; they are the pairs of the
    # SerreWeights that bdj_weight_set and bm_set hand out, in their order
    for q in enumerate_params(p):
        w, b = bdj_weight_set(q), bm_set(q)
        assert {x.p for x in w + b} == {p}
        assert recipes._w_pairs(q) == tuple((x.a, x.b) for x in w)
        assert tuple(sorted(key for key, _ in recipes._bm_weights(q))) == tuple((x.a, x.b) for x in b)


# ---------------------------------------------------------------------------
# the scan memo


def _support_tuple(q):
    """The weight tuple of q's Breuil-Mezard support, in mu_support order."""
    return tuple(((m, n + 1), mu) for n, m, mu in mu_support(q))


@pytest.mark.parametrize("p", PRIMES)
def test_memo_matches_a_fresh_scan(p):
    # k_cris, weight_report and k_min_search read _least_k's memo, and share
    # its entries; each equals an unmemoised scan of the same tuple
    fresh = _least_k.__wrapped__
    _least_k.cache_clear()
    for q in enumerate_params(p):
        k = fresh(p, _support_tuple(q))
        assert k_cris(q) == weight_report(q)["k_cris"] == k, q
    for a in range(p - 1):
        for b in range(1, p + 1):
            assert k_min_search(W(p, a, b)) == fresh(p, (((a, b), 1),)), (a, b)


def test_weight_report_scans_each_weight_tuple_once():
    params = enumerate_params(29)
    distinct = len({_support_tuple(q) for q in params})
    _least_k.cache_clear()
    for q in params:
        weight_report(q)
    assert _least_k.cache_info().misses == distinct < len(params)
    for q in params:
        weight_report(q)
    assert _least_k.cache_info().misses == distinct
    assert _least_k.cache_info().hits == 2 * len(params) - distinct


def test_weight_report_shape():
    rep = weight_report(Reducible(5, 0, 1, SHAPE_TRES, True))
    assert rep["k_serre"] == rep["k_min"] == rep["k_cris"] == 6
    assert rep["W"] == rep["B"] == [{"a": 0, "b": 5}]
    assert rep["mu_nonzero"] == [{"n": 4, "m": 0, "mu": 1}]


@pytest.mark.parametrize("p", [3, 5, 7, 47])
def test_weight_report_equals_the_public_recipes(p):
    for q in enumerate_params(p):
        assert weight_report(q) == {
            "param": param_to_dict(q),
            "k_serre": serre_k(q),
            "k_min": k_min_of_set(q),
            "k_cris": k_cris(q),
            "W": [w.to_json_obj() for w in bdj_weight_set(q)],
            "B": [w.to_json_obj() for w in bm_set(q)],
            "mu_nonzero": [{"n": n, "m": m, "mu": mu} for n, m, mu in mu_support(q)],
        }


def test_weight_report_is_one_pass(monkeypatch):
    # one Breuil-Mezard support and one W(rho) per report, no SerreWeight
    calls = Counter()
    for name in ("mu_support", "_w_pairs"):
        def spy(param, name=name, orig=getattr(recipes, name)):
            calls[name] += 1
            return orig(param)
        monkeypatch.setattr(recipes, name, spy)
    orig_init = SerreWeight.__post_init__

    def counted_init(self):
        calls["SerreWeight"] += 1
        orig_init(self)
    monkeypatch.setattr(SerreWeight, "__post_init__", counted_init)
    reports = [weight_report(q) for q in enumerate_params(7)]
    assert calls == {"mu_support": len(reports), "_w_pairs": len(reports)}
