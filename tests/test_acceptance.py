"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact (integer or set equality); the two runtime
targets are asserted as stated.
"""

import json
import time

import pytest

from serrewt.galois_params import (
    SHAPE_NONSPLIT,
    SHAPE_SPLIT,
    SHAPE_TRES,
    Reducible,
    enumerate_params,
)
from serrewt.oracle import verify_decomposition
from serrewt.recipes import bdj_weight_set, bm_set, k_cris, kisin_mu, serre_k
from serrewt.verify import run_suite
from serrewt.weights import SerreWeight, decompose_sym, k_min_closed, sym_class

from strategies import param_twist, twist_weight

PRIMES_47 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PRIMES_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
BRAUER_PRIMES = [3, 5, 7, 11, 13]


def _report(line):
    print(line, flush=True)


def _runs(primes, check):
    """run_suite's runs of one check over the primes, single worker."""
    return run_suite(primes, [check], jobs=1)["runs"]


def test_criterion_1_main_theorem():
    start = time.perf_counter()
    failures = 0
    counts = {}
    for r in _runs(PRIMES_47, "main"):
        failures += len(r["failures"])
        counts[r["p"]] = r["params_checked"]
    elapsed = time.perf_counter() - start
    ok = failures == 0 and counts[3] == 21 and counts[5] == 78 and elapsed < 60.0
    _report(
        f"criterion 1 (main theorem, p in 3..47, single worker): "
        f"{'PASS' if ok else 'FAIL'} "
        f"({sum(counts.values())} params, {failures} failures, {elapsed:.1f} s)"
    )
    assert failures == 0
    assert counts[3] == 21 and counts[5] == 78
    assert all(counts[p] == p * (p - 1) // 2 + (p - 1) * (4 * (p - 1) + 1) for p in PRIMES_47)
    assert elapsed < 60.0


def test_criterion_2_weight_set_equality():
    failures = 0
    for r in _runs(PRIMES_47, "bm"):
        failures += len(r["failures"])
    # the pinned p = 3 split r = 1 sets, from both recipes
    expected = tuple(
        sorted(SerreWeight(3, a, b) for a, b in [(0, 1), (0, 3), (1, 1), (1, 3)])
    )
    for lam in (True, False):
        q = Reducible(3, 0, 1, SHAPE_SPLIT, lam)
        pinned = bdj_weight_set(q) == expected == bm_set(q)
        assert pinned, (lam, bdj_weight_set(q), bm_set(q))
    ok = failures == 0
    _report(f"criterion 2 (B = W, p in 3..47, pinned p=3 sets): {'PASS' if ok else 'FAIL'}")
    assert failures == 0


def test_criterion_3_kmin_formula():
    failures = 0
    grids = 0
    for r in _runs(PRIMES_31, "kmin"):
        failures += len(r["failures"])
        grids += r["params_checked"]
        assert r["params_checked"] == (r["p"] - 1) * r["p"]
    # anchored values
    for p in PRIMES_31:
        for b in range(1, p + 1):
            assert k_min_closed(SerreWeight(p, 0, b)) == b + 1
        for a in range(0, p - 1):
            assert k_min_closed(SerreWeight(p, a, p - a)) == a + p + 1
    ok = failures == 0
    _report(
        f"criterion 3 (k_min closed form = scan, p <= 31, {grids} weights): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert failures == 0


def test_criterion_4_grothendieck_identities():
    failures = 0
    for r in _runs(PRIMES_31, "recursion"):  # lemma for k <= 3p
        p = r["p"]
        assert r["params_checked"] == (p - 1) * 3 * p + 6 * p + 1
        failures += len(r["failures"])
        # Sym^p = Sym^1 + det (x) Sym^(p-2), per prime
        lhs = sym_class(p, p)
        rhs = sym_class(p, 1) + sym_class(p, p - 2).twist(1)
        assert lhs == rhs, p
    ok = failures == 0
    _report(
        f"criterion 4 (recursion identity and periodic relation, p <= 31): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert failures == 0


def test_criterion_5_brauer_certification():
    start = time.perf_counter()
    failures = 0
    checked = 0
    for p in BRAUER_PRIMES:
        for N in range(0, 3 * p * p + 1):
            report = verify_decomposition(p, N)
            failures += len(report.failures)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300.0
    _report(
        f"criterion 5 (Brauer certification, p in {{3,5,7,11,13}}, N <= 3p^2): "
        f"{'PASS' if ok else 'FAIL'} ({checked} decompositions, {elapsed:.1f} s)"
    )
    assert failures == 0
    assert elapsed < 300.0


def test_criterion_5_brauer_run_suite_every_odd_p_to_47():
    # every N <= 3p^2 at every odd p <= 47, through the suite's brauer check
    start = time.perf_counter()
    report = run_suite(PRIMES_47, ["brauer"])
    elapsed = time.perf_counter() - start
    counts = {r["p"]: r["params_checked"] for r in report["runs"]}
    expected = {p: 3 * p * p + 1 for p in PRIMES_47}
    ok = report["pass"] and counts == expected
    _report(
        f"criterion 5 (Brauer certification via run_suite, p in 3..47, N <= 3p^2): "
        f"{'PASS' if ok else 'FAIL'} ({sum(counts.values())} decompositions, {elapsed:.1f} s)"
    )
    assert report["pass"] is True
    assert counts == expected


def test_criterion_6_spot_values():
    for p in PRIMES_31:
        # tres at twist 0 has minimal weight p + 1
        assert serre_k(Reducible(p, 0, 1, SHAPE_TRES, True)) == p + 1
        # trivial inertia exponents give weight p
        for shape in (SHAPE_SPLIT, SHAPE_NONSPLIT):
            for lam in (True, False):
                assert serre_k(Reducible(p, 0, 0, shape, lam)) == p
        # the split ratio-1 unequal-lambda record has a weight-2 lift
        assert k_cris(Reducible(p, 0, 1, SHAPE_SPLIT, False)) == 2
        # split equal-lambda records count 4 at n = p-2
        for m in range(p - 1):
            assert kisin_mu(Reducible(p, m, 0, SHAPE_SPLIT, True), p - 2, m) == 4
        # tres records count 0 at n = 0
        assert kisin_mu(Reducible(p, 0, 1, SHAPE_TRES, True), 0, 0) == 0
    _report("criterion 6 (spot values): PASS")


def test_criterion_7_structural_invariants():
    # dimension conservation and central character
    for p in (3, 5, 7):
        for N in range(0, 5 * p * p + 1):
            factors = decompose_sym(p, N)
            assert sum(m * w.b for w, m in factors.items()) == N + 1
            for w, _ in factors.items():
                assert (2 * w.a + w.b - 1) % (p - 1) == N % (p - 1)
    # twist equivariance of both weight-set recipes
    for p in (3, 5, 7):
        for q in enumerate_params(p):
            for t in (1, 2, p - 2):
                tw = param_twist(q, t)
                assert bdj_weight_set(tw) == tuple(
                    sorted(twist_weight(w, t) for w in bdj_weight_set(q))
                )
                assert bm_set(tw) == tuple(
                    sorted(twist_weight(w, t) for w in bm_set(q))
                )
    # determinism of run_suite across worker counts
    def strip(agg):
        for r in agg["runs"]:
            r["ms"] = 0
        return json.dumps(agg)

    one = run_suite([5, 7], "all", jobs=1)
    eight = run_suite([5, 7], "all", jobs=8)
    assert strip(one) == strip(eight)
    assert one["pass"]
    _report("criterion 7 (structural invariants, determinism across jobs): PASS")
