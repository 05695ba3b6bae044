"""Mutation suite: the verifier must be shown to fail, not only to pass.

Each case plants one single-point fault by monkeypatching and requires
run_suite over p in {3, 5, 7}, all five checks, single worker, to report
failures in exactly the check(s) named with it.  Each fault is a copy of the
library's behaviour with one rule changed; the checks that catch it:

  * _k_min, the closed form behind k_min_closed: the boundary a + b < p
    read as a + b <= p (kmin, main);
  * _weight_row: the p = 3 split row replaced by the p > 3 one (bm);
  * _weight_row: the split row at bb = p-2 replaced by the generic split
    row (bm);
  * kisin_mu: the tres ramifiee case (mu = 0 at n = 0) dropped (bm, main);
  * serre_k: the peu and tres values swapped (main);
  * _decompose: one factor of each Sym^N (N >= p-1) twisted by det,
    patched wherever the library holds it or the uncached fold _fold
    behind it, i.e. in weights and oracle (recursion, main, kmin, brauer);
  * _normalize_level2, the unchecked normalization behind normalize_level2
    that kisin_mu calls: the exponent reduced modulo p^2 - 2, not p^2 - 1
    (bm);
  * _twisted, the det twist that VirtualClass.twist and the recursion
    lemma items share: the exponent a + t left unreduced modulo p-1,
    patched wherever the library holds it (recursion).  Derived classes
    are built without checking their keys, so the fault is reported as
    failed items, not raised as ValueError;
  * kisin_mu: every mu at n <= p-3 doubled (bm, by its Fontaine-Laffaille
    bound mu <= 1 there; B(rho) and k_cris read only whether mu > 0);
  * _bm_weights, the B weights of the record that weight_report, main and
    bm read: the weight of cell (n, m) written (m, n + 2), not (m, n + 1)
    (bm, main).  The fault caps b at p: a key (m, p + 1) names no weight,
    so a parameter whose support is only n = p-1 would make k_cris's scan
    raise InternalInvariantError instead of being reported as a failure.

Kill rate: 10 of 11 planted faults are caught by the checks.  The last,
the split multiplicity `4 if lam else 2` in kisin_mu (n = p-2) changed to
2, passes every check: only whether mu > 0 enters bm_set, k_cris is the
least k whose weighted Jordan-Holder sum is positive, and the bound in bm
stops at n = p-3, so no check reads the size of a positive mu at n = p-2.
It is caught only by the bytes pin of
`mu_nonzero` in `weights --format json` (tests/test_cli.py, every split
parameter with n = p-2 in its support at p in {3, 5, 7}); the last test
below asserts that.  The pin is a regression pin, not a proof: it records
today's values and would record a wrong value just as faithfully.  Proving
the multiplicities needs a check of them against a second source.
"""

import json
import sys
from functools import lru_cache

import pytest

from serrewt import galois_params, recipes, weights
from serrewt.galois_params import SHAPE_PEU, SHAPE_SPLIT, SHAPE_TRES, param_to_dict, parse_param
from serrewt.verify import CHECKS, run_suite

from test_cli import SPLIT_MU_AT_P_MINUS_2, split_mu_tails

PRIMES = [3, 5, 7]


def _patch_everywhere(monkeypatch, orig, fault):
    """Replace every serrewt module attribute bound to `orig` by `fault`."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "serrewt" or name.startswith("serrewt.")):
            continue
        for attr, val in list(vars(module).items()):
            if val is orig:
                monkeypatch.setattr(module, attr, fault)
                hits += 1
    assert hits, f"{orig!r} is bound nowhere"


def _failing_checks():
    report = run_suite(PRIMES, list(CHECKS), jobs=1)
    return {run["check"] for run in report["runs"] if run["failures"]}


# ---------------------------------------------------------------------------
# the faults


def _k_min_closed_boundary(p, a, b):
    if a + b <= p:  # fault: was a + b < p
        return a * (p + 1) + b + 1
    return (a + 1) * (p + 1) + b * p - p * p


def _weight_row_p3_split(orig):
    def fault(param):
        p, r = param.p, param.ratio
        if p == 3 and param.shape == SHAPE_SPLIT and r == 1:
            return [(0, p), (0, 1), (1, p - 2)]  # fault: the p > 3 row
        return orig(param)
    return fault


def _weight_row_bb_p_minus_2(orig):
    def fault(param):
        p, bb = param.p, param.ratio if param.ratio >= 1 else param.p - 1
        if p > 3 and param.shape == SHAPE_SPLIT and bb == p - 2:
            return [(0, bb), (bb, p - 1 - bb)]  # fault: the generic split row
        return orig(param)
    return fault


def _kisin_mu_no_tres(orig):
    def fault(param, n, m):
        if getattr(param, "shape", None) == SHAPE_TRES and n == 0 and m == param.twist:
            return 1  # fault: the tres case (mu = 0 at n = 0) is gone
        return orig(param, n, m)
    return fault


def _serre_k_peu_tres_swapped(orig):
    def fault(param):
        shape = getattr(param, "shape", None)
        m, p = getattr(param, "twist", 0), param.p
        if shape == SHAPE_TRES:
            return m * (p + 1) + 2  # fault: the peu value
        if shape == SHAPE_PEU:
            return (m + 1) * (p + 1)  # fault: the tres value
        return orig(param)
    return fault


_DECOMPOSE = weights._decompose.__wrapped__


def _decompose_one_factor_twisted(p, N):
    factors = dict(_DECOMPOSE(p, N))
    if N >= p - 1:
        (a, b) = min(factors)
        mult = factors.pop((a, b))
        key = ((a + 1) % (p - 1), b)  # fault: one factor twisted by det
        factors[key] = factors.get(key, 0) + mult
    return factors


def _kisin_mu_split_mult_2(orig):
    def fault(param, n, m):
        mu = orig(param, n, m)
        if getattr(param, "shape", None) == SHAPE_SPLIT and n == param.p - 2 and mu:
            return 2  # fault: was 4 if lam else 2
        return mu
    return fault


def _kisin_mu_doubled_below_p_minus_2(orig):
    def fault(param, n, m):
        mu = orig(param, n, m)
        return 2 * mu if n <= param.p - 3 else mu  # fault: mu doubled at n <= p-3
    return fault


def _normalize_level2_off_by_one(orig):
    def fault(p, e):
        return orig(p, e % (p * p - 2))  # fault: reduced modulo p^2 - 2, not p^2 - 1
    return fault


def _bm_weights_b_shifted(param):
    p = param.p
    return tuple(((m, min(n + 2, p)), mu) for n, m, mu in recipes.mu_support(param))  # fault: was n + 1


def _twist_unreduced(p, coeffs, t):
    return {(a + t, b): c for (a, b), c in coeffs.items()}  # fault: no % (p-1)


# name -> (install(monkeypatch), checks that must report failures)
MUTANTS = {
    "k_min_closed_boundary": (
        lambda mp: _patch_everywhere(mp, weights._k_min, _k_min_closed_boundary),
        {"kmin", "main"},
    ),
    "weight_row_p3_split": (
        lambda mp: mp.setattr(recipes, "_weight_row", _weight_row_p3_split(recipes._weight_row)),
        {"bm"},
    ),
    "weight_row_bb_p_minus_2": (
        lambda mp: mp.setattr(recipes, "_weight_row", _weight_row_bb_p_minus_2(recipes._weight_row)),
        {"bm"},
    ),
    "kisin_mu_tres": (
        lambda mp: mp.setattr(recipes, "kisin_mu", _kisin_mu_no_tres(recipes.kisin_mu)),
        {"bm", "main"},
    ),
    "serre_k_peu_tres": (
        lambda mp: _patch_everywhere(mp, recipes.serre_k, _serre_k_peu_tres_swapped(recipes.serre_k)),
        {"main"},
    ),
    "decompose_one_factor": (
        lambda mp: (
            _patch_everywhere(mp, weights._decompose, lru_cache(maxsize=None)(_decompose_one_factor_twisted)),
            _patch_everywhere(mp, weights._fold, _decompose_one_factor_twisted),
        ),
        {"recursion", "main", "kmin", "brauer"},
    ),
    "kisin_mu_doubled_below_p_minus_2": (
        lambda mp: mp.setattr(recipes, "kisin_mu", _kisin_mu_doubled_below_p_minus_2(recipes.kisin_mu)),
        {"bm"},
    ),
    "normalize_level2_off_by_one": (
        lambda mp: _patch_everywhere(
            mp, galois_params._normalize_level2,
            _normalize_level2_off_by_one(galois_params._normalize_level2),
        ),
        {"bm"},
    ),
    "bm_weights_b_shifted": (
        lambda mp: mp.setattr(recipes, "_bm_weights", _bm_weights_b_shifted),
        {"bm", "main"},
    ),
    "twist_unreduced": (
        lambda mp: _patch_everywhere(mp, weights._twisted, _twist_unreduced),
        {"recursion"},
    ),
}


def test_unmutated_suite_passes():
    assert _failing_checks() == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch):
    install, expected = MUTANTS[name]
    install(monkeypatch)
    caught = _failing_checks()
    assert caught == expected, f"{name}: caught by {sorted(caught)}, expected {sorted(expected)}"


# the first failing bm entry at p = 3 under weight_row_p3_split, as the
# checks wrote it when they compared SerreWeight tuples
P3_SPLIT_BM_ENTRY = (
    '{"param": {"p": 3, "type": "reducible", "twist": 0, "ratio": 1, "shape": "split", '
    '"lambda_equal": true}, "expected": [{"a": 0, "b": 1}, {"a": 0, "b": 3}, {"a": 1, "b": 1}], '
    '"actual": [{"a": 0, "b": 1}, {"a": 0, "b": 3}, {"a": 1, "b": 1}, {"a": 1, "b": 3}]}'
)


def test_bm_failure_entries_list_the_public_weight_sets(monkeypatch):
    # bm compares pairs, but a failing entry still lists bdj_weight_set as
    # expected and bm_set as actual, as SerreWeight JSON objects in (a, b) order
    MUTANTS["weight_row_p3_split"][0](monkeypatch)
    (run,) = run_suite([3], ["bm"])["runs"]
    assert len(run["failures"]) == 4
    assert json.dumps(run["failures"][0]) == P3_SPLIT_BM_ENTRY
    for entry in run["failures"]:
        q = parse_param(json.dumps(entry["param"]))
        assert json.dumps(entry) == json.dumps({
            "param": param_to_dict(q),
            "expected": [w.to_json_obj() for w in recipes.bdj_weight_set(q)],
            "actual": [w.to_json_obj() for w in recipes.bm_set(q)],
        })


def test_split_mu_fault_breaks_the_pin(monkeypatch):
    monkeypatch.setattr(recipes, "kisin_mu", _kisin_mu_split_mult_2(recipes.kisin_mu))
    changed = {key for key, tail in split_mu_tails().items() if tail != SPLIT_MU_AT_P_MINUS_2[key]}
    assert changed == {key for key in SPLIT_MU_AT_P_MINUS_2 if key[2]}  # every lambda_equal one


def test_bound_entry_lists_the_cells_above_it(monkeypatch):
    # with W = B, a bm entry names the support cells with mu > 1 at n <= p-3
    MUTANTS["kisin_mu_doubled_below_p_minus_2"][0](monkeypatch)
    (run,) = run_suite([3], ["bm"])["runs"]
    assert json.dumps(run["failures"][0]) == (
        '{"param": {"p": 3, "type": "irreducible", "a": 0, "b": 1}, '
        '"expected": "mu <= 1 at n <= p-3", "actual": [{"n": 0, "m": 0, "mu": 2}]}'
    )
    assert all(entry["expected"] == "mu <= 1 at n <= p-3" for entry in run["failures"])


def test_weight_report_prints_the_b_that_bm_compared(monkeypatch):
    # weight_report reads the record the checks read, so under a fault in
    # its B weights the CLI's B is the faulty B that bm reported
    MUTANTS["bm_weights_b_shifted"][0](monkeypatch)
    (run,) = run_suite([5], ["bm"])["runs"]
    assert len(run["failures"]) == 74
    for entry in run["failures"]:
        report = recipes.weight_report(parse_param(json.dumps(entry["param"])))
        assert report["B"] == entry["actual"] != report["W"] == entry["expected"]
