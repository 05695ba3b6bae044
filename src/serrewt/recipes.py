"""The three minimal-weight recipes and the two weight-set recipes.

Given an inertial parameter this module computes:

  * serre_k: Serre's minimal classical weight k(rho);
  * the Buzzard-Diamond-Jarvis set W(rho) of Serre weights, and k_min, the
    least k >= 2 such that some member of W(rho) occurs in Sym^(k-2);
  * kisin_mu: Kisin's multiplicities mu_(n,m)(rho) from the Breuil-Mezard
    conjecture, the set B(rho) of weights with mu > 0, the conjectural
    Hilbert-Samuel multiplicity of the mod-p weight-k crystalline
    deformation ring (bm_multiplicity), and the least weight k_cris with a
    nonzero multiplicity.

The classical theorems assert serre_k = k_min = k_cris and B(rho) = W(rho)
for every parameter; the verify module checks this exhaustively per prime.

Inside the library W(rho) is the sorted (a, b) pairs _w_pairs and B(rho)
the pairs of _bm_weights.  _record gives a parameter's W pairs and B
weights (one _w_pairs and one mu_support call); weight_report, behind the
weights and table commands, and verify's main and bm checks read it,
uncached here.  bdj_weight_set and bm_set (W and B as SerreWeights) and
k_min_of_set are not in __all__; they stay bound only because the
benchmark's tracer names them, until ROADMAP item 1 lands.

Conventions used by serre_k.  For a split (semisimple) record the two
inertia exponents are both reduced into [0, p-2] and the smaller one is the
twist; the pair (0, 0) maps to weight p because weight 1 is excluded.  For
a non-split record the extension forces which character is the
subrepresentation, and its exponent is represented in [1, p-1] (never 0),
matching the classical choice of representatives; the two normalizations
differ exactly when twist + ratio = 0 mod p-1.  When the ratio is omega
(ratio 1), non-split records take the peu value twist*(p+1) + 2 unless
tres ramifiee, which takes twist*(p+1) + p + 1.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import InternalInvariantError
from .galois_params import (
    SHAPE_NONSPLIT,
    SHAPE_PEU,
    SHAPE_SPLIT,
    SHAPE_TRES,
    InertialParam,
    Irreducible,
    Reducible,
    _normalize_level2,
    param_to_dict,
)
from .weights import SerreWeight, Weights, _jh_sum, _k_min, _least_k

WeightSet = Tuple[SerreWeight, ...]


def serre_k(param: InertialParam) -> int:
    """Serre's minimal weight k(rho) of the parameter."""
    p = param.p
    if isinstance(param, Irreducible):
        return p * param.a + param.b + 1
    m, r, shape = param.twist, param.ratio, param.shape
    if shape == SHAPE_TRES:
        return (m + 1) * (p + 1)
    if shape == SHAPE_PEU or (shape == SHAPE_NONSPLIT and r == 1):
        return m * (p + 1) + 2
    if shape == SHAPE_SPLIT:
        x, y = m, (m + r) % (p - 1)
        a, b = min(x, y), max(x, y)
        if (a, b) == (0, 0):
            return p
        return p * a + b + 1
    # generic non-split: the sub-character exponent lives in [1, p-1]
    beta = ((m + r - 1) % (p - 1)) + 1
    a, b = min(m, beta), max(m, beta)
    return p * a + b + 1


def _weight_row(param: Reducible) -> List[Tuple[int, int]]:
    """Untwisted W(rho) row for a reducible record, as (a, b) pairs.

    Keyed on bb, the ratio represented in [1, p-1], the shape, and p.
    """
    p, r, shape = param.p, param.ratio, param.shape
    bb = r if r >= 1 else p - 1
    if bb == p - 1:
        return [(0, p - 1)]
    if bb == 1:
        if shape == SHAPE_TRES:
            return [(0, p)]
        if shape == SHAPE_SPLIT and p > 3:
            return [(0, p), (0, 1), (1, p - 2)]
        if shape == SHAPE_SPLIT:  # p == 3
            return [(0, 3), (0, 1), (1, 3), (1, 1)]
        return [(0, p), (0, 1)]  # peu, or non-split with unequal lambdas
    if shape == SHAPE_SPLIT:
        if bb == p - 2:  # reachable only for p > 3
            return [(0, p - 2), (p - 2, p), (p - 2, 1)]
        return [(0, bb), (bb, p - 1 - bb)]
    return [(0, bb)]


def _w_pairs(param: InertialParam) -> Tuple[Tuple[int, int], ...]:
    """W(rho) as its (a, b) pairs at param.p, sorted."""
    p = param.p
    if isinstance(param, Irreducible):
        s = param.b - param.a
        base = [(0, s), (s - 1, p + 1 - s)]
        t = param.a
    else:
        base = _weight_row(param)
        t = param.twist
    pairs = sorted([((a + t) % (p - 1), b) for a, b in base])
    if len(set(pairs)) != len(pairs):
        raise InternalInvariantError(f"repeated weight in W(rho) for {param}")
    return tuple(pairs)


def bdj_weight_set(param: InertialParam) -> WeightSet:
    """The set W(rho) of Serre weights, canonically ordered by (a, b)."""
    return tuple(SerreWeight(param.p, a, b) for a, b in _w_pairs(param))


def k_min_of_set(param: InertialParam) -> int:
    """min over W(rho) of _k_min; the least k with W(rho) meeting the
    factors of Sym^(k-2)."""
    return min(_k_min(param.p, a, b) for a, b in _w_pairs(param))


def kisin_mu(param: InertialParam, n: int, m: int) -> int:
    """Kisin's multiplicity mu_(n,m)(rho), for (n, m) in [0,p-1] x [0,p-2].

    An irreducible parameter matches the cell whose level-2 exponent
    m(p+1) + n + 1 normalizes to its own (a, b); the match contributes 1.
    A reducible parameter matches when rho can be written as
    omega^m (x) (upper-triangular with sub-character omega^(n+1) times
    unramified); for split records both orderings of the two characters are
    tried, and exponents are compared mod p-1 (so ratio omega matches both
    n = 0 and n = p-1).  A match contributes 1 except in four cases:
    peu-or-trivial extensions with equal lambdas count 2 at n = p-1,
    tres ramifiee counts 0 at n = 0, and split records at n = p-2 count 2
    (unequal lambdas) or 4 (equal lambdas).
    """
    p = param.p
    if not 0 <= n <= p - 1:
        raise ValueError(f"n={n} outside [0, {p - 1}]")
    if not 0 <= m <= p - 2:
        raise ValueError(f"m={m} outside [0, {p - 2}]")
    if isinstance(param, Irreducible):
        return 1 if _normalize_level2(p, m * (p + 1) + n + 1) == (param.a, param.b) else 0

    m0, r, shape, lam = param.twist, param.ratio, param.shape, param.lambda_equal
    q = p - 1
    if shape == SHAPE_SPLIT:
        matched = (m == m0 and (n + 1) % q == r) or (
            m == (m0 + r) % q and (n + 1) % q == (-r) % q
        )
    else:
        matched = m == m0 and (n + 1) % q == r
    if not matched:
        return 0
    if n == p - 1 and lam and shape in (SHAPE_SPLIT, SHAPE_PEU):
        return 2
    if n == 0 and shape == SHAPE_TRES:
        return 0
    if n == p - 2 and shape == SHAPE_SPLIT:
        return 4 if lam else 2
    return 1


def _candidate_cells(param: InertialParam) -> List[Tuple[int, int]]:
    """The (n, m) cells a parameter can match, from the congruences, sorted
    and without repeats.

    At most 2 cells for irreducible or non-split records and at most 4 for
    split ones; every cell outside this list has mu = 0.  Equivalence with
    the cell-by-cell recipe, and these bounds, are tested.
    """
    p = param.p
    if isinstance(param, Irreducible):
        # the exponent pa + b and its conjugate a + pb: distinct, never = 0 mod p+1
        m, n = divmod(p * param.a + param.b, p + 1)
        m2, n2 = divmod(param.a + p * param.b, p + 1)
        return [(n - 1, m), (n2 - 1, m2)] if (n, m) < (n2, m2) else [(n2 - 1, m2), (n - 1, m)]
    # n + 1 = r mod p-1 at twist m: n = (r-1) mod p-1, and n = p-1 too when r = 1
    q, m, r = p - 1, param.twist, param.ratio
    cells = [(0, m), (p - 1, m)] if r == 1 else [((r - 1) % q, m)]
    if param.shape != SHAPE_SPLIT:
        return cells
    m, r = (m + r) % q, -r % q  # the other ordering of the two characters
    cells += [(0, m), (p - 1, m)] if r == 1 else [((r - 1) % q, m)]
    return sorted(set(cells))


def mu_support(param: InertialParam) -> List[Tuple[int, int, int]]:
    """All (n, m, mu) with mu = kisin_mu(param, n, m) > 0, sorted by (n, m)."""
    return [(n, m, mu) for n, m in _candidate_cells(param) if (mu := kisin_mu(param, n, m)) > 0]


def _bm_weights(param: InertialParam) -> Weights:
    """((m, n+1), mu) over the Breuil-Mezard support, in mu_support order."""
    return tuple([((m, n + 1), mu) for n, m, mu in mu_support(param)])


def _record(param: InertialParam) -> Tuple[Tuple[Tuple[int, int], ...], Weights]:
    """(W(rho) pairs, B(rho) weights), each from its own recipe."""
    return _w_pairs(param), _bm_weights(param)


def bm_set(param: InertialParam) -> WeightSet:
    """B(rho) = { V(m, n+1) : mu_(n,m)(rho) > 0 }, ordered by (a, b)."""
    return tuple(SerreWeight(param.p, a, b) for (a, b), _ in sorted(_bm_weights(param)))


def bm_multiplicity(param: InertialParam, k: int) -> int:
    """Right-hand side of the Breuil-Mezard formula at trivial type:
    sum over (n, m) of (multiplicity of V(m, n+1) in Sym^(k-2)) * mu_(n,m)."""
    if not isinstance(k, int):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _jh_sum(param.p, k - 2, _bm_weights(param))


def k_cris(param: InertialParam) -> int:
    """Least k >= 2 with bm_multiplicity(param, k) > 0, by _least_k's scan of
    Sym^(k-2), k <= p^2; B(rho) is never empty, so finding none raises InternalInvariantError."""
    return _least_k(param.p, _bm_weights(param))


def weight_report(param: InertialParam) -> Dict[str, object]:
    """All recipe outputs for one parameter, JSON-ready, from its _record:
    the W pairs give k_min (the closed form _k_min) and W, the B weights
    give k_cris (the _least_k scan), B and mu_nonzero (n = b - 1, m = a)."""
    p, (w_pairs, bm_weights) = param.p, _record(param)
    return {
        "param": param_to_dict(param),
        "k_serre": serre_k(param),
        "k_min": min([_k_min(p, a, b) for a, b in w_pairs]),
        "k_cris": _least_k(p, bm_weights),
        "W": [{"a": a, "b": b} for a, b in w_pairs],
        "B": [{"a": a, "b": b} for (a, b), _ in sorted(bm_weights)],
        "mu_nonzero": [{"n": b - 1, "m": a, "mu": mu} for (a, b), mu in bm_weights],
    }
