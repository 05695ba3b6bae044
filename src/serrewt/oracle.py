"""Independent verification paths for the weight combinatorics.

Two oracles, deliberately separate from the code they certify:

  * Brauer characters.  At a class of order prime to p, lift the
    eigenvalues of a mod-p representation of GL2(F_p) through the
    Teichmuller map to zeta^e, zeta a primitive (p^2-1)-th root of unity.
    Characteristic polynomials multiply along a composition series and the
    lift is injective, so a correct decomposition of Sym^N gives, at every
    p-regular class, the same multiset of exponents e mod p^2 - 1 on both
    sides.  Conversely, equal multisets give equal Brauer characters, and
    the irreducible Brauer characters are linearly independent (Serre,
    Linear Representations of Finite Groups, section 18), so equality at
    every class certifies the decomposition.  verify_decomposition, the
    library's only Brauer path, counts the exponents of char(Sym^N) minus
    the claimed factors' for all classes at once; a class fails iff its
    count row is nonzero.  The tests keep a per-class reference in
    Z[x]/Phi_(p^2-1)(x), built on the exact cyclotomic polynomials below.
    One clean run over N < 2(p^2-1) certifies every N >= 0.  Fix r and put
    N = r + k(p^2-1): each unit of k adds one full period of p-1 steps to
    _decompose's fold, so the claimed factors are affine in k, and so are
    the Sym^N counts ((N+1) at one exponent on a central class, one fixed
    row more per unit of k elsewhere).  The residual is then affine in k
    and vanishes at k = 0 and 1, hence at every k.

  * Brute-force minimal weight.  k_min_search scans Sym^(k-2) for the
    first occurrence of a weight, at the k of its central character only,
    independent of the closed form.

A Brauer character at a p-regular class depends only on the exponents
(i, i') of the class's lifted eigenvalues zeta^i, zeta^i', so a class is that
pair of ints: p_regular_classes(p) returns them, and a failure entry names
its class as repr((i, i')).

The exponents depend on the choice of zeta only up to a unit.  Replacing
zeta by zeta^s with gcd(s, p^2 - 1) = 1 multiplies every exponent pair by
s, which permutes the unordered pairs of p_regular_classes(p): F_p^* is
always the subgroup of (p+1)-th powers, and the non-split pairs (j, pj)
are the orbits of Frobenius.  Sym^N and the Serre weights give exponent
multisets symmetric in (i, i'), so the certificate is a statement over a
set that does not depend on the generator, and no model of the field with
p^2 elements is needed.  The oracles are intended for desk-scale primes
(p <= MAX_ORACLE_P = 31): verify_decomposition fills a p(p-1) x (p^2-1)
int64 count matrix from p(p-1) x (N+1) index arrays, a build whose peak
RSS at N = 3p^2 reaches 258 MB at p = 47.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .errors import InternalInvariantError
from .weights import SerreWeight, _decompose, _least_k, _require_odd_prime

MAX_ORACLE_P = 31

# ---------------------------------------------------------------------------
# exact integer polynomials (little-endian coefficient tuples)


def _poly_trim(c: List[int]) -> Tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(f: Tuple[int, ...], g: Tuple[int, ...]) -> Tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod(num: Tuple[int, ...], den: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Quotient and remainder; den must be monic."""
    if not (den and den[-1] == 1):
        raise InternalInvariantError(f"divisor {den} is not monic")
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            quo[top - dd] = c
            for i in range(dd + 1):
                rem[top - dd + i] -= c * den[i]
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Tuple[int, ...]:
    """The n-th cyclotomic polynomial, exact, little-endian, monic.

    Computed as (x^n - 1) divided by the product of Phi_d over proper
    divisors d of n; the division is exact over the integers.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    num = tuple([-1] + [0] * (n - 1) + [1])
    den: Tuple[int, ...] = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_poly(d))
    quo, rem = _poly_divmod(num, den)
    if rem != ():
        raise InternalInvariantError(f"inexact cyclotomic division at n={n}")
    return quo


def _phi_degree(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


# ---------------------------------------------------------------------------
# p-regular classes as eigenvalue-exponent pairs


@lru_cache(maxsize=None)
def p_regular_classes(p: int) -> Tuple[Tuple[int, int], ...]:
    """Conjugacy classes of p-regular elements of GL2(F_p), each as the
    exponents (i, i') of its Teichmuller-lifted eigenvalues zeta^i, zeta^i'.

    Order: the p-1 central classes ((p+1)k, (p+1)k) for k = 0..p-2, then
    the (p-1)(p-2)/2 split classes (i, i') with i < i', both multiples of
    p+1, then the p(p-1)/2 non-split classes (j, pj mod p^2-1) with j the
    smaller of its orbit and not divisible by p+1.  The total p(p-1) is
    the number of irreducible Brauer characters.
    """
    _require_odd_prime(p)
    n = p * p - 1
    units = range(0, n, p + 1)  # F_p^*: the (p+1)-th powers of zeta
    out = [(i, i) for i in units]
    out.extend((i, i2) for i in units for i2 in units if i < i2)
    reps = {min(j, (p * j) % n) for j in range(1, n) if j % (p + 1)}
    out.extend((j, (p * j) % n) for j in sorted(reps))
    if len(out) != p * (p - 1):
        raise InternalInvariantError(f"{len(out)} p-regular classes at p={p}")
    return tuple(out)


# ---------------------------------------------------------------------------
# decomposition certification


@dataclass
class DecompositionReport:
    """Outcome of certifying decompose_sym(p, N) against Brauer characters."""

    p: int
    N: int
    classes_checked: int
    failures: List[Dict[str, object]]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_decomposition(p: int, N: int) -> DecompositionReport:
    """Certify decompose_sym(p, N): at every p-regular class the lifted
    eigenvalue exponents of Sym^N, built from the class alone and never
    from _decompose, must equal the multiplicity-weighted union of the
    claimed factors' exponents as multisets.  A failure entry carries the
    class's p^2 - 1 exponent counts of char(Sym^N) minus the factors'.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    classes = p_regular_classes(p)
    n = p * p - 1
    exps = np.array(classes, dtype=np.int64)
    i, i2 = exps[:, :1], exps[:, 1:]  # column vectors of the two exponents
    rows = np.arange(len(classes))[:, None]

    # int64 is ample: every entry is bounded by 2(N+1), N+1 terms from Sym^N
    # and, by _decompose's dimension invariant, N+1 from the claimed factors
    counts = np.zeros((len(classes), n), dtype=np.int64)
    t = np.arange(N + 1, dtype=np.int64)[None, :]
    np.add.at(counts, (rows, (i * t + i2 * (N - t)) % n), 1)
    for (a, b), mult in _decompose(p, N).items():
        tb = np.arange(b, dtype=np.int64)[None, :]
        cells = (a * (i + i2) + i * tb + i2 * (b - 1 - tb)) % n
        np.add.at(counts, (rows, cells), -mult)

    failures = [
        {"class": repr(classes[k]), "residual": [int(v) for v in counts[k]]}
        for k in map(int, np.nonzero(np.any(counts != 0, axis=1))[0])
    ]
    return DecompositionReport(p, N, len(classes), failures)


def k_min_search(w: SerreWeight) -> int:
    """Least k in [2, p^2] whose Sym^(k-2) contains w, by _least_k's scan at w.p."""
    return _least_k(w.p, {(w.a, w.b): 1})
