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
    every class certifies the decomposition.  The tests compare it with
    the characters in Z[x]/Phi_(p^2-1)(x), on the cyclotomic polynomials
    below, and with a term-by-term count.  One clean run over
    N < 2(p^2-1) certifies every N >= 0: at N = r + k(p^2-1) each unit of
    k adds one period of p-1 steps to the fold _fold and p^2 - 1
    weights to Sym^N, so the residual is affine in k, and it
    vanishes at k = 0 and 1, hence at every k.

  * Brute-force minimal weight.  k_min_search scans Sym^(k-2) for the
    first occurrence of a weight, at the k of its central character only,
    independent of the closed form.

A Brauer character at a p-regular class depends only on the exponents
(i, i') of its lifted eigenvalues zeta^i, zeta^i', so p_regular_classes(p)
returns these pairs and a failure entry names its class as repr((i, i')).
Replacing zeta by zeta^s, gcd(s, p^2 - 1) = 1, multiplies every pair by s
and permutes the unordered pairs: F_p^* is always the subgroup of (p+1)-th
powers, and the non-split pairs (j, pj) are the orbits of Frobenius.  Sym^N
and the Serre weights give multisets symmetric in (i, i'), so the
certificate does not depend on the generator, and no model of the field
with p^2 elements is needed.

verify_decomposition, the library's only Brauer path, lists no class's
exponents.  Every p-regular element lies in the split torus F_p^* x F_p^*
or the non-split torus F_(p^2)^*, so two multisets of weights (x, y)
decide every class.  Sym^N, from N alone and never from _fold, has
the weights (j, N - j), j <= N; V(a, b) x mult has (a + t, a + b - 1 - t),
t < b, each with weight -mult.  Their difference is counted by
(x mod p-1, y mod p-1), as the class ((p+1)u, (p+1)v) lifts (x, y) to
zeta^((p+1)(xu + yv)), and by x + py mod n, n = p^2 - 1, as (j, pj)
lifts it to zeta^((x + py)j).  Both sides are symmetric in (x, y), so
the rows at (u, v) and (v, u) agree, the second count is invariant under
e -> pe, and the centre of F_(p^2)^* gives the central rows: by Fourier
inversion on (Z/(p-1))^2 and Z/n, every class passes iff both counts are
zero.

Both counts are kept as rows of runs, filled in one pass over the
factors.  Row c holds the weights with x + y = c mod p-1, the central
character.  On the split torus (x, y) is cell x mod p-1 of its row; on
the non-split torus e = x + py mod n has e = c mod p-1 and is cell
(e - c)/(p-1), mod p+1, of row c.  Along (x - t, y + t) the split cell
falls by 1 and e rises by p - 1, so V(a, b) x mult, (x, y) = (a + b - 1,
a), is one cyclic run of b cells in row c = 2a + b - 1 mod p-1 of each
count: from cell a mod p-1 on the split torus and from cell a + k mod
p+1 on the other, as e = c + (p-1)(a + k) with k = (2a + b - 1) // (p-1).
Sym^N's weights are V(0, N + 1)'s, so it is that run counted -1 times,
built from N alone.  Each factor computes its row once and adds its run to
each torus as cyclic differences, -mult at the start cell and +mult b
cells on, whatever b is; the row's total, -mult * b summed, is one more
cell of the split list, as both tori share it.  This holds for any key,
and a key with b < 1 has no weights.  The (row, cell) pairs relabel the
keys (x mod p-1, y mod p-1) and e one to one, so the rows decide exactly
as the keyed counts would.  A correct decomposition keeps every factor on
Sym^N's row; a factor with another central character lands in a row
Sym^N leaves empty and is seen there.  Both counts stay needed, since
some faults show on one torus only.  A count on Z/L with no cyclic
difference is constant, 1/L of the total, so a row is zero iff its
differences and total are, and a passing N is decided on them alone, at
O(p + #factors) for any N: about 0.007 ms per N at p = 13, 0.014 ms at
p = 31 and 0.019 ms at p = 47, its uncached fold included (one core of a
2-vCPU x86 host).  Only a failing N rebuilds its cells, the prefix sums
of the differences shifted to sum to the total, lists the nonzero ones
once, and walks the classes, each reading the cells of its torus as the
keys they relabel.  A failing N lists the classes afresh; a passing N
never lists them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Tuple

from .errors import InternalInvariantError
from .weights import SerreWeight, _fold, _least_k, _require_sym

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


def p_regular_classes(p: int) -> Tuple[Tuple[int, int], ...]:
    """Conjugacy classes of p-regular elements of GL2(F_p), each as the
    exponents (i, i') of its Teichmuller-lifted eigenvalues zeta^i, zeta^i'.

    Order: the p-1 central classes ((p+1)k, (p+1)k) for k = 0..p-2, then
    the (p-1)(p-2)/2 split classes (i, i') with i < i', both multiples of
    p+1, then the p(p-1)/2 non-split classes (j, pj mod p^2-1) with j the
    smaller of its orbit and not divisible by p+1.  The total p(p-1) is
    the number of irreducible Brauer characters.  p is not checked.
    """
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


def _cells(diffs: List[int], total: int) -> List[int]:
    """A torus's cells of one row, from its cyclic differences and total."""
    cells = list(accumulate(diffs))  # the cells less the last cell
    last = (total - sum(cells)) // len(cells)  # exact, as the cells sum to the total
    return [last + w for w in cells]


def verify_decomposition(p: int, N: int) -> DecompositionReport:
    """Certify decompose_sym(p, N) by the two torus counts above; a failure
    entry carries its class's p^2 - 1 counts of Sym^N minus the factors'."""
    _require_sym(p, N)
    factors = _fold(p, N)  # the uncached fold: each N is read once
    m, n, q = p - 1, p * p - 1, p + 1
    rows: Dict[int, Tuple[List[int], List[int]]] = {}  # row c: split differences + total, non-split ones
    # V(a, b) x mult: a run of b cells of row c from split cell a and non-split
    # cell a + k, -mult * b to the total; Sym^N is V(0, N + 1) counted -1 times
    for (a, b), mult in [((0, N + 1), -1), *factors.items()]:
        if b < 1:
            continue  # no weights
        k, c = divmod(2 * a + b - 1, m)
        ds, dn = rows.get(c) or rows.setdefault(c, ([0] * (m + 1), [0] * q))
        ds[a % m] -= mult
        ds[(a + b) % m] += mult
        ds[m] -= mult * b
        a += k
        dn[a % q] -= mult
        dn[(a + b) % q] += mult
    failures = []
    # a row with no cyclic difference is constant on each torus, the total
    # over the torus's length; only a failing N rebuilds and lists its cells
    if any(any(ds) or any(dn) for ds, dn in rows.values()):
        split = [(c, j, w) for c, (ds, _) in rows.items() for j, w in enumerate(_cells(ds[:m], ds[m])) if w]
        nonsplit = [(c, j, w) for c, (ds, dn) in rows.items() for j, w in enumerate(_cells(dn, ds[m])) if w]
        for i, i2 in p_regular_classes(p):
            # cell j of row c lifts to zeta^(ci + j(p-1)i) at a non-split
            # class, as e = c + (p-1)j, and to zeta^(ci' + j(i - i')) at a
            # split one, as (x, y) = (j, c - j), exact since p+1 divides i'
            cells, ci, step = (nonsplit, i, m * i) if i % q else (split, i2, i - i2)
            row = [0] * n
            for c, j, w in cells:
                row[(c * ci + j * step) % n] += w
            if any(row):
                failures.append({"class": repr((i, i2)), "residual": row})
    return DecompositionReport(p, N, p * (p - 1), failures)


def k_min_search(w: SerreWeight) -> int:
    """Least k in [2, p^2] whose Sym^(k-2) contains w, by _least_k's scan at w.p."""
    return _least_k(w.p, (((w.a, w.b), 1),))
