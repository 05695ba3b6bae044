"""References that oracle.verify_decomposition must agree with, one class
at a time.

The library decides whether, at every p-regular class, the multisets of
lifted eigenvalue exponents of Sym^N and of its claimed factors are equal,
from two counts of their weights, one per torus.  This module keeps two
definitions to compare it with, neither built on those counts (the
characters use only the cyclotomic polynomials of serrewt.oracle):

  * dense_residual counts the exponents term by term, so a class must fail
    iff its row is nonzero, and its failure entry must carry that row;
  * the Brauer characters themselves, as exact elements of Z[x]/Phi_n(x),
    n = p^2 - 1: a class whose character differs must fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from serrewt.oracle import (
    _phi_degree,
    _poly_divmod,
    _poly_mul,
    _poly_trim,
    cyclotomic_poly,
)
from serrewt.weights import SerreWeight


def _reduce_mod_phi(n: int, coeffs: List[int]) -> Tuple[int, ...]:
    phi = cyclotomic_poly(n)
    _, rem = _poly_divmod(_poly_trim(list(coeffs)), phi)
    deg = len(phi) - 1
    return tuple(rem) + (0,) * (deg - len(rem))


@dataclass(frozen=True)
class CyclotomicElement:
    """An element of Z[x]/Phi_n(x), stored as phi(n) exact coefficients."""

    n: int
    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != _phi_degree(self.n):
            raise ValueError("coefficient vector has the wrong length")

    def _check(self, other: "CyclotomicElement") -> None:
        if self.n != other.n:
            raise ValueError("mixed cyclotomic moduli")

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union["CyclotomicElement", int]) -> "CyclotomicElement":
        if isinstance(other, int):
            return CyclotomicElement(self.n, tuple(other * a for a in self.coeffs))
        self._check(other)
        prod = _poly_mul(self.coeffs, other.coeffs)
        return CyclotomicElement(self.n, _reduce_mod_phi(self.n, list(prod)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def cyclo_zero(n: int) -> CyclotomicElement:
    return CyclotomicElement(n, (0,) * _phi_degree(n))


def cyclo_one(n: int) -> CyclotomicElement:
    return zeta_power(n, 0)


def zeta_power(n: int, j: int) -> CyclotomicElement:
    """x^j in Z[x]/Phi_n, j taken modulo n."""
    j %= n
    return CyclotomicElement(n, _reduce_mod_phi(n, [0] * j + [1]))


def _element_from_exponent_counts(n: int, counts: Dict[int, int]) -> CyclotomicElement:
    dense = [0] * n
    for j, c in counts.items():
        dense[j % n] += c
    return CyclotomicElement(n, _reduce_mod_phi(n, dense))


def brauer_char_weight(w: SerreWeight, c: Tuple[int, int]) -> CyclotomicElement:
    """Brauer character of V(a, b) at the class with eigenvalue exponents
    c = (i, i'): (uv)^a * sum u^t v^(b-1-t) with u = zeta^i, v = zeta^i'."""
    n = w.p * w.p - 1
    i, i2 = c
    counts: Dict[int, int] = {}
    base = w.a * (i + i2)
    for t in range(w.b):
        e = (base + t * i + (w.b - 1 - t) * i2) % n
        counts[e] = counts.get(e, 0) + 1
    return _element_from_exponent_counts(n, counts)


def brauer_char_sym(p: int, N: int, c: Tuple[int, int]) -> CyclotomicElement:
    """Brauer character of Sym^N at the class with eigenvalue exponents
    c = (i, i'): sum_{t<=N} u^t v^(N-t)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    n = p * p - 1
    i, i2 = c
    counts: Dict[int, int] = {}
    for t in range(N + 1):
        e = (t * i + (N - t) * i2) % n
        counts[e] = counts.get(e, 0) + 1
    return _element_from_exponent_counts(n, counts)


def dense_residual(p: int, N: int, factors: Dict[Tuple[int, int], int], c: Tuple[int, int]) -> List[int]:
    """Entry e: the number of eigenvalues zeta^e of Sym^N at the class with
    eigenvalue exponents c = (i, i'), minus that of the factors
    {(a, b): mult}, counted one eigenvalue at a time."""
    n = p * p - 1
    i, i2 = c
    row = [0] * n
    for t in range(N + 1):
        row[(t * i + (N - t) * i2) % n] += 1
    for (a, b), mult in factors.items():
        for t in range(b):
            row[(a * (i + i2) + t * i + (b - 1 - t) * i2) % n] -= mult
    return row
