"""Serre weights of GL2(F_p) and their symmetric-power combinatorics.

The irreducible representations of GL2(F_p) over an algebraic closure of
F_p are

    V(a, b) = det^a (x) Sym^(b-1)(standard),   0 <= a <= p-2,  1 <= b <= p,

the "Serre weights".  This module implements:

  * SerreWeight and VirtualClass (elements of the Grothendieck group of
    finite-dimensional representations, i.e. integer combinations of the
    V(a, b));
  * decompose_sym: the Jordan-Holder factors of Sym^N with multiplicity,
    for every N >= 0;
  * sym_class: the class [Sym^N] for every integer N, using the
    conventions [Sym^(-1)] = 0 and, for N < -1,
    [Sym^N] = -[det^(N+1) (x) Sym^(-N-2)], which extend the periodic
    relation

        [S_(n+p-1)] - [S_n] = [det (x) (S_(n-2) - S_(n-p-1))]

    to all integers n;
  * k_min_closed: the least k >= 2 such that a given weight occurs in
    Sym^(k-2), in closed form.

Twist exponents a are always stored reduced modulo p-1; det^(p-1) is
trivial on GL2(F_p), so V(a, b) and V(a + p - 1, b) are the same weight.
All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Tuple

from .errors import InternalInvariantError


def is_odd_prime(n: int) -> bool:
    """True iff n is a prime other than 2."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True, order=True)
class SerreWeight:
    """The irreducible representation det^a (x) Sym^(b-1) of GL2(F_p)."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        if not 0 <= self.a <= self.p - 2:
            raise ValueError(f"twist exponent a={self.a} outside [0, {self.p - 2}]")
        if not 1 <= self.b <= self.p:
            raise ValueError(f"dimension parameter b={self.b} outside [1, {self.p}]")

    @classmethod
    def reduced(cls, p: int, a: int, b: int) -> "SerreWeight":
        """Construct V(a mod p-1, b), canonicalizing the twist exponent."""
        return cls(p, a % (p - 1), b)

    def central_character(self) -> int:
        """Exponent c with scalars x acting by x^c, reduced mod p-1."""
        return (2 * self.a + self.b - 1) % (self.p - 1)

    def twist(self, t: int) -> "SerreWeight":
        return SerreWeight(self.p, (self.a + t) % (self.p - 1), self.b)

    def to_json_obj(self) -> Dict[str, int]:
        return {"a": self.a, "b": self.b}

    def __str__(self) -> str:
        return f"V({self.a},{self.b})"


class VirtualClass:
    """An integer linear combination of Serre-weight classes at a fixed prime.

    Zero coefficients are never stored.  Instances are immutable in intent;
    arithmetic returns new objects.
    """

    __slots__ = ("p", "_coeffs")

    def __init__(self, p: int, coeffs: Mapping[SerreWeight, int] | None = None):
        _require_odd_prime(p)
        store: Dict[SerreWeight, int] = {}
        if coeffs:
            for w, c in coeffs.items():
                if w.p != p:
                    raise ValueError(f"weight {w} has prime {w.p}, class has {p}")
                if c:
                    store[w] = store.get(w, 0) + c
                    if not store[w]:
                        del store[w]
        self.p = p
        self._coeffs = store

    @classmethod
    def of_weight(cls, w: SerreWeight, mult: int = 1) -> "VirtualClass":
        return cls(w.p, {w: mult})

    def coefficient(self, w: SerreWeight) -> int:
        return self._coeffs.get(w, 0)

    def items(self) -> List[Tuple[SerreWeight, int]]:
        """Coefficients sorted lexicographically by (a, b)."""
        return sorted(self._coeffs.items(), key=lambda kv: (kv[0].a, kv[0].b))

    def __iter__(self) -> Iterator[SerreWeight]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def is_effective(self) -> bool:
        """True iff every coefficient is >= 0 (the class of an actual module)."""
        return all(c >= 0 for c in self._coeffs.values())

    def __add__(self, other: "VirtualClass") -> "VirtualClass":
        if self.p != other.p:
            raise ValueError("cannot add classes at different primes")
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            out[w] = out.get(w, 0) + c
        return VirtualClass(self.p, out)

    def __sub__(self, other: "VirtualClass") -> "VirtualClass":
        return self + (-other)

    def __neg__(self) -> "VirtualClass":
        return VirtualClass(self.p, {w: -c for w, c in self._coeffs.items()})

    def twist(self, t: int) -> "VirtualClass":
        """Tensor by det^t (a bijection on weights, so coefficients move)."""
        return VirtualClass(self.p, {w.twist(t): c for w, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualClass):
            return NotImplemented
        return self.p == other.p and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self._coeffs.items())))

    def to_json_obj(self) -> List[Dict[str, int]]:
        return [{"a": w.a, "b": w.b, "mult": c} for w, c in self.items()]

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"VirtualClass(p={self.p}, 0)"
        body = " + ".join(f"{c}*{w}" for w, c in self.items())
        return f"VirtualClass(p={self.p}, {body})"


@lru_cache(maxsize=None)
def _decompose(p: int, N: int) -> Dict[SerreWeight, int]:
    """Cached Jordan-Holder factors of Sym^N; callers must not mutate."""
    _require_odd_prime(p)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    # One step of the recursion peels [S_n] + [det^n (x) S_(p-n-1)] off
    # Sym^M and continues with det (x) Sym^(M-p-1); iterating instead of
    # recursing keeps arbitrarily large N safe from recursion limits.
    # Only additions occur, so the result is effective by construction.
    factors: Dict[Tuple[int, int], int] = {}
    t = 0
    M = N
    q = p - 1
    while M >= p:
        n = ((M - 1) % q) + 1
        for key in ((t % q, n + 1), ((n + t) % q, p - n)):
            factors[key] = factors.get(key, 0) + 1
        t += 1
        M -= p + 1
    if M >= 0:
        key = (t % q, M + 1)
        factors[key] = factors.get(key, 0) + 1
    out = {SerreWeight(p, a, b): c for (a, b), c in factors.items()}
    if sum(c * w.b for w, c in out.items()) != N + 1:
        raise InternalInvariantError(f"factors of Sym^{N} at p={p} do not add up to dimension N+1")
    return out


def decompose_sym(p: int, N: int) -> Dict[SerreWeight, int]:
    """Jordan-Holder factors of Sym^N with multiplicities, as a dict.

    Every multiplicity is >= 1, the dimensions satisfy
    sum(mult * b) = N + 1, and every factor V(a, b) has central character
    (2a + b - 1) = N mod p-1.
    """
    return dict(_decompose(p, N))


def jh_multiplicity(p: int, k: int, w: SerreWeight) -> int:
    """Multiplicity of w among the factors of Sym^(k-2); 0 if absent."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _decompose(p, k - 2).get(w, 0)


def sym_class(p: int, N: int) -> VirtualClass:
    """The class [Sym^N] in the Grothendieck group, for any integer N.

    For N >= 0 this is the effective class of the actual representation;
    [Sym^(-1)] = 0, and [Sym^N] = -[det^(N+1) (x) Sym^(-N-2)] for N < -1.
    The resulting assignment satisfies the periodic relation at every
    integer index.
    """
    if N == -1:
        return VirtualClass(p)
    if N < -1:
        return (-sym_class(p, -N - 2)).twist(N + 1)
    return VirtualClass(p, _decompose(p, N))


def k_min_closed(w: SerreWeight) -> int:
    """Least k >= 2 with w a Jordan-Holder factor of Sym^(k-2), closed form.

    Equals a(p+1) + b + 1 when a + b < p and (a+1)(p+1) + bp - p^2
    otherwise; always lies in [2, p^2 - 1] and is = 2a + b + 1 mod p-1.
    """
    p, a, b = w.p, w.a, w.b
    if a + b < p:
        return a * (p + 1) + b + 1
    return (a + 1) * (p + 1) + b * p - p * p
