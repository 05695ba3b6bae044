"""Serre weights of GL2(F_p) and their symmetric-power combinatorics.

The irreducible representations of GL2(F_p) over an algebraic closure of
F_p are

    V(a, b) = det^a (x) Sym^(b-1)(standard),   0 <= a <= p-2,  1 <= b <= p,

the "Serre weights".  This module implements:

  * SerreWeight, the public weight type, and VirtualClass (elements of the
    Grothendieck group of finite-dimensional representations, i.e. integer
    combinations of the V(a, b));
  * decompose_sym: the Jordan-Holder factors of Sym^N with multiplicity,
    as a VirtualClass, for every N >= 0, in O(p) whatever N: the peeling
    steps repeat with period p-1, and a whole period is one step table;
  * sym_class: the class [Sym^N] for every integer N, using the
    conventions [Sym^(-1)] = 0 and, for N < -1,
    [Sym^N] = -[det^(N+1) (x) Sym^(-N-2)], which extend the periodic
    relation

        [S_(n+p-1)] - [S_n] = [det (x) (S_(n-2) - S_(n-p-1))]

    to all integers n;
  * k_min_closed: the least k >= 2 such that a given weight occurs in
    Sym^(k-2), in closed form (_k_min at a pair), for the kmin command.
    It is not in __all__, and stays a function only because the
    benchmark's tracer names it, until ROADMAP item 1 lands.

Inside weights, recipes and verify a weight at a known prime p is its pair
(a, b), and a SerreWeight is built only by a caller or by a function that
hands weights out (VirtualClass.items, recipes' bdj_weight_set and bm_set).
A pair, p and N are checked where a caller hands them in, never again.
Derived classes are built by _class, which takes ownership of a dict
holding no zero value, uncopied; so decompose_sym and sym_class share the
cached decomposition dict itself, and no stored decomposition is mutated.
Three unbounded caches live here, none checking its input: _decompose, which
caches the fold _fold; _period, the step keys of each residue N mod p-1, grown
in place as far as the N folded need, to one whole period and its counts, and
shared by their decompositions (run from the step formula, never twisted from
another residue's: the recursion check would then read its own identity back);
and _least_k, the memo of the scans behind k_cris and k_min_search.  When the
suite runner empties them is stated once, in serrewt.verify's "What a process
holds"; a class built from a cached dict keeps it alive after it is emptied.
Twist exponents a are always stored reduced modulo p-1; det^(p-1) is
trivial on GL2(F_p), so V(a, b) and V(a + p - 1, b) are the same weight.
All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from collections import _count_elements  # Counter's C counting loop, on a plain dict
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Dict, Iterator, List, Mapping, Tuple

from .errors import InternalInvariantError, UnsupportedPrimeError

# Miller-Rabin with the prime bases 2..41 is exact below _MR_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017), which is itself a strong
# pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_int(x: object) -> bool:
    """The one int rule of the library: an int is an int that is not a bool."""
    return x.__class__ is int or (isinstance(x, int) and x.__class__ is not bool)


def _require_int(name: str, x: object) -> None:
    if not _is_int(x):
        raise ValueError(f"{name} must be an int, got {x!r}")


def is_odd_prime(n: int) -> bool:
    """True iff n is an int and a prime other than 2.

    Trial division below 2^18, where it is the faster test, deterministic
    Miller-Rabin up to _MR_BOUND; a larger n raises UnsupportedPrimeError
    rather than get an unproven answer.
    """
    if not _is_int(n) or n < 3 or n % 2 == 0:
        return False
    if n < 1 << 18:
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    if n >= _MR_BOUND:
        raise UnsupportedPrimeError(f"primality is not decided at or above {_MR_BOUND}, got {n}")
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """True iff odd n > 41 is a strong probable prime to every base in _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(p: int, error: type = ValueError) -> None:
    if not is_odd_prime(p):
        raise error(f"p must be an odd prime, got {p!r}")


def _require_weight_range(p: int, a: int, b: int) -> None:
    if not (_is_int(a) and 0 <= a <= p - 2):
        raise ValueError(f"twist exponent a={a!r} outside [0, {p - 2}]")
    if not (_is_int(b) and 1 <= b <= p):
        raise ValueError(f"dimension parameter b={b!r} outside [1, {p}]")


def _require_sym(p: int, N: int) -> None:
    _require_odd_prime(p)
    _require_int("N", N)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")


@dataclass(frozen=True, order=True)
class SerreWeight:
    """The irreducible representation det^a (x) Sym^(b-1) of GL2(F_p)."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        _require_weight_range(self.p, self.a, self.b)

    def to_json_obj(self) -> Dict[str, int]:
        return {"a": self.a, "b": self.b}

    def __str__(self) -> str:
        return f"V({self.a},{self.b})"


class VirtualClass:
    """An integer linear combination of Serre-weight classes at a fixed prime.

    VirtualClass(p, {(a, b): coeff}) is the sum of coeff * V(a, b); p,
    every key, zero coefficients included, and every coefficient are
    checked (a key is a pair (a, b), 0 <= a <= p-2, 1 <= b <= p, coeff an
    int) or ValueError is raised, and coeffs is copied.  Derived classes
    (arithmetic, twist, decompose_sym, sym_class) are built by _class,
    unchecked and uncopied; decompose_sym and sym_class share the cached
    decomposition dict.  No stored dict holds a zero or is ever mutated.
    Weights leave through items().
    """

    __slots__ = ("p", "_coeffs")

    def __init__(self, p: int, coeffs: Mapping[Tuple[int, int], int] | None = None):
        _require_odd_prime(p)
        for key, c in (coeffs or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"a key must be an (a, b) pair, got {key!r}")
            a, b = key
            _require_weight_range(p, a, b)
            _require_int(f"coefficient of V({a},{b})", c)
        self.p = p
        self._coeffs = {key: c for key, c in (coeffs or {}).items() if c}

    def items(self) -> List[Tuple[SerreWeight, int]]:
        """Coefficients sorted lexicographically by (a, b)."""
        return [(SerreWeight(self.p, a, b), c) for (a, b), c in sorted(self._coeffs.items())]

    def __len__(self) -> int:
        return len(self._coeffs)

    def _combine(self, other: "VirtualClass", sign: int) -> "VirtualClass":
        """self + sign * other, from one copy of self's dict."""
        if self.p != other.p:
            raise ValueError("cannot add classes at different primes")
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            if c := out.get(key, 0) + sign * c:
                out[key] = c
            else:
                del out[key]
        return _class(self.p, out)

    def __add__(self, other: "VirtualClass") -> "VirtualClass":
        return self._combine(other, 1)

    def __sub__(self, other: "VirtualClass") -> "VirtualClass":
        return self._combine(other, -1)

    def __neg__(self) -> "VirtualClass":
        return _class(self.p, {key: -c for key, c in self._coeffs.items()})

    def twist(self, t: int) -> "VirtualClass":
        """Tensor by det^t (a bijection on weights, so coefficients move)."""
        _require_int("t", t)
        return _class(self.p, _twisted(self.p, self._coeffs, t))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualClass):
            return NotImplemented
        return self.p == other.p and self._coeffs == other._coeffs

    def to_json_obj(self) -> List[Dict[str, int]]:
        return [{"a": a, "b": b, "mult": c} for (a, b), c in sorted(self._coeffs.items())]

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"VirtualClass(p={self.p}, 0)"
        body = " + ".join(f"{c}*{w}" for w, c in self.items())
        return f"VirtualClass(p={self.p}, {body})"


def _twisted(p: int, coeffs: Mapping[Tuple[int, int], int], t: int) -> Dict[Tuple[int, int], int]:
    """A fresh dict of coeffs tensored by det^t at p."""
    return {((a + t) % (p - 1), b): c for (a, b), c in coeffs.items()}


def _class(p: int, coeffs: Dict[Tuple[int, int], int]) -> VirtualClass:
    """VirtualClass(p, coeffs) for keys that are weights at p by construction,
    unchecked; takes ownership of coeffs, which must hold no zero value."""
    out = object.__new__(VirtualClass)
    out.p, out._coeffs = p, coeffs
    return out


def _steps(p: int, N: int, start: int, stop: int) -> Iterator[Tuple[int, int]]:
    """The two keys of each peeling step t in [start, stop), stop <= p-1, of
    Sym^N.  Step t peels det^t (x) ([S_n] + [det^n (x) S_(p-n-1)]) off
    det^t (x) Sym^M, M = N - t(p+1) >= p, n = ((M-1) mod p-1) + 1, and
    leaves det^(t+1) (x) Sym^(M-p-1); the keys depend on N mod p-1 alone."""
    q = p - 1
    m = (N - 1 - 2 * start) % q  # n - 1; M falls by p + 1 = 2 mod p-1 a step
    for t in range(start, stop):
        yield (t, m + 2)
        yield ((m + 1 + t) % q, q - m)
        m = (m - 2) % q


@lru_cache(maxsize=None)
def _period(p: int, r: int) -> Tuple[List[Tuple[int, int]], Dict[Tuple[int, int], int]]:
    """The step keys of N = r mod p-1 in step order, and their counts.  _fold
    grows the list in place, as far as the N it folds needs, to one whole
    period, and fills the counts once it is whole; no entry holds half a
    step, or a whole period without counts.  Run from the step formula."""
    return [], {}


def _fold(p: int, N: int) -> Dict[Tuple[int, int], int]:
    """Jordan-Holder factors of Sym^N as {(a, b): mult}, in O(p) steps for
    every N.  The S = (N+1)//(p+1) steps repeat with period p-1: the result
    is reps times the counts of _period(p, N mod p-1) plus the keys of its
    first `extra` steps, (reps, extra) = divmod(S, p-1), so it holds the
    list's own key tuples.  Only additions occur, so the result is effective
    by construction.  _decompose caches it; callers must not mutate.  It
    checks nothing: p must be an odd prime and N an int >= 0 (_require_sym)."""
    q = p - 1
    S = (N + 1) // (p + 1)
    keys, counts = _period(p, N % q)
    if not counts and len(keys) < 2 * S:  # the list is short of a whole period and of N
        try:
            keys.extend(_steps(p, N, len(keys) // 2, min(S, q)))
            if S >= q:
                _count_elements(counts, keys)
        except BaseException:
            _period.cache_clear()  # no entry keeps a half-grown list
            raise
    reps, extra = divmod(S, q)
    factors = dict(counts) if reps == 1 else {key: reps * c for key, c in counts.items()} if reps else {}
    _count_elements(factors, islice(keys, 2 * extra))  # no sliced copy
    M = N - S * (p + 1)
    if M >= 0:
        key = (S % q, M + 1)
        factors[key] = factors.get(key, 0) + 1
    if sum(c * b for (_, b), c in factors.items()) != N + 1:
        raise InternalInvariantError(f"factors of Sym^{N} at p={p} do not add up to dimension N+1")
    return factors


_decompose = lru_cache(maxsize=None)(_fold)


Weights = Tuple[Tuple[Tuple[int, int], int], ...]  # ((a, b), c), ... in mu_support order


def _jh_sum(p: int, N: int, weights: Weights) -> int:
    """sum(c * multiplicity of V(a, b) in Sym^N) over weights ((a, b), c)."""
    get, total = _decompose(p, N).get, 0
    for key, c in weights:
        total += get(key, 0) * c
    return total


@lru_cache(maxsize=None)
def _least_k(p: int, weights: Weights) -> int:
    """Least k in [2, p^2] with _jh_sum(p, k-2, weights) > 0, all c > 0.
    Every factor of Sym^N has central character N mod p-1, so only the k
    with k-2 = 2a + b - 1 mod p-1 for a key (a, b) are decomposed, in
    increasing order: each block of p-1 values of k, then its residues in
    order; an exhausted scan raises InternalInvariantError.  Memoised, so
    like _decompose's cache it assumes _decompose never changes within a
    process; serrewt.verify's "What a process holds" says when both are emptied."""
    q, top = p - 1, p * p - 2  # N = k - 2 <= p^2 - 2
    residues = sorted({(2 * a + b - 1) % q for (a, b), _ in weights})
    for base in range(0, top + 1, q):
        for r in residues:
            N = base + r
            if N > top:
                break
            if _jh_sum(p, N, weights) > 0:
                return N + 2
    raise InternalInvariantError(f"no k <= p^2 at p={p} meets the weights {sorted(dict(weights))}")


def decompose_sym(p: int, N: int) -> VirtualClass:
    """Jordan-Holder factors of Sym^N with multiplicities; N < 0 raises
    ValueError.

    Every multiplicity is >= 1, the dimensions satisfy
    sum(mult * b) = N + 1, and every factor V(a, b) has central character
    (2a + b - 1) = N mod p-1.
    """
    _require_sym(p, N)
    return _class(p, _decompose(p, N))


def sym_class(p: int, N: int) -> VirtualClass:
    """The class [Sym^N] in the Grothendieck group, for any integer N.

    For N >= 0 this is the effective class of the actual representation;
    [Sym^(-1)] = 0, and [Sym^N] = -[det^(N+1) (x) Sym^(-N-2)] for N < -1.
    The resulting assignment satisfies the periodic relation at every
    integer index.  N is checked to be an int, then p, each once.
    """
    _require_int("N", N)
    _require_odd_prime(p)
    if N < -1:
        return (-_class(p, _decompose(p, -N - 2))).twist(N + 1)
    return _class(p, _decompose(p, N) if N >= 0 else {})  # [Sym^(-1)] = 0


def _k_min(p: int, a: int, b: int) -> int:
    """Least k >= 2 with V(a, b) a Jordan-Holder factor of Sym^(k-2), closed form.

    Equals a(p+1) + b + 1 when a + b < p and (a+1)(p+1) + bp - p^2
    otherwise; always lies in [2, p^2 - 1] and is = 2a + b + 1 mod p-1.
    """
    if a + b < p:
        return a * (p + 1) + b + 1
    return (a + 1) * (p + 1) + b * p - p * p


def k_min_closed(w: SerreWeight) -> int:
    """The closed form _k_min at the weight w."""
    return _k_min(w.p, w.a, w.b)
