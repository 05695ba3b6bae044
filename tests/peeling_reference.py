"""The full peeling loop for the Jordan-Holder factors of Sym^N: the
reference that weights._decompose must agree with.

The library walks one period of p-1 peeling steps and counts each step once
per period it falls in, so its cost is O(p) for every N.  This module keeps
the loop it replaced, one step at a time and O(N/p), so tests can compare
the two, and builds the affine form D(r) + k*(D(r+P) - D(r)), N = kP + r,
P = p^2 - 1, that reaches huge N from the loop at N < 2P.
"""

from __future__ import annotations

from typing import Dict, Tuple

Factors = Dict[Tuple[int, int], int]


def decompose_loop(p: int, N: int) -> Factors:
    """{(a, b): mult} for Sym^N at p, one peeling step at a time: step t
    peels [S_n] + [det^n (x) S_(p-n-1)], twisted by det^t, off Sym^M and
    continues with Sym^(M-p-1)."""
    factors: Factors = {}
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
    return factors


def decompose_affine(p: int, N: int) -> Factors:
    """D(r) + k*(D(r+P) - D(r)) for N = kP + r, 0 <= r < P, D the loop."""
    k, r = divmod(N, p * p - 1)
    lo, hi = decompose_loop(p, r), decompose_loop(p, r + p * p - 1)
    keys = set(lo) | set(hi)
    out = {key: lo.get(key, 0) + k * (hi.get(key, 0) - lo.get(key, 0)) for key in keys}
    return {key: c for key, c in out.items() if c}
