"""Exhaustive per-prime theorem checking over the enumerated parameter space.

Each check is its item list at p plus an evaluator, one entry of CHECKS:

  main       serre_k = k_min_of_set = k_cris for every inertial parameter
  bm         B(rho) = W(rho), as sorted (a, b) pairs, for every parameter,
             and the Fontaine-Laffaille bound mu_(n,m) <= 1 at n <= p-3
  kmin       _k_min = k_min_search's scan on the full (p-1) x p weight grid
  recursion  the symmetric-power recursion identity for k in [1, 3p] and
             n in [1, p-1], plus the periodic relation on n in [-2p, 4p]
  brauer     oracle.verify_decomposition for N in [0, 3p^2]; only when
             named explicitly

Weights are compared as pairs, and derived classes are built by _class.
The bm bound: for n <= p-3, Hodge-Tate weights (0, n+1) are in the
Fontaine-Laffaille range, where the crystalline deformation ring is 0 or
formally smooth (Fontaine-Laffaille 1982; Clozel-Harris-Taylor 2008, 2.4),
and Sym^n = V(0, n+1), so mu_(n,0) <= 1, hence mu_(n,m) <= 1 by twisting.

The coverage of every check is a fixed function of p.  k <= 3p proves the
recursion identity at every k: along k = k0 mod p+1 the Sym indices grow by
whole periods p^2 - 1, each adding a class fixed by the index mod p-1, so
for k >= 2 (every index >= 0) both sides are affine in the period count,
and [2, 2p+3] holds two k of every residue.  [-2p, 4p] is less than one
period of the periodic relation for p >= 7, so that check only samples
it; its range is left as it is.

run_suite is the only runner.  It caps `jobs` at os.cpu_count(), builds
each item list once per prime and cuts it into (checks, p, items) slices;
a slice carries every selected check at p that shares the item list (main
and bm, adjacent or not), and _eval_slice runs each over the same p items
in turn.  A list with at least 2 * jobs items gets up to `jobs` slices, a
smaller one stays whole.  At jobs = 1 the slices run in-process, in
order, and each item list is built when the previous slice has run; at
jobs > 1 they go through one process pool, submitted lazily with at most
2 * jobs in flight, so a later item list is built only as earlier results
are taken.  The pool module, and multiprocessing with it, is imported only
then.  Failures are put back in item order for each run, so the aggregate
JSON (timing fields aside) is a pure function of (primes, checks),
whatever the worker count.  A run's "ms" is the sum of its own check's
evaluation times over its slices (a record main and bm share is paid by
whichever reads it first).  At jobs = 1 that is the run's own time; at
jobs > 1 it adds up time spent in several workers, so the runs' ms may sum
to more than the call's wall time.  All failures are collected rather than
aborting at the first, so one run documents the complete mismatch pattern.

What a process holds.  The decomposition cache (weights._decompose) and
the scan memo (weights._least_k) keep one prime's entries at a time.
_eval_slice empties both when it starts a slice at another prime than the
last slice it ran, in-process at jobs = 1 and in each pool worker, and
run_suite empties both once its in-process slices are done; nothing is
shared across primes, so nothing is recomputed.  main's k_cris and kmin's
scan of ((a, b), 1) read the one memo, so each distinct weight tuple is
scanned once: 1,708 scans at p = 29 where one per item made 4,382, and
4,462 at p = 47.  main and bm read one recipes._record per parameter
from a store of at most p records, emptied after every chunk and by _release.
Within a slice, after every p items, a cache holding more than
p^2 + 4p decompositions is emptied; an item reads at most four, so a
process never holds more than p^2 + 8p.  The scans of main and kmin read
only N < p^2 and never reach that bound.  brauer reads each N once, so
emptying costs it nothing.  recursion lists its lemma items k-major (k,
then n), so the Sym index n + k(p-1) of a lemma item is read again as the
twisted term of the lemma item p + 1 places later ((n+2, k+1) for
n < p-2).  An emptying drops only what the last few items read: recursion
alone makes 10 % more decompositions than it reads distinct N at p = 29,
6 % at p = 47, 3 % at p = 101 and 2 % at p = 127, and a run of all four
checks 22 % more at p = 13 and 10 % at p = 29.  functools.lru_cache cannot
drop one entry, and a size-bounded one would thrash under the scans, so the
bound empties the whole cache.
"""

from __future__ import annotations

import functools
import os
import time
from collections import deque
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import recipes, weights
from .errors import UnsupportedPrimeError
from .galois_params import InertialParam, enumerate_params, param_to_dict
from .oracle import verify_decomposition
from .recipes import serre_k
from .weights import _class, _k_min, _least_k, is_odd_prime, sym_class

ALL_CHECKS = ("main", "bm", "kmin", "recursion")

# (checks, p, items): consecutive items of the checks at p that share them
Slice = Tuple[Tuple[str, ...], int, Sequence[object]]

# the record store main and bm read; _eval_slice empties it after every chunk
_record = functools.lru_cache(maxsize=None)(recipes._record)


# ---------------------------------------------------------------------------
# check definitions: items(p) plus eval(p, item) -> failure | None


def _eval_main(p: int, param: InertialParam) -> Optional[Dict[str, object]]:
    w_pairs, bm_weights = _record(param)
    ks, km, kc = serre_k(param), min(_k_min(p, a, b) for a, b in w_pairs), _least_k(p, bm_weights)
    if ks == km == kc:
        return None
    return {
        "param": param_to_dict(param),
        "expected": ks,
        "actual": {"k_min": km, "k_cris": kc},
    }


def _eval_bm(p: int, param: InertialParam) -> Optional[Dict[str, object]]:
    expected, bm_weights = _record(param)
    actual = tuple(sorted(pair for pair, _ in bm_weights))
    if expected != actual:
        return {
            "param": param_to_dict(param),
            "expected": [{"a": a, "b": b} for a, b in expected],
            "actual": [{"a": a, "b": b} for a, b in actual],
        }
    above = [{"n": b - 1, "m": a, "mu": mu} for (a, b), mu in bm_weights if mu > 1 and b <= p - 2]
    if above:
        return {"param": param_to_dict(param), "expected": "mu <= 1 at n <= p-3", "actual": above}
    return None


def _kmin_items(p: int) -> List[Tuple[int, int]]:
    return [(a, b) for a in range(p - 1) for b in range(1, p + 1)]


def _eval_kmin(p: int, item: Tuple[int, int]) -> Optional[Dict[str, object]]:
    a, b = item
    closed = _k_min(p, a, b)
    scanned = _least_k(p, ((item, 1),))
    if closed == scanned:
        return None
    return {"param": {"a": a, "b": b}, "expected": closed, "actual": scanned}


def _recursion_items(p: int) -> List[Tuple[str, int, int]]:
    items = [("lemma", n, k) for k in range(1, 3 * p + 1) for n in range(1, p)]
    items += [("periodic", n, 0) for n in range(-2 * p, 4 * p + 1)]
    return items


def _eval_recursion(p: int, item: Tuple[str, int, int]) -> Optional[Dict[str, object]]:
    kind, n, k = item
    if kind == "lemma":
        lhs = sym_class(p, n + k * (p - 1))
        # _combine copies its left operand's dict and loops over its right one
        rhs = sym_class(p, n + (k - 1) * (p - 1) - 2).twist(1) + (
            sym_class(p, n) + _class(p, {(n % (p - 1), p - n): 1})
        )
    else:
        lhs = sym_class(p, n + p - 1) - sym_class(p, n)
        rhs = (sym_class(p, n - 2) - sym_class(p, n - p - 1)).twist(1)
    if lhs == rhs:
        return None
    return {
        "param": {"identity": kind, "n": n, "k": k},
        "expected": rhs.to_json_obj(),
        "actual": lhs.to_json_obj(),
    }


# a brauer failure entry keeps the residual rows of this many failing
# classes, the first in class order, and counts all of them
_BRAUER_ROWS = 3


def _eval_brauer(p: int, N: int) -> Optional[Dict[str, object]]:
    report = verify_decomposition(p, N)
    if report.passed:
        return None
    return {
        "param": {"N": N},
        "expected": "character match on all classes",
        "actual": report.failures[:_BRAUER_ROWS],
        "classes_failed": len(report.failures),
    }


def _param_items(p: int) -> List[InertialParam]:
    return enumerate_params(p)  # looked up at call time, so a patch applies


# name -> (items(p), evaluate(p, item)); main and bm share one item function
CHECKS = {
    "main": (_param_items, _eval_main),
    "bm": (_param_items, _eval_bm),
    "kmin": (_kmin_items, _eval_kmin),
    "recursion": (_recursion_items, _eval_recursion),
    "brauer": (lambda p: range(3 * p * p + 1), _eval_brauer),
}


# the prime whose decompositions this process holds, None after a release
_held_prime: Optional[int] = None


def _release() -> None:
    """Empty the record store, the scan memo and the decomposition cache,
    whatever weights._least_k and weights._decompose are bound to now."""
    global _held_prime
    _record.cache_clear()
    weights._decompose.cache_clear()
    weights._least_k.cache_clear()
    _held_prime = None


def _eval_slice(args: Slice) -> List[Tuple[List[Dict[str, object]], float]]:
    """Worker entry: run each check of a slice over p items in turn, in
    order, holding only this prime's decompositions, at most p^2 + 8p of
    them, and at most p records.  Returns each check's failures and seconds."""
    global _held_prime
    names, p, items = args
    mark = time.perf_counter()
    if p != _held_prime:
        _release()
        _held_prime = p
    evals = [CHECKS[name][1] for name in names]
    failures: List[List[Dict[str, object]]] = [[] for _ in names]
    seconds = [0.0] * len(names)
    for lo in range(0, len(items), p):
        for i, ev in enumerate(evals):
            failures[i] += [f for f in (ev(p, item) for item in items[lo:lo + p]) if f is not None]
            now = time.perf_counter()
            seconds[i], mark = seconds[i] + now - mark, now
        _record.cache_clear()
        if weights._decompose.cache_info().currsize > p * p + 4 * p:
            weights._decompose.cache_clear()
    return list(zip(failures, seconds))


def run_suite(
    primes: Sequence[int],
    checks: Sequence[str] | str = "all",
    jobs: int = 1,
) -> Dict[str, object]:
    """Run the selected checks over the given primes.

    `checks` is "all" (the four standard checks), one name, or a list of
    names from main/bm/kmin/recursion/brauer; "all" is not a name, so a
    list containing it is rejected.  "brauer" runs only when named.
    `jobs` above os.cpu_count() runs as the core count.  Raises ValueError
    when no primes or no checks are given.  Returns the aggregate
    {"runs": [...], "pass": bool}; apart from the per-run "ms" field the
    aggregate depends only on (primes, checks).
    """
    if checks == "all":
        names = list(ALL_CHECKS)
    else:
        names = [checks] if isinstance(checks, str) else list(checks)
    if not primes or not names:
        raise ValueError("no primes or no checks selected; nothing to verify")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    for p in primes:
        if p == 2:
            raise UnsupportedPrimeError("p = 2 is not supported; the recipes differ there")
        if not is_odd_prime(p):
            raise UnsupportedPrimeError(f"{p} is not an odd prime")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)  # a fork pool starts every worker at once
    runs: List[Dict[str, object]] = []

    def slices() -> Iterator[Tuple[Sequence[int], Slice]]:
        """Each slice with the indices in runs of its checks' runs; an item
        list is built when the previous one has been cut, and every check
        at p that reads it goes into its slices."""
        for p in primes:
            groups: Dict[object, List[int]] = {}  # item function -> its runs
            for name in names:
                groups.setdefault(CHECKS[name][0], []).append(len(runs))
                runs.append({"p": p, "check": name, "params_checked": 0, "failures": [], "ms": 0})
            for make, group in groups.items():
                items = make(p)
                n = len(items)
                for idx in group:
                    runs[idx]["params_checked"] = n
                # fewer than 2 * jobs items stay one slice
                chunk = -(-n // jobs) if n >= 2 * jobs else n
                slice_checks = tuple(runs[idx]["check"] for idx in group)
                for lo in range(0, n, chunk):
                    yield group, (slice_checks, p, items[lo:lo + chunk])

    if jobs == 1:
        try:
            results = [(idxs, _eval_slice(task)) for idxs, task in slices()]
        finally:
            _release()  # a run that raised leaves no scan behind either
    else:
        from concurrent.futures import ProcessPoolExecutor

        tasks = slices()
        ahead = list(islice(tasks, 2 * jobs))  # fewer than jobs slices start fewer workers
        with ProcessPoolExecutor(max_workers=min(jobs, len(ahead))) as pool:
            pending = deque((idxs, pool.submit(_eval_slice, task)) for idxs, task in ahead)
            results = []
            while pending:
                idxs, future = pending.popleft()
                results.append((idxs, future.result()))
                pending.extend((i, pool.submit(_eval_slice, task)) for i, task in islice(tasks, 1))
    seconds = [0.0] * len(runs)
    for idxs, per_check in results:
        for idx, (failures, elapsed) in zip(idxs, per_check):
            runs[idx]["failures"] += failures
            seconds[idx] += elapsed
    for run, s in zip(runs, seconds):
        run["ms"] = int(round(1000 * s))
    return {"runs": runs, "pass": not any(run["failures"] for run in runs)}
