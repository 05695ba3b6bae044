"""Exhaustive per-prime theorem checking over the enumerated parameter space.

Each check is its item list at p plus an evaluator, one entry of CHECKS:

  main       serre_k = min over W of _k_min = k_cris for every inertial parameter
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

run_suite is the only runner.  It caps `jobs` at the CPUs this process
may run on and makes one task list of (checks, p, part, parts) slices,
largest prime first (the work at p grows about as p^3; this is Graham's
LPT rule).  A slice carries every selected check at p, and _eval_slice
builds each item list at p itself, so the parent builds none.  Prime p is cut into
min(p, round(jobs * p^3 / sum of q^3)) parts, at least 1: a prime is split
only when it is at least 1.5/jobs of the work, so at jobs = 1 every slice
is a whole prime, whose checks run in one process from one cache.  Every item list has at
least p(p-1) items, so no part is empty.  At jobs = 1 the slices run
in-process, in order; at jobs > 1 through one process pool's ordered map,
with min(jobs, slices) workers.  The pool module, and multiprocessing with
it, is imported only then.  Failures are put back in item order for each
run, so the aggregate JSON (timing fields aside) is a pure function of
(primes, checks), whatever the worker count.  A run's "ms" is the sum of
its own check's evaluation times over its slices, not counting the item
list's build or a release (a record main and bm share is paid by whichever
reads it first).  At jobs = 1 that is the run's own time; at jobs > 1 it
adds up time spent in several workers, so the runs' ms may sum to more
than the call's wall time.  All failures are collected rather than
aborting at the first, so one run documents the complete mismatch pattern.

What a process holds.  Every slice starts and ends with empty caches:
_eval_slice calls _release as it starts and, raised or not, as it ends,
at any worker count.  _release empties the decomposition cache
(weights._decompose), its key lists (weights._period, at most p-1), the
scan memo (weights._least_k) and the record store (_record), so an idle
pool worker holds nothing.  A process keeps no item list after its
slice; a cut prime's lists and decompositions are built once per part,
and a prime listed twice runs once and is reported twice.  main's k_cris
and kmin's scan of ((a, b), 1) read the one memo, so each distinct weight tuple
is scanned once: 1,708 scans at p = 29 where one per item made 4,382, and
4,462 at p = 47.  main and bm read one recipes._record per parameter
from a store of at most p records, emptied after every chunk and by _release.
Within a slice, after every p items, a cache holding more than
p^2 + 4p decompositions is emptied; an item reads at most four, so a
process never holds more than p^2 + 8p.  The scans of main and kmin read
only N < p^2 and never reach that bound.  brauer reads each N once, from
the uncached fold weights._fold, so it holds no decomposition (a peak RSS
of 18 MB at p = 127).  recursion lists its lemma items k-major (k,
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
from typing import Dict, List, Optional, Sequence, Tuple

from . import recipes, weights
from .errors import UnsupportedPrimeError
from .galois_params import InertialParam, enumerate_params, param_to_dict
from .oracle import verify_decomposition
from .recipes import serre_k
from .weights import _class, _k_min, _least_k, _twisted, is_odd_prime, sym_class

ALL_CHECKS = ("main", "bm", "kmin", "recursion")

# (checks, p, part, parts): every check at p, over one part of its items
Slice = Tuple[Tuple[str, ...], int, int, int]

# the record store main and bm read; _eval_slice empties it after every chunk
_record = functools.lru_cache(maxsize=None)(recipes._record)


# ---------------------------------------------------------------------------
# check definitions: items(p) plus eval(p, item) -> failure | None


def _eval_main(p: int, param: InertialParam) -> Optional[Dict[str, object]]:
    w_pairs, bm_weights = _record(param)
    ks, km, kc = serre_k(param), min([_k_min(p, a, b) for a, b in w_pairs]), _least_k(p, bm_weights)
    if ks == km == kc:
        return None
    return {
        "param": param_to_dict(param),
        "expected": ks,
        "actual": {"k_min": km, "k_cris": kc},
    }


def _eval_bm(p: int, param: InertialParam) -> Optional[Dict[str, object]]:
    expected, bm_weights = _record(param)
    actual = tuple(sorted([pair for pair, _ in bm_weights]))
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
        # dicts of the module's fold, so a patched one applies: Sym^n and
        # V(n mod p-1, p-n) are added in place into the twist's fresh dict
        # (empty at index -1); every term is effective, so no sum is zero
        fold, m = weights._decompose, n + (k - 1) * (p - 1) - 2
        lhs, rhs = fold(p, n + k * (p - 1)), _twisted(p, fold(p, m), 1) if m >= 0 else {}
        get = rhs.get
        for key, c in fold(p, n).items():
            rhs[key] = get(key, 0) + c
        key = (n % (p - 1), p - n)
        rhs[key] = get(key, 0) + 1
    else:
        lhs = (sym_class(p, n + p - 1) - sym_class(p, n))._coeffs
        rhs = (sym_class(p, n - 2) - sym_class(p, n - p - 1)).twist(1)._coeffs
    if lhs == rhs:
        return None
    return {
        "param": {"identity": kind, "n": n, "k": k},
        "expected": _class(p, rhs).to_json_obj(),
        "actual": _class(p, lhs).to_json_obj(),
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where there is one, else the host's."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _release() -> None:
    """Empty the four caches a slice fills: the record store and weights's
    _decompose, _period and _least_k, as the weights names are bound now."""
    _record.cache_clear()
    weights._decompose.cache_clear()
    weights._period.cache_clear()
    weights._least_k.cache_clear()


def _eval_slice(args: Slice) -> List[Tuple[List[Dict[str, object]], float, int]]:
    """Worker entry: build the item list of each check group at p in turn
    (the checks that share an item function, as main and bm do, adjacent or
    not), take its rows part*n//parts : (part+1)*n//parts, and run the
    group's checks over them p items at a time, from empty caches to empty
    caches, holding at most p^2 + 8p decompositions and p records.
    Returns each check's failures, seconds and item count n, in the order
    of the slice's checks; a group's clock starts after its list is built."""
    names, p, part, parts = args
    _release()
    try:
        groups: Dict[object, List[int]] = {}  # item function -> its checks' places in names
        for i, name in enumerate(names):
            groups.setdefault(CHECKS[name][0], []).append(i)
        out: Dict[int, Tuple[List[Dict[str, object]], float, int]] = {}
        for make, group in groups.items():
            items = make(p)
            n = len(items)
            rows = items[part * n // parts:(part + 1) * n // parts]
            failures: Dict[int, List[Dict[str, object]]] = {i: [] for i in group}
            seconds = dict.fromkeys(group, 0.0)
            mark = time.perf_counter()
            for lo in range(0, len(rows), p):
                for i in group:
                    ev = CHECKS[names[i]][1]
                    failures[i] += [f for item in rows[lo:lo + p] if (f := ev(p, item)) is not None]
                    now = time.perf_counter()
                    seconds[i], mark = seconds[i] + now - mark, now
                _record.cache_clear()
                if weights._decompose.cache_info().currsize > p * p + 4 * p:
                    weights._decompose.cache_clear()
            out.update((i, (failures[i], seconds[i], n)) for i in group)
        return [out[i] for i in range(len(names))]
    finally:
        _release()


def run_suite(
    primes: Sequence[int],
    checks: Sequence[str] | str = "all",
    jobs: int = 1,
) -> Dict[str, object]:
    """Run the selected checks over the given primes.

    `checks` is "all" (the four standard checks), one name, or a list of
    names from main/bm/kmin/recursion/brauer; "all" is not a name, so a
    list containing it is rejected.  "brauer" runs only when named.
    `jobs` above the CPUs this process may run on runs as their number.
    Raises ValueError when no primes or no checks are given, or when jobs
    is not an int >= 1.  Returns the aggregate
    {"runs": [...], "pass": bool}; apart from the per-run "ms" field the
    aggregate depends only on (primes, checks).
    """
    if checks == "all":
        names = tuple(ALL_CHECKS)
    else:
        names = (checks,) if isinstance(checks, str) else tuple(checks)
    primes = tuple(primes)  # an iterator is read once, by the checks below
    if not primes or not names:
        raise ValueError("no primes or no checks selected; nothing to verify")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    for p in primes:
        if p == 2:
            raise UnsupportedPrimeError("p = 2 is not supported; the recipes differ there")
        if not is_odd_prime(p):
            raise UnsupportedPrimeError(f"{p!r} is not an odd prime")
    if not isinstance(jobs, int):
        raise ValueError(f"jobs must be an int, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, _usable_cpus())  # a fork pool starts every worker at once
    # largest prime first, each cut into the nearest whole number of 1/jobs
    # shares of the summed p^3 work, at least 1 and at most p
    total = sum(q ** 3 for q in set(primes))
    tasks = [(names, p, part, parts) for p in sorted(set(primes), reverse=True)
             for parts in [min(p, max(1, (2 * jobs * p ** 3 + total) // (2 * total)))]
             for part in range(parts)]
    if jobs == 1:
        results = [_eval_slice(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_eval_slice, tasks))
    at: Dict[int, List[Dict[str, object]]] = {  # ms in seconds until the end
        p: [{"p": p, "check": name, "params_checked": 0, "failures": [], "ms": 0.0} for name in names]
        for p in set(primes)}
    for (_, p, _, _), per_check in zip(tasks, results):  # a prime's parts in item order
        for run, (failures, seconds, n) in zip(at[p], per_check):
            run["failures"] += failures
            run["ms"] += seconds
            run["params_checked"] = n
    runs = [dict(run, failures=list(run["failures"]), ms=int(round(1000 * run["ms"])))
            for p in primes for run in at[p]]
    return {"runs": runs, "pass": not any(run["failures"] for run in runs)}
