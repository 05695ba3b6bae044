"""In-memory spans around the calls into serrewt's public functions.

The tracer replaces, for the length of a traced run, every module-level
binding of the functions listed in TRACED with a wrapper that records one
span per call: name, start, end and parent (the span that was open when the
call began).  The program's source is not touched; the wrappers live here and
the original bindings are restored by uninstall().

The decomposition cache is the one place where a span per call would cost
more than the work: the suites look it up about a million times per round.
The tracer therefore swaps `weights._decompose` for a fresh unbounded
lru_cache around the same function, so hits stay in C and only misses (the
actual decompositions) get a span; the call count comes from cache_info().

Spans are kept in memory and written out by write().  A worker process
forked from a traced parent switches its inherited tracer off, so its spans
are neither recorded nor lost half-way; the parent sees the time it waits for
the pool as `verify` self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

TRACED = {
    "weights": ("decompose_sym", "sym_class", "k_min_closed"),
    "galois_params": ("enumerate_params", "parse_param"),
    "recipes": ("serre_k", "k_min_of_set", "bdj_weight_set", "mu_support",
                "bm_set", "weight_report", "k_cris"),
    "oracle": ("k_min_search", "cyclotomic_poly", "p_regular_classes",
               "verify_decomposition"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

# span record fields
NAME, START, END, PARENT, OUTER = range(5)


def residual_macs(p: int) -> int:
    """Multiply-adds of one `counts @ table` product at p, computed from the
    shapes: classes x (p^2-1) x phi(p^2-1).  Call it with the tracer
    uninstalled, so the cyclotomic_poly lookups it makes record no span."""
    n = p * p - 1
    return p * (p - 1) * n * importlib.import_module("serrewt.oracle")._phi_degree(n)


def serrewt_modules():
    """The imported serrewt package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "serrewt" or name.startswith("serrewt."))]


class Tracer:
    """Records spans for one workload; install() patches, uninstall() restores."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self._stack = [-1]
        self._open: Counter = Counter()
        self.active = False
        self._patched: list = []
        self.core_cache = None
        self.cache_lookups = 0
        self.cache_hits = 0
        self.k_scanned = 0
        self.brauer_calls: List[tuple] = []  # (span index, first call at p this round, p)
        self._brauer_seen: set = set()
        self.rounds = 0
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.active = False

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn: Callable, label: Optional[Callable] = None,
              hook: Optional[Callable] = None) -> Callable:
        fixed = self._id(name)
        spans, stack, open_, clock = self.spans, self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nid = self._id(label(args)) if label else fixed
            idx = len(spans)
            rec = [nid, clock(), 0.0, stack[-1], not open_[nid]]
            spans.append(rec)
            stack.append(idx)
            open_[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_[nid] -= 1
                stack.pop()
                rec[END] = clock()
            if hook:
                hook(args, idx, result)
            return result

        return wrapper

    def _on_k_cris(self, args, idx, result) -> None:
        self.k_scanned += result - 1

    def _on_brauer(self, args, idx, result) -> None:
        p = args[0]
        self.brauer_calls.append((idx, p not in self._brauer_seen, p))
        self._brauer_seen.add(p)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"serrewt.{m}") for m in TRACED}
        swap = {}
        for mod, names in TRACED.items():
            for fname in names:
                orig = getattr(mods[mod], fname)
                label = hook = None
                if fname == "main":
                    label = lambda a: f"cli.main.{a[0][0]}" if a and a[0] else "cli.main"
                elif fname == "k_cris":
                    hook = self._on_k_cris
                elif fname == "verify_decomposition":
                    hook = self._on_brauer
                swap[id(orig)] = (orig, self._wrap(f"{mod}.{fname}", orig, label, hook))
        core = mods["weights"]._decompose
        self.core_cache = functools.lru_cache(maxsize=None)(
            self._wrap("weights.decompose_sym", core.__wrapped__))
        swap[id(core)] = (core, self.core_cache)
        for module in serrewt_modules():
            for attr, val in list(vars(module).items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((module, attr, val))
                    setattr(module, attr, hit[1])
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, val in self._patched:
            setattr(module, attr, val)
        self._patched.clear()

    def clear_caches(self) -> None:
        if self.core_cache is not None:
            self.core_cache.cache_clear()

    def begin_round(self) -> None:
        self._brauer_seen.clear()

    def end_round(self) -> None:
        """Fold this round's decomposition-cache counts into the totals;
        must run before the next round clears the cache."""
        info = self.core_cache.cache_info()
        self.cache_lookups += info.hits + info.misses
        self.cache_hits += info.hits
        self.rounds += 1

    # -------------------------------------------------------------------
    # aggregation

    def summary(self) -> Dict[str, float]:
        """Totals over all traced rounds: per-module self time, inclusive
        time per span name (outermost occurrences only, so recursion is not
        counted twice) and call counts."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self_s: Dict[str, float] = defaultdict(float)
        incl: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, rec in enumerate(self.spans):
            name = self.names[rec[NAME]]
            dur = rec[END] - rec[START]
            self_s[name.split(".", 1)[0]] += dur - child[idx]
            calls[name] += 1
            if rec[OUTER]:
                incl[name] += dur
        return {"self": dict(self_s), "incl": dict(incl), "calls": dict(calls)}

    def brauer_times(self):
        """verify_decomposition call times, first call per prime in a round
        and later ("steady") calls, plus the residual MACs of all calls and
        of the steady ones alone."""
        first = [self._dur(i) for i, is_first, _ in self.brauer_calls if is_first]
        steady = [self._dur(i) for i, is_first, _ in self.brauer_calls if not is_first]
        macs = sum(residual_macs(p) for _, _, p in self.brauer_calls)
        steady_macs = sum(residual_macs(p) for _, is_first, p in self.brauer_calls
                          if not is_first)
        return first, steady, macs, steady_macs

    def _dur(self, idx: int) -> float:
        rec = self.spans[idx]
        return rec[END] - rec[START]

    def write(self, path: str) -> None:
        """One JSON line per span: [workload, name, start_s, end_s, parent]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["workload", "name", "start_s", "end_s",
                                             "parent"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps([self.workload, self.names[rec[NAME]],
                                     rec[START], rec[END], rec[PARENT]]) + "\n")
