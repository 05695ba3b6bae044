"""Tests for the exhaustive per-prime checkers and the suite runner."""

import concurrent.futures
import copy
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import serrewt
from serrewt import cli, oracle, recipes, verify, weights
from serrewt.errors import UnsupportedPrimeError
from serrewt.recipes import _bm_weights, weight_report
from serrewt.verify import ALL_CHECKS, run_suite

from peeling_reference import decompose_loop
from test_mutations import MUTANTS, _decompose_one_factor_twisted, _patch_everywhere


def _param_count(p):
    """p(p-1)/2 irreducible plus (p-1)(4(p-1)+1) reducible records."""
    return p * (p - 1) // 2 + (p - 1) * (4 * (p - 1) + 1)


def _run(check, p):
    """The single run of one check at one prime."""
    agg = run_suite([p], [check])
    (run,) = agg["runs"]
    assert agg["pass"] == (run["failures"] == [])
    return run


def test_check_main_theorem_counts():
    r3 = _run("main", 3)
    assert not r3["failures"] and r3["params_checked"] == 21  # 3 irreducible + 18 reducible
    r5 = _run("main", 5)
    assert not r5["failures"] and r5["params_checked"] == 78


def test_check_main_theorem_p7():
    assert not _run("main", 7)["failures"]


def test_check_bm_equals_bdj():
    for p in (3, 5, 7):
        r = _run("bm", p)
        assert not r["failures"]
        assert r["params_checked"] == _param_count(p)


def test_primality_tests_per_suite_are_bounded(monkeypatch):
    # p is tested where it enters: once by run_suite, once by
    # enumerate_params for main and bm, and once by each public sym_class
    # call of the recursion check's periodic items, 4 * (6p + 1) = 1,132 at
    # p = 47.  The fold and its cache test nothing (6,916 tests when each
    # cache miss did), and derived records, weights and classes are not
    # tested again (86,750 when they were), nor is p in kisin_mu's
    # normalizations (15,818 when it was).
    calls = []
    orig = weights.is_odd_prime

    def spy(n):
        calls.append(n)
        return orig(n)

    _patch_everywhere(monkeypatch, orig, spy)
    weights._decompose.cache_clear()
    assert run_suite([47], "all")["pass"]
    assert set(calls) == {47}
    assert len(calls) <= 1_134


def test_check_kmin_formula_counts():
    assert _run("kmin", 3)["params_checked"] == 6
    assert _run("kmin", 5)["params_checked"] == 20
    r = _run("kmin", 11)
    assert not r["failures"] and r["params_checked"] == 110


def test_check_recursion_lemma():
    for p in (3, 7):
        r = _run("recursion", p)
        assert not r["failures"]
        # lemma for n < p, k <= 3p; periodic relation for n in [-2p, 4p]
        assert r["params_checked"] == (p - 1) * 3 * p + 6 * p + 1


def test_coverage_formula():
    for p in (3, 5, 7, 11):
        assert _run("main", p)["params_checked"] == _param_count(p)


def test_report_json_shape():
    obj = _run("main", 3)
    assert set(obj) == {"p", "check", "params_checked", "failures", "ms"}
    json.dumps(obj)  # serializable


# ---------------------------------------------------------------------------
# run_suite


def _strip_ms(aggregate):
    out = copy.deepcopy(aggregate)
    for run in out["runs"]:
        run["ms"] = 0
    return out


def test_run_suite_rejects_p2():
    with pytest.raises(UnsupportedPrimeError):
        run_suite([2], "all")
    with pytest.raises(UnsupportedPrimeError):
        run_suite([5, 2], "main")
    with pytest.raises(UnsupportedPrimeError):
        run_suite([9], "main")


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ValueError):
        run_suite([5], ["mian"])
    with pytest.raises(ValueError):  # "all" is a spelling of `checks`, not a name
        run_suite([5], ["all"])
    with pytest.raises(ValueError):
        run_suite([5], "all", jobs=0)


@pytest.mark.parametrize("jobs", ["2", None, 2.5, 1.0])
def test_run_suite_names_a_non_int_jobs(jobs):
    # "2" and None escaped as TypeError; 2.5 ran a pool of 2 and 1.0 ran serially
    with pytest.raises(ValueError, match=f"^jobs must be an int, got {re.escape(repr(jobs))}$"):
        run_suite([3], ["kmin"], jobs=jobs)


def test_run_suite_rejects_empty_selection():
    with pytest.raises(ValueError):
        run_suite([], "all")
    with pytest.raises(ValueError):
        run_suite([3], [])


def test_run_suite_reads_an_iterator_of_primes_once():
    # the prime checks must not consume the iterator the runs are built from
    assert _strip_ms(run_suite(iter([3, 5]), "all")) == _strip_ms(run_suite([3, 5], "all"))
    with pytest.raises(ValueError):
        run_suite(iter([]), "all")
    with pytest.raises(UnsupportedPrimeError, match="^'3' is not an odd prime$"):
        run_suite("3")


def test_run_suite_all_checks_small():
    agg = run_suite([3, 5], "all")
    assert agg["pass"]
    assert [r["check"] for r in agg["runs"]] == ["main", "bm", "kmin", "recursion"] * 2
    assert all(r["failures"] == [] for r in agg["runs"])


def test_run_suite_deterministic_across_jobs():
    one = run_suite([5], "all", jobs=1)
    eight = run_suite([5], "all", jobs=8)
    assert json.dumps(_strip_ms(one)) == json.dumps(_strip_ms(eight))


def test_run_suite_brauer_explicit():
    agg = run_suite([3], ["brauer"])
    assert agg["pass"]
    assert agg["runs"][0]["params_checked"] == 28  # N = 0..3p^2


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    opened = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)


def test_run_suite_opens_one_pool_per_call(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)  # a pool even on one CPU
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "opened", 0)
    serial = run_suite([3, 5], "all", jobs=1)
    assert _CountingPool.opened == 0
    parallel = run_suite([3, 5], "all", jobs=2)
    assert _CountingPool.opened == 1
    assert _strip_ms(serial) == _strip_ms(parallel)


class _InProcessPool:
    """Records the requested worker count and the tasks it is handed, and
    maps a function over them in this process, so no process starts."""

    max_workers = []
    tasks = []  # every task handed to map, in order
    log = []  # ("map",) when map is called, then ("result", check, p) per check of a slice

    def __init__(self, max_workers):
        type(self).max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        type(self).tasks += tasks
        type(self).log.append(("map",))
        for task in tasks:
            type(self).log += [("result", name, task[1]) for name in task[0]]
            yield fn(task)


@pytest.fixture
def in_process_pool(monkeypatch):
    """_InProcessPool in place of the process pool, with empty records."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    for name in ("max_workers", "tasks", "log"):
        monkeypatch.setattr(_InProcessPool, name, [])
    return _InProcessPool


def test_run_suite_caps_jobs_at_cpu_count(monkeypatch, in_process_pool):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    many = run_suite([5], "all", jobs=64)
    assert in_process_pool.max_workers == [2]
    assert _strip_ms(many) == _strip_ms(run_suite([5], "all", jobs=1))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform sets no affinity")
def test_run_suite_caps_jobs_at_the_cpus_this_process_may_run_on():
    # a child narrows its own affinity to one CPU: jobs=8 then runs in
    # process, however many CPUs the host has
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from serrewt.verify import run_suite; assert run_suite([5], ['kmin'], jobs=8)['pass']; "
            "assert 'concurrent.futures.process' not in sys.modules")
    src = str(Path(serrewt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_usable_cpus_counts_the_host_without_an_affinity_mask(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    assert verify._usable_cpus() == 3
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)  # the count is undetermined
    assert verify._usable_cpus() == 1


def test_run_suite_starts_no_idle_worker(monkeypatch, in_process_pool):
    # the pool asks for min(jobs, slices of the call) workers; a lone prime
    # is cut into at most p parts, and [3, 5] at 16 cores into 5 + 3
    for cores, primes, slices in ((16, [3], 3), (2, [3], 2), (16, [3, 5], 8)):
        monkeypatch.setattr(verify, "_usable_cpus", lambda cores=cores: cores)
        monkeypatch.setattr(_InProcessPool, "max_workers", [])
        monkeypatch.setattr(_InProcessPool, "tasks", [])
        assert run_suite(primes, ["kmin", "main"], jobs=cores)["pass"]
        assert len(in_process_pool.tasks) == slices
        assert in_process_pool.max_workers == [min(cores, slices)]


def test_run_suite_parent_builds_no_item_list(monkeypatch, in_process_pool):
    # the pool is handed (checks, p, part, parts) slices of plain names and
    # ints, and each item list is built in the worker that runs its slice
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    items, ev = verify.CHECKS["kmin"]

    def built(p):
        _InProcessPool.log.append(("build", "kmin", p))
        return items(p)
    monkeypatch.setitem(verify.CHECKS, "kmin", (built, ev))
    primes = [3, 5, 7, 11]
    parallel = run_suite(primes, ["kmin"], jobs=2)  # 11 is 73 % of the work: whole primes
    log = in_process_pool.log
    assert log[0] == ("map",) and log.count(("map",)) == 1
    assert log[1:] == [(kind, "kmin", p) for p in (11, 7, 5, 3) for kind in ("result", "build")]
    assert in_process_pool.tasks == [(("kmin",), p, 0, 1) for p in (11, 7, 5, 3)]
    assert all(type(x) is int for task in in_process_pool.tasks for x in task[1:])
    assert _strip_ms(parallel) == _strip_ms(run_suite(primes, ["kmin"], jobs=1))


def test_run_suite_builds_each_item_list_once(monkeypatch, in_process_pool):
    # once per prime that is not cut; a cut prime builds each of its lists
    # once per part, in that part's slice
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    built = Counter()
    for name, (items, ev) in list(verify.CHECKS.items()):
        def counted(p, name=name, items=items):
            built[name, p] += 1
            return items(p)
        monkeypatch.setitem(verify.CHECKS, name, (counted, ev))
    once = {(name, p): 1 for name in ALL_CHECKS for p in (3, 5)}
    serial = run_suite([3, 5], "all", jobs=1)
    assert built == once
    built.clear()
    parallel = run_suite([3, 5], "all", jobs=2)  # 5 is 82 % of the work: two parts
    assert built == {**once, **{(name, 5): 2 for name in ALL_CHECKS}}
    assert built == Counter((name, p) for _, p, _, _ in in_process_pool.tasks for name in ALL_CHECKS)
    assert _strip_ms(serial) == _strip_ms(parallel)


def test_a_prime_listed_twice_runs_once_and_is_reported_twice(monkeypatch):
    # each (check, 5) item list is built once, and both of 5's reports are
    # the one run, at any worker count
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)  # a process pool even on one CPU
    built = Counter()
    for name, (items, ev) in list(verify.CHECKS.items()):
        def counted(p, name=name, items=items):
            built[name, p] += 1
            return items(p)
        monkeypatch.setitem(verify.CHECKS, name, (counted, ev))
    serial = run_suite([5, 3, 5], ["kmin", "bm"], jobs=1)
    assert built == {(name, p): 1 for name in ("kmin", "bm") for p in (3, 5)}
    runs = serial["runs"]
    assert [(run["p"], run["check"]) for run in runs] == [(p, name) for p in (5, 3, 5) for name in ("kmin", "bm")]
    assert runs[:2] == runs[4:] and serial["pass"]
    assert _strip_ms(serial) == _strip_ms(run_suite([5, 3, 5], ["kmin", "bm"], jobs=2))


def test_run_suite_builds_items_one_check_at_a_time(monkeypatch):
    # at jobs=1 a check's item list is built after the previous check ran,
    # largest prime first, so a run over many primes never holds all their
    # item lists
    log = []
    for name, (items, ev) in list(verify.CHECKS.items()):
        def built(p, name=name, items=items):
            log.append(("build", name, p))
            return items(p)

        def evaluated(p, item, name=name, ev=ev):
            if log[-1] != ("eval", name, p):
                log.append(("eval", name, p))
            return ev(p, item)
        monkeypatch.setitem(verify.CHECKS, name, (built, evaluated))
    run_suite([3, 5], ["kmin", "recursion"], jobs=1)
    assert log == [(kind, name, p) for p in (5, 3) for name in ("kmin", "recursion")
                   for kind in ("build", "eval")]


@pytest.mark.parametrize("primes, cores, expected", [
    ([3, 29], 2, [(29, 0, 2), (29, 1, 2), (3, 0, 1)]),  # 29 is 99.9 % of the work
    ([29, 31], 2, [(31, 0, 1), (29, 0, 1)]),  # 31 is 55 %, nearer one share than two
    ([5], 64, [(5, part, 5) for part in range(5)]),  # at most p parts
], ids=["3,29-jobs2", "29,31-jobs2", "5-jobs64"])
def test_run_suite_cuts_primes_by_their_share_largest_first(monkeypatch, in_process_pool,
                                                            primes, cores, expected):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cores)
    assert _strip_ms(run_suite(primes, ["kmin"], jobs=cores)) == _strip_ms(
        run_suite(primes, ["kmin"], jobs=1))
    assert in_process_pool.tasks == [(("kmin",), p, part, parts) for p, part, parts in expected]
    assert in_process_pool.max_workers == [min(cores, len(expected))]


def test_run_suite_ms_counts_only_evaluation(monkeypatch):
    # neither building an item list nor emptying the caches as a slice
    # starts and ends is charged to a run
    def slow(fn):
        def wrapped(*args):
            time.sleep(0.2)
            return fn(*args)
        return wrapped
    monkeypatch.setitem(verify.CHECKS, "kmin", (slow(verify._kmin_items), verify._eval_kmin))
    monkeypatch.setattr(verify, "_release", slow(verify._release))
    start = time.perf_counter()
    (run,) = run_suite([3], ["kmin"])["runs"]
    assert time.perf_counter() - start >= 0.6  # the build and the slice's two releases
    assert run["ms"] < 100 and run["params_checked"] == 6


ALL_FIVE = ["main", "bm", "kmin", "recursion", "brauer"]


def test_a_real_pool_reports_as_one_process(monkeypatch):
    # at jobs 2, prime 29 is cut into two parts that run in two processes,
    # and 3 runs whole beside them
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)  # a process pool even on one CPU
    parallel = run_suite([3, 29], ALL_FIVE, jobs=2)
    assert parallel["pass"]
    assert _strip_ms(parallel) == _strip_ms(run_suite([3, 29], ALL_FIVE, jobs=1))


# ---------------------------------------------------------------------------
# what a process holds


class _DecomposeSpy:
    """A stand-in for weights._decompose with its cache interface.  At
    every miss it records the primes of the other entries it holds, and the
    most entries of one prime it has held at once."""

    def __init__(self, core):
        self.__wrapped__ = core
        self.held = {}
        self.per_prime = Counter()
        self.hits = self.misses = 0
        self.foreign = []  # (p, primes of other entries) at a miss
        self.peak = Counter()
        self.clears = 0
        self.made = 0  # misses, across emptyings
        self.read = set()  # every (p, N) looked up, across emptyings

    def __call__(self, p, N):
        self.read.add((p, N))
        if (p, N) in self.held:
            self.hits += 1
            return self.held[p, N]
        self.misses += 1
        self.made += 1
        others = sorted(q for q, count in self.per_prime.items() if count and q != p)
        if others:
            self.foreign.append((p, others))
        value = self.held[p, N] = self.__wrapped__(p, N)
        self.per_prime[p] += 1
        self.peak[p] = max(self.peak[p], self.per_prime[p])
        return value

    def cache_info(self):
        return SimpleNamespace(hits=self.hits, misses=self.misses, maxsize=None,
                               currsize=len(self.held))

    def cache_clear(self):
        self.held.clear()
        self.per_prime.clear()
        self.hits = self.misses = 0
        self.clears += 1


@pytest.fixture
def spy(monkeypatch):
    spy = _DecomposeSpy(weights._decompose.__wrapped__)
    _patch_everywhere(monkeypatch, weights._decompose, spy)
    return spy


def test_run_suite_holds_one_prime_at_a_time(spy):
    spy(11, 200)  # a caller's decomposition at another prime
    serial = run_suite([3, 5, 7], "all", jobs=1)
    assert spy.foreign == []
    assert set(spy.peak) == {3, 5, 7, 11}
    assert spy.held == {}  # released once the run is done
    assert serial["pass"]


def test_worker_slices_start_and_end_empty(spy):
    # the slice sequence of one pool worker, run in-process, two parts of 7
    # back to back among them; before each slice a caller leaves a
    # decomposition and a scan at 11, which the slice must drop as it starts
    slices = [(("kmin",), 5, 0, 2), (("recursion",), 7, 0, 2),
              (("recursion",), 7, 1, 2), (("main",), 5, 0, 4)]
    for task, n in zip(slices, (20, 169, 169, 78)):  # each check's full item count
        weights._least_k(11, (((0, 1), 1),))
        made = spy.made
        ((failures, _, checked),) = verify._eval_slice(task)
        assert failures == [] and checked == n
        assert spy.made > made  # the slice read decompositions of its own
        assert spy.held == {} and weights._least_k.cache_info().currsize == 0
    assert spy.foreign == []


@pytest.mark.parametrize("p", [5, 13])
def test_brauer_holds_no_decomposition(monkeypatch, p):
    # brauer reads each N once, through the uncached fold, so the
    # decomposition cache is empty at every N it certifies
    readings, certify = [], oracle.verify_decomposition

    def reading(p, N):
        report = certify(p, N)
        readings.append(weights._decompose.cache_info().currsize)
        return report

    _patch_everywhere(monkeypatch, certify, reading)
    assert run_suite([p], ["brauer"])["pass"]
    assert len(readings) == 3 * p * p + 1 and set(readings) == {0}


def test_recursion_leaves_every_cached_decomposition_as_folded(spy):
    # the lemma's right side is summed in place into the twist's fresh dict;
    # every dict the cache held must still equal a fresh fold of its N
    held, fold = [], spy.__wrapped__

    def record(p, N):
        held.append((p, N, fold(p, N)))
        return held[-1][2]

    spy.__wrapped__ = record
    assert run_suite([7], ["recursion"])["pass"]
    assert len(held) >= len(spy.read) > 0
    for p, N, factors in held:
        weights._period.cache_clear()
        assert factors == fold(p, N) == decompose_loop(p, N), (p, N)


@pytest.mark.parametrize("p", [5, 13, 29])
def test_all_checks_equal_the_checks_run_alone(p):
    # main and kmin share scans and main and bm share an item list, but a
    # run of all four checks reports what each check reports alone
    alone = [run_suite([p], [check])["runs"][0] for check in ALL_CHECKS]
    assert _strip_ms(run_suite([p], "all")) == _strip_ms({"runs": alone, "pass": True})
    assert weights._least_k.cache_info().currsize == 0


class _LeastKSpy:
    """A stand-in for weights._least_k with its memo interface; counts the
    scans it runs by key across emptyings, which cache_clear would reset
    in an lru_cache's own counts."""

    def __init__(self, scan):
        self.__wrapped__ = scan
        self.held = {}
        self.scans = Counter()

    def __call__(self, p, ws):
        if (p, ws) not in self.held:
            self.scans[p, ws] += 1
            self.held[p, ws] = self.__wrapped__(p, ws)
        return self.held[p, ws]

    def cache_info(self):
        return SimpleNamespace(currsize=len(self.held))

    def cache_clear(self):
        self.held.clear()


def test_main_and_kmin_scan_each_weight_dict_once(monkeypatch):
    # at p = 29 the 3,570 parameters have 1,680 distinct weight tuples, and
    # 28 of kmin's 812 one-weight tuples are not among them: 4,382 scans
    # when each item scanned its own
    scan = _LeastKSpy(weights._least_k.__wrapped__)
    _patch_everywhere(monkeypatch, weights._least_k, scan)
    assert run_suite([29], "all")["pass"]
    assert 0 < sum(scan.scans.values()) == len(scan.scans) <= 1_708
    # main's tuples (through k_cris) and kmin's all reach the one memo
    grid = verify._kmin_items(29)
    assert set(scan.scans) == ({(29, _bm_weights(q)) for q in verify.enumerate_params(29)}
                               | {(29, ((item, 1),)) for item in grid})
    assert scan.held == {}


def test_a_run_that_raises_leaves_no_scan(monkeypatch):
    # a later run at the same prime, perhaps under other code, must not
    # read the scans of one that stopped half-way
    def broken(p, item):
        raise RuntimeError("planted")
    monkeypatch.setitem(verify.CHECKS, "kmin", (verify._kmin_items, broken))
    with pytest.raises(RuntimeError):
        run_suite([5], ["main", "kmin"])
    assert weights._least_k.cache_info().currsize == 0


def _count_recipe_calls(monkeypatch):
    """Counts the _w_pairs and mu_support calls per parameter, wherever
    the package binds them."""
    calls = {"_w_pairs": Counter(), "mu_support": Counter()}
    for name, counts in calls.items():
        def counted(param, orig=getattr(recipes, name), counts=counts):
            counts[param] += 1
            return orig(param)
        _patch_everywhere(monkeypatch, getattr(recipes, name), counted)
    return calls


@pytest.mark.parametrize("p, checks", [(47, "all"), (29, ["main", "kmin", "bm"])])
@pytest.mark.parametrize("jobs", [1, 2])
def test_main_and_bm_build_each_record_once(monkeypatch, in_process_pool, p, checks, jobs):
    # main and bm read one record per parameter, also when they are not
    # adjacent and when the slices go through a pool (in-process here)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    calls = _count_recipe_calls(monkeypatch)
    assert run_suite([p], checks, jobs=jobs)["pass"]
    assert in_process_pool.max_workers == ([] if jobs == 1 else [2])
    params = verify.enumerate_params(p)
    for counts in calls.values():
        assert counts == Counter(params) and sum(counts.values()) == _param_count(p)


class _RecordSpy:
    """A stand-in for verify._record with its cache interface; records how
    many records, of which primes, it held each time it was emptied."""

    def __init__(self, make):
        self.make = make
        self.held = {}
        self.sizes = []

    def __call__(self, param):
        if param not in self.held:
            self.held[param] = self.make(param)
        return self.held[param]

    def cache_clear(self):
        self.sizes.append((len(self.held), {q.p for q in self.held}))
        self.held.clear()


@pytest.mark.parametrize("jobs", [1, 64])
def test_record_store_holds_at_most_p(monkeypatch, in_process_pool, jobs):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 64)
    store = _RecordSpy(recipes._record)
    monkeypatch.setattr(verify, "_record", store)
    assert run_suite([7, 29], "all", jobs=jobs)["pass"]
    # one prime's records at a time, at most p of them; a chunk at p = 29
    # holds 29.  p = 7 runs whole: 171 = 24 * 7 + 3 parameters.  At jobs = 1
    # so does p = 29 (3,570 = 123 * 29 + 3); at jobs = 64 it is cut into 29
    # parts of 123 or 124 parameters, each ending in a chunk of 7 or 8
    for n, primes in store.sizes:
        assert n == 0 or (len(primes) == 1 and n <= min(primes))
    assert max(n for n, _ in store.sizes) == 29
    assert {n for n, primes in store.sizes if primes == {7}} == {3, 7}
    assert {n for n, primes in store.sizes if primes == {29}} == ({3, 29} if jobs == 1 else {7, 8, 29})
    assert len(in_process_pool.tasks) == (0 if jobs == 1 else 30)
    assert store.held == {}


def test_record_store_is_empty_after_a_run():
    assert run_suite([13], ["bm", "main"])["pass"]
    assert verify._record.cache_info().currsize == 0
    # the CLI's report builds its record afresh and caches none
    weight_report(verify.enumerate_params(13)[0])
    assert verify._record.cache_info().currsize == 0 and not hasattr(recipes._record, "cache_info")


def _held_caches():
    """The library caches that hold entries, by name.  Every cache bound in
    any serrewt module, found by its cache_info as the bench's per-round
    clear finds them, must be one of the four that _release empties, except
    oracle.cyclotomic_poly (the test reference, which other tests fill) and
    cli._build_parser; a cache added anywhere fails here until _release
    empties it or this exclusion names it."""
    modules = [serrewt, *(importlib.import_module(f"serrewt.{m.name}")
                          for m in pkgutil.iter_modules(serrewt.__path__))]
    found = {id(v) for mod in modules for v in vars(mod).values() if hasattr(v, "cache_info")}
    caches = {"weights._decompose": weights._decompose, "weights._period": weights._period,
              "weights._least_k": weights._least_k, "verify._record": verify._record}
    assert found - {id(oracle.cyclotomic_poly), id(cli._build_parser)} == {id(c) for c in caches.values()}
    return {name: c.cache_info().currsize for name, c in caches.items() if c.cache_info().currsize}


def test_a_run_leaves_every_library_cache_empty(monkeypatch):
    # a cache that _release misses fails here
    assert run_suite([5, 7], "all", jobs=1)["pass"]
    assert _held_caches() == {}
    # a failing N lists p = 5's classes, which the slice drops as it ends
    monkeypatch.setattr(oracle, "_fold", _decompose_one_factor_twisted)
    assert not run_suite([5], ["brauer"], jobs=1)["pass"]
    assert _held_caches() == {}


@pytest.mark.parametrize("jobs", [2, 64])
def test_a_pool_run_leaves_every_library_cache_empty(monkeypatch, in_process_pool, jobs):
    # every slice ends empty, so no worker keeps the caches of the last
    # slice it ran; also when that slice raised
    monkeypatch.setattr(verify, "_usable_cpus", lambda: jobs)
    assert run_suite([5, 7], "all", jobs=jobs)["pass"]
    assert len(in_process_pool.tasks) == (2 if jobs == 2 else 12)
    assert _held_caches() == {}

    def broken(p, item):
        if p == 5:  # p = 5's slices run last; main fills the store first
            raise RuntimeError("planted")
        return verify._eval_bm(p, item)
    monkeypatch.setitem(verify.CHECKS, "bm", (verify._param_items, broken))
    with pytest.raises(RuntimeError):
        run_suite([5, 7], "all", jobs=jobs)
    assert _held_caches() == {}


def test_a_run_that_raises_leaves_no_record(monkeypatch):
    # bm raises in the first chunk at p = 5, after main filled the store
    def broken(p, item):
        raise RuntimeError("planted")
    monkeypatch.setitem(verify.CHECKS, "bm", (verify._param_items, broken))
    with pytest.raises(RuntimeError):
        run_suite([5], ["main", "bm"])
    assert verify._record.cache_info().currsize == 0


@pytest.mark.parametrize("p", [5, 7])
def test_shared_slices_report_the_same_at_any_worker_count(monkeypatch, p):
    checks = ["main", "kmin", "bm"]
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)  # a process pool even on one CPU
    reports = [_strip_ms(run_suite([p], checks, jobs=jobs)) for jobs in (1, 2)]
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "tasks", [])
    reports.append(_strip_ms(run_suite([p], checks, jobs=64)))
    assert len(_InProcessPool.tasks) == p
    assert reports[0] == reports[1] == reports[2]
    assert [run["check"] for run in reports[0]["runs"]] == checks


@pytest.mark.parametrize("p", [29, 47])
def test_recursion_holds_at_most_p2_plus_8p(spy, p):
    assert run_suite([p], ["recursion"])["pass"]
    assert 0 < spy.peak[p] <= p * p + 8 * p
    assert spy.clears >= 2  # the bound was reached, then enforced


@pytest.mark.parametrize("p", [13, 29])
def test_emptying_keeps_recomputation_small(spy, p):
    # recursion's k-major order re-reads a lemma item's Sym index p + 1
    # items later, so emptying at the p^2 + 4p bound rarely drops a live
    # entry or the ones main and kmin left
    assert run_suite([p], "all")["pass"]
    assert spy.made <= 1.25 * len(spy.read), (spy.made, len(spy.read))


# sha256 of json.dumps(run_suite([5, 7], ["main", "kmin"])), "ms" fields
# removed, under two planted faults, recorded before main and kmin shared
# one scan per weight dict: a failure entry holds the k_cris and
# k_min_search values that the scans found
MAIN_KMIN_FAILURE_SHA256 = {
    "decompose_one_factor": "0d5939c83270eed3356b8d2eb9cf4664af6427b3e18aa57318564d42bcaf8bbf",
    "k_min_closed_boundary": "18667c8071c7e8153187ff1fbefdd1b1b07a03795f8b13d38e8d7aaf20affc0b",
}


@pytest.mark.parametrize("name", sorted(MAIN_KMIN_FAILURE_SHA256))
def test_main_kmin_failure_bytes_are_pinned(name, monkeypatch):
    MUTANTS[name][0](monkeypatch)
    report = run_suite([5, 7], ["main", "kmin"])
    assert all(run["failures"] for run in report["runs"])
    for run in report["runs"]:
        del run["ms"]
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == MAIN_KMIN_FAILURE_SHA256[name]
