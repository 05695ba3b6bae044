"""The benchmark's workloads: inputs made from a seed, the requests of one
round, and the checks that the program's answers are right.

Every workload is a closed loop driven by one client: the next request is
sent when the previous one has returned.  A round is one request list, run
from empty library caches the way a fresh `serrewt` process would meet it;
the harness repeats rounds for the measured time.  Each round draws its list
from the run's seeded generator, so round i's inputs depend only on the seed
and i, and a run's medians average over several draws rather than one.

Why each workload exists (the same lines are in BENCHMARK.json):

  suite-serial    run_suite over odd primes 3..P at jobs=1: the headline
                  verify run; the decomposition cache hits on almost every
                  lookup, so weights/recipes work shows and pool changes
                  should not.  After the timed rounds the same primes run
                  once at jobs=nproc, whose reports must equal the serial
                  ones; that pass gives the pool metrics.  It is not timed
                  as a workload of its own: on a shared 2-vCPU host its
                  wall time depends on both vCPUs being scheduled, and its
                  run-to-run spread reached 0.35.
  brauer-cert     the Brauer certificate: run_suite(["brauer"]) over p <= 13
                  plus a seeded sample of N <= 3p^2 at primes 17..31; set-up
                  bound at small p, the int64 residual matmul at large p.
  query-mix       a seeded stream of CLI queries with large, mostly distinct
                  N: the weights layer on cache misses and O(N/p) peeling,
                  plus per-query CLI overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

CHECKS = ("main", "bm", "kmin", "recursion")
ODD_PRIMES = tuple(p for p in range(3, 48) if all(p % d for d in range(2, p)))


@dataclass(frozen=True)
class Scale:
    suite_max_p: int
    brauer_full: Tuple[int, ...]
    brauer_sample: Tuple[Tuple[int, int], ...]  # (p, how many N per round)
    query_primes: Tuple[int, ...]
    query_max_exp: int  # decompose N runs up to about 10**query_max_exp
    decompose_per_prime: int
    weights_per_prime: int
    kmin_per_prime: int
    table_primes: Tuple[int, ...]
    tables_per_prime: int


# A full round takes about 2-3 s (suite-serial, query-mix) to 5 s
# (brauer-cert) on a 2-vCPU Xeon VM; SMOKE keeps every prime at or below 7.
# suite-serial stops at p=29, where a round is 2-3 s; primes 3..47 take 25 s,
# longer than a run.  Its check shares there (recursion 53 %, main 30 %,
# kmin 11 %, bm 6 % of run_suite time) keep the order of the 3..47 run's.
# query-mix runs one kmin --search per prime: at four, the scans (45 ms on
# average at p=47, up to 0.24 s) took 29 % of a round; at one, decompose
# takes about 80 % of it.
FULL = Scale(29, (3, 5, 7, 11, 13), ((17, 10), (19, 6), (23, 4), (29, 4), (31, 1)),
             ODD_PRIMES, 6, 24, 8, 1, (3, 5, 7), 4)
SMOKE = Scale(7, (3, 5), ((7, 2),), (3, 5, 7), 3, 4, 2, 2, (3,), 1)


def param_count(p: int) -> int:
    return p * (p - 1) // 2 + (p - 1) * (4 * (p - 1) + 1)


def expected_items(check: str, p: int) -> int:
    """Items a check must cover at p (default k_max = 3p, N <= 3p^2)."""
    return {
        "main": param_count(p),
        "bm": param_count(p),
        "kmin": p * (p - 1),
        "recursion": (p - 1) * 3 * p + 6 * p + 1,
        "brauer": 3 * p * p + 1,
    }[check]


def suite_failures(p: int, checks: Sequence[str], report: Dict) -> List[str]:
    """One message per failed item of a one-prime run_suite report."""
    runs = report.get("runs", [])
    if [(r.get("p"), r.get("check")) for r in runs] != [(p, c) for c in checks]:
        return [f"p={p}: malformed report"]
    out = []
    for run in runs:
        check = run["check"]
        out += [f"p={p} {check}: {json.dumps(f.get('param'))}" for f in run["failures"]]
        if run["params_checked"] != expected_items(check, p):
            out.append(f"p={p} {check}: {run['params_checked']} items checked, "
                       f"expected {expected_items(check, p)}")
    if report.get("pass") is not True and not out:
        out.append(f"p={p}: pass is not true")
    return out


def report_items(report: Dict) -> int:
    return sum(run["params_checked"] for run in report.get("runs", []))


def without_ms(report: Dict) -> Dict:
    return {"runs": [{k: v for k, v in r.items() if k != "ms"} for r in report["runs"]],
            "pass": report["pass"]}


class Workload:
    """Request lists drawn from a seed; `lib` maps module names to the
    imported serrewt modules, looked up at call time so a tracer can patch
    them."""

    name = ""
    jobs = 1
    # set by a workload that also runs a jobs=nproc pass (suite-serial)
    parallel_jobs = 1
    parallel_wall = 0.0
    parallel_reports: List[Dict] = []

    def __init__(self, lib: Dict, seed: int, scale: Scale, nproc: int):
        self.lib = lib
        self.scale = scale
        self.rng = random.Random(seed)
        self.requests: List = []

    def next_round(self) -> List:
        self.requests = self.make(self.rng, self.scale)
        return self.requests

    def make(self, rng: random.Random, scale: Scale) -> List:
        raise NotImplementedError

    def call(self, req: tuple):
        raise NotImplementedError

    def is_sample(self, req: tuple) -> bool:
        """Whether the request's latency is one of the latency samples."""
        return True

    def items(self, req: tuple, out) -> int:
        return 1

    def failures(self, req: tuple, out) -> List[str]:
        raise NotImplementedError

    def finish(self, outputs: List, clear) -> Tuple[int, List[str]]:
        """Checks that need the last round's outputs: (attempted, failures).
        `clear` empties the library caches."""
        return 0, []


class SuiteSerial(Workload):
    name = "suite-serial"

    def __init__(self, lib, seed, scale, nproc):
        super().__init__(lib, seed, scale, nproc)
        self.parallel_jobs = nproc

    def make(self, rng, scale):
        primes = [p for p in ODD_PRIMES if p <= scale.suite_max_p]
        rng.shuffle(primes)
        return primes

    def call(self, p):
        return self.lib["verify"].run_suite([p], "all", jobs=self.jobs)

    def items(self, p, out):
        return report_items(out)

    def failures(self, p, out):
        return suite_failures(p, CHECKS, out)

    def finish(self, outputs, clear):
        """Run the last round's primes once at jobs=nproc, from empty caches,
        and require the reports, ms fields aside, to equal the serial ones."""
        clear()
        start = time.perf_counter()
        self.parallel_reports = [
            self.lib["verify"].run_suite([p], "all", jobs=self.parallel_jobs)
            for p in self.requests]
        self.parallel_wall = time.perf_counter() - start
        bad = [f"p={p}: jobs={self.parallel_jobs} report differs from jobs=1"
               for p, ser, par in zip(self.requests, outputs, self.parallel_reports)
               if not isinstance(ser, dict) or without_ms(par) != without_ms(ser)]
        return len(self.requests), bad


class BrauerCert(Workload):
    name = "brauer-cert"

    def make(self, rng, scale):
        small = list(scale.brauer_full)
        rng.shuffle(small)
        # N = 3p^2, whose arrays set peak memory, at every seed, plus count-1
        # draws stratified over [0, 3p^2).
        sample = []
        for p, count in scale.brauer_sample:
            top = 3 * p * p
            sample.append(("cert", p, top))
            sample += [("cert", p, int(top * (j + rng.random()) / (count - 1)))
                       for j in range(count - 1)]
        rng.shuffle(sample)
        return [("suite", p) for p in small] + sample

    def call(self, req):
        if req[0] == "suite":
            return self.lib["verify"].run_suite([req[1]], ["brauer"], jobs=1)
        return self.lib["oracle"].verify_decomposition(req[1], req[2])

    def is_sample(self, req):
        return req[0] == "cert"

    def items(self, req, out):
        return report_items(out) if req[0] == "suite" else 1

    def failures(self, req, out):
        if req[0] == "suite":
            return suite_failures(req[1], ("brauer",), out)
        return cert_failures(req[1], req[2], out)


def cert_failures(p: int, N: int, report) -> List[str]:
    if report.N != N or report.classes_checked != p * (p - 1) or not report.passed:
        return [f"p={p} N={N}: Brauer certificate failed"]
    return []


def random_param(rng: random.Random, p: int) -> Dict[str, object]:
    """A valid inertial parameter at p, drawn from the JSON schema alone."""
    if rng.random() < 0.5:
        a = rng.randrange(p - 1)
        return {"p": p, "type": "irreducible", "a": a, "b": rng.randrange(a + 1, p)}
    ratio, lam = rng.randrange(p - 1), rng.random() < 0.5
    shapes = ("split", "peu", "tres") if ratio == 1 and lam else ("split", "nonsplit")
    return {"p": p, "type": "reducible", "twist": rng.randrange(p - 1), "ratio": ratio,
            "shape": rng.choice(shapes), "lambda_equal": lam}


class QueryMix(Workload):
    name = "query-mix"

    def make(self, rng, scale):
        primes = scale.query_primes
        queries = []
        # N is log-uniform, stratified so every seed covers the same spread of
        # sizes; each block of strata meets every prime once, so which prime
        # draws the largest N (0.2 s at p=3, 0.02 s at p=47) varies little.
        strata = scale.decompose_per_prime * len(primes)
        for block in range(scale.decompose_per_prime):
            for j, p in enumerate(rng.sample(primes, len(primes))):
                i = block * len(primes) + j
                N = int(10 ** (scale.query_max_exp * (i + rng.random()) / strata))
                queries.append(("decompose", "-p", str(p), "-N", str(N)))
        for _ in range(scale.weights_per_prime):
            for p in primes:
                queries.append(("weights", json.dumps(random_param(rng, p))))
        for _ in range(scale.kmin_per_prime):
            for p in primes:
                queries.append(("kmin", "-p", str(p), "-a", str(rng.randrange(p - 1)),
                                "-b", str(rng.randint(1, p)), "--search"))
        for _ in range(scale.tables_per_prime):
            for p in scale.table_primes:
                queries.append(("table", "-p", str(p)))
        rng.shuffle(queries)
        seen = set()
        repeats = 0
        for q in queries:
            repeats += q in seen
            seen.add(q)
        self.repeat_share = repeats / len(queries)
        return queries

    def call(self, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib["cli"].main(list(req) + ["--format", "json"])
        return rc, buf.getvalue()

    def failures(self, req, out):
        rc, text = out
        try:
            reason = None if rc == 0 else f"exit code {rc}"
            reason = reason or _QUERY_CHECKS[req[0]](req, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output ({exc})"
        return [f"{' '.join(req)}: {reason}"] if reason else []


def _check_decompose(req, rows):
    p, N = int(req[2]), int(req[4])
    keys = [(r["a"], r["b"]) for r in rows]
    if keys != sorted(set(keys)):
        return "factors not sorted and distinct"
    for r in rows:
        if r["mult"] < 1 or not 0 <= r["a"] <= p - 2 or not 1 <= r["b"] <= p:
            return f"factor {r} out of range"
        if (2 * r["a"] + r["b"] - 1 - N) % (p - 1):
            return f"factor {r} has the wrong central character"
    if sum(r["mult"] * r["b"] for r in rows) != N + 1:
        return "dimensions do not sum to N+1"
    return None


def _check_weight_report(param, rep):
    if rep["param"] != param:
        return "parameter not echoed"
    if not rep["k_serre"] == rep["k_min"] == rep["k_cris"]:
        return "k_serre, k_min, k_cris differ"
    if not rep["W"] or rep["W"] != rep["B"]:
        return "W != B"
    return None


def _check_kmin(req, obj):
    p, a, b = int(req[2]), int(req[4]), int(req[6])
    k = obj["k_min"]
    if (obj["p"], obj["a"], obj["b"]) != (p, a, b):
        return "weight not echoed"
    if obj["match"] is not True or k != obj["k_min_search"]:
        return "closed form and scan differ"
    if not 2 <= k <= p * p - 1 or (k - 2 * a - b - 1) % (p - 1):
        return f"k_min={k} out of range or wrong residue"
    return None


def _check_table(req, rows):
    p = int(req[2])
    if len(rows) != param_count(p):
        return f"{len(rows)} rows, expected {param_count(p)}"
    for r in rows:
        if not (r["k_serre"] == r["k_min"] == r["k_cris"] and r["W"] == r["B"]
                and r["k_equal"] is True and r["sets_equal"] is True):
            return f"row {r['type']} disagrees"
    return None


_QUERY_CHECKS = {
    "decompose": _check_decompose,
    "weights": lambda req, rep: _check_weight_report(json.loads(req[1]), rep),
    "kmin": _check_kmin,
    "table": _check_table,
}

WORKLOADS = {w.name: w for w in (SuiteSerial, BrauerCert, QueryMix)}


def planted_faults(lib: Dict) -> List[str]:
    """Feed each checker one wrong answer; return the names of those that
    let it through."""
    verify = lib["verify"]
    good = verify.run_suite([3], "all")
    bad_report = json.loads(json.dumps(good))
    bad_report["runs"][0]["failures"].append({"param": {"planted": 1}})
    short_report = json.loads(json.dumps(good))
    short_report["runs"][0]["params_checked"] -= 1
    other = json.loads(json.dumps(good))
    other["runs"][0]["params_checked"] += 1
    cert = lib["oracle"].verify_decomposition(5, 7)
    cert.failures.append({"class": "planted"})
    cases = {
        "suite failure": suite_failures(3, CHECKS, bad_report),
        "suite item count": suite_failures(3, CHECKS, short_report),
        "parallel report": without_ms(good) != without_ms(other),
        "brauer certificate": cert_failures(5, 7, cert),
        "decompose dimension": _check_decompose(
            ("decompose", "-p", "5", "-N", "4"), [{"a": 0, "b": 5, "mult": 2}]),
        "decompose central character": _check_decompose(
            ("decompose", "-p", "5", "-N", "4"), [{"a": 1, "b": 5, "mult": 1}]),
        "weights k": _check_weight_report(
            {"p": 3}, {"param": {"p": 3}, "k_serre": 4, "k_min": 4, "k_cris": 6,
                       "W": [{"a": 0, "b": 3}], "B": [{"a": 0, "b": 3}]}),
        "weights sets": _check_weight_report(
            {"p": 3}, {"param": {"p": 3}, "k_serre": 4, "k_min": 4, "k_cris": 4,
                       "W": [{"a": 0, "b": 3}], "B": [{"a": 1, "b": 3}]}),
        "kmin scan": _check_kmin(("kmin", "-p", "5", "-a", "0", "-b", "1"),
                                 {"p": 5, "a": 0, "b": 1, "k_min": 2,
                                  "k_min_search": 6, "match": False}),
        "table row count": _check_table(("table", "-p", "3"), []),
    }
    return [name for name, found in cases.items() if not found]
