"""serrewt benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload suite-serial --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from its `src/`.
The run repeats rounds of the workload (see workloads.py) from empty library
caches until the next round would pass --seconds, checks every answer, and
prints one `name value unit` line per metric, `info` and `env` lines and,
last, the result object {"correct", "attempted", "failed", "metrics"}.  It
exits 1 when a check fails or when the checkout has no src/serrewt.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s          median wall time of one round
  cpu_s           median CPU time of one round, this process plus its workers
  items_per_s     items checked, N certified or queries answered, per second
  latency_p50_ms, latency_p90_ms
                  per prime (a run_suite call over all checks), per certified
                  N (brauer-cert: the sampled N at p >= 17) or per query
  setup_s         median over fresh interpreters of the time from launch to
                  the first workload call (imports and inputs)
  peak_rss_mb     high-water RSS of this process plus that of its largest worker
failed_ratio is printed as well; the result carries it as failed/attempted.

--trace 1 spends half the time on untraced rounds and half on traced ones
(tracer.py) and reports the per_layer metrics: per-module self time, the
named per-function times and counts, and the tracing overhead, as averages
per traced round.  Spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
clock = time.perf_counter


def load_library():
    """Import serrewt from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "serrewt" / "__init__.py").is_file():
        raise SystemExit(f"error: no serrewt package under {src}")
    sys.path.insert(0, str(src))
    import serrewt
    from serrewt import cli, galois_params, oracle, recipes, verify, weights
    if Path(serrewt.__file__).resolve().parent != (src / "serrewt").resolve():
        raise SystemExit(f"error: serrewt imported from {serrewt.__file__}, not {src}")
    return {"weights": weights, "galois_params": galois_params, "recipes": recipes,
            "oracle": oracle, "verify": verify, "cli": cli}


def library_caches():
    found = {id(v): v for mod in tracer.serrewt_modules() for v in vars(mod).values()
             if callable(getattr(v, "cache_clear", None))}
    return list(found.values())


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Harness:
    """Runs rounds of one workload and checks their outputs."""

    def __init__(self, workload, caches):
        self.wl = workload
        self.caches = caches
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.last_outputs = []

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
        if self.tracer:
            self.tracer.clear_caches()

    def round(self) -> dict:
        wl, trc = self.wl, self.tracer
        self.clear()
        if trc:
            trc.begin_round()
        requests = wl.next_round()
        latencies, outputs = [], []
        cpu0, start = cpu_now(), clock()
        for req in requests:
            t = clock()
            try:
                outputs.append(wl.call(req))
            except Exception as exc:  # a crash is one failed item, not the end of the run
                traceback.print_exc()
                outputs.append(exc)
            if wl.is_sample(req):
                latencies.append(clock() - t)
        wall, cpu = clock() - start, cpu_now() - cpu0
        if trc:
            trc.end_round()
        items = 0
        for req, out in zip(requests, outputs):
            if isinstance(out, Exception):
                items += 1
                self.failures.append(f"{req}: raised {out!r}")
                continue
            items += wl.items(req, out)
            self.failures += wl.failures(req, out)
        self.attempted += items
        self.last_outputs = outputs
        return {"wall": wall, "cpu": cpu, "latencies": latencies, "items": items}

    def rounds(self, budget: float) -> list:
        """Rounds until the next one, at the median pace, would end past budget."""
        done, start = [], clock()
        while True:
            done.append(self.round())
            pace = statistics.median(r["wall"] for r in done)
            if clock() - start + pace > budget:
                return done

    def finish(self) -> None:
        attempted, bad = self.wl.finish(self.last_outputs, self.clear)
        self.attempted += attempted
        self.failures += bad


def quantile(values, q: float) -> float:
    """Exclusive-method quantile.  When each of k rounds has the same m
    request kinds, the 0.5 and 0.9 points for an odd m (suite-serial:
    9 primes) or for m = 25 (brauer-cert) fall inside one kind's cluster of
    k values, whatever k, instead of between two clusters."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def end_to_end(rounds, setup_s, rss_mb) -> dict:
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "items_per_s": sum(r["items"] for r in rounds) / sum(r["wall"] for r in rounds),
        "latency_p50_ms": 1000 * quantile(latencies, 0.5),
        "latency_p90_ms": 1000 * quantile(latencies, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def measure_setup(workload: str, seed: int, probes: int) -> float:
    """Median time from launching a fresh interpreter to its being ready to
    make the first workload call."""
    times = []
    for _ in range(probes):
        start = clock()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(clock() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def pool_startup(lib, harness, jobs: int) -> float:
    """run_suite on a tiny input at jobs=nproc minus the same at jobs=1."""
    if jobs < 2:
        return 0.0

    def once(j):
        harness.clear()
        start = clock()
        lib["verify"].run_suite([5], ["main"], jobs=j)
        return clock() - start

    return statistics.median(once(jobs) for _ in range(3)) - statistics.median(
        once(1) for _ in range(3))


def per_layer(wl, trc, untraced, traced, reports, pool_startup_s) -> dict:
    """Per-layer metrics, per traced round; `reports` are the run_suite
    reports of the last untraced round, and the pool metrics come from the
    workload's jobs=nproc pass."""
    n = trc.rounds
    s = trc.summary()
    incl, calls, self_s = s["incl"], s["calls"], s["self"]
    first, steady, macs, steady_macs = trc.brauer_times()
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    m = {
        "weights.decompose_sym.calls": trc.cache_lookups / n,
        "weights.decompose_sym.s": incl.get("weights.decompose_sym", 0.0) / n,
        "weights.decompose_cache.hit_ratio":
            trc.cache_hits / trc.cache_lookups if trc.cache_lookups else 0.0,
        "weights.sym_class.calls": calls.get("weights.sym_class", 0) / n,
    }
    for name in ("weights.sym_class", "weights.k_min_closed", "galois_params.enumerate_params",
                 "recipes.serre_k", "recipes.k_min_of_set", "recipes.bdj_weight_set",
                 "recipes.mu_support", "recipes.bm_set", "recipes.weight_report",
                 "recipes.k_cris", "oracle.k_min_search", "oracle.cyclotomic_poly",
                 "oracle.p_regular_classes"):
        m[f"{name}.s"] = incl.get(name, 0.0) / n
    m["recipes.k_cris.k_scanned"] = trc.k_scanned / n
    m["oracle.k_min_search.calls"] = calls.get("oracle.k_min_search", 0) / n
    m["oracle.verify_decomposition.first_s"] = statistics.mean(first) if first else 0.0
    m["oracle.verify_decomposition.steady_s"] = statistics.mean(steady) if steady else 0.0
    m["oracle.residual_macs"] = macs / n
    # Residual MACs over the whole time of the steady verify_decomposition
    # calls (count building and decompositions included, table set-up not),
    # so a lower bound on the rate of the matmul alone.
    m["oracle.residual_gmacs_per_s"] = steady_macs / sum(steady) / 1e9 if steady else 0.0
    # from the program's own ms fields
    ms = {c: 0 for c in ("main", "bm", "kmin", "recursion", "brauer")}
    for rep in reports:
        for run in rep["runs"]:
            ms[run["check"]] += run["ms"]
    for check, total in ms.items():
        m[f"verify.run_suite.{check}.s"] = total / 1000
    m["verify.pool_startup_s"] = pool_startup_s
    jobs = wl.parallel_jobs
    m["verify.pools_opened"] = sum(
        1 for rep in wl.parallel_reports for run in rep["runs"]
        if jobs > 1 and run["params_checked"] >= 2 * jobs)
    m["verify.parallel_efficiency"] = (
        untraced_wall / (wl.parallel_wall * jobs) if wl.parallel_wall and jobs > 1 else 0.0)
    for sub in ("decompose", "weights", "kmin", "table"):
        m[f"cli.main.{sub}.s"] = incl.get(f"cli.main.{sub}", 0.0) / n
    for mod in ("weights", "galois_params", "recipes", "oracle", "verify", "cli"):
        m[f"{mod}.self_s"] = self_s.get(mod, 0.0) / n
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    m["trace.self_coverage"] = sum(self_s.values()) / sum(r["wall"] for r in traced)
    m["trace.spans"] = len(trc.spans) / n
    m["query.repeat_share"] = getattr(wl, "repeat_share", 0.0)
    return m


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):
        blas_desc = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha(), "nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_desc.strip(), "cpu": cpu}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(lib, args, scale, probes: int):
    """One measured run; returns (metrics, attempted, failures, info)."""
    cores = nproc()
    wl = workloads.WORKLOADS[args.workload](lib, args.seed, scale, cores)
    harness = Harness(wl, library_caches())
    info = {"workload": wl.name, "seed": args.seed, "jobs": wl.jobs}
    if not args.trace:
        rounds = harness.rounds(args.seconds)
        rss = peak_rss_mb()
        harness.finish()
        metrics = end_to_end(rounds, measure_setup(wl.name, args.seed, probes), rss)
        info.update(rounds=len(rounds), latency_samples=sum(len(r["latencies"]) for r in rounds),
                    round_walls=[r["wall"] for r in rounds])
    else:
        untraced = harness.rounds(args.seconds / 2)
        reports = [out for out in harness.last_outputs if isinstance(out, dict)]
        harness.finish()
        pool_s = pool_startup(lib, harness, cores)
        trc = harness.tracer = tracer.Tracer(wl.name)
        trc.install()
        try:
            traced = harness.rounds(args.seconds / 2)
        finally:
            trc.uninstall()
        metrics = per_layer(wl, trc, untraced, traced, reports, pool_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}.spans.jsonl.gz"
        trc.write(str(spans_path))
        info.update(untraced_rounds=len(untraced), traced_rounds=len(traced),
                    spans_file=str(spans_path.relative_to(ROOT)))
    return metrics, harness.attempted, harness.failures, info


def units(trace: bool) -> dict:
    spec = json.loads(BENCH_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(metrics, unit_of, attempted, failures, info, env) -> dict:
    for name, unit in unit_of.items():
        print(f"{name} {metrics[name]!r} {unit}")
    failed = len(failures)
    print(f"failed_ratio {failed / attempted if attempted else 1.0!r} ratio "
          f"({failed} of {attempted})")
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("info " + json.dumps(info))
    print("env " + json.dumps(env))
    return {"correct": not failures and attempted > 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in unit_of.items()}}


def smoke(lib) -> int:
    """Every workload, untraced and traced, at p <= 7, plus planted faults
    that each checker must catch."""
    ok = True
    missed = workloads.planted_faults(lib)
    if missed:
        print(f"smoke: checkers missed planted faults: {missed}", file=sys.stderr)
        ok = False
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.2, trace=trace)
            metrics, attempted, failures, _ = run(lib, args, workloads.SMOKE, 1)
            want = set(units(bool(trace)))
            bad = failures or set(metrics) != want or not attempted
            if trace and metrics["trace.self_coverage"] < 0.9:
                bad = True
            print(f"smoke {name} trace={trace}: {'FAIL' if bad else 'ok'} "
                  f"({attempted} items)")
            if bad:
                print(f"  failures={failures[:3]} missing={want - set(metrics)} "
                      f"extra={set(metrics) - want}", file=sys.stderr)
                ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS), default="suite-serial")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of everything")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not BENCH_JSON.is_file():
        print(f"error: {BENCH_JSON} is missing", file=sys.stderr)
        return 2
    lib = load_library()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](lib, args.seed, workloads.FULL, nproc()).next_round()
        print("ready", flush=True)
        return 0
    if args.smoke:
        return smoke(lib)
    metrics, attempted, failures, info = run(lib, args, workloads.FULL, SETUP_PROBES)
    env = environment()
    result = report(metrics, units(bool(args.trace)), attempted, failures, info, env)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "env": env, "failures": failures,
                               "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
