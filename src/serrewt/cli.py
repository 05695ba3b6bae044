"""Command-line frontend.

Subcommands:

  decompose   Jordan-Holder factors of Sym^N
  kmin        minimal weight of a single Serre weight (closed form,
              optionally cross-checked against the scan oracle)
  weights     all recipe outputs for one inertial parameter (JSON input)
  verify      exhaustive per-prime theorem checks
  table       one row per inertial parameter at a prime

Common flags: --format {table|json|csv}, --out PATH; verify adds --jobs N.
When the first argument names a command, that command's parser alone reads
the rest; any other argv (none, -h, an unknown command, an option before
the command) goes to the top-level parser.
Exit codes: 0 success / all checks pass, 1 a verification check found
counterexamples, 2 usage or schema errors (including p = 2 and I/O
problems), 3 breached internal invariant.  The library is the only
validator: a ValueError from any library call (ParamError, LevelOneError
and UnsupportedPrimeError among them) or an OSError is a usage error and
exits 2, and an InternalInvariantError exits 3.  Environment:
SERREWT_JOBS, the default verify worker count; --jobs wins over it, and
either is capped at os.cpu_count().  The coverage of each verify check is
fixed by p (see serrewt.verify), and -p defaults to 3..47.

Output is deterministic byte-for-byte for fixed inputs except for the "ms"
timing fields of verification reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalInvariantError, UnsupportedPrimeError
from .galois_params import enumerate_params, parse_param
from .oracle import k_min_search
from .recipes import weight_report
from .verify import run_suite
from .weights import SerreWeight, decompose_sym, is_odd_prime, k_min_closed

DEFAULT_MAX_P = 47
# Bounds the primality loop, not the work: no suite finishes near it.  The
# largest range measured, verify -p 101..199 --jobs 1, takes 588 s at a peak
# RSS of 783 MB on 2 vCPUs; per prime, time and memory grow about as p^3.
MAX_RANGE_TOP = 10_000
FORMATS = ("table", "json", "csv")

TABLE_COLUMNS = (
    "type", "a", "b", "twist", "ratio", "shape", "lambda_equal",
    "k_serre", "k_min", "k_cris", "n_weights", "W", "B", "k_equal", "sets_equal",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


@lru_cache(maxsize=None)
def _build_parser() -> Tuple[_Parser, Dict[str, _Parser]]:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--out", metavar="PATH", default=None)

    top = _Parser(prog="serrewt", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", parents=[common],
                       help="Jordan-Holder factors of Sym^N")
    d.set_defaults(run=_cmd_decompose)
    d.add_argument("-p", type=int, required=True)
    d.add_argument("-N", type=int, required=True)

    k = sub.add_parser("kmin", parents=[common],
                       help="minimal weight of V(a,b)")
    k.set_defaults(run=_cmd_kmin)
    k.add_argument("-p", type=int, required=True)
    k.add_argument("-a", type=int, required=True)
    k.add_argument("-b", type=int, required=True)
    k.add_argument("--search", action="store_true",
                   help="also run the scan oracle and report agreement")

    w = sub.add_parser("weights", parents=[common],
                       help="k values and weight sets for one parameter")
    w.set_defaults(run=_cmd_weights)
    w.add_argument("param", metavar="PARAM_JSON",
                   help="inertial parameter as a JSON object")

    v = sub.add_parser("verify", parents=[common],
                       help="run exhaustive theorem checks")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("--jobs", type=int, default=None, metavar="N")
    v.add_argument("-p", dest="prime_range", default=None, metavar="RANGE",
                   help=f"prime, comma list, or A..B range (default 3..{DEFAULT_MAX_P})")
    v.add_argument("--checks", default="all",
                   help="comma list of main,bm,kmin,recursion,brauer or 'all'")

    t = sub.add_parser("table", parents=[common],
                       help="full per-prime table of all parameters")
    t.set_defaults(run=_cmd_table)
    t.add_argument("-p", type=int, required=True)

    return top, sub.choices


def _parse_prime_range(spec: Optional[str]) -> List[int]:
    """The primes of an A..B range or the integers of a comma list; run_suite checks them."""
    spec = f"3..{DEFAULT_MAX_P}" if spec is None else spec.strip()
    lo_s, dots, hi_s = spec.partition("..")
    if dots:
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"malformed prime range {spec!r}") from None
        if lo <= 2 <= hi:
            raise UnsupportedPrimeError("p = 2 is not supported; start the range at 3")
        if hi > MAX_RANGE_TOP:
            raise ValueError(f"a prime range may end at most at {MAX_RANGE_TOP}, got {spec!r}")
        return [p for p in range(max(lo, 3), hi + 1) if is_odd_prime(p)]
    try:
        primes = [int(part) for part in spec.split(",")]
    except ValueError:
        raise ValueError(f"malformed prime list {spec!r}") from None
    _require_below_top(max(primes))
    return primes


def _require_below_top(p: int) -> None:
    if p > MAX_RANGE_TOP:  # verify and table enumerate every parameter at p
        raise ValueError(f"verify and table take p <= {MAX_RANGE_TOP}, got {p}")


def _emit(text: str, out_path: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _weights_str(objs: List[Dict[str, int]]) -> str:
    return " ".join(f"V({o['a']},{o['b']})" for o in objs)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args: argparse.Namespace) -> int:
    factors = decompose_sym(args.p, args.N).to_json_obj()
    if args.format == "csv":
        _emit(_csv_text([(f["a"], f["b"], f["mult"]) for f in factors]), args.out)
    elif args.format == "json":
        _emit(json.dumps(factors), args.out)
    else:
        lines = [f"V({f['a']},{f['b']}) x {f['mult']}" for f in factors]
        total = sum(f["mult"] * f["b"] for f in factors)
        ok = "ok" if total == args.N + 1 else "MISMATCH"
        lines.append(f"dimension check: sum mult*b = {total} = N+1 [{ok}]")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_kmin(args: argparse.Namespace) -> int:
    w = SerreWeight(args.p, args.a, args.b)
    result = {"p": args.p, "a": args.a, "b": args.b, "k_min": k_min_closed(w)}
    shown = [result["k_min"]]  # the values of the csv row after (p, a, b), and of the table
    if args.search:
        result["k_min_search"] = k_min_search(w)
        result["match"] = result["k_min"] == result["k_min_search"]
        shown += [result["k_min_search"], "match" if result["match"] else "MISMATCH"]
    if args.format == "json":
        _emit(json.dumps(result), args.out)
    elif args.format == "csv":
        _emit(_csv_text([[args.p, args.a, args.b] + shown]), args.out)
    else:
        _emit(", ".join(map(str, shown)), args.out)
    return 0 if result.get("match", True) else 3


def _param_row(report: Dict[str, object]) -> Dict[str, object]:
    # the first seven columns are parameter fields, blank where a type has none
    row: Dict[str, object] = {c: report["param"].get(c, "") for c in TABLE_COLUMNS[:7]}
    ks, km, kc = report["k_serre"], report["k_min"], report["k_cris"]
    w_objs, b_objs = report["W"], report["B"]
    row.update({
        "k_serre": ks,
        "k_min": km,
        "k_cris": kc,
        "n_weights": len(w_objs),
        "W": _weights_str(w_objs),
        "B": _weights_str(b_objs),
        "k_equal": ks == km == kc,
        "sets_equal": w_objs == b_objs,
    })
    return row


def _cmd_weights(args: argparse.Namespace) -> int:
    report = weight_report(parse_param(args.param))
    if args.format == "json":
        _emit(json.dumps(report), args.out)
    elif args.format == "csv":
        row = _param_row(report)
        _emit(_csv_text([TABLE_COLUMNS, [row[c] for c in TABLE_COLUMNS]]), args.out)
    else:
        lines = [
            f"param:  {json.dumps(report['param'])}",
            f"k_serre: {report['k_serre']}",
            f"k_min:   {report['k_min']}",
            f"k_cris:  {report['k_cris']}",
            f"W: {_weights_str(report['W'])}",
            f"B: {_weights_str(report['B'])}",
            "mu_nonzero: "
            + ", ".join(f"(n={e['n']}, m={e['m']}) -> {e['mu']}"
                        for e in report["mu_nonzero"]),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    primes = _parse_prime_range(args.prime_range)
    checks = args.checks if args.checks == "all" else args.checks.split(",")
    jobs = args.jobs
    if jobs is None:
        raw = os.environ.get("SERREWT_JOBS", str(os.cpu_count() or 1))
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"environment variable SERREWT_JOBS must be an integer, got {raw!r}") from None
    aggregate = run_suite(primes, checks, jobs=jobs)
    if args.format == "json":
        _emit(json.dumps(aggregate), args.out)
    elif args.format == "csv":
        rows = [
            (r["p"], r["check"], r["params_checked"], len(r["failures"]), r["ms"])
            for r in aggregate["runs"]
        ]
        _emit(_csv_text(rows), args.out)
    else:
        lines = []
        for r in aggregate["runs"]:
            status = "PASS" if not r["failures"] else f"FAIL ({len(r['failures'])})"
            lines.append(
                f"p={r['p']:>3} {r['check']:<9} {r['params_checked']:>6} checked  "
                f"{r['ms']:>6} ms  {status}"
            )
        lines.append("all checks passed" if aggregate["pass"] else "FAILURES FOUND")
        _emit("\n".join(lines), args.out)
    return 0 if aggregate["pass"] else 1


def _cmd_table(args: argparse.Namespace) -> int:
    _require_below_top(args.p)
    rows = [_param_row(weight_report(param)) for param in enumerate_params(args.p)]
    cols = TABLE_COLUMNS
    if args.format == "json":
        _emit(json.dumps(rows), args.out)
    elif args.format == "csv":
        _emit(_csv_text([cols] + [[row[c] for c in cols] for row in rows]), args.out)
    else:
        widths = {c: max(len(c), max(len(str(row[c])) for row in rows)) for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for row in rows:
            lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in cols))
        _emit("\n".join(lines), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        top, commands = _build_parser()
        parser = commands.get(argv[0]) if argv else None
        args = top.parse_args(argv) if parser is None else parser.parse_args(argv[1:])
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant breached: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
