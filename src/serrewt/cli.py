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
validator: a ValueError from any library call (ParamError and
UnsupportedPrimeError among them) or an OSError is a usage error and
exits 2, and an InternalInvariantError exits 3.  verify --jobs N runs at
most N processes, capped at the CPUs this process may run on, whose number
is also the default.  The coverage of each verify check is fixed by p (see
serrewt.verify), and -p defaults to 3..47.

Output is deterministic byte-for-byte for fixed inputs except for the "ms"
timing fields of verification reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalInvariantError, UnsupportedPrimeError
from .galois_params import enumerate_params, parse_param
from .oracle import k_min_search
from .recipes import weight_report
from .verify import _usable_cpus, run_suite
from .weights import SerreWeight, decompose_sym, is_odd_prime, k_min_closed

DEFAULT_MAX_P = 47
# Bounds the primality loop, not the work: no suite finishes near it.  The
# largest range measured, verify -p 101..199 --jobs 1, takes 105 s at a peak
# RSS of 426 MB on 2 vCPUs; per prime, time and memory grow about as p^3.
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


def _weights_str(objs: List[Dict[str, int]]) -> str:
    return " ".join(f"V({o['a']},{o['b']})" for o in objs)


# ---------------------------------------------------------------------------
# subcommands
#
# Each command computes its result once and returns (exit code, JSON object,
# CSV rows thunk, table lines thunk); main renders the chosen format alone,
# so --format json builds no CSV rows or table lines.


def _cmd_decompose(args: argparse.Namespace) -> tuple:
    factors = decompose_sym(args.p, args.N).to_json_obj()

    def lines() -> List[str]:
        total = sum(f["mult"] * f["b"] for f in factors)
        ok = "ok" if total == args.N + 1 else "MISMATCH"
        return [f"V({f['a']},{f['b']}) x {f['mult']}" for f in factors] + [
            f"dimension check: sum mult*b = {total} = N+1 [{ok}]"]

    return 0, factors, lambda: [(f["a"], f["b"], f["mult"]) for f in factors], lines


def _cmd_kmin(args: argparse.Namespace) -> tuple:
    w = SerreWeight(args.p, args.a, args.b)
    result = {"p": args.p, "a": args.a, "b": args.b, "k_min": k_min_closed(w)}
    shown = [result["k_min"]]  # the values of the csv row after (p, a, b), and of the table
    if args.search:
        result["k_min_search"] = k_min_search(w)
        result["match"] = result["k_min"] == result["k_min_search"]
        shown += [result["k_min_search"], "match" if result["match"] else "MISMATCH"]
    return (0 if result.get("match", True) else 3, result,
            lambda: [[args.p, args.a, args.b] + shown], lambda: [", ".join(map(str, shown))])


def _param_row(report: Dict[str, object]) -> Dict[str, object]:
    # keys in TABLE_COLUMNS order; the parameter fields are blank where a type has none
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


def _cmd_weights(args: argparse.Namespace) -> tuple:
    report = weight_report(parse_param(args.param))
    return 0, report, lambda: [TABLE_COLUMNS, list(_param_row(report).values())], lambda: [
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


def _cmd_verify(args: argparse.Namespace) -> tuple:
    primes = _parse_prime_range(args.prime_range)
    checks = args.checks if args.checks == "all" else args.checks.split(",")
    aggregate = run_suite(primes, checks, jobs=_usable_cpus() if args.jobs is None else args.jobs)
    runs = aggregate["runs"]

    def lines() -> List[str]:
        return [f"p={r['p']:>3} {r['check']:<9} {r['params_checked']:>6} checked  {r['ms']:>6} ms  "
                + (f"FAIL ({len(r['failures'])})" if r["failures"] else "PASS") for r in runs
                ] + ["all checks passed" if aggregate["pass"] else "FAILURES FOUND"]

    return (0 if aggregate["pass"] else 1, aggregate, lambda: [
        (r["p"], r["check"], r["params_checked"], len(r["failures"]), r["ms"]) for r in runs], lines)


def _cmd_table(args: argparse.Namespace) -> tuple:
    _require_below_top(args.p)
    rows = [_param_row(weight_report(param)) for param in enumerate_params(args.p)]

    def lines() -> List[str]:
        grid = [dict(zip(TABLE_COLUMNS, TABLE_COLUMNS))] + rows  # the header first
        widths = {c: max(len(str(row[c])) for row in grid) for c in TABLE_COLUMNS}
        return ["  ".join(str(row[c]).ljust(widths[c]) for c in TABLE_COLUMNS) for row in grid]

    return 0, rows, lambda: [TABLE_COLUMNS] + [list(row.values()) for row in rows], lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        top, commands = _build_parser()
        parser = commands.get(argv[0]) if argv else None
        args = top.parse_args(argv) if parser is None else parser.parse_args(argv[1:])
        code, obj, csv_rows, table_lines = args.run(args)
        # the one render path: build the chosen format alone, end it with a
        # newline if it lacks one, and write it to stdout or to --out
        if args.format == "json":
            text = json.dumps(obj)
        elif args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(csv_rows())
            text = buf.getvalue()
        else:
            text = "\n".join(table_lines())
        if not text.endswith("\n"):
            text += "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
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
