"""Tests for the command-line frontend, driven in-process via main()."""

import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from serrewt import cli, verify
from serrewt.cli import main
from serrewt.galois_params import SHAPE_SPLIT, enumerate_params, param_to_dict

TRES5 = '{"p":5,"type":"reducible","twist":0,"ratio":1,"shape":"tres","lambda_equal":true}'
EX23 = '{"p":5,"type":"reducible","twist":0,"ratio":1,"shape":"split","lambda_equal":false}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cap_address_space(cap):
    resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))


def run_capped(*argv, cap=1 << 30):
    """The CLI on argv in a fresh process capped at `cap` bytes of address
    space (1 GiB by default) and 10 s, so that a large-p regression fails
    fast instead of exhausting the machine's memory; the cap is set in the
    child only.  Returns (code, stdout, stderr, wall seconds)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "serrewt.cli", *argv], capture_output=True, text=True,
                          timeout=10, env=env, preexec_fn=lambda: _cap_address_space(cap))
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


BIG_P = "100000000000000000039"  # a 21-digit prime: Miller-Rabin decides it


# ---------------------------------------------------------------------------
# output bytes


# case -> {"argv", "stdout"}: stdout of every subcommand, byte for byte,
# recorded before the CLI left input validation to the library.  Only the
# "ms" timing fields of verify reports are masked, in each format.
OUTPUT_BYTES = json.loads((Path(__file__).parent / "cli_output_bytes.json").read_text(encoding="utf-8"))
MS_FIELD = re.compile(r'(?<="ms": )\d+|(?<=,)\d+$|(?<=checked  )[ \d]{5}\d(?= ms  )', re.M)


@pytest.mark.parametrize("case", sorted(OUTPUT_BYTES))
def test_output_bytes(capsys, tmp_path, case):
    # each case runs twice: to stdout, and with --out, where the file holds
    # the same bytes and stdout stays empty
    argv = OUTPUT_BYTES[case]["argv"]
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv)
    out_code, out_stdout, out_err = run(capsys, *argv, "--out", str(target))
    written = target.read_bytes().decode("utf-8")
    if argv[0] == "verify":
        out, written = MS_FIELD.sub("#", out), MS_FIELD.sub("#", written)
    assert (code, out, err) == (0, OUTPUT_BYTES[case]["stdout"], "")
    assert (out_code, out_stdout, out_err, written) == (0, "", "", OUTPUT_BYTES[case]["stdout"])


# ---------------------------------------------------------------------------
# decompose


def test_decompose_csv(capsys):
    code, out, _ = run(capsys, "decompose", "-p", "5", "-N", "5", "--format", "csv")
    assert code == 0
    assert out == "0,2,1\n1,4,1\n"


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "-p", "3", "-N", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj) == 3
    assert obj == sorted(obj, key=lambda o: (o["a"], o["b"]))


def test_decompose_table_with_dimension_check(capsys):
    code, out, _ = run(capsys, "decompose", "-p", "7", "-N", "0")
    assert code == 0
    assert "V(0,1) x 1" in out
    assert "[ok]" in out


def test_decompose_usage_errors(capsys):
    assert run(capsys, "decompose", "-p", "4", "-N", "1")[0] == 2
    assert run(capsys, "decompose", "-p", "5", "-N", "-1")[0] == 2
    assert run(capsys, "decompose", "-p", "5")[0] == 2  # missing -N


def test_decompose_huge_n(capsys):
    # N = 10**30 = k(p^2 - 1) at p = 3 with k = 1.25e29: k copies of one
    # period of peeling steps plus the factor V(0,1) of Sym^0
    k = 125 * 10**27
    code, out, err = run(capsys, "decompose", "-p", "3", "-N", str(10**30), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == [
        {"a": 0, "b": 1, "mult": k + 1}, {"a": 0, "b": 3, "mult": k},
        {"a": 1, "b": 1, "mult": k}, {"a": 1, "b": 3, "mult": k},
    ]


def test_decompose_21_digit_prime():
    # Sym^5 is one factor for p > 5
    code, out, err, seconds = run_capped("decompose", "-p", BIG_P, "-N", "5", "--format", "csv")
    assert (code, out, err) == (0, "0,6,1\n", "")
    assert seconds < 1


# ---------------------------------------------------------------------------
# kmin


def test_kmin_plain(capsys):
    code, out, _ = run(capsys, "kmin", "-p", "5", "-a", "1", "-b", "2")
    assert (code, out.strip()) == (0, "9")
    code, out, _ = run(capsys, "kmin", "-p", "5", "-a", "0", "-b", "4")
    assert (code, out.strip()) == (0, "5")


def test_kmin_search(capsys):
    code, out, _ = run(capsys, "kmin", "-p", "3", "-a", "1", "-b", "3", "--search")
    assert code == 0
    assert out.strip() == "8, 8, match"


def test_kmin_search_21_digit_prime():
    # the scan visits the k of one residue class lazily, not all p^2 of them
    code, out, err, seconds = run_capped("kmin", "-p", BIG_P, "-a", "0", "-b", "1", "--search")
    assert (code, out, err) == (0, "2, 2, match\n", "")
    assert seconds < 1


def test_lone_scan_at_p_2003_fits_384_mib():
    # the scan reads each of about p+1 Sym^N once, and every decomposition
    # holds its residue's shared key tuples, not copies of its own
    code, out, err, _ = run_capped("kmin", "-p", "2003", "-a", "2001", "-b", "2003", "--search",
                                   "--format", "json", cap=384 << 20)
    assert (code, err) == (0, "")
    assert json.loads(out)["match"] is True


def test_kmin_json(capsys):
    code, out, _ = run(capsys, "kmin", "-p", "5", "-a", "1", "-b", "2",
                       "--format", "json", "--search")
    obj = json.loads(out)
    assert obj == {"p": 5, "a": 1, "b": 2, "k_min": 9, "k_min_search": 9, "match": True}


def test_kmin_search_mismatch_exits_3(capsys, monkeypatch, tmp_path):
    # a planted wrong scan, one above the true k_min = 9: every format
    # reports the mismatch, and the exit code is 3, also with --out
    real = cli.k_min_search
    monkeypatch.setattr(cli, "k_min_search", lambda w: real(w) + 1)
    argv = ("kmin", "-p", "5", "-a", "1", "-b", "2", "--search")
    assert run(capsys, *argv) == (3, "9, 10, MISMATCH\n", "")
    assert run(capsys, *argv, "--format", "json") == (
        3, '{"p": 5, "a": 1, "b": 2, "k_min": 9, "k_min_search": 10, "match": false}\n', "")
    assert run(capsys, *argv, "--format", "csv") == (3, "5,1,2,9,10,MISMATCH\n", "")
    target = tmp_path / "k.csv"
    assert run(capsys, *argv, "--format", "csv", "--out", str(target)) == (3, "", "")
    assert target.read_bytes() == b"5,1,2,9,10,MISMATCH\n"


def test_kmin_out_of_range(capsys):
    assert run(capsys, "kmin", "-p", "5", "-a", "4", "-b", "2")[0] == 2
    assert run(capsys, "kmin", "-p", "5", "-a", "0", "-b", "6")[0] == 2


# ---------------------------------------------------------------------------
# weights


def test_weights_tres(capsys):
    code, out, _ = run(capsys, "weights", TRES5)
    assert code == 0
    assert "k_serre: 6" in out and "k_min:   6" in out and "k_cris:  6" in out


def test_weights_example_2_3(capsys):
    code, out, _ = run(capsys, "weights", EX23, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k_serre"] == obj["k_min"] == obj["k_cris"] == 2


def test_weights_irreducible(capsys):
    code, out, _ = run(
        capsys, "weights", '{"p":5,"type":"irreducible","a":0,"b":3}', "--format", "json"
    )
    obj = json.loads(out)
    assert obj["k_serre"] == obj["k_min"] == obj["k_cris"] == 4
    assert obj["W"] == obj["B"]


def test_weights_21_digit_prime():
    # k_cris scans Sym^(k-2) up to k = p^2 lazily; V(0, 1) stops it at k = 2
    peu = '{"p":%s,"type":"reducible","twist":0,"ratio":1,"shape":"peu","lambda_equal":true}' % BIG_P
    code, out, err, seconds = run_capped("weights", peu, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["k_cris"] == 2
    assert seconds < 1


def test_weights_schema_violation(capsys):
    bad = '{"p":5,"type":"reducible","twist":0,"ratio":2,"shape":"tres","lambda_equal":true}'
    code, _, err = run(capsys, "weights", bad)
    assert code == 2
    assert "error" in err


def test_weights_round_trip_param(capsys):
    code, out, _ = run(capsys, "weights", TRES5, "--format", "json")
    obj = json.loads(out)
    assert json.dumps(obj["param"]) == json.dumps(json.loads(TRES5))


# The tail of `weights --format json`, byte for byte, for every split
# parameter at p in {3, 5, 7} whose mu support has n = p-2, i.e. ratio 0,
# keyed by (p, twist, lambda_equal).  No check reads the size of a positive
# mu, so this regression pin is what sees the 4 / 2 multiplicities there.
SPLIT_MU_AT_P_MINUS_2 = {
    (3, 0, True): '"mu_nonzero": [{"n": 1, "m": 0, "mu": 4}]}\n',
    (3, 0, False): '"mu_nonzero": [{"n": 1, "m": 0, "mu": 2}]}\n',
    (3, 1, True): '"mu_nonzero": [{"n": 1, "m": 1, "mu": 4}]}\n',
    (3, 1, False): '"mu_nonzero": [{"n": 1, "m": 1, "mu": 2}]}\n',
    (5, 0, True): '"mu_nonzero": [{"n": 3, "m": 0, "mu": 4}]}\n',
    (5, 0, False): '"mu_nonzero": [{"n": 3, "m": 0, "mu": 2}]}\n',
    (5, 1, True): '"mu_nonzero": [{"n": 3, "m": 1, "mu": 4}]}\n',
    (5, 1, False): '"mu_nonzero": [{"n": 3, "m": 1, "mu": 2}]}\n',
    (5, 2, True): '"mu_nonzero": [{"n": 3, "m": 2, "mu": 4}]}\n',
    (5, 2, False): '"mu_nonzero": [{"n": 3, "m": 2, "mu": 2}]}\n',
    (5, 3, True): '"mu_nonzero": [{"n": 3, "m": 3, "mu": 4}]}\n',
    (5, 3, False): '"mu_nonzero": [{"n": 3, "m": 3, "mu": 2}]}\n',
    (7, 0, True): '"mu_nonzero": [{"n": 5, "m": 0, "mu": 4}]}\n',
    (7, 0, False): '"mu_nonzero": [{"n": 5, "m": 0, "mu": 2}]}\n',
    (7, 1, True): '"mu_nonzero": [{"n": 5, "m": 1, "mu": 4}]}\n',
    (7, 1, False): '"mu_nonzero": [{"n": 5, "m": 1, "mu": 2}]}\n',
    (7, 2, True): '"mu_nonzero": [{"n": 5, "m": 2, "mu": 4}]}\n',
    (7, 2, False): '"mu_nonzero": [{"n": 5, "m": 2, "mu": 2}]}\n',
    (7, 3, True): '"mu_nonzero": [{"n": 5, "m": 3, "mu": 4}]}\n',
    (7, 3, False): '"mu_nonzero": [{"n": 5, "m": 3, "mu": 2}]}\n',
    (7, 4, True): '"mu_nonzero": [{"n": 5, "m": 4, "mu": 4}]}\n',
    (7, 4, False): '"mu_nonzero": [{"n": 5, "m": 4, "mu": 2}]}\n',
    (7, 5, True): '"mu_nonzero": [{"n": 5, "m": 5, "mu": 4}]}\n',
    (7, 5, False): '"mu_nonzero": [{"n": 5, "m": 5, "mu": 2}]}\n',
}


def split_mu_tails():
    """(p, twist, lambda_equal) -> the mu_nonzero tail of `weights --format
    json`, for every split parameter at p in {3, 5, 7} with ratio 0."""
    tails = {}
    for p in (3, 5, 7):
        for param in enumerate_params(p):
            if getattr(param, "shape", None) == SHAPE_SPLIT and param.ratio == 0:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["weights", json.dumps(param_to_dict(param)), "--format", "json"]) == 0
                text = out.getvalue()
                tails[(p, param.twist, param.lambda_equal)] = text[text.index('"mu_nonzero": '):]
    return tails


def test_weights_json_pins_split_mu_at_n_p_minus_2():
    assert split_mu_tails() == SPLIT_MU_AT_P_MINUS_2


# ---------------------------------------------------------------------------
# verify


def test_verify_single_prime(capsys):
    code, out, _ = run(capsys, "verify", "-p", "5", "--checks", "main")
    assert code == 0
    assert "PASS" in out and "all checks passed" in out


def test_verify_rejects_two(capsys):
    code, _, err = run(capsys, "verify", "-p", "2")
    assert code == 2
    code, _, err = run(capsys, "verify", "-p", "2..5")
    assert code == 2


def test_verify_malformed_range(capsys):
    assert run(capsys, "verify", "-p", "abc")[0] == 2
    assert run(capsys, "verify", "-p", "9..3")[0] == 2
    assert run(capsys, "verify", "-p", "9")[0] == 2


def test_verify_jobs_deterministic_json(capsys):
    code1, out1, _ = run(capsys, "verify", "-p", "5", "--checks", "main,bm",
                         "--jobs", "1", "--format", "json")
    code4, out4, _ = run(capsys, "verify", "-p", "5", "--checks", "main,bm",
                         "--jobs", "4", "--format", "json")
    assert code1 == code4 == 0

    def strip(text):
        obj = json.loads(text)
        for r in obj["runs"]:
            r["ms"] = 0
        return json.dumps(obj)

    assert strip(out1) == strip(out4)

    # more workers than any check has items
    code1, out1, _ = run(capsys, "verify", "-p", "3", "--jobs", "1", "--format", "json")
    code64, out64, _ = run(capsys, "verify", "-p", "3", "--jobs", "64", "--format", "json")
    assert code1 == code64 == 0
    assert strip(out1) == strip(out64)


def test_verify_a_real_pool_prints_as_one_process(capsys, monkeypatch):
    # one call that cuts 29 into two parts, run in two processes, and runs
    # 3 whole beside them
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)  # a process pool even on one CPU
    argv = ["verify", "-p", "3,29", "--checks", "main,bm,kmin,recursion,brauer", "--format", "json"]
    outs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert (code, err) == (0, "")
        outs.append(MS_FIELD.sub("#", out))
    assert outs[0] == outs[1]
    runs = json.loads(out)["runs"]
    assert [(r["p"], r["check"]) for r in runs] == [(p, c) for p in (3, 29) for c in argv[4].split(",")]


def test_verify_range_parses_inclusive(capsys):
    code, out, _ = run(capsys, "verify", "-p", "3..7", "--checks", "bm", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == ["3", "5", "7"]
    assert all(r[3] == "0" for r in rows)  # zero failures


def test_verify_brauer_needs_explicit(capsys):
    code, out, _ = run(capsys, "verify", "-p", "3", "--checks", "brauer", "--format", "csv")
    assert code == 0
    assert out.strip().split(",")[1:3] == ["brauer", "28"]  # N = 0..3p^2
    # no prime cap: p = 37 is certified like any other
    code, out, _ = run(capsys, "verify", "-p", "37", "--checks", "brauer", "--format", "csv")
    assert code == 0
    assert out.strip().split(",")[:4] == ["37", "brauer", "4108", "0"]


def test_verify_unknown_check(capsys):
    assert run(capsys, "verify", "-p", "5", "--checks", "nope")[0] == 2


@pytest.mark.parametrize("argv", [
    ("-p", "24..28"),
    ("-p", "1..1"),
    ("-p", "4..4", "--format", "json"),
])
def test_verify_range_without_odd_prime_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_verify_range_top_is_bounded_before_any_primality_test(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "-p", "3..10000000000000")
    assert (code, out) == (2, "") and str(cli.MAX_RANGE_TOP) in err
    assert time.perf_counter() - start < 1
    assert cli._parse_prime_range(f"{cli.MAX_RANGE_TOP - 30}..{cli.MAX_RANGE_TOP}")


@pytest.mark.parametrize("flag", ["--k-max", "--brauer-n-max", "--oracle-max-p"])
def test_verify_coverage_flags_are_gone(capsys, flag):
    assert run(capsys, "verify", "-p", "3", flag, "5")[0] == 2


# ---------------------------------------------------------------------------
# table


def test_table_p3(capsys):
    code, out, _ = run(capsys, "table", "-p", "3", "--format", "csv")
    assert code == 0
    reader = list(csv.reader(io.StringIO(out)))
    header, rows = reader[0], reader[1:]
    assert len(rows) == 21
    k_equal = header.index("k_equal")
    sets_equal = header.index("sets_equal")
    n_weights = header.index("n_weights")
    shape = header.index("shape")
    for cells in rows:
        assert cells[k_equal] == "True"
        assert cells[sets_equal] == "True"
        if cells[shape] == "tres":
            assert cells[n_weights] == "1"


def test_table_row_order_matches_enumeration(capsys):
    code, out, _ = run(capsys, "table", "-p", "3", "--format", "json")
    rows = json.loads(out)
    assert [r["type"] for r in rows[:3]] == ["irreducible"] * 3
    assert rows[3]["type"] == "reducible"


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "-p", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert len(target.read_text().strip().splitlines()) == 22


def test_table_unwritable_path(capsys):
    code, _, err = run(capsys, "table", "-p", "3", "--out", "/nonexistent/dir/t.csv")
    assert code == 2


def test_output_deterministic(capsys):
    a = run(capsys, "table", "-p", "5", "--format", "csv")
    b = run(capsys, "table", "-p", "5", "--format", "csv")
    assert a == b


@pytest.mark.parametrize("argv", [("weights", TRES5), ("decompose", "-p", "5", "-N", "30")],
                         ids=["weights", "decompose"])
def test_json_builds_no_csv_rows_or_table_lines(capsys, monkeypatch, argv):
    # query streams ask for --format json, so main must call neither the CSV
    # rows nor the table lines a command returns, and weights builds no row
    built, rows = [], []
    real_row = cli._param_row
    monkeypatch.setattr(cli, "_param_row", lambda report: rows.append(report) or real_row(report))

    def spy(cmd):
        def run_cmd(args):
            code, obj, csv_rows, table_lines = cmd(args)
            return (code, obj, lambda: built.append("csv") or csv_rows(),
                    lambda: built.append("table") or table_lines())
        return run_cmd

    for name in ("_cmd_weights", "_cmd_decompose"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    cli._build_parser.cache_clear()  # the parsers bind the spies
    try:
        seen = {}
        for fmt in ("json", "csv", "table"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, ""), fmt
            seen[fmt] = (list(built), len(rows))
            built.clear()
            rows.clear()
    finally:
        cli._build_parser.cache_clear()
    assert seen == {"json": ([], 0), "csv": (["csv"], int(argv[0] == "weights")),
                    "table": (["table"], 0)}


def test_parser_keeps_no_state_between_calls(capsys):
    # main builds its parsers once; calls in sequence must give what each
    # gives alone, on freshly built parsers, whichever parser reads them:
    # a command's own or, for --help and an unknown command, the top one
    calls = [
        ("kmin", "-p", "5", "-a", "1", "-b", "2", "--search"),
        ("--help",),
        ("kmin", "-p", "5", "-a", "1", "-b", "2"),
        ("decompse", "-p", "5", "-N", "30"),
        ("kmin", "-p", "5", "-a", "1", "--bogus"),
        ("--help",),
        ("decompose", "-p", "5", "-N", "30", "--format", "csv"),
        ("decompse", "-p", "5", "-N", "30"),
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    in_sequence = [run(capsys, *argv) for argv in calls]
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 2, 0, 0, 2]
    assert cli._build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# environment variables


def test_default_max_p_sets_the_default_range(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_MAX_P", 7)
    code, out, _ = run(capsys, "verify", "--checks", "bm", "--format", "csv")
    assert code == 0
    primes = [row.split(",")[0] for row in out.strip().splitlines()]
    assert primes == ["3", "5", "7"]


def test_verify_reads_no_worker_count_from_the_environment(capsys, monkeypatch):
    # SERREWT_JOBS once set the default worker count; a value that is no
    # int made this a usage error
    monkeypatch.delenv("SERREWT_JOBS", raising=False)
    argv = ("verify", "-p", "3", "--checks", "kmin")
    code, out, err = run(capsys, *argv)
    monkeypatch.setenv("SERREWT_JOBS", "x")
    env_code, env_out, env_err = run(capsys, *argv)
    assert (env_code, MS_FIELD.sub("#", env_out), env_err) == (0, MS_FIELD.sub("#", out), err)
    assert (code, err) == (0, "") and "PASS" in out


def test_verify_unwritable_out_path(capsys):
    code, out, err = run(capsys, "verify", "-p", "3", "--out", "/nonexistent/dir/r.json")
    assert code == 2
    assert out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# the error contract and --help

PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

# case -> argv: every one is a usage error
USAGE_ERRORS = {
    "decompose-bad-p": ("decompose", "-p", "4", "-N", "1"),
    "decompose-jobs-flag": ("decompose", "-p", "5", "-N", "3", "--jobs", "2"),
    "decompose-negative-n": ("decompose", "-p", "5", "-N", "-1"),
    "decompose-p-above-primality-bound": ("decompose", "-p", str(PRIMALITY_BOUND + 2), "-N", "5"),
    "kmin-bad-p": ("kmin", "-p", "4", "-a", "0", "-b", "1"),
    "kmin-bad-a": ("kmin", "-p", "5", "-a", "4", "-b", "2"),
    "table-bad-p": ("table", "-p", "4"),
    "table-p-above-limit": ("table", "-p", "1000003"),
    "weights-bad-p": ("weights", '{"p":4,"type":"irreducible","a":0,"b":3}'),
    "verify-two-in-list": ("verify", "-p", "3,2"),
    "verify-two-in-range": ("verify", "-p", "2..5"),
    "verify-composite-in-list": ("verify", "-p", "9"),
    "verify-reversed-range": ("verify", "-p", "9..3"),
    "verify-range-without-prime": ("verify", "-p", "24..28"),
    "verify-range-top-above-limit": ("verify", "-p", "3..10000000000000"),
    "verify-list-prime-above-limit": ("verify", "-p", "10007", "--checks", "kmin"),
    "verify-huge-prime-in-list": ("verify", "-p", "100000000000000000039", "--checks", "main"),
    "verify-empty-list-entry": ("verify", "-p", "3,,5"),
    "verify-malformed-prime": ("verify", "-p", "abc"),
    "verify-unknown-check": ("verify", "-p", "5", "--checks", "nope"),
    "verify-jobs-zero": ("verify", "-p", "3", "--jobs", "0"),
    "verify-jobs-negative": ("verify", "-p", "3", "--jobs", "-1"),
    "verify-unknown-flag": ("verify", "-p", "3", "--bogus"),
    "table-unwritable-out": ("table", "-p", "3", "--out", "/nonexistent/dir/t.csv"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_one_stderr_line_and_exit_2(capsys, case):
    code, out, err = run(capsys, *USAGE_ERRORS[case])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# case -> {"argv", "code", "stdout", "stderr"}: the exit code, stdout
# and stderr, byte for byte, of every USAGE_ERRORS case and of the argv
# forms argparse treats specially: --format=json, -p5, an abbreviated flag,
# a repeated flag, a -- separator, a negative value, a missing value, an
# unknown command, no arguments, an option before the command, the top-level
# --help and each command's --help.  Recorded before main handed a command's arguments to
# that command's parser alone.  Help is formatted at 200 columns, where
# CPython 3.10 to 3.13 print the same bytes.
USAGE_BYTES = json.loads((Path(__file__).parent / "cli_usage_bytes.json").read_text(encoding="utf-8"))


def test_usage_bytes_cover_every_usage_error():
    pinned = {case: tuple(USAGE_BYTES[case]["argv"]) for case in USAGE_ERRORS}
    assert pinned == USAGE_ERRORS


@pytest.mark.parametrize("case", sorted(USAGE_BYTES))
def test_usage_bytes(capsys, monkeypatch, case):
    pin = USAGE_BYTES[case]
    monkeypatch.setenv("COLUMNS", "200")
    assert run(capsys, *pin["argv"]) == (pin["code"], pin["stdout"], pin["stderr"])


def test_main_reads_sys_argv_when_argv_is_none(capsys, monkeypatch):
    # the serrewt console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["serrewt", "kmin", "-p", "5", "-a", "1", "-b", "2"])
    assert (main(), capsys.readouterr().out) == (0, "9\n")
    monkeypatch.setattr(sys, "argv", ["serrewt"])
    assert main() == 2
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


def test_top_help_names_no_module_function_or_exception(capsys):
    # the top-level --help is for users: commands, common flags, exit codes
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert re.search(r"\w+Error|serrewt\.\w|\b[a-z]+_[a-z]+|\b_\w|\w\(\)", out) is None, out
    for word in ("decompose", "kmin", "weights", "verify", "table", "--format", "--out", "Exit codes"):
        assert word in out


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: serrewt [-h] {decompose,kmin,weights,verify,table} ...\n")
    # a subcommand's help is its own usage
    code, out, err = run(capsys, "verify", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: serrewt verify") and "--checks" in out and "--jobs" in out
