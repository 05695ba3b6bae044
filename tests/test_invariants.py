"""Internal invariants are explicit raises, so they hold under python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import serrewt
from serrewt.errors import InternalInvariantError
from serrewt.oracle import _poly_divmod

PACKAGE = Path(serrewt.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_no_numpy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "numpy"]
    assert found == []


CLOSED_FORM = {"k_min_closed", "_k_min"}


def test_scans_never_reach_the_closed_form():
    # k_min_search and k_cris, and the memoised _least_k behind them that
    # verify's main and kmin read, are checked against the closed form
    # (k_min_closed and the pair function _k_min behind it), so neither
    # they, nor the record whose B weights main scans, nor any package
    # function they call may use it
    defs, nodes = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                defs[node.name] = defs.get(node.name, set()) | names
                nodes[node.name] = node
    todo, seen = ["k_min_search", "k_cris", "_least_k", "_record"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        todo += [n for n in defs[name] & set(defs) if n not in seen and n not in CLOSED_FORM]
    assert {"_least_k", "_jh_sum", "mu_support", "_w_pairs", "_bm_weights"} <= seen
    # the checks and the report read the scan through these roots alone
    assert {"_record", "_least_k"} <= defs["_eval_main"] and "_least_k" in defs["_eval_kmin"]
    assert {"_record", "_least_k"} <= defs["weight_report"]
    # main's k_cris is the one _least_k scan of the B weights of its record
    main = nodes["_eval_main"]
    (unpack,) = [n for n in ast.walk(main) if isinstance(n, ast.Assign)
                 and isinstance(n.value, ast.Call) and getattr(n.value.func, "id", None) == "_record"]
    scans = [n for n in ast.walk(main)
             if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_least_k"]
    assert [ast.unparse(call.args[1]) for call in scans] == [unpack.targets[0].elts[1].id]
    assert CLOSED_FORM <= set(defs)
    assert sorted(name for name in seen if CLOSED_FORM & defs[name]) == []


def _is_coeffs(node):
    return isinstance(node, ast.Attribute) and node.attr == "_coeffs"


def test_no_class_dict_is_changed_in_place():
    # derived classes share dicts (decompose_sym and sym_class share the
    # cached decomposition), so a stored _coeffs is only ever bound whole,
    # and only where a class is built
    mutators = {"update", "pop", "popitem", "clear", "setdefault"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        builders = [f for f in ast.walk(tree)
                    if isinstance(f, ast.FunctionDef) and f.name in ("__init__", "_class")]
        allowed = {id(t) for f in builders for n in ast.walk(f) if isinstance(n, ast.Assign)
                   for target in n.targets for t in ast.walk(target) if _is_coeffs(t)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and _is_coeffs(node.value):
                bad = not isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.AugAssign):
                bad = any(_is_coeffs(n) for n in ast.walk(node.target))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                bad = node.func.attr in mutators and _is_coeffs(node.func.value)
            else:
                bad = _is_coeffs(node) and not isinstance(node.ctx, ast.Load) and id(node) not in allowed
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_breached_guard_raises_internal_invariant_error():
    with pytest.raises(InternalInvariantError):
        _poly_divmod((1, 2, 3), (1, 2))  # divisor is not monic


def _package_env():
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _run_optimized(*argv):
    return subprocess.run(
        [sys.executable, "-O", "-m", "serrewt.cli", *argv],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )


def test_cli_import_loads_no_numpy():
    code = "import serrewt.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_verify_under_optimize_flag():
    proc = _run_optimized("verify", "-p", "3")
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout


@pytest.mark.parametrize("argv, code", [
    (("verify", "-p", "2"), 2),
    (("verify", "-p", "24..28"), 2),
    (("kmin", "-p", "5", "-a", "1", "-b", "2", "--search"), 0),
    (("decompose", "-p", "5", "-N", "-1"), 2),
])
def test_exit_codes_under_optimize_flag(argv, code):
    proc = _run_optimized(*argv)
    assert proc.returncode == code, proc.stderr


def test_cli_import_loads_no_process_pool():
    # only verify --jobs > 1 opens a pool; it imports the pool module there
    code = ("import serrewt, serrewt.cli, sys; "
            "assert not {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


PUBLIC_NAMES = {
    "InertialParam", "InternalInvariantError", "Irreducible", "ParamError",
    "Reducible", "SerreWeight", "UnsupportedPrimeError", "VirtualClass",
    "bm_multiplicity", "decompose_sym", "enumerate_params", "k_cris",
    "k_min_search", "kisin_mu", "mu_support", "parse_param", "run_suite",
    "serre_k", "sym_class", "verify_decomposition", "weight_report",
}
RETIRED_NAMES = ("LevelOneError", "normalize_level2", "p_regular_classes",
                 "bdj_weight_set", "bm_set", "k_min_of_set", "k_min_closed")


def test_public_surface_is_pinned():
    assert sorted(serrewt.__all__) == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 21
    bound = {}
    exec("from serrewt import *", bound)
    assert set(bound) - {"__builtins__"} == PUBLIC_NAMES
    assert [name for name in RETIRED_NAMES if hasattr(serrewt, name)] == []
