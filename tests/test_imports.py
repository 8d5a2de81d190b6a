"""Every name a module of the package imports is used in that module, every
private module-level name is used in the package, only public calls enter an
errstate, every LAPACK call goes through kernel._lapack and each
eigensolver and Cholesky has one caller, no public decomposition or
admissibility call reaches a numpy.linalg wrapper, the norms go
through one helper, and no call of the package loads scipy (nor the CLI's
decompose the selftest module)."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supq
from supq import admissible, kernel
from supq.docio import dumps, matrix_to_doc
from supq.groups import random_g0
from supq.indefinite import Signature
from supq.selftest import random_admissible_an, random_admissible_q, random_decomposable, random_nonadmissible_q

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_unused_private_names():
    # every module-level _name of the package is read somewhere in the package
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= _private_definitions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no private names found"
    assert sorted(defined - used) == []


def test_errstate_is_entered_only_at_public_entries():
    # one np.errstate per public call, none below it: a private helper runs
    # under the errstate of the public call that reached it.  _quiet is
    # entered only as a decorator: numpy 2 enters one errstate object as a
    # with block only once per process
    quiet, blocks = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "_quiet" for d in node.decorator_list):
                quiet.add(node.name)
        blocks += [(path.stem, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.With)
                   and any(isinstance(item.context_expr, ast.Name) and item.context_expr.id == "_quiet"
                           for item in node.items)]
    assert {"eig", "sym", "dress", "decompose_gauss", "check_admissible_q"} <= quiet
    assert sorted(name for name in quiet if name.startswith("_")) == []
    assert blocks == []


# Every LAPACK call of the package, as
# (module, function, gufunc of kernel._lapack, its signature).
LAPACK_CALLS = [
    ("admissible", "_labelled_report", "eigh_lo", "D->dD"),
    ("admissible", "leading_minors", "det", "D->D"),
    ("groups", "_det_is_one", "det", "D->D"),
    ("groups", "_det_is_one", "svd", "D->d"),
    ("iwasawa", "q_log", "solve", "DD->D"),
    ("kernel", "_definite", "cholesky_lo", "D->D"),
    ("kernel", "_solve_lower", "solve", "DD->D"),
    ("kernel", "_spectrum", "eig", "D->DD"),
    ("kernel", "_spectrum", "eigvals", "D->D"),
    ("kernel", "mat_exp", "solve", "DD->D"),
    ("kernel", "solve_upper_triangular", "solve", "DD->D"),
]


def test_one_general_eigensolver_and_one_cholesky():
    # every LAPACK call goes through numpy's gufunc, bound once as
    # kernel._lapack, with an explicit complex signature: every general
    # eigensolve through kernel._spectrum, which holds the size cap and the
    # NoConvergence of a LAPACK failure, and every Cholesky through
    # kernel._definite, which holds the pivot rule.  No numpy.linalg
    # wrapper is left: groups._det_is_one takes its SVD through the gufunc
    # that np.linalg.cond calls.
    lapack, wrappers, binders = set(), set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        binders.update(path.stem for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and "_umath_linalg" in [a.name.split(".")[-1] for a in node.names])
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                    continue
                site, base = (path.stem, getattr(top, "name", "<module>"), node.func.attr), node.func.value
                if isinstance(base, ast.Name) and base.id == "_lapack":
                    signature = [k.value.value for k in node.keywords if k.arg == "signature"]
                    lapack.add((*site, *signature))
                elif (isinstance(base, ast.Attribute) and base.attr == "linalg" and isinstance(base.value, ast.Name)
                      and base.value.id == "np" and node.func.attr != "norm"):
                    wrappers.add(site)
    assert sorted(lapack) == LAPACK_CALLS
    assert sorted(wrappers) == []
    assert binders == {"kernel"}
    for _, _, gufunc, signature in LAPACK_CALLS:
        assert signature in getattr(kernel._lapack, gufunc).types, (gufunc, signature)


# The numpy.linalg wrappers that kernel._lapack replaces on every path below.
_WRAPPERS = ("cholesky", "det", "inv", "solve", "eig", "eigvals", "eigh")


def _outputs(value):
    """The arrays, numbers and strings of a call's result, in a fixed order."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _outputs(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _outputs(v)]
    return [np.asarray(value)]


def test_public_calls_reach_no_numpy_linalg_wrapper(monkeypatch):
    # at n = 4 every decomposition and admissibility call runs with the seven
    # wrappers raising, and returns the bits it returns without the patch
    sig = Signature(2, 2)
    rng = np.random.default_rng(31)
    b = random_admissible_an(sig, rng, gap=0.1, spread=0.7)
    g0 = random_g0(sig, rng, spread=0.7)
    g = random_decomposable(sig, rng, gap=0.1)
    good = random_admissible_q(sig, rng, gap=0.1, spread=0.7)
    bad = random_nonadmissible_q(sig, rng)
    calls = {
        "dress": lambda: supq.dress(b, g0, sig),
        "decompose_gauss": lambda: supq.decompose_gauss(g, sig),
        "decompose_gs": lambda: supq.decompose_gs(g, sig),
        "decompose_g_admissible": lambda: supq.decompose_g_admissible(g, sig),
        "check_admissible_q certified": lambda: supq.check_admissible_q(good, sig),
        "check_admissible_q refused": lambda: supq.check_admissible_q(bad, sig),
        "check_admissible_an": lambda: supq.check_admissible_an(b, sig),
        "q_log": lambda: supq.q_log(good, sig),
        "cone_preservation_check certified": lambda: supq.cone_preservation_check(good, sig, trials=1),
    }
    expected = {name: _outputs(call()) for name, call in calls.items()}
    assert expected["check_admissible_q certified"][0] and not expected["check_admissible_q refused"][0]
    assert kernel._quiet(admissible._cone_certificate)(good, sig, kernel.DEFAULT_TOL)  # True without a search

    def raising(*args, **kwargs):
        raise AssertionError("a numpy.linalg wrapper ran")

    for name in _WRAPPERS:
        monkeypatch.setattr(np.linalg, name, raising)
    for name, call in calls.items():
        got = _outputs(call())
        assert len(got) == len(expected[name]), name
        for x, y in zip(got, expected[name]):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_one_frobenius_norm_and_no_slow_triangle_helpers():
    # every norm goes through kernel._frobenius, which keeps the overflow
    # rescale, except the two whose output bits are draw contracts; the hot
    # path reads triangles through Signature.lower_mask and sets diagonals
    # through flat, not through np.tril or np.fill_diagonal
    norms, helpers = set(), set()
    for path in MODULES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "norm" and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                    norms.add((path.stem, getattr(top, "name", "<module>")))
                elif node.attr in ("tril", "fill_diagonal") and isinstance(node.value, ast.Name):
                    helpers.add((path.stem, node.attr))
    assert sorted(norms) == [("groups", "random_g0"), ("indefinite", "_sample_cones"), ("kernel", "_frobenius")]
    assert sorted(helpers) == []


# One call of each public path, the CLI's decompose and selftest included:
# none loads scipy.  The CLI imports the selftest module only for the
# selftest command.
_SCIPY_FREE_CALLS = """
import contextlib
import io
import json
import sys

import numpy as np
import supq
from supq import cli, kernel

sig = supq.Signature(1, 1)
boost = np.array([[np.cosh(0.3), np.sinh(0.3)], [np.sinh(0.3), np.cosh(0.3)]], dtype=complex)
b = np.array([[2.0, 0.5], [0.0, 0.5]], dtype=complex)
g = boost @ b
supq.decompose_gauss(g, sig)
supq.decompose_gs(g, sig)
supq.dress(b, boost, sig)
s = supq.sym(b, sig)
supq.classify([2.0, 1.0], sig)
supq.check_admissible_an(b, sig)
code = cli.main(["decompose", "--json", "--in", sys.argv[1]])
selftest = "supq.selftest" in sys.modules
exp0 = supq.mat_exp(np.zeros((2, 2)))
supq.q_log(s, sig)
supq.random_g0(supq.Signature(2, 1), 7, spread=3.0)
kernel.solve_upper_triangular(b, np.eye(2))
supq.cone_preservation_check(s, sig, trials=3)
with contextlib.redirect_stdout(io.StringIO()):
    selftest_code = cli.main(["selftest", "--nmax", "2", "--trials", "3"])
print(json.dumps({"code": code, "selftest": selftest, "selftest_code": selftest_code,
                  "scipy": "scipy" in sys.modules, "exp_is_identity": bool(np.array_equal(exp0, np.eye(2)))}))
"""


def test_numpy_only_paths_do_not_import_scipy(tmp_path):
    doc = tmp_path / "g.json"
    doc.write_text(dumps(matrix_to_doc(np.array([[2.0, 1.0], [1.0, 1.0]]), Signature(1, 1))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_CALLS, str(doc)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result == {"code": 0, "selftest": False, "selftest_code": 0, "scipy": False, "exp_is_identity": True}
