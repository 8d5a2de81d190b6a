"""Every name a module of the package imports is used in that module, every
private module-level name is used in the package, only public calls enter an
errstate, each LAPACK eigensolver and Cholesky has one caller, the norms go
through one helper, and the numpy-only paths never load scipy (nor the CLI's
decompose the selftest module)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supq.docio import dumps, matrix_to_doc
from supq.indefinite import Signature

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
    # under the errstate of the public call that reached it
    quiet = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "_quiet" for d in node.decorator_list):
                quiet.add(node.name)
    assert {"eig", "sym", "dress", "decompose_gauss", "check_admissible_q"} <= quiet
    assert sorted(name for name in quiet if name.startswith("_")) == []


def test_one_general_eigensolver_and_one_cholesky():
    # every general eigensolve goes through kernel._spectrum, which holds the
    # size cap and the NoConvergence of a LAPACK failure, and every Cholesky
    # through kernel._definite, which holds the pivot rule
    found = set()
    for path in MODULES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in ("eig", "eigvals", "cholesky")
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                    found.add((path.stem, getattr(top, "name", "<module>"), node.attr))
    assert sorted(found) == [("kernel", "_definite", "cholesky"), ("kernel", "_spectrum", "eig"),
                             ("kernel", "_spectrum", "eigvals")]


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


# One call of each numpy-only public path, the CLI's decompose included;
# mat_exp must still work and is the call that loads scipy.  The CLI imports
# the selftest module only for the selftest command.
_SCIPY_FREE_CALLS = """
import json
import sys

import numpy as np
import supq
from supq import cli

sig = supq.Signature(1, 1)
boost = np.array([[np.cosh(0.3), np.sinh(0.3)], [np.sinh(0.3), np.cosh(0.3)]], dtype=complex)
b = np.array([[2.0, 0.5], [0.0, 0.5]], dtype=complex)
g = boost @ b
supq.decompose_gauss(g, sig)
supq.decompose_gs(g, sig)
supq.dress(b, boost, sig)
supq.sym(b, sig)
supq.classify([2.0, 1.0], sig)
supq.check_admissible_an(b, sig)
code = cli.main(["decompose", "--json", "--in", sys.argv[1]])
before = "scipy" in sys.modules
selftest = "supq.selftest" in sys.modules
exp0 = supq.mat_exp(np.zeros((2, 2)))
print(json.dumps({"code": code, "before": before, "selftest": selftest, "after": "scipy" in sys.modules,
                  "exp_is_identity": bool(np.array_equal(exp0, np.eye(2)))}))
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
    assert result == {"code": 0, "before": False, "selftest": False, "after": True, "exp_is_identity": True}
