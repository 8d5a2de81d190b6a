"""End-to-end CLI behavior: reports, exit codes, both output formats."""

import argparse
import ast
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supq import cli
from supq.docio import dumps, matrix_to_doc
from supq.groups import random_g0
from supq.indefinite import Signature
from supq.selftest import SuiteResult, random_admissible_an, random_decomposable

SIG11 = Signature(1, 1)
SQ2 = np.sqrt(2.0)
# An AN element of SU(2, 1) whose symmetrization dagger(b) b overflows.
OVERFLOWING_AN = np.array([[1e4, 2e154, 0.0], [0.0, 1e-2, 0.0], [0.0, 0.0, 1e-2]])


def _write_doc(tmp_path, name, M, sig=SIG11, **extra):
    doc = matrix_to_doc(np.asarray(M, dtype=complex), sig)
    doc.update(extra)
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1  # one compact line
    return code, json.loads(out, parse_constant=_refuse_constant)


def _doc_to_matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


# ---------------------------------------------------------------------------
# decompose


def test_decompose_identity(tmp_path, capsys):
    path = _write_doc(tmp_path, "id.json", np.eye(2))
    code, rep = _run_json(capsys, ["decompose", "--in", path])
    assert code == 0
    assert rep["success"] is True
    np.testing.assert_allclose(_doc_to_matrix(rep["outputs"]["s"]), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(_doc_to_matrix(rep["outputs"]["b"]), np.eye(2), atol=1e-14)
    assert rep["outputs"]["a"] == [1.0, 1.0]
    assert rep["diagnostics"]["residual"] <= 1e-14


def test_decompose_both_methods_agree(tmp_path, capsys):
    path = _write_doc(tmp_path, "g.json", [[2.0, 1.0], [1.0, 1.0]])
    code, rep = _run_json(capsys, ["decompose", "--in", path, "--method", "both"])
    assert code == 0
    assert rep["outputs"]["agreement"] <= 1e-10
    s = _doc_to_matrix(rep["outputs"]["s"])
    sq3 = np.sqrt(3.0)
    np.testing.assert_allclose(s, np.array([[2, 1], [1, 2]]) / sq3, rtol=1e-12)


def test_decompose_reads_stdin(capsys, monkeypatch):
    doc = matrix_to_doc(np.eye(2), SIG11)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(doc)))
    code, rep = _run_json(capsys, ["decompose"])
    assert code == 0
    assert rep["success"] is True


def test_decompose_wrong_cell_exits_4(tmp_path, capsys):
    path = _write_doc(tmp_path, "bad.json", [[1.0, 0.0], [2.0, 1.0]])
    code, rep = _run_json(capsys, ["decompose", "--in", path])
    assert code == 4
    assert rep["success"] is False
    assert rep["diagnostics"]["error_code"] == "not_decomposable"
    assert (rep["diagnostics"]["kind"], rep["diagnostics"]["index"]) == ("wrong_inertia", 1)
    assert cli.main(["decompose", "--in", path]) == 4
    assert "  kind = wrong_inertia\n  index = 1\n" in capsys.readouterr().out


def test_decompose_non_unimodular_exits_3(tmp_path, capsys):
    path = _write_doc(tmp_path, "nong.json", 2.0 * np.eye(2))
    code, rep = _run_json(capsys, ["decompose", "--in", path])
    assert code == 3
    assert rep["diagnostics"]["error_code"] == "invalid_input"


def test_decompose_singular_matrix_at_a_wide_tolerance_exits_3(tmp_path, capsys):
    path = _write_doc(tmp_path, "zero.json", np.zeros((2, 2)))
    code, rep = _run_json(capsys, ["decompose", "--in", path, "--tol", "1e-6"])
    assert code == 3
    assert rep["diagnostics"]["error_code"] == "invalid_input"


def test_decompose_at_zero_tolerance_exits_0(tmp_path, capsys):
    # J dagger(g) g is Hermitian only to roundoff, and the second g has det
    # 1.0000000000000007; tol = 0 must not turn either into an error
    for sig, seed in ((SIG11, 5), (Signature(2, 1), 3)):
        path = _write_doc(tmp_path, "g.json", random_decomposable(sig, np.random.default_rng(seed)), sig=sig)
        for method in ("gauss", "gs"):
            code, rep = _run_json(capsys, ["decompose", "--in", path, "--method", method, "--tol", "0"])
            assert code == 0
            assert rep["success"] is True


def test_dress_at_zero_tolerance_exits_0(tmp_path, capsys):
    # b and g are in AN and SU(2, 1) only to roundoff: their determinants are
    # 1 - 1.1e-16, and dagger(g) g - I is of the order of eps
    sig = Signature(2, 1)
    rng = np.random.default_rng(4)
    b_path = _write_doc(tmp_path, "b.json", random_admissible_an(sig, rng), sig=sig)
    g_path = _write_doc(tmp_path, "g.json", random_g0(sig, rng), sig=sig)
    code, rep = _run_json(capsys, ["dress", "--b", b_path, "--g", g_path, "--tol", "0"])
    assert code == 0
    assert rep["diagnostics"]["residual"] <= 1e-12


@pytest.mark.parametrize("method", ["gauss", "gs", "both"])
def test_decompose_widely_scaled_triangular_element(tmp_path, capsys, method):
    # diag(1e5, 1e-1, 1e-4) lies in AN, so s = I and b = g on both routes
    g = np.diag([1e5, 1e-1, 1e-4])
    path = _write_doc(tmp_path, "g.json", g, sig=Signature(2, 1))
    code, rep = _run_json(capsys, ["decompose", "--in", path, "--method", method])
    assert code == 0
    np.testing.assert_array_equal(_doc_to_matrix(rep["outputs"]["s"]), np.eye(3))
    np.testing.assert_array_equal(_doc_to_matrix(rep["outputs"]["b"]), g)


def test_decompose_past_the_squared_float_range_reports_a_finite_residual(tmp_path, capsys):
    # the Gram-Schmidt factors of boost . diag(1e300, 1e-300) are finite,
    # and so is the residual, though ||g - s b||_F^2 overflows
    boost = np.array([[np.cosh(0.5), np.sinh(0.5)], [np.sinh(0.5), np.cosh(0.5)]])
    path = _write_doc(tmp_path, "g.json", boost @ np.diag([1e300, 1e-300]))
    code, rep = _run_json(capsys, ["decompose", "--in", path, "--method", "gs"])
    assert code == 0
    assert rep["diagnostics"]["residual"] <= 1e-12 * 1e300
    assert cli.main(["decompose", "--in", path, "--method", "gs"]) == 0
    assert "residual = inf" not in capsys.readouterr().out


def test_decompose_human_output(tmp_path, capsys):
    path = _write_doc(tmp_path, "id.json", np.eye(2))
    code = cli.main(["decompose", "--in", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("decompose: ok")
    assert "residual" in out


# ---------------------------------------------------------------------------
# check


def test_check_identity_is_not_admissible(tmp_path, capsys):
    path = _write_doc(tmp_path, "id.json", np.eye(2))
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", "q_adm"])
    assert code == 0
    assert rep["outputs"]["verdict"] is False
    assert rep["outputs"]["reason"] == "gap violated"
    assert rep["diagnostics"]["margin"] == 0.0


def test_check_an_admissible_diagonal(tmp_path, capsys):
    path = _write_doc(tmp_path, "b.json", np.diag([2.0, 0.5]))
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", "an_adm"])
    assert code == 0
    assert rep["outputs"]["verdict"] is True
    assert rep["diagnostics"]["margin"] > 0


@pytest.mark.parametrize(
    "target,verdict",
    [("a", True), ("an", True), ("q", True), ("g0", False), ("n", False)],
)
def test_check_membership_sets(tmp_path, capsys, target, verdict):
    path = _write_doc(tmp_path, "d.json", np.diag([2.0, 0.5]))
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", target])
    assert code == 0
    assert rep["outputs"]["verdict"] is verdict


@pytest.mark.parametrize("target", ["a", "an"])
def test_check_widely_scaled_diagonal_is_in_an(tmp_path, capsys, target):
    path = _write_doc(tmp_path, "d.json", np.diag([1e170, 1e-170]))
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", target])
    assert code == 0
    assert rep["outputs"]["verdict"] is True


def test_check_refuses_a_non_member_at_overflowing_scale(tmp_path, capsys):
    path = _write_doc(tmp_path, "an.json", [[1e200, 0.0], [5e199, 1e-200]])
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", "an"])
    assert code == 0
    assert rep["outputs"]["verdict"] is False


def test_check_admissibility_of_non_member_is_a_false_verdict(tmp_path, capsys):
    # a unipotent is not dagger-fixed: the predicate answers "no" cleanly
    path = _write_doc(tmp_path, "n.json", [[1.0, 1.0], [0.0, 1.0]])
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", "q_adm"])
    assert code == 0
    assert rep["outputs"]["verdict"] is False
    assert rep["diagnostics"]["margin"] == 0.0


def test_check_reports_spectral_split(tmp_path, capsys):
    path = _write_doc(tmp_path, "s.json", np.diag([np.e, 1 / np.e]))
    code, rep = _run_json(capsys, ["check", "--in", path, "--set", "q_adm"])
    assert code == 0
    assert rep["outputs"]["verdict"] is True
    assert rep["outputs"]["timelike_values"] == pytest.approx([np.e], rel=1e-12)
    assert rep["outputs"]["spacelike_values"] == pytest.approx([1 / np.e], rel=1e-12)
    assert rep["diagnostics"]["margin"] == pytest.approx(np.e - 1 / np.e, rel=1e-12)


# ---------------------------------------------------------------------------
# dress


def test_dress_identity_triangular(tmp_path, capsys):
    g = np.array([[SQ2, 1.0], [1.0, SQ2]])
    b_path = _write_doc(tmp_path, "b.json", np.eye(2))
    g_path = _write_doc(tmp_path, "g.json", g)
    code, rep = _run_json(capsys, ["dress", "--b", b_path, "--g", g_path])
    assert code == 0
    np.testing.assert_allclose(_doc_to_matrix(rep["outputs"]["g_prime"]), g, atol=1e-12)
    np.testing.assert_allclose(_doc_to_matrix(rep["outputs"]["b_prime"]), np.eye(2), atol=1e-12)
    assert rep["diagnostics"]["residual"] <= 1e-12


def test_dress_known_pair(tmp_path, capsys):
    e = np.e
    b_path = _write_doc(tmp_path, "b.json", np.diag([e, 1 / e]))
    g_path = _write_doc(tmp_path, "g.json", [[SQ2, 1.0], [1.0, SQ2]])
    code, rep = _run_json(capsys, ["dress", "--b", b_path, "--g", g_path])
    assert code == 0
    delta = np.sqrt(2 * e**2 - e**-2)
    g_exp = np.array([[SQ2 * e, 1 / e], [1 / e, SQ2 * e]]) / delta
    np.testing.assert_allclose(_doc_to_matrix(rep["outputs"]["g_prime"]), g_exp, rtol=1e-12)


def test_dress_signature_mismatch_exits_3(tmp_path, capsys):
    b_path = _write_doc(tmp_path, "b.json", np.eye(2), sig=SIG11)
    g_path = _write_doc(tmp_path, "g.json", np.eye(3), sig=Signature(2, 1))
    code, rep = _run_json(capsys, ["dress", "--b", b_path, "--g", g_path])
    assert code == 3
    assert rep["diagnostics"]["error_code"] == "invalid_input"
    assert rep["diagnostics"]["detail"] == "signatures differ: (1,1) vs (2,1)"


def test_dress_non_triangular_b_exits_3(tmp_path, capsys):
    g = np.array([[SQ2, 1.0], [1.0, SQ2]])
    b_path = _write_doc(tmp_path, "b.json", g)  # pseudo-unitary, not AN
    g_path = _write_doc(tmp_path, "g.json", g)
    code, rep = _run_json(capsys, ["dress", "--b", b_path, "--g", g_path])
    assert code == 3
    assert rep["diagnostics"]["error_code"] == "invalid_input"


# ---------------------------------------------------------------------------
# sym


def test_sym_known_value(tmp_path, capsys):
    path = _write_doc(tmp_path, "b.json", [[SQ2, 0.5], [0.0, 1 / SQ2]])
    code, rep = _run_json(capsys, ["sym", "--in", path])
    assert code == 0
    expected = np.array([[2.0, 1 / SQ2], [-1 / SQ2, 0.25]])
    np.testing.assert_allclose(_doc_to_matrix(rep["outputs"]["sym"]), expected, rtol=1e-12)


def test_sym_rejects_non_triangular(tmp_path, capsys):
    path = _write_doc(tmp_path, "m.json", [[0.0, 1.0], [-1.0, 0.0]])
    code, rep = _run_json(capsys, ["sym", "--in", path])
    assert code == 3
    assert rep["diagnostics"]["error_code"] == "invalid_input"


def test_sym_that_overflows_exits_3(tmp_path, capsys):
    path = _write_doc(tmp_path, "b.json", OVERFLOWING_AN, sig=Signature(2, 1))
    code, rep = _run_json(capsys, ["sym", "--in", path])
    assert code == 3
    assert rep["success"] is False
    assert rep["diagnostics"] == {"error_code": "error",
                                  "detail": "matrix contains NaN or Inf entries"}
    assert cli.main(["sym", "--in", path]) == 3
    assert capsys.readouterr().out.startswith("sym: failed\n  error_code = error\n")


# ---------------------------------------------------------------------------
# classify


@pytest.mark.parametrize(
    "vec,cone,margin",
    [
        ([[1.0, 0.0]], "timelike", 1.0),
        ([[0.0, 1.0]], "spacelike", -1.0),
        ([[1.0, 1.0]], "null", 0.0),
        # the squared entry overflows; the margin is still finite
        ([[1e200, 0.0]], "timelike", 1.0),
    ],
)
def test_classify_vectors(tmp_path, capsys, vec, cone, margin):
    doc = {
        "signature": {"p": 1, "q": 1},
        "matrix": [[[float(v), 0.0] for v in vec[0]]],
    }
    path = tmp_path / "v.json"
    path.write_text(dumps(doc))
    code, rep = _run_json(capsys, ["classify", "--in", str(path)])
    assert code == 0
    assert rep["outputs"]["cone"] == cone
    assert rep["diagnostics"]["margin"] == pytest.approx(margin, abs=1e-12)


def test_classify_rejects_square_matrix(tmp_path, capsys):
    path = _write_doc(tmp_path, "m.json", np.eye(2))
    code, rep = _run_json(capsys, ["classify", "--in", path])
    assert code == 2
    assert rep["diagnostics"]["error_code"] == "parse_error"


def test_classify_zero_vector_exits_3(tmp_path, capsys):
    doc = {"signature": {"p": 1, "q": 1}, "matrix": [[[0.0, 0.0], [0.0, 0.0]]]}
    path = tmp_path / "z.json"
    path.write_text(dumps(doc))
    code, rep = _run_json(capsys, ["classify", "--in", str(path)])
    assert code == 3
    assert rep["diagnostics"]["error_code"] == "invalid_input"


@pytest.mark.parametrize(
    "argv, matrix",
    [
        (["decompose"], np.eye(2)),
        (["check", "--set", "q"], np.eye(2)),
        (["sym"], np.eye(2)),
        (["classify"], [[1.0, 0.0]]),
    ],
    ids=["decompose", "check", "sym", "classify"],
)
def test_document_label_is_echoed(tmp_path, capsys, argv, matrix):
    doc = {"signature": {"p": 1, "q": 1},
           "matrix": [[[float(v), 0.0] for v in row] for row in matrix], "label": "probe"}
    path = tmp_path / "doc.json"
    path.write_text(dumps(doc))
    code, rep = _run_json(capsys, argv + ["--in", str(path)])
    assert code == 0
    assert rep["outputs"]["label"] == "probe"


# ---------------------------------------------------------------------------
# malformed input


def test_garbage_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{this is not json"))
    code, rep = _run_json(capsys, ["decompose"])
    assert code == 2
    assert rep["diagnostics"]["error_code"] == "parse_error"


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return str(tmp_path / "absent.json")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"label": "caf\xe9"}')  # Latin-1, not UTF-8
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("option", ["--in", "--b", "--g"])
def test_unreadable_input_exits_2(tmp_path, capsys, kind, option):
    bad = _unreadable(tmp_path, kind)
    good = _write_doc(tmp_path, "id.json", np.eye(2))
    if option == "--in":
        argv = ["decompose", "--in", bad]
    else:
        argv = ["dress", "--b", good, "--g", good, option, bad]
    code, rep = _run_json(capsys, argv)
    assert code == 2
    assert rep["diagnostics"]["error_code"] == "parse_error"


def test_shape_mismatch_exits_2(tmp_path, capsys):
    path = _write_doc(tmp_path, "m.json", np.eye(3), sig=Signature(2, 1))
    doc = json.loads(open(path).read())
    doc["signature"] = {"p": 1, "q": 1}
    path2 = tmp_path / "m2.json"
    path2.write_text(dumps(doc))
    code, rep = _run_json(capsys, ["decompose", "--in", str(path2)])
    assert code == 2
    assert rep["diagnostics"]["error_code"] == "parse_error"


# A decomposable element outside SU(1, 1): --tol inf would call it a member.
_G_DOC = dumps(matrix_to_doc(np.array([[2.0, 1.0], [1.0, 1.0]]), SIG11))
_LONG_INT_DOC = _G_DOC.replace("2.0", "2" + "0" * 5000, 1)


@pytest.mark.parametrize("command", [["decompose"], ["check", "--set", "g0"]],
                         ids=["decompose", "check_g0"])
@pytest.mark.parametrize(
    "text, tol, detail",
    [
        ("[" * 100_000, "1e-9", "invalid JSON"),
        (_LONG_INT_DOC, "1e-9", "invalid JSON"),
        (_G_DOC, "inf", "--tol"),
        (_G_DOC, "nan", "--tol"),
        (_G_DOC, "-1e-9", "--tol"),
    ],
    ids=["deeply_nested", "long_integer", "tol_inf", "tol_nan", "tol_negative"],
)
def test_boundary_input_exits_2(tmp_path, capsys, command, text, tol, detail):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, rep = _run_json(capsys, command + ["--in", str(path), f"--tol={tol}"])
    assert code == 2
    assert rep["success"] is False
    assert rep["diagnostics"]["error_code"] == "parse_error"
    assert detail in rep["diagnostics"]["detail"]


def test_human_output_prints_a_non_finite_matrix(capsys):
    doc = matrix_to_doc(np.array([[np.inf, 0.0], [0.0, 1.0]]), SIG11)
    report = {"command": "sym", "success": True, "outputs": {"sym": doc}, "diagnostics": {}}
    cli._emit(report, as_json=False)
    out = capsys.readouterr().out
    assert out.startswith("sym: ok\n  sym =\n[[inf+0.j")


def test_json_report_refuses_a_non_finite_result(tmp_path, capsys, monkeypatch):
    # JSON cannot carry inf: --json gives an error report and exit 3, never
    # a traceback; the human form prints the value
    monkeypatch.setattr(cli, "sym", lambda b, sig, tol: np.full((2, 2), np.inf))
    path = _write_doc(tmp_path, "b.json", np.eye(2))
    code, rep = _run_json(capsys, ["sym", "--in", path])
    assert code == 3
    assert rep["success"] is False
    assert rep["diagnostics"]["error_code"] == "error"
    assert rep["diagnostics"]["detail"] == "Out of range float values are not JSON compliant: inf"
    assert cli.main(["sym", "--in", path]) == 0
    assert capsys.readouterr().out.startswith("sym: ok\n  sym =\n[[inf+0.j")


def _supq(argv, stdin=None):
    """``python -m supq`` on ``argv`` in a new process that imports this tree's supq."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "supq", *argv], input=stdin,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "command, sig, matrix, code",
    [("classify", SIG11, [[1e200, 0.0]], 0), ("sym", Signature(2, 1), OVERFLOWING_AN, 3)],
    ids=["classify", "sym"],
)
def test_overflow_prints_nothing_on_stderr(tmp_path, command, sig, matrix, code):
    proc = _supq([command, "--in", _write_doc(tmp_path, "doc.json", matrix, sig=sig)])
    assert proc.returncode == code
    assert proc.stderr == ""


def test_decompose_report_round_trips_through_a_second_process():
    # each --json report is read back by a second process: the factor s of
    # a decomposition must be in G0 = SU(p,q) and its factor b in AN
    doc = '{"signature": {"p": 2, "q": 1}, "matrix": [[[2, 0], [1, 0], [0, 0]], [[1, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}'
    decomposed = _supq(["decompose", "--json"], doc)
    assert decomposed.returncode == 0
    for key, target in (("s", "g0"), ("b", "an")):
        factor = json.dumps(json.loads(decomposed.stdout)["outputs"][key])
        checked = _supq(["check", "--set", target, "--json"], factor)
        assert checked.returncode == 0
        assert json.loads(checked.stdout)["outputs"]["verdict"] is True


# ---------------------------------------------------------------------------
# the paper's claims on the documents that pin them; a numpy RuntimeWarning
# is an error here, as pytest's filterwarnings makes it everywhere

# pivot 1 of this SU(1,2) element has the wrong sign and pivot 3 is
# singular to tolerance: each route must exit 4 naming pivot 1
_PIVOT_1 = '{"signature": {"p": 1, "q": 2}, "matrix": [[[0, 0], [-146.77992676220697, 0], [-73.38996338110348, 0]], [[-146.77992676220697, 0], [-73.38996338110348, 0], [-36.69498169055174, 0]], [[0, 0], [0, 0], [-4.641588833612779e-05, 0]]]}'
# diag(1e5, 1e-5) is in A, so decompose and dress by the identity must
# return it as b and b_prime
_A_1E5 = '{"signature": {"p": 1, "q": 1}, "matrix": [[[1e5, 0], [0, 0]], [[0, 0], [1e-5, 0]]]}'
_EYE = '{"signature": {"p": 1, "q": 1}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'
# diag(1e100, 1e-100) for signature (1, 1) is in A with r = 1e100 > 1: the
# AN check certifies it and both routes return it as b, in agreement
_A_1E100 = '{"signature": {"p": 1, "q": 1}, "matrix": [[[1e100, 0], [0, 0]], [[0, 0], [1e-100, 0]]]}'
# the s that Gauss returns for this SU(2,1) element and Gram-Schmidt for
# this SU(1,2) element, far from the identity, must pass the G0 check
_G21 = '{"signature": {"p": 2, "q": 1}, "matrix": [[[480.40133079890927, 29.531923751556462], [-217.2564333565002, -150.27736260752468], [240.18832863112513, 49.926651292546175]], [[0.01802810285033826, -0.016897336371087788], [0.036871519826093074, -0.011529757856690456], [0.008019269203131243, -0.0008479319466467817]], [[0.022985688458278187, -0.00018804049419769684], [-0.0026364310087222823, -0.006077097115450086], [0.049849582525083744, 0.01100706592226556]]]}'
_G12 = '{"signature": {"p": 1, "q": 2}, "matrix": [[[630.1624479967794, 43.58231358204375], [-40.14507623058304, 173.2183658157662], [-301.09200920113784, -86.94238427280239]], [[22.056515416163204, -118.98766149511857], [522.9412839427526, 49.48596036860227], [-50.073883760580166, -69.68090967456185]], [[-2.3127280477417545e-06, 7.535597890279846e-07], [1.594780859604291e-07, -1.1063784997460359e-06], [4.254733158765621e-06, -6.275535502502507e-07]]]}'
_TRUE = {"outputs.verdict": True}

# (argv, the document on stdin, exit code, {"section.field": value of the report})
_CLAIMS = {
    # selftest exits 0 even when a suite fails, so the report's verdict decides
    "selftest_at_defaults": (["selftest"], "", 0, {"outputs.all_passed": True}),
    "gauss_names_pivot_1": (["decompose", "--method", "gauss"], _PIVOT_1, 4, {"diagnostics.kind": "wrong_inertia", "diagnostics.index": 1}),
    "gs_names_pivot_1": (["decompose", "--method", "gs"], _PIVOT_1, 4, {"diagnostics.kind": "wrong_cone", "diagnostics.index": 1}),
    "a_1e5_is_its_own_b": (["decompose"], _A_1E5, 0, {"outputs.b": np.diag([1e5, 1e-5])}),
    "a_1e5_dressed_by_identity": (["dress", "--b", "-", "--g", _EYE], _A_1E5, 0, {"outputs.b_prime": np.diag([1e5, 1e-5])}),
    # diag(1e10, 1e-10) in Q is admissible, and the certificate's tests are
    # relative, so its verdict does not depend on the scale of the entries
    "q_1e10_admissible": (["check", "--set", "q_adm"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1e10, 0], [0, 0]], [[0, 0], [1e-10, 0]]]}', 0, _TRUE),
    "a_1e100_admissible": (["check", "--set", "an_adm"], _A_1E100, 0, _TRUE),
    "a_1e100_is_its_own_b": (["decompose", "--method", "both"], _A_1E100, 0, {"outputs.agreement": 0.0, "outputs.a": [1e100, 1e-100]}),
    # the squared norms of the columns of diag(1e200, 1e-200) leave the float
    # range, so each column margin is taken on a power-of-two rescaling
    "gs_a_1e200": (["decompose", "--method", "gs"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1e200, 0], [0, 0]], [[0, 0], [1e-200, 0]]]}', 0, {"outputs.a": [1e200, 1e-200]}),
    # the unipotent [[1.01, 0.01], [-0.01, 0.99]] has the double eigenvalue 1,
    # so its labels, in order by 3e-9, must not make it admissible
    "double_eigenvalue_refused": (["check", "--set", "q_adm"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1.01, 0], [0.01, 0]], [[-0.01, 0], [0.99, 0]]]}', 0, {"outputs.verdict": False, "outputs.reason": "gap not certified"}),
    # the exponents +-8e-10 of diag(1.0000000008, 0.9999999992) are admissible (and a g
    # with det 1.0000000000000007 factors at --tol 0: test_decompose_at_zero_tolerance_exits_0)
    "exponents_8e-10_admissible": (["check", "--set", "q_adm"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1.0000000008, 0], [0, 0]], [[0, 0], [0.9999999992, 0]]]}', 0, _TRUE),
    # this dressed b' is admissible by the 2x2 closed form; eig gives its
    # spectrum imaginary parts near 1e-8, which the certificate does not read
    "dressed_b_near_double_eigenvalue": (["check", "--set", "an_adm"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[18.203438187996333, -0.0], [15.085003703811886, 10.090135873165206]], [[0.0, 0.0], [0.05493467714988913, -0.0]]]}', 0, _TRUE),
    # AN(1e5, 5e4) is admissible by the 2x2 closed form (r - 1/r > |n|), and
    # diag(1e250, 1e-250) in Q is admissible; eig returns their small
    # eigenvalues as 0 or below, which the certificate does not read
    "an_1e5_5e4_admissible": (["check", "--set", "an_adm"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1e5, 0], [5e4, 0]], [[0, 0], [1e-5, 0]]]}', 0, _TRUE),
    "q_1e250_admissible": (["check", "--set", "q_adm"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1e250, 0], [0, 0]], [[0, 0], [1e-250, 0]]]}', 0, _TRUE),
    "gauss_s_far_from_identity_in_g0": (["check", "--set", "g0"], (["decompose", "--method", "gauss"], _G21, "s"), 0, _TRUE),
    "gs_s_far_from_identity_in_g0": (["check", "--set", "g0"], (["decompose", "--method", "gs"], _G12, "s"), 0, _TRUE),
    # this admissible dagger-fixed element must be certified at --tol 0
    "q_admissible_at_tol_0": (["check", "--set", "q_adm", "--tol", "0"], '{"signature": {"p": 1, "q": 1}, "matrix": [[[1.4304335088954234, -3.0026681176639403e-17], [0.28071806934039173, -0.09116950581970082]], [[-0.2807180693403917, -0.09116950581970083], [0.6381879906178385, 4.8301160711395915e-17]]]}', 0, _TRUE),
}


@pytest.mark.parametrize("argv, stdin, code, want", _CLAIMS.values(), ids=_CLAIMS.keys())
def test_claim_through_the_cli(tmp_path, capsys, monkeypatch, argv, stdin, code, want):
    if isinstance(stdin, tuple):  # (argv, document, key): outputs[key] of that command's report
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin[1]))
        stdin = json.dumps(_run_json(capsys, stdin[0])[1]["outputs"][stdin[2]])
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    (tmp_path / "eye.json").write_text(_EYE)  # the one document that a case passes by path
    got, rep = _run_json(capsys, [str(tmp_path / "eye.json") if arg == _EYE else arg for arg in argv])
    assert got == code
    for path, value in want.items():
        section, field = path.split(".")
        if isinstance(value, np.ndarray):  # entrywise within 1e-12 of value, relative
            assert np.all(np.abs(_doc_to_matrix(rep[section][field]) - value) <= 1e-12 * np.abs(value))
        else:  # of value's type too, so 1 is not True
            assert (rep[section][field], type(rep[section][field])) == (value, type(value))


# ---------------------------------------------------------------------------
# options


def _subcommands() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_option_is_read(command):
    # each option of a command is read as args.<dest> by its cmd_* function;
    # --json is read by main
    sub = _subcommands()[command]
    tree = ast.parse(inspect.getsource(sub.get_default("func")))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    options = {a.dest for a in sub._actions if a.option_strings} - {"help", "json"}
    assert sorted(options - read) == []


def test_selftest_has_no_tol_option():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["selftest", "--tol", "1e-3"])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# selftest


def test_selftest_small_run(capsys):
    code, rep = _run_json(capsys, ["selftest", "--nmax", "2", "--trials", "20", "--seed", "5"])
    assert code == 0
    assert rep["outputs"]["all_passed"] is True
    names = set(rep["outputs"]) - {"all_passed"}
    assert "global_decomposition" in names
    assert len(names) >= 10


def test_selftest_human_output_lists_suites(capsys):
    code = cli.main(["selftest", "--nmax", "2", "--trials", "20", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 10
    assert "all passed" in out


def test_selftest_corrupt_hook_reports_failure(capsys, monkeypatch):
    # a failing suite is reported as data, and the exit code is still 0
    monkeypatch.setattr(
        "supq.selftest.suite_global_decomposition",
        lambda *args, **kwargs: SuiteResult("global_decomposition", False, 1, 1.0, "forced"),
    )
    code, rep = _run_json(capsys, ["selftest", "--nmax", "2", "--trials", "20", "--seed", "5"])
    assert code == 0
    assert rep["outputs"]["all_passed"] is False
    assert rep["outputs"]["global_decomposition"]["passed"] is False


def test_selftest_is_deterministic(capsys):
    argv = ["selftest", "--nmax", "2", "--trials", "20", "--seed", "9", "--json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_selftest_nmax_out_of_range_exits_2(capsys):
    code = cli.main(["selftest", "--nmax", "12"])
    assert code == 2
    assert capsys.readouterr().out.startswith("selftest: failed")
    code, rep = _run_json(capsys, ["selftest", "--nmax", "12"])
    assert code == 2
    assert rep["success"] is False
    assert rep["diagnostics"]["error_code"] == "parse_error"
    assert "--nmax" in rep["diagnostics"]["detail"]
