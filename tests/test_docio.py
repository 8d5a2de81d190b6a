"""JSON document parsing, serialization round trips, report assembly."""

import json

import numpy as np
import pytest

from supq.docio import (
    build_report,
    complex_to_pair,
    dumps,
    load_document,
    matrix_to_doc,
    matrix_to_grid,
    parse_document,
    parse_signature,
)
from supq.errors import ParseError
from supq.indefinite import Signature

SIG11 = Signature(1, 1)


def _doc(matrix, p=1, q=1, **extra):
    return {"signature": {"p": p, "q": q}, "matrix": matrix, **extra}


# ---------------------------------------------------------------------------
# signatures


def test_parse_signature():
    assert parse_signature({"p": 2, "q": 3}) == Signature(2, 3)


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {"p": 1},
        {"q": 1},
        {"p": 0, "q": 1},
        {"p": 1, "q": -1},
        {"p": 1.0, "q": 1},
        {"p": True, "q": 1},
        {"p": 1, "q": "1"},
    ],
)
def test_parse_signature_rejects(obj):
    with pytest.raises(ParseError):
        parse_signature(obj)


# ---------------------------------------------------------------------------
# matrix documents


def test_parse_document_basic():
    doc = _doc([[[2.0, 0.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, 0.0]]], label="demo")
    M, sig, label = parse_document(doc)
    np.testing.assert_array_equal(M, [[2.0, 1.0 - 1j], [1.0 + 1j, 1.0]])
    assert sig == SIG11
    assert label == "demo"


def test_parse_document_without_label():
    _, _, label = parse_document(_doc([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
    assert label is None


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        {"matrix": [[[1, 0]]]},
        {"signature": {"p": 1, "q": 1}},
        _doc([]),
        _doc([[[1, 0]], [[1, 0], [0, 0]]]),  # ragged rows
        _doc([[[1, 0]]]),  # 1x1 grid for n=2
        _doc([[[1, 0], [0, 0]], [[0, 0], [1]]]),  # entry is not a pair
        _doc([[[1, 0], [0, 0]], [[0, 0], [1, "0"]]]),  # non-numeric part
        _doc([[[1, 0], [0, 0]], [[0, 0], [1, True]]]),  # bool is not a number
        _doc([[["inf", 0], [0, 0]], [[0, 0], [1, 0]]]),
        _doc([[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]),  # integer too large for a float
        _doc([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], label=7),
    ],
)
def test_parse_document_rejects(doc):
    with pytest.raises(ParseError):
        parse_document(doc)


def test_parse_document_rejects_non_finite_float():
    doc = _doc([[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(ParseError):
        parse_document(doc)


def test_vector_documents_need_opt_in():
    row = _doc([[[1, 0], [0, 0]]])
    col = _doc([[[1, 0]], [[0, 0]]])
    with pytest.raises(ParseError):
        parse_document(row)
    M, _, _ = parse_document(row, allow_vector=True)
    assert M.shape == (1, 2)
    M, _, _ = parse_document(col, allow_vector=True)
    assert M.shape == (2, 1)
    # a wrong-length vector is still rejected
    with pytest.raises(ParseError):
        parse_document(_doc([[[1, 0], [0, 0], [0, 0]]]), allow_vector=True)


# ---------------------------------------------------------------------------
# serialization round trips


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(83)
    for _ in range(50):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        text = dumps(matrix_to_doc(M, SIG11, label="x"))
        M2, sig, label = load_document(text)
        np.testing.assert_array_equal(M2, M)  # bit-exact, not approximate
        assert sig == SIG11
        assert label == "x"


def test_complex_and_grid_helpers():
    assert complex_to_pair(1.5 - 2.5j) == [1.5, -2.5]
    grid = matrix_to_grid(np.array([[1j]]))
    assert grid == [[[0.0, 1.0]]]


def test_load_document_rejects_invalid_json():
    with pytest.raises(ParseError):
        load_document("{not json")


# ---------------------------------------------------------------------------
# reports


def test_build_report_success():
    rep = build_report("decompose", True, {"s": 1}, residual=1e-12)
    assert rep["command"] == "decompose"
    assert rep["success"] is True
    assert rep["outputs"] == {"s": 1}
    assert rep["diagnostics"] == {"residual": 1e-12}
    json.loads(dumps(rep))  # serializable


def test_build_report_failure_needs_error_code():
    rep = build_report("check", False, {}, error_code="precondition", detail="why")
    assert rep["diagnostics"]["error_code"] == "precondition"
    assert rep["diagnostics"]["detail"] == "why"
    with pytest.raises(ValueError):
        build_report("check", False, {})
