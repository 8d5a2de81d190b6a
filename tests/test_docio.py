"""JSON document parsing, serialization round trips, the grid encoder."""

import json

import numpy as np
import pytest

from supq.docio import (
    dumps,
    load_document,
    matrix_to_doc,
    matrix_to_grid,
    parse_document,
    parse_signature,
)
from supq.errors import NonFiniteInput, ParseError
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
    assert matrix_to_grid(1.5 - 2.5j) == [[[1.5, -2.5]]]
    grid = matrix_to_grid(np.array([[1j]]))
    assert grid == [[[0.0, 1.0]]]


def _reference_grid(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]


def _encoder_inputs():
    rng = np.random.default_rng(17)
    for n in range(1, 17):
        yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    yield np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]])
    yield rng.standard_normal(5) + 1j * rng.standard_normal(5)  # a 1-D vector
    yield rng.standard_normal((3, 3))  # real dtype


@pytest.mark.parametrize("M", list(_encoder_inputs()), ids=lambda M: f"{M.dtype}{M.shape}")
def test_grid_encoder_matches_per_entry_reference(M):
    # same JSON text, so -0.0 and every last bit survive
    assert json.dumps(matrix_to_grid(M)) == json.dumps(_reference_grid(M))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dumps_refuses_non_finite_values(bad):
    # load_document refuses NaN and Inf, so the writer does too
    with pytest.raises(NonFiniteInput, match="not JSON compliant"):
        dumps(matrix_to_doc(np.array([[bad, 0.0], [0.0, 1.0]]), SIG11))


def test_load_document_rejects_invalid_json():
    # malformed, nested past the recursion limit, an integer past the digit limit
    for text in ("{not json", "[" * 100_000, "1" + "0" * 5000):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_document(text)
