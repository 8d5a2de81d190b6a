"""JSON document parsing, serialization round trips, the grid encoder."""

import json
import re

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


_REJECTED = [
    ("[]", "document: expected a JSON object"),
    ({"matrix": [[[1, 0]]]}, "document: needs 'signature' and 'matrix' fields"),
    ({"signature": {"p": 1, "q": 1}}, "document: needs 'signature' and 'matrix' fields"),
    (_doc([]), "matrix: expected a non-empty list of rows"),
    (_doc([[[1, 0]], [[1, 0], [0, 0]]]), "matrix: rows have inconsistent lengths"),
    (_doc([[[1, 0]]]), "matrix: shape (1, 1) does not match signature n=2"),
    (_doc([[[1, 0], [0, 0]], [[0, 0], [1]]]), "matrix[1][1]: expected a [re, im] pair, got [1]"),
    (_doc([[[1, 0], [0, 0]], [[0, 0], [1, "0"]]]), "matrix[1][1]: expected a number, got '0'"),
    (_doc([[[1, 0], [0, 0]], [[0, 0], [1, True]]]), "matrix[1][1]: expected a number, got True"),
    (_doc([[["inf", 0], [0, 0]], [[0, 0], [1, 0]]]), "matrix[0][0]: expected a number, got 'inf'"),
    (_doc([[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]), "matrix[0][0]: integer too large for a float"),
    (_doc([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], label=7), "label: expected a string"),
    (_doc([[[1, 0], [0, 0]], [[0, 0], 1]]), "matrix[1][1]: expected a [re, im] pair, got 1"),
    (_doc([[[1, 0], [0, 0]], [[0, None], [1, 0]]]), "matrix[1][0]: expected a number, got None"),
    (_doc([[[1, 0], [0, 0]], [[np.int64(1), 0], [1, 0]]]), "matrix[1][0]: expected a number, got "),
    (_doc([[[1, 0], [0, 2**1024]], [[0, 0], [1, 0]]]), "matrix[0][1]: integer too large for a float"),
    # the first bad entry in row-major order is named, and within an entry re before im
    (_doc([[[1, 0], [0, True]], [["x", 0], [1, 0]]]), "matrix[0][1]: expected a number, got True"),
    (_doc([[[1, 0], [float("nan"), "x"]], [[0, 0], [1, 0]]]), "matrix[0][1]: non-finite value nan"),
]


# short ids ("[]", "doc1", ...): a message is too long to name its case
@pytest.mark.parametrize(
    "doc, message", _REJECTED, ids=["[]", *(f"doc{i}" for i in range(1, len(_REJECTED)))]
)
def test_parse_document_rejects(doc, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_document(doc)


def test_parse_document_rejects_non_finite_float():
    doc = _doc([[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(ParseError, match=re.escape("matrix[0][0]: non-finite value nan")):
        parse_document(doc)


@pytest.mark.parametrize(
    "token, message",
    [
        ("NaN", "matrix[1][0]: non-finite value nan"),
        ("Infinity", "matrix[1][0]: non-finite value inf"),
        ("-Infinity", "matrix[1][0]: non-finite value -inf"),
        ("1e400", "matrix[1][0]: non-finite value inf"),
    ],
)
def test_load_document_rejects_non_finite_tokens(token, message):
    # json.loads reads these tokens as floats; the grid check refuses them
    text = '{"signature": {"p": 1, "q": 1}, "matrix": [[[1, 0], [0, 0]], [[0, %s], [1, 0]]]}' % token
    with pytest.raises(ParseError, match=re.escape(message)):
        load_document(text)


def _reference_matrix(rows):
    """The per-entry reading of a grid: ``complex(float(re), float(im))``."""
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


@pytest.mark.parametrize(
    "rows",
    [
        [[(2.0, 0.0), (1, -1)], [(1, 1), (1.0, 0)]],  # tuple pairs, mixed int and float
        [[[2**63 - 1, 2**63], [2**63 + 1, -(2**63)]], [[2**64 + 1, 2**53 + 1], [2**1023, 0]]],
        [[[2**1024 - 2**970 - 1, 0], [0, 0]], [[0, 0], [1, 0]]],  # the largest int below overflow
        [[[-0.0, 0.0], [0.0, -0.0]], [[5e-324, -5e-324], [1, 0]]],
        [[[np.float64(1.5), 0], [0, 0]], [[0, 0], [1, 0]]],  # a float subclass
    ],
)
def test_parse_document_accepts_like_the_per_entry_reading(rows):
    M, _, _ = parse_document(_doc(rows))
    # bit-exact: the sign of zero, subnormals and rounded big ints all survive
    assert M.dtype == np.complex128 and M.shape == (2, 2)
    assert M.tobytes() == _reference_matrix(rows).tobytes()


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


def test_round_trip_is_bit_exact_at_n32():
    rng = np.random.default_rng(32)
    scale = 10.0 ** rng.uniform(-300, 300, (32, 32))
    M = scale * (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    M[0, :3] = [complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(0.0, -0.0)]
    sig = Signature(16, 16)
    M2, sig2, _ = load_document(dumps(matrix_to_doc(M, sig)))
    assert sig2 == sig
    assert M2.tobytes() == M.tobytes()


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


@pytest.mark.parametrize("M", list(_encoder_inputs()), ids=lambda M: f"{M.dtype}{M.shape}")
def test_dumps_writes_one_line_that_differs_from_indented_json_only_in_whitespace(M):
    doc = matrix_to_doc(M, SIG11, label="x")
    text = dumps(doc)
    assert "\n" not in text
    assert json.loads(text) == json.loads(json.dumps(doc, indent=2))
    assert "".join(text.split()) == "".join(json.dumps(doc, indent=2).split())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dumps_refuses_non_finite_values(bad):
    # load_document refuses NaN and Inf, so the writer does too, and names the value
    with pytest.raises(NonFiniteInput, match=f"not JSON compliant: {float(bad)!r}$"):
        dumps(matrix_to_doc(np.array([[bad, 0.0], [0.0, 1.0]]), SIG11))


def test_load_document_rejects_invalid_json():
    # malformed, nested past the recursion limit, an integer past the digit limit
    for text in ("{not json", "[" * 100_000, "1" + "0" * 5000):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_document(text)
