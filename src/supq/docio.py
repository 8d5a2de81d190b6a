"""JSON matrix documents: the self-describing format the CLI reads and writes.

Document schema::

    {
      "signature": {"p": <int >= 1>, "q": <int >= 1>},
      "matrix": [[[re, im], ...], ...],   # row-major, (p+q) x (p+q)
      "label": "optional free text"
    }

Every complex number is a two-element [re, im] array.  Floats are emitted
with Python's shortest round-trip repr, so an emitted document re-parses to
bit-identical values.  :func:`dumps` writes one compact line with json's C
encoder; ``python -m json.tool`` indents it.  Vector-shaped documents (a
1 x n or n x 1 matrix) are accepted where a vector is expected.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

import numpy as np

from .errors import NonFiniteInput, ParseError
from .indefinite import Signature


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None
    if not np.isfinite(out):
        raise ParseError(f"{where}: non-finite value {value!r}")
    return out


def _as_complex(pair: Any, where: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"{where}: expected a [re, im] pair, got {pair!r}")
    return complex(_as_float(pair[0], where), _as_float(pair[1], where))


def _grid_to_matrix(rows: list, shape: tuple[int, int]) -> np.ndarray:
    """The complex matrix of a rectangular ``[re, im]`` grid of ``shape``.

    Accepts exactly the grids that :func:`_as_complex` accepts entry by
    entry, but checks the types of all entries at once and converts them in
    one numpy call.  Only a refused grid is walked entry by entry, to name
    its first bad entry."""
    pairs = list(chain.from_iterable(rows))
    if all(issubclass(t, (list, tuple)) for t in set(map(type, pairs))) and set(map(len, pairs)) == {2}:
        parts = list(chain.from_iterable(pairs))
        if all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, parts))):
            try:
                A = np.array(parts, dtype=np.float64)  # an int converts as float(int) does
            except OverflowError:  # an int too large for a float
                A = None
            if A is not None and np.isfinite(A).all():
                return A.view(np.complex128).reshape(shape)
    for i, row in enumerate(rows):
        for k, entry in enumerate(row):
            _as_complex(entry, f"matrix[{i}][{k}]")
    raise AssertionError("the walk accepted a grid the one-pass check refused")


def parse_signature(obj: Any) -> Signature:
    if not isinstance(obj, dict):
        raise ParseError("signature: expected an object with integer fields p and q")
    for key in ("p", "q"):
        if key not in obj:
            raise ParseError(f"signature: missing field {key!r}")
        if isinstance(obj[key], bool) or not isinstance(obj[key], int):
            raise ParseError(f"signature: field {key!r} must be an integer")
    try:
        return Signature(obj["p"], obj["q"])
    except ValueError as exc:
        raise ParseError(f"signature: {exc}") from exc


def parse_document(obj: Any, allow_vector: bool = False):
    """Validate a matrix document and return ``(matrix, signature, label)``.

    The matrix must be n x n with n = p + q; with ``allow_vector`` a 1 x n
    or n x 1 grid is also accepted and returned as shape (1, n) / (n, 1).
    """
    if not isinstance(obj, dict):
        raise ParseError("document: expected a JSON object")
    if "signature" not in obj or "matrix" not in obj:
        raise ParseError("document: needs 'signature' and 'matrix' fields")
    sig = parse_signature(obj["signature"])
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix: expected a non-empty list of rows")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ParseError("matrix: rows have inconsistent lengths")
    shape = (len(rows), ncols)
    expected = (sig.n, sig.n)
    vector_shapes = {(1, sig.n), (sig.n, 1)}
    if shape != expected and not (allow_vector and shape in vector_shapes):
        raise ParseError(f"matrix: shape {shape} does not match signature n={sig.n}")
    M = _grid_to_matrix(rows, shape)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label: expected a string")
    return M, sig, label


def load_document(text: str, allow_vector: bool = False):
    """Parse a document from JSON text.  Malformed, too deeply nested or
    over-long JSON (an integer literal past Python's digit limit) raises
    ParseError."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_document(obj, allow_vector=allow_vector)


def matrix_to_grid(M) -> list[list[list[float]]]:
    """The row-major ``[re, im]`` grid of ``M``; a vector becomes one row."""
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    return np.stack((M.real, M.imag), axis=-1).tolist()


def matrix_to_doc(M, sig: Signature, label: str | None = None) -> dict:
    doc: dict = {
        "signature": {"p": sig.p, "q": sig.q},
        "matrix": matrix_to_grid(M),
    }
    if label is not None:
        doc["label"] = label
    return doc


def dumps(obj: dict) -> str:
    """Serialize a document or report as one compact line; floats keep full
    round-trip precision.  A NaN or Inf value raises NonFiniteInput:
    :func:`load_document` could not read it back."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:
        # json's C encoder does not name the value it refused; its pure-Python twin does
        try:
            return "".join(json.JSONEncoder(allow_nan=False).iterencode(obj))
        except ValueError as exc:
            raise NonFiniteInput(str(exc)) from None
