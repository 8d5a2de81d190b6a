"""JSON matrix documents: the self-describing format the CLI reads and writes.

Document schema::

    {
      "signature": {"p": <int >= 1>, "q": <int >= 1>},
      "matrix": [[[re, im], ...], ...],   # row-major, (p+q) x (p+q)
      "label": "optional free text"
    }

Every complex number is a two-element [re, im] array.  Floats are emitted
with Python's shortest round-trip repr, so an emitted document re-parses to
bit-identical values.  Vector-shaped documents (a 1 x n or n x 1 matrix)
are accepted where a vector is expected.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import ParseError
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
    M = np.empty(shape, dtype=np.complex128)
    for i, row in enumerate(rows):
        for k, entry in enumerate(row):
            M[i, k] = _as_complex(entry, f"matrix[{i}][{k}]")
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


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_grid(M) -> list[list[list[float]]]:
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    return [[complex_to_pair(z) for z in row] for row in M]


def matrix_to_doc(M, sig: Signature, label: str | None = None) -> dict:
    doc: dict = {
        "signature": {"p": sig.p, "q": sig.q},
        "matrix": matrix_to_grid(M),
    }
    if label is not None:
        doc["label"] = label
    return doc


def build_report(
    command: str,
    success: bool,
    outputs: dict,
    residual: float | None = None,
    margin: float | None = None,
    error_code: str | None = None,
    detail: str | None = None,
) -> dict:
    """Assemble the Report object every CLI command emits.

    ``success = False`` always carries an ``error_code``.
    """
    if not success and error_code is None:
        raise ValueError("a failed report needs an error_code")
    diagnostics: dict = {}
    if residual is not None:
        diagnostics["residual"] = float(residual)
    if margin is not None:
        diagnostics["margin"] = float(margin)
    if error_code is not None:
        diagnostics["error_code"] = error_code
    if detail is not None:
        diagnostics["detail"] = detail
    return {
        "command": command,
        "success": bool(success),
        "outputs": outputs,
        "diagnostics": diagnostics,
    }


def dumps(obj: dict) -> str:
    """Serialize a document or report; floats keep full round-trip precision."""
    return json.dumps(obj, indent=2)
