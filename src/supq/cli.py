"""Command-line interface.

Reads JSON matrix documents (see :mod:`supq.docio`), runs the requested
operation, and emits a Report: human-readable lines by default, the raw
JSON report with ``--json``.  Each ``cmd_*`` function returns its
``(outputs, diagnostics)``; :func:`main` builds the report and owns the
exit code.

Exit codes:

* 0 on success;
* 2 on malformed input (a document, ``--tol`` or ``--nmax``);
* 3 on a violated precondition (membership, zero vector, mismatched
  signatures), a symmetrization that overflows, or, with ``--json``, a
  result holding NaN or Inf, which JSON cannot carry;
* 4 when the element is not decomposable; the report's diagnostics then
  carry the failure's ``kind`` and 1-based ``index``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import docio
from .errors import MembershipError, NotDecomposable, NotInG0, ParseError, SupqError, ZeroVector
from .groups import GroupTag, is_member
from .indefinite import Signature, _classify, _cone_margins
from .iwasawa import decompose_gauss, decompose_gs, dress, sym
from .kernel import DEFAULT_TOL, _frobenius

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NOT_DECOMPOSABLE = 4

def _document(path: str | None, allow_vector: bool = False) -> tuple[np.ndarray, Signature, dict]:
    """``(matrix, signature, echo)`` of the document at ``path`` (stdin for None
    or "-"); ``echo`` is ``{"label": label}`` or ``{}``."""
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path or 'stdin'}: {exc}") from exc
    M, sig, label = docio.load_document(text, allow_vector)
    return M, sig, {"label": label} if label else {}


def _emit(report: dict, as_json: bool) -> None:
    """Print ``report``; as JSON, a NaN or Inf value raises NonFiniteInput first."""
    if as_json:
        print(docio.dumps(report))
        return
    outputs = report["outputs"]
    if report["command"] == "selftest" and report["success"]:
        for name, entry in outputs.items():
            if name != "all_passed":
                print(f"{'PASS' if entry['passed'] else 'FAIL'} {name}: {entry['detail']}")
        print("all passed" if outputs["all_passed"] else "some suites FAILED")
        return
    print(f"{report['command']}: {'ok' if report['success'] else 'failed'}")
    for key, value in (*report["diagnostics"].items(), *outputs.items()):
        if isinstance(value, dict) and "matrix" in value:
            # [re, im] float pairs viewed as complex; an overflowed output stays printable
            M = np.asarray(value["matrix"], dtype=float).view(np.complex128)[..., 0]
            print(f"  {key} =\n{np.array2string(M, precision=6, suppress_small=True)}")
        else:
            print(f"  {key} = {value}")


#: (errors a command lets through, error_code, exit code); the first match wins.
_ERROR_REPORTS = (
    (ParseError, "parse_error", EXIT_PARSE),
    (NotDecomposable, "not_decomposable", EXIT_NOT_DECOMPOSABLE),
    ((MembershipError, ZeroVector), "invalid_input", EXIT_PRECONDITION),
    (SupqError, "error", EXIT_PRECONDITION),
)


def cmd_decompose(args) -> tuple[dict, dict]:
    M, sig, echo = _document(args.infile)
    # rows: (the --method value that runs a route, the route), built per call so a rebound route runs
    pairs = {name: route(M, sig, args.tol) for name, route in (("gauss", decompose_gauss), ("gs", decompose_gs))
             if args.method in (name, "both")}
    primary = next(iter(pairs.values()))
    outputs = {"method": args.method, **echo, "s": docio.matrix_to_doc(primary.s, sig),
               "b": docio.matrix_to_doc(primary.b, sig), "a": [float(v) for v in primary.a],
               "n": docio.matrix_to_doc(primary.n_factor, sig)}
    if args.method == "both":
        scale = max(1.0, _frobenius(M))
        outputs["agreement"] = max(
            _frobenius(pairs["gauss"].s - pairs["gs"].s), _frobenius(pairs["gauss"].b - pairs["gs"].b)
        ) / scale
    return outputs, {"residual": max(pair.residual for pair in pairs.values())}


def cmd_check(args) -> tuple[dict, dict]:
    M, sig, echo = _document(args.infile)
    outputs: dict = {"set": args.set, **echo}
    if args.set not in ("q_adm", "an_adm"):
        outputs["verdict"] = is_member(M, GroupTag(args.set), sig, args.tol)
        return outputs, {}
    from .admissible import check_admissible_an, check_admissible_q  # so no other command loads it

    checker = check_admissible_q if args.set == "q_adm" else check_admissible_an
    try:
        report = checker(M, sig, args.tol)
    except MembershipError as exc:
        outputs["verdict"] = False
        outputs["reason"] = str(exc)
        return outputs, {"margin": 0.0}
    outputs["verdict"] = report.admissible
    outputs["reason"] = report.reason
    outputs["eigenvalues"] = docio.matrix_to_grid(report.eigenvalues)[0]
    outputs["timelike_values"] = [float(v) for v in report.timelike_values]
    outputs["spacelike_values"] = [float(v) for v in report.spacelike_values]
    return outputs, {"margin": report.margin}


def cmd_dress(args) -> tuple[dict, dict]:
    b_mat, b_sig, _ = _document(args.b)
    g_mat, g_sig, _ = _document(args.g)
    if b_sig != g_sig:
        raise NotInG0(f"signatures differ: ({b_sig.p},{b_sig.q}) vs ({g_sig.p},{g_sig.q})")
    result = dress(b_mat, g_mat, b_sig, args.tol)
    outputs = {
        "g_prime": docio.matrix_to_doc(result.g_prime, b_sig),
        "b_prime": docio.matrix_to_doc(result.b_prime, b_sig),
    }
    return outputs, {"residual": result.residual}


def cmd_sym(args) -> tuple[dict, dict]:
    M, sig, echo = _document(args.infile)
    return {"sym": docio.matrix_to_doc(sym(M, sig, args.tol), sig), **echo}, {}


def cmd_classify(args) -> tuple[dict, dict]:
    M, sig, echo = _document(args.infile, allow_vector=True)
    if M.shape not in {(1, sig.n), (sig.n, 1)}:
        raise ParseError("classify needs a vector document (a 1 x n or n x 1 matrix)")
    ns, e2, _ = _cone_margins(M.reshape(-1), sig.p)
    return {"cone": _classify(ns, e2, args.tol).value, **echo}, {"margin": float(ns / e2)}


def cmd_selftest(args) -> tuple[dict, dict]:
    if not 2 <= args.nmax <= 8:
        raise ParseError("selftest: --nmax must be between 2 and 8")
    from .selftest import run_selftest  # imported here, so no other command compiles or loads it

    results = run_selftest(args.nmax, args.trials, args.seed)
    outputs = {
        r.name: {"passed": r.passed, "trials": r.trials, "worst": r.worst, "detail": r.detail}
        for r in results
    }
    outputs["all_passed"] = all(r.passed for r in results)
    return outputs, {}


#: The document commands, in --help order, one row each: (name, help, handler,
#: whether it reads a document from --in, its own options as (flag, add_argument keywords)).
_COMMANDS = (
    ("decompose", "factor g = s b", cmd_decompose, True,
     (("--method", {"choices": ("gs", "gauss", "both"), "default": "gauss"}),)),
    ("check", "membership and admissibility predicates", cmd_check, True,
     (("--set", {"required": True, "choices": ("g0", "an", "a", "n", "q", "q_adm", "an_adm")}),)),
    ("dress", "dressing action: factor b g = g' b'", cmd_dress, False,
     (("--b", {"required": True, "metavar": "PATH", "help": "triangular factor document"}),
      ("--g", {"required": True, "metavar": "PATH", "help": "pseudo-unitary factor document"}))),
    ("sym", "symmetrization dagger(b) b of a triangular factor", cmd_sym, True, ()),
    ("classify", "cone class of a vector document", cmd_classify, True, ()),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supq",
        description="Factor SL(n,C) elements into SU(p,q) times the triangular "
        "subgroup, test admissibility, and apply the dressing action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func, with_input, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="structural tolerance, finite and >= 0 (default 1e-9)")
        p.add_argument("--json", action="store_true", help="emit the raw JSON report")
        if with_input:
            p.add_argument("--in", dest="infile", default=None, metavar="PATH",
                           help="matrix document path (default: stdin)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--json", action="store_true", help="emit the raw JSON report")
    p.add_argument("--nmax", type=int, default=4, help="largest matrix size (2..8)")
    p.add_argument("--trials", type=int, default=200, help="base trial count per suite")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"command": args.command, "success": True, "outputs": {}, "diagnostics": {}}
    try:
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:
            raise ParseError(f"--tol must be finite and >= 0, got {args.tol}")
        # overflow is judged by the library and reported, never warned about
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            report["outputs"], report["diagnostics"] = args.func(args)
        _emit(report, args.json)
        return EXIT_OK
    except SupqError as exc:
        error_code, code = next((e, c) for kinds, e, c in _ERROR_REPORTS if isinstance(exc, kinds))
        report.update(success=False, outputs={},
                      diagnostics={"error_code": error_code, "detail": str(exc)})
        if isinstance(exc, NotDecomposable):
            report["diagnostics"].update(kind=exc.kind, index=exc.index)
        _emit(report, args.json)
        return code


if __name__ == "__main__":
    sys.exit(main())
