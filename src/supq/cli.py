"""Command-line interface.

Reads JSON matrix documents (see :mod:`supq.docio`), runs the requested
operation, and emits a Report: human-readable lines by default, the raw
JSON report with ``--json``.

Exit codes: 0 on success, 2 on malformed input, 3 on a violated
precondition (membership, zero vector, mismatched signatures), 4 when the
element is not decomposable.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import docio
from .admissible import check_admissible_an, check_admissible_q
from .errors import MembershipError, NotDecomposable, ParseError, SupqError, ZeroVector
from .groups import GroupTag, is_member
from .indefinite import _cone_margin, classify
from .iwasawa import decompose_gauss, decompose_gs, dress, sym
from .kernel import DEFAULT_TOL
from .selftest import run_selftest

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NOT_DECOMPOSABLE = 4

def _read_text(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path or 'stdin'}: {exc}") from exc


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(docio.dumps(report))
        return
    status = "ok" if report["success"] else "failed"
    print(f"{report['command']}: {status}")
    for key, value in report["diagnostics"].items():
        print(f"  {key} = {value}")
    for key, value in report["outputs"].items():
        if isinstance(value, dict) and "matrix" in value:
            rows = np.array(
                [[complex(re, im) for re, im in row] for row in value["matrix"]]
            )
            print(f"  {key} =\n{np.array2string(rows, precision=6, suppress_small=True)}")
        else:
            print(f"  {key} = {value}")


#: Errors a command lets through, mapped to (error_code, exit code); the
#: first matching row wins.
_ERROR_REPORTS = (
    (ParseError, "parse_error", EXIT_PARSE),
    (NotDecomposable, "not_decomposable", EXIT_NOT_DECOMPOSABLE),
    ((MembershipError, ZeroVector), "invalid_input", EXIT_PRECONDITION),
    (SupqError, "error", EXIT_PRECONDITION),
)


def _failure(command: str, code: str, exc: Exception) -> dict:
    return docio.build_report(command, False, {}, error_code=code, detail=str(exc))


def cmd_decompose(args) -> tuple[dict, int]:
    M, sig, label = docio.load_document(_read_text(args.infile))
    outputs: dict = {"method": args.method}
    if label:
        outputs["label"] = label
    pairs = {}
    if args.method in ("gauss", "both"):
        pairs["gauss"] = decompose_gauss(M, sig, args.tol)
    if args.method in ("gs", "both"):
        pairs["gs"] = decompose_gs(M, sig, args.tol)
    primary = pairs.get("gauss") or pairs["gs"]
    outputs["s"] = docio.matrix_to_doc(primary.s, sig)
    outputs["b"] = docio.matrix_to_doc(primary.b, sig)
    outputs["a"] = [float(v) for v in primary.a]
    outputs["n"] = docio.matrix_to_doc(primary.n_factor, sig)
    if args.method == "both":
        scale = max(1.0, float(np.linalg.norm(M)))
        outputs["agreement"] = max(
            float(np.linalg.norm(pairs["gauss"].s - pairs["gs"].s)),
            float(np.linalg.norm(pairs["gauss"].b - pairs["gs"].b)),
        ) / scale
    residual = max(pair.residual for pair in pairs.values())
    return docio.build_report("decompose", True, outputs, residual=residual), EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    M, sig, label = docio.load_document(_read_text(args.infile))
    outputs: dict = {"set": args.set}
    if label:
        outputs["label"] = label
    if args.set not in ("q_adm", "an_adm"):
        outputs["verdict"] = bool(is_member(M, GroupTag(args.set), sig, args.tol))
        return docio.build_report("check", True, outputs), EXIT_OK
    checker = check_admissible_q if args.set == "q_adm" else check_admissible_an
    try:
        report = checker(M, sig, args.tol)
    except MembershipError as exc:
        outputs["verdict"] = False
        outputs["reason"] = str(exc)
        return docio.build_report("check", True, outputs, margin=0.0), EXIT_OK
    outputs["verdict"] = report.admissible
    outputs["reason"] = report.reason
    outputs["eigenvalues"] = [docio.complex_to_pair(z) for z in report.eigenvalues]
    outputs["timelike_values"] = [float(v) for v in report.timelike_values]
    outputs["spacelike_values"] = [float(v) for v in report.spacelike_values]
    return docio.build_report("check", True, outputs, margin=report.margin), EXIT_OK


def cmd_dress(args) -> tuple[dict, int]:
    b_mat, b_sig, _ = docio.load_document(_read_text(args.b))
    g_mat, g_sig, _ = docio.load_document(_read_text(args.g))
    if b_sig != g_sig:
        exc = ValueError(f"signatures differ: ({b_sig.p},{b_sig.q}) vs ({g_sig.p},{g_sig.q})")
        return _failure("dress", "invalid_input", exc), EXIT_PRECONDITION
    result = dress(b_mat, g_mat, b_sig, args.tol)
    outputs = {
        "g_prime": docio.matrix_to_doc(result.g_prime, b_sig),
        "b_prime": docio.matrix_to_doc(result.b_prime, b_sig),
    }
    residual = float(np.linalg.norm(b_mat @ g_mat - result.g_prime @ result.b_prime))
    return docio.build_report("dress", True, outputs, residual=residual), EXIT_OK


def cmd_sym(args) -> tuple[dict, int]:
    M, sig, label = docio.load_document(_read_text(args.infile))
    out = sym(M, sig, args.tol)
    outputs: dict = {"sym": docio.matrix_to_doc(out, sig)}
    if label:
        outputs["label"] = label
    return docio.build_report("sym", True, outputs), EXIT_OK


def cmd_classify(args) -> tuple[dict, int]:
    M, sig, label = docio.load_document(_read_text(args.infile), allow_vector=True)
    if M.shape not in {(1, sig.n), (sig.n, 1)}:
        raise ParseError("classify needs a vector document (a 1 x n or n x 1 matrix)")
    x = M.reshape(-1)
    cone = classify(x, sig, args.tol)
    ns, e2, _ = _cone_margin(x, sig.p)
    outputs: dict = {"cone": cone.value}
    if label:
        outputs["label"] = label
    return docio.build_report("classify", True, outputs, margin=ns / e2), EXIT_OK


def cmd_selftest(args) -> tuple[dict, int]:
    if not 2 <= args.nmax <= 8:
        raise ParseError("selftest: --nmax must be between 2 and 8")
    results = run_selftest(args.nmax, args.trials, args.seed)
    outputs = {
        r.name: {"passed": r.passed, "trials": r.trials, "worst": r.worst, "detail": r.detail}
        for r in results
    }
    outputs["all_passed"] = all(r.passed for r in results)
    return docio.build_report("selftest", True, outputs), EXIT_OK


def _print_selftest_human(report: dict) -> None:
    outputs = report["outputs"]
    for name, entry in outputs.items():
        if name == "all_passed":
            continue
        flag = "PASS" if entry["passed"] else "FAIL"
        print(f"{flag} {name}: {entry['detail']}")
    print("all passed" if outputs["all_passed"] else "some suites FAILED")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supq",
        description="Factor SL(n,C) elements into SU(p,q) times the triangular "
        "subgroup, test admissibility, and apply the dressing action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="structural tolerance (default 1e-9)")
        p.add_argument("--json", action="store_true", help="emit the raw JSON report")
        if with_input:
            p.add_argument("--in", dest="infile", default=None, metavar="PATH",
                           help="matrix document path (default: stdin)")

    p = sub.add_parser("decompose", help="factor g = s b")
    common(p)
    p.add_argument("--method", choices=("gs", "gauss", "both"), default="gauss")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="membership and admissibility predicates")
    common(p)
    p.add_argument("--set", required=True,
                   choices=("g0", "an", "a", "n", "q", "q_adm", "an_adm"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dress", help="dressing action: factor b g = g' b'")
    common(p, with_input=False)
    p.add_argument("--b", required=True, metavar="PATH", help="triangular factor document")
    p.add_argument("--g", required=True, metavar="PATH", help="pseudo-unitary factor document")
    p.set_defaults(func=cmd_dress)

    p = sub.add_parser("sym", help="symmetrization dagger(b) b of a triangular factor")
    common(p)
    p.set_defaults(func=cmd_sym)

    p = sub.add_parser("classify", help="cone class of a vector document")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("selftest", help="run the property suites")
    common(p, with_input=False)
    p.add_argument("--nmax", type=int, default=4, help="largest matrix size (2..8)")
    p.add_argument("--trials", type=int, default=200, help="base trial count per suite")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
    except SupqError as exc:
        error_code, code = next((e, c) for kinds, e, c in _ERROR_REPORTS if isinstance(exc, kinds))
        report = _failure(args.command, error_code, exc)
    if args.command == "selftest" and report["success"] and not args.json:
        _print_selftest_human(report)
    else:
        _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
