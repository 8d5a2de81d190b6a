"""Seeded inputs, operation schedules and output checks for the benchmark.

Matrices are built with numpy alone from the workload seed, so one seed
gives bit-identical inputs whatever the library under test computes.  The
one exception is the admissible triangular factor that ``dress`` and
``check_admissible_an`` consume: it is the Gram-Schmidt factor of an
element built here, computed once per input while setting up.

Every operation is one public call into ``supq``.  Its output is checked
with numpy against the defining properties of the answer (``g = s b``,
``dagger(s) s = I``, ``b`` upper triangular with positive diagonal), against
the other decomposition route and, at n = 2, against the closed-form 2x2
oracle.  Admissibility verdicts and CLI exit codes are compared with what
the construction guarantees.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Any

import numpy as np

WORKLOADS = ("factor_small", "factor_large", "admissibility_mix", "cli_docs")

# Outcome of one checked operation.  DECLINED is the library's documented
# "not decomposable" refusal of an input that is decomposable by
# construction: a false refusal, such as the Gauss route's SingularMinor at
# large cond(g).  It is counted apart from FAILED (an unexpected exception)
# and reported as the share of operations that were not falsely refused.
OK, FAILED, WRONG, DECLINED = 0, 1, 2, 3

# Output-check limits.  They catch wrong answers, not roundoff: the measured
# maxima are reported as metrics.  The Gauss route's pseudo-unitarity defect
# reaches 1e-7..1e-6 at cond(g) ~ 1e7 by design of its acceptance window,
# so the unitary and route-agreement limits sit well above that and well
# below the O(1e-3) defect of a perturbed factor.
RESIDUAL_LIMIT = 1e-8
UNITARY_LIMIT = 1e-4
ROUTE_GAP_LIMIT = 1e-4
LOG_LIMIT = 1e-8
STRUCTURE_LIMIT = 1e-12

FACTOR_SMALL_SIZES = (2, 3, 4, 5, 6)
FACTOR_LARGE_SIZES = (16, 24, 32)
# Exponent scales of the admissible diagonal; with the pseudo-unitary
# factor they sweep cond(g) from about 1e1 to 1e7 at these sizes.
FACTOR_LARGE_SCALES = (1.0, 1.25, 1.5, 1.75, 2.0)
# Enough inputs that the share of operations the Gauss route refuses, which
# depends on the inputs a seed draws, varies by about 1% between seeds
# (quartile spread over ten seeds).
FACTOR_LARGE_INPUTS = 300
ADMISSIBILITY_SIZES = (2, 3, 4, 5, 6, 7, 8)
CLI_SIZES = (2, 4, 8, 16)
CONE_TRIALS = 1000


# ---------------------------------------------------------------------------
# numpy-only generators


def expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor series."""
    n = X.shape[0]
    norm = float(np.linalg.norm(X, 1))
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    A = X / 2.0**squarings
    term = np.eye(n, dtype=np.complex128)
    E = term.copy()
    for k in range(1, 18):
        term = term @ A / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def j_diag(p: int, n: int) -> np.ndarray:
    j = np.ones(n)
    j[p:] = -1.0
    return j


def dagger(A: np.ndarray, j: np.ndarray) -> np.ndarray:
    return (j[:, None] * A.conj().T) * j[None, :]


def random_g0(j: np.ndarray, rng: np.random.Generator, spread: float) -> np.ndarray:
    """exp of a traceless dagger-antisymmetric X with ||X||_F = spread."""
    n = j.size
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = 0.5 * (Z - dagger(Z, j))
    X -= (np.trace(X) / n) * np.eye(n)
    X *= spread / np.linalg.norm(X)
    return expm(X)


def admissible_exponents(p: int, q: int, rng: np.random.Generator,
                         gap: float = 1e-3, scale: float = 1.0) -> np.ndarray:
    """Zero-sum exponents with min(timelike) - max(spacelike) >= gap."""
    lam = np.sort(rng.normal(0.0, scale, p))[::-1]
    mu = np.sort(rng.normal(0.0, scale, q))[::-1]
    need = gap - (lam.min() - mu.max())
    if need > 0:
        lam += 0.5 * need
        mu -= 0.5 * need
    d = np.concatenate([lam, mu])
    return d - d.mean()


def gap_violating_exponents(p: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-sum exponents whose largest spacelike entry exceeds the smallest
    timelike one by 0.1 to 1.5."""
    lam = np.sort(rng.normal(0.0, 1.0, p))[::-1]
    mu = np.sort(rng.normal(0.0, 1.0, q))[::-1]
    mu[0] = lam.min() + rng.uniform(0.1, 1.5)
    d = np.concatenate([lam, np.sort(mu)[::-1]])
    return d - d.mean()


def diag_matrix(d: np.ndarray) -> np.ndarray:
    return np.diag(np.exp(d)).astype(np.complex128)


def decomposable(p: int, n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """exp(admissible diagonal) times a pseudo-unitary element: decomposable
    by construction, with an admissible triangular factor."""
    d = admissible_exponents(p, n - p, rng, scale=scale)
    return diag_matrix(d) @ random_g0(j_diag(p, n), rng, rng.uniform(0.1, 2.0))


def q_element(d: np.ndarray, j: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """dagger(g) exp(d) g: dagger-fixed, admissible iff d is."""
    g = random_g0(j, rng, 1.0)
    return dagger(g, j) @ diag_matrix(d) @ g


def random_an(n: int, rng: np.random.Generator, spread: float) -> np.ndarray:
    diag = np.exp(rng.uniform(-spread, spread, n))
    diag /= np.prod(diag) ** (1.0 / n)
    M = np.diag(diag).astype(np.complex128)
    rows, cols = np.triu_indices(n, 1)
    M[rows, cols] = spread * (rng.standard_normal(rows.size)
                              + 1j * rng.standard_normal(rows.size)) / np.sqrt(2.0)
    return M


def cell_crossed(p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Element outside the identity cell: a 2x2 block with |a| < |c| bridging
    a timelike and a spacelike index, half the time hidden inside
    pseudo-unitary and triangular cosets (the construction of
    ``supq.selftest.random_cell_crossed``, at a given size)."""
    a = complex(0.7 * (rng.standard_normal() + 1j * rng.standard_normal()))
    c = complex((abs(a) + 0.3 + abs(rng.standard_normal()))
                * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    b = complex(rng.standard_normal() + 1j * rng.standard_normal())
    i0, j0 = int(rng.integers(0, p)), int(rng.integers(p, n))
    E = np.eye(n, dtype=np.complex128)
    E[i0, i0], E[i0, j0], E[j0, i0], E[j0, j0] = a, b, c, (1.0 + b * c) / a
    dressed = random_g0(j_diag(p, n), rng, 0.5) @ E @ random_an(n, rng, 0.5)
    return E if rng.uniform() < 0.5 else dressed


def cone_vector(p: int, n: int, timelike: bool, rng: np.random.Generator) -> np.ndarray:
    """A timelike or spacelike vector, well away from the null cone."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mags = z.real**2 + z.imag**2
    pos, neg = float(mags[:p].sum()), float(mags[p:].sum())
    margin = rng.uniform(0.1, 0.6) * (pos + neg)
    if timelike:
        z[:p] *= np.sqrt((margin + neg) / pos)
    else:
        z[p:] *= np.sqrt((margin + pos) / neg)
    return z


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One public call: ``supq.<module>.<func>(*args, **kwargs)``.

    ``check`` names the output check and ``expect`` carries what the
    construction guarantees.  ``case`` pairs the two routes run on one input.
    """

    check: str
    module: str
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    expect: Any = None
    case: int = -1
    n: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cold_start_doc: str


def call(op: Op, modules: dict, clock) -> tuple[Any, BaseException | None, float]:
    """Run ``op`` once; returns ``(output, exception, seconds)``.

    Array arguments are copied before the clock starts, so every call sees a
    fresh object.  The function is looked up at call time, so a traced
    binding is picked up.
    """
    fn = getattr(modules[op.module], op.func)
    args = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in op.args)
    if op.check == "cli":
        buf = io.StringIO()
        t0 = clock()
        try:
            with redirect_stdout(buf):
                code = fn(list(args))
        except Exception as exc:  # the checker classifies every failure
            return None, exc, clock() - t0
        return (code, buf.getvalue()), None, clock() - t0
    t0 = clock()
    try:
        out = fn(*args, **op.kwargs)
    except Exception as exc:  # the checker classifies every failure
        return None, exc, clock() - t0
    return out, None, clock() - t0


def _factor_small(rng: np.random.Generator, supq) -> list[Op]:
    ops: list[Op] = []
    for i in range(500):
        n = FACTOR_SMALL_SIZES[i % len(FACTOR_SMALL_SIZES)]
        p = int(rng.integers(1, n))
        sig = supq.Signature(p, n - p)
        # every tenth block of five sizes is out of the identity cell
        in_cell = (i // len(FACTOR_SMALL_SIZES)) % 10 != 9
        g = decomposable(p, n, rng) if in_cell else cell_crossed(p, n, rng)
        for func in ("decompose_gauss", "decompose_gs"):
            ops.append(Op("factor", "iwasawa", func, (g, sig),
                          expect={"g": g, "p": p, "in_cell": in_cell}, case=i, n=n))
        ops.append(_dress_op(p, n, rng, supq, sig))
    return ops


def _factor_large(rng: np.random.Generator, supq) -> list[Op]:
    ops: list[Op] = []
    for i in range(FACTOR_LARGE_INPUTS):
        n = FACTOR_LARGE_SIZES[i % len(FACTOR_LARGE_SIZES)]
        scale = FACTOR_LARGE_SCALES[i % len(FACTOR_LARGE_SCALES)]
        p = int(rng.integers(1, n))
        sig = supq.Signature(p, n - p)
        g = decomposable(p, n, rng, scale=scale)
        for func in ("decompose_gauss", "decompose_gs"):
            ops.append(Op("factor", "iwasawa", func, (g, sig),
                          expect={"g": g, "p": p, "in_cell": True}, case=i, n=n))
        if n == 16:
            ops.append(_dress_op(p, n, rng, supq, sig))
    return ops


def _dress_op(p: int, n: int, rng: np.random.Generator, supq, sig) -> Op:
    b = admissible_an(p, n, rng, supq, sig)
    g = random_g0(j_diag(p, n), rng, rng.uniform(0.1, 1.0))
    return Op("dress", "iwasawa", "dress", (b, g, sig), expect={"b": b, "g": g, "p": p}, n=n)


def admissible_an(p: int, n: int, rng: np.random.Generator, supq, sig) -> np.ndarray:
    """The Gram-Schmidt triangular factor of a decomposable element."""
    return supq.decompose_gs(decomposable(p, n, rng), sig).b


# One cone check per this many other operations put roughly a third of the
# workload's time in cone_preservation_check when this benchmark was defined.
CONE_EVERY = 160


def _admissibility_mix(rng: np.random.Generator, supq) -> list[Op]:
    ops: list[Op] = []
    cone: list[Op] = []
    for i in range(300):
        n = ADMISSIBILITY_SIZES[i % len(ADMISSIBILITY_SIZES)]
        p = int(rng.integers(1, n))
        sig, j = supq.Signature(p, n - p), j_diag(p, n)
        good = q_element(admissible_exponents(p, n - p, rng), j, rng)
        bad = q_element(gap_violating_exponents(p, n - p, rng), j, rng)
        b = admissible_an(p, n, rng, supq, sig)
        ops.append(Op("verdict", "admissible", "check_admissible_q", (good, sig), expect=True, n=n))
        ops.append(Op("verdict", "admissible", "check_admissible_q", (bad, sig), expect=False, n=n))
        ops.append(Op("q_log", "iwasawa", "q_log", (good, sig), expect={"s": good, "p": p}, n=n))
        ops.append(Op("verdict", "admissible", "check_admissible_an", (b, sig), expect=True, n=n))
        cone.append(Op("verdict", "admissible", "cone_preservation_check", (good, sig),
                       kwargs={"trials": CONE_TRIALS, "seed": int(rng.integers(2**32))},
                       expect=True, n=n))
    mixed: list[Op] = []
    for k, op in enumerate(ops):
        if k % CONE_EVERY == 0:
            mixed.append(cone[(k // CONE_EVERY) % len(cone)])
        mixed.append(op)
    return mixed


def _write_doc(path: str, M: np.ndarray, p: int, n: int) -> None:
    grid = [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"signature": {"p": p, "q": n - p}, "matrix": grid}, fh)


MALFORMED_DOCS = (
    '{"signature": {"p": 1, "q": 1}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]',
    '{"signature": {"p": 1, "q": 1}, "matrix": [[[1, 0], [0, 0]]]}',
    '{"signature": {"p": 1, "q": 1}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [true, 0]]]}',
    '{"signature": {"p": 0, "q": 2}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
)


def _cli_docs(rng: np.random.Generator, supq, workdir: str) -> list[Op]:
    ops: list[Op] = []

    def cli(argv: list[str], code: int, n: int, **expect) -> None:
        ops.append(Op("cli", "cli", "main", tuple(argv), expect={"code": code, **expect}, n=n))

    for n in CLI_SIZES:
        for v in range(3):
            p = int(rng.integers(1, n))
            sig, j = supq.Signature(p, n - p), j_diag(p, n)
            mats = {
                "g": decomposable(p, n, rng),
                "crossed": cell_crossed(p, n, rng),
                "g0": random_g0(j, rng, rng.uniform(0.1, 1.0)),
                "b": admissible_an(p, n, rng, supq, sig),
                "a": diag_matrix(admissible_exponents(p, n - p, rng)),
                "n": np.eye(n, dtype=np.complex128) + np.triu(random_an(n, rng, 0.5), 1),
                "q": q_element(admissible_exponents(p, n - p, rng), j, rng),
                "q_bad": q_element(gap_violating_exponents(p, n - p, rng), j, rng),
                "timelike": cone_vector(p, n, True, rng)[None, :],
                "spacelike": cone_vector(p, n, False, rng)[None, :],
            }
            path = {}
            for key, M in mats.items():
                path[key] = os.path.join(workdir, f"{key}-{n}-{v}.json")
                _write_doc(path[key], M, p, n)
            bad = os.path.join(workdir, f"malformed-{n}-{v}.json")
            with open(bad, "w", encoding="utf-8") as fh:
                fh.write(MALFORMED_DOCS[(len(CLI_SIZES) * v + n) % len(MALFORMED_DOCS)])
            g, b, g0 = mats["g"], mats["b"], mats["g0"]
            for method in ("gauss", "gs", "both"):
                cli(["decompose", "--method", method, "--json", "--in", path["g"]], 0, n,
                    command="decompose", g=g, p=p)
            cli(["decompose", "--json", "--in", path["crossed"]], 4, n, command="decompose")
            for doc, set_name, verdict in (
                ("g0", "g0", True), ("g", "g0", False), ("b", "an", True), ("a", "a", True),
                ("n", "n", True), ("g", "n", False), ("q", "q", True), ("q", "q_adm", True),
                ("q_bad", "q_adm", False), ("b", "an_adm", True),
            ):
                cli(["check", "--set", set_name, "--json", "--in", path[doc]], 0, n,
                    command="check", verdict=verdict)
            cli(["dress", "--json", "--b", path["b"], "--g", path["g0"]], 0, n,
                command="dress", bg=b @ g0, p=p)
            cli(["sym", "--json", "--in", path["b"]], 0, n,
                command="sym", sym=dagger(b, j) @ b)
            for cone in ("timelike", "spacelike"):
                cli(["classify", "--json", "--in", path[cone]], 0, n,
                    command="classify", cone=cone)
            cli(["decompose", "--json", "--in", bad], 2, n, command="decompose")
    return ops


def build(name: str, seed: int, workdir: str, supq) -> Workload:
    """Inputs and the cyclic operation schedule of workload ``name``.

    ``supq`` is the package under test; its ``Signature`` wraps each input's
    signature and its ``decompose_gs`` builds admissible triangular factors.
    ``workdir`` receives the CLI documents and, for every workload, the
    n = 16 document that the cold-start runs decompose.
    """
    rng = np.random.default_rng([int(seed) % 2**63, WORKLOADS.index(name)])
    os.makedirs(workdir, exist_ok=True)
    if name == "factor_small":
        ops = _factor_small(rng, supq)
    elif name == "factor_large":
        ops = _factor_large(rng, supq)
    elif name == "admissibility_mix":
        ops = _admissibility_mix(rng, supq)
    elif name == "cli_docs":
        ops = _cli_docs(rng, supq, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    cold = np.random.default_rng([int(seed) % 2**63, len(WORKLOADS)])
    p = int(cold.integers(1, 16))
    doc = os.path.join(workdir, "cold-start.json")
    _write_doc(doc, decomposable(p, 16, cold), p, 16)
    return Workload(name, ops, doc)


# ---------------------------------------------------------------------------
# checks


def unitary_defect(s: np.ndarray, j: np.ndarray) -> float:
    return float(np.linalg.norm(dagger(s, j) @ s - np.eye(s.shape[0])))


def triangular_ok(b: np.ndarray) -> bool:
    """Upper triangular with a positive real diagonal."""
    scale = float(np.linalg.norm(b))
    diag = np.diagonal(b)
    return (float(np.linalg.norm(np.tril(b, -1))) <= STRUCTURE_LIMIT * scale
            and bool(np.all(np.abs(diag.imag) <= STRUCTURE_LIMIT * np.abs(diag.real)))
            and bool(np.all(diag.real > 0)))


def _matrix(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


class Checker:
    """Checks each output and keeps the accuracy maxima of a run."""

    def __init__(self, supq) -> None:
        self._supq = supq
        self.residual_max = 0.0
        self.unitary_defect_max = 0.0
        self.gauss_unitary_defect_max = 0.0
        self.route_gap_max = 0.0
        self.log_roundtrip_max = 0.0
        self.gauss_attempts = 0
        self.gauss_rejects = 0
        self.first_wrong = ""
        self.first_failed = ""
        self.first_declined = ""
        self._pending: dict[int, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
        self._paired: set[int] = set()

    def check(self, op: Op, out: Any, exc: BaseException | None) -> int:
        try:
            verdict, why = getattr(self, "_check_" + op.check)(op, out, exc)
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            verdict, why = WRONG, f"malformed output: {type(err).__name__}: {err}"
        if verdict == WRONG and not self.first_wrong:
            self.first_wrong = f"{op.module}.{op.func} n={op.n}: {why}"
        if verdict == FAILED and not self.first_failed:
            self.first_failed = f"{op.module}.{op.func} n={op.n}: {why}"
        if verdict == DECLINED and not self.first_declined:
            self.first_declined = f"{op.module}.{op.func} n={op.n}: {why}"
        return verdict

    def _factor(self, g: np.ndarray, s: np.ndarray, b: np.ndarray, p: int,
                gauss: bool) -> tuple[int, str]:
        j = j_diag(p, g.shape[0])
        residual = float(np.linalg.norm(g - s @ b)) / max(1.0, float(np.linalg.norm(g)))
        defect = unitary_defect(s, j)
        self.residual_max = max(self.residual_max, residual)
        self.unitary_defect_max = max(self.unitary_defect_max, defect)
        if gauss:
            self.gauss_unitary_defect_max = max(self.gauss_unitary_defect_max, defect)
        if residual > RESIDUAL_LIMIT:
            return WRONG, f"residual {residual:.3e}"
        if defect > UNITARY_LIMIT:
            return WRONG, f"pseudo-unitarity defect {defect:.3e}"
        if not triangular_ok(b):
            return WRONG, "triangular factor is not upper triangular with positive diagonal"
        return OK, ""

    def _route_gap(self, case: int, route: str, g: np.ndarray,
                   s: np.ndarray, b: np.ndarray) -> tuple[int, str]:
        """Compare the two routes on one input, and the 2x2 oracle at n = 2,
        once per input."""
        if case in self._paired:
            return OK, ""
        routes = self._pending.setdefault(case, {})
        routes[route] = (s, b)
        if len(routes) < 2:
            return OK, ""
        self._paired.add(case)
        del self._pending[case]
        pairs = list(routes.values())
        if g.shape[0] == 2:
            su11 = self._supq.su11
            k, tri = su11.su11_decompose(su11.Sl2Element.from_matrix(g))
            pairs.append((k.as_matrix(), tri.as_matrix()))
        scale = max(1.0, float(np.linalg.norm(g)))
        ref_s, ref_b = pairs[0]
        gap = max(max(float(np.linalg.norm(s - ref_s)), float(np.linalg.norm(b - ref_b)))
                  for s, b in pairs[1:]) / scale
        self.route_gap_max = max(self.route_gap_max, gap)
        if gap > ROUTE_GAP_LIMIT:
            return WRONG, f"routes disagree by {gap:.3e}"
        return OK, ""

    def _check_factor(self, op: Op, out: Any, exc: BaseException | None) -> tuple[int, str]:
        e = op.expect
        gauss = op.func == "decompose_gauss"
        if not e["in_cell"]:
            if isinstance(exc, self._supq.NotDecomposable):
                return OK, ""
            if exc is None:
                return WRONG, "accepted an element outside the identity cell"
            return FAILED, f"raised {type(exc).__name__}: {exc}"
        if gauss:
            self.gauss_attempts += 1
        if isinstance(exc, self._supq.NotDecomposable):
            if gauss:
                self.gauss_rejects += 1
            return DECLINED, f"refused a decomposable input: {type(exc).__name__}: {exc}"
        if exc is not None:
            return FAILED, f"raised {type(exc).__name__}: {exc}"
        verdict = self._factor(e["g"], out.s, out.b, e["p"], gauss)
        if verdict[0] != OK:
            return verdict
        return self._route_gap(op.case, op.func, e["g"], out.s, out.b)

    def _check_dress(self, op: Op, out: Any, exc: BaseException | None) -> tuple[int, str]:
        if isinstance(exc, self._supq.NotDecomposable):
            return DECLINED, f"refused a decomposable input: {type(exc).__name__}: {exc}"
        if exc is not None:
            return FAILED, f"raised {type(exc).__name__}: {exc}"
        e = op.expect
        return self._factor(e["b"] @ e["g"], out.g_prime, out.b_prime, e["p"], True)

    def _check_verdict(self, op: Op, out: Any, exc: BaseException | None) -> tuple[int, str]:
        if exc is not None:
            return FAILED, f"raised {type(exc).__name__}: {exc}"
        got = out if isinstance(out, bool) else out.admissible
        if got != op.expect:
            return WRONG, f"verdict {got}, expected {op.expect}"
        return OK, ""

    def _check_q_log(self, op: Op, out: Any, exc: BaseException | None) -> tuple[int, str]:
        if exc is not None:
            return FAILED, f"rejected an admissible input: {type(exc).__name__}: {exc}"
        s = op.expect["s"]
        roundtrip = float(np.linalg.norm(expm(out) - s)) / float(np.linalg.norm(s))
        self.log_roundtrip_max = max(self.log_roundtrip_max, roundtrip)
        if roundtrip > LOG_LIMIT:
            return WRONG, f"exp(q_log(s)) misses s by {roundtrip:.3e}"
        return OK, ""

    def _check_cli(self, op: Op, out: Any, exc: BaseException | None) -> tuple[int, str]:
        e = op.expect
        if exc is not None:
            return FAILED, f"raised {type(exc).__name__}: {exc}"
        code, text = out
        if code != e["code"]:
            if e["code"] == 0 and code == 4 and e["command"] in ("decompose", "dress"):
                return DECLINED, "refused a decomposable document"
            return WRONG, f"exit code {code}, expected {e['code']}"
        report = json.loads(text)
        if report.get("command") != e["command"]:
            return WRONG, f"report for command {report.get('command')!r}"
        if code != 0:
            wanted = "parse_error" if code == 2 else "not_decomposable"
            got = report["diagnostics"].get("error_code")
            if report["success"] or got != wanted:
                return WRONG, f"error code {got!r}, expected {wanted!r}"
            return OK, ""
        outputs = report["outputs"]
        command = e["command"]
        if command == "decompose":
            if "agreement" in outputs:
                self.route_gap_max = max(self.route_gap_max, float(outputs["agreement"]))
                if outputs["agreement"] > ROUTE_GAP_LIMIT:
                    return WRONG, f"routes disagree by {outputs['agreement']:.3e}"
            return self._factor(e["g"], _matrix(outputs["s"]), _matrix(outputs["b"]),
                                e["p"], outputs["method"] != "gs")
        if command == "dress":
            return self._factor(e["bg"], _matrix(outputs["g_prime"]),
                                _matrix(outputs["b_prime"]), e["p"], True)
        if command == "check":
            if outputs["verdict"] != e["verdict"]:
                return WRONG, f"verdict {outputs['verdict']}, expected {e['verdict']}"
            return OK, ""
        if command == "sym":
            want = e["sym"]
            err = float(np.linalg.norm(_matrix(outputs["sym"]) - want))
            if err > RESIDUAL_LIMIT * max(1.0, float(np.linalg.norm(want))):
                return WRONG, f"sym differs by {err:.3e}"
            return OK, ""
        if outputs["cone"] != e["cone"]:
            return WRONG, f"cone {outputs['cone']!r}, expected {e['cone']!r}"
        return OK, ""
