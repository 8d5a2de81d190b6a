"""Property suites behind the ``selftest`` CLI command and the acceptance
tests, plus the random generators they share.

Every suite draws its randomness per trial from ``(seed, suite id, trial
index)``, so results are reproducible and independent of any execution
order or fan-out over workers.  Failures are reported as data in the
returned :class:`SuiteResult`, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .admissible import _cone_search, check_admissible_an, check_admissible_q, cone_preservation_check, leading_minors
from .errors import NotDecomposable, SupqError
from .groups import random_admissible_diag, random_an, random_g0
from .indefinite import ConeClass, Signature, _cone_margins, _sample_cones, dagger
from .iwasawa import decompose_gauss, decompose_gs, dress, q_log
from .kernel import DEFAULT_TOL, _frobenius, _spectrum, mat_exp
from .su11 import Sl2Element, Su11ANElement, Su11QElement, su11_an_admissible, su11_decompose, su11_q_admissible

_SIG11 = Signature(1, 1)


@dataclass
class SuiteResult:
    """One property suite's verdict.

    ``worst`` is the suite's tightest observed margin or largest observed
    error, whichever the suite tracks; ``detail`` says which.
    """

    name: str
    passed: bool
    trials: int
    worst: float
    detail: str


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, *key])


def _unexpected(exc: SupqError) -> str:
    return f"unexpected {type(exc).__name__}: {exc}"


def _rel_err(ref: np.ndarray, approx: np.ndarray) -> float:
    """||ref - approx||_F relative to max(1, ||ref||_F)."""
    return _frobenius(ref - approx) / max(1.0, _frobenius(ref))


# ---------------------------------------------------------------------------
# shared generators


def random_signature(rng: np.random.Generator, n_max: int) -> Signature:
    """Uniform signature with 2 <= n <= n_max and p, q >= 1."""
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(1, n))
    return Signature(p, n - p)


def random_decomposable(sig: Signature, rng: np.random.Generator, gap: float = 1e-3) -> np.ndarray:
    """exp(admissible diagonal) times a pseudo-unitary element: always
    decomposable, with an admissible triangular factor."""
    d = random_admissible_diag(sig, rng, gap=gap)
    g0 = random_g0(sig, rng, spread=rng.uniform(0.1, 2.0))
    return np.diag(np.exp(d)).astype(np.complex128) @ g0


def random_admissible_q(sig: Signature, rng: np.random.Generator,
                        gap: float = 1e-3, spread: float = 1.0) -> np.ndarray:
    """Admissible dagger-fixed element: a conjugated admissible exp-diagonal."""
    d = random_admissible_diag(sig, rng, gap=gap)
    g = random_g0(sig, rng, spread=spread)
    return dagger(g, sig) @ np.diag(np.exp(d)).astype(np.complex128) @ g


def random_nonadmissible_q(sig: Signature, rng: np.random.Generator) -> np.ndarray:
    """Dagger-fixed element with real positive spectrum whose gap condition
    fails strictly: the largest spacelike exponent exceeds the smallest
    timelike one."""
    lam = np.sort(rng.normal(0.0, 1.0, sig.p))[::-1]
    mu = np.sort(rng.normal(0.0, 1.0, sig.q))[::-1]
    mu[0] = lam.min() + rng.uniform(0.1, 1.5)
    mu = np.sort(mu)[::-1]
    d = np.concatenate([lam, mu])
    d -= d.mean()
    g = random_g0(sig, rng, spread=1.0)
    return dagger(g, sig) @ np.diag(np.exp(d)).astype(np.complex128) @ g


def random_admissible_an(sig: Signature, rng: np.random.Generator,
                         gap: float = 1e-3, spread: float = 1.0,
                         scale: float = 1.0) -> np.ndarray:
    """Admissible triangular factor, generated by dressing an admissible
    element of A by a random pseudo-unitary element.

    ``scale`` controls the spread of the diagonal exponents; suites that
    multiply or chain these factors pass a reduced value so that the
    condition number of the product stays inside the range where the
    identities under test are verifiable in double precision.
    """
    d = random_admissible_diag(sig, rng, gap=gap, scale=scale)
    g = random_g0(sig, rng, spread=spread)
    return dress(np.diag(np.exp(d)).astype(np.complex128), g, sig).b_prime


def random_sl2_decomposable(rng: np.random.Generator) -> Sl2Element:
    """Random SL(2, C) element with |a| > |c| by a relative safety margin of 1e-3."""
    while True:
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(a) ** 2 - abs(c) ** 2 > 1e-3 * (abs(a) ** 2 + abs(c) ** 2):
            b = complex(rng.standard_normal() + 1j * rng.standard_normal())
            return Sl2Element(a, b, c, (1.0 + b * c) / a)


def random_su11_q(rng: np.random.Generator) -> Su11QElement:
    """Random dagger-fixed 2x2 element; 30% of draws sit within
    1e-4 of the admissibility boundary t1 = 1 + |m|."""
    m = complex(0.5 * (rng.standard_normal() + 1j * rng.standard_normal()))
    if rng.uniform() < 0.3:
        delta = 10.0 ** rng.uniform(-8, -4) * rng.choice([-1.0, 1.0])
        t1 = 1.0 + abs(m) + delta
    else:
        t1 = float(np.exp(rng.normal(0.0, 0.6)))
    t2 = (1.0 - abs(m) ** 2) / t1
    return Su11QElement(t1, t2, m)


def random_su11_an(rng: np.random.Generator) -> Su11ANElement:
    """Random triangular 2x2 element; 30% of draws sit within 1e-4
    of the boundary |n| = |r - 1/r|."""
    r = float(np.exp(rng.normal(0.0, 0.5)))
    base = (r - 1.0 / r) ** 2
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if rng.uniform() < 0.3 and base > 2e-4:
        delta = 10.0 ** rng.uniform(-8, -4) * rng.choice([-1.0, 1.0])
        n = complex(np.sqrt(base - delta) * phase)
    else:
        n = complex(0.7 * (rng.standard_normal() + 1j * rng.standard_normal()))
    return Su11ANElement(r, n)


def random_cell_crossed(rng: np.random.Generator):
    """Element of SL(n, C), 2 <= n <= 4, outside the identity cell: a 2x2 block with
    |a| < |c| bridging a timelike and a spacelike index, optionally hidden
    inside benign pseudo-unitary and triangular cosets.

    Returns ``(matrix, sig, pivot)`` where ``pivot`` is the 1-based index at
    which the triangular route must detect the wrong inertia.
    """
    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, n))
    sig = Signature(p, n - p)
    a = complex(0.7 * (rng.standard_normal() + 1j * rng.standard_normal()))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    c = complex((abs(a) + 0.3 + abs(rng.standard_normal())) * phase)
    b = complex(rng.standard_normal() + 1j * rng.standard_normal())
    d = (1.0 + b * c) / a
    i0 = int(rng.integers(0, p))
    j0 = int(rng.integers(p, n))
    E = np.eye(n, dtype=np.complex128)
    E[i0, i0], E[i0, j0], E[j0, i0], E[j0, j0] = a, b, c, d
    dressed = random_g0(sig, rng, 0.5) @ E @ random_an(sig, rng, 0.5)
    return (E if rng.uniform() < 0.5 else dressed), sig, i0 + 1


# ---------------------------------------------------------------------------
# suites


def _run_trials(name: str, key: int, seed: int, trials: int, trial, worst,
                summary: str) -> SuiteResult:
    """Run ``trial(rng)`` on ``_rng(seed, key, t)`` for t < ``trials``.

    ``trial`` returns ``(values, problem)``: the margins, errors or counts
    it measured, folded into the running worst with ``worst`` (``min``,
    ``max``, or ``sum`` for a count), and a description of what failed, or
    None.  A SupqError raised inside a trial is a failure of that trial and
    contributes no values.  The first failure's description becomes the
    detail; with none, the detail is ``summary`` followed by the worst value.
    """
    running = np.inf if worst is min else 0.0
    failures = 0
    detail = ""
    for t in range(trials):
        try:
            values, problem = trial(_rng(seed, key, t))
        except SupqError as exc:
            values, problem = (), _unexpected(exc)
        running = worst((running, *values))
        if problem is not None:
            failures += 1
            detail = detail or f"trial {t}: {problem}"
    return SuiteResult(name, failures == 0, trials, float(running),
                       detail or f"{summary} {running:.3e}")


def suite_global_decomposition(n_max: int = 6, trials: int = 1000, seed: int = 42,
                               resid_tol: float = 1e-9, agree_tol: float = 1e-8) -> SuiteResult:
    """Both decomposition routes succeed on exp(admissible diagonal) times a
    pseudo-unitary element, reconstruct to ``resid_tol`` relative, and agree
    with each other to ``agree_tol`` relative."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        g = random_decomposable(sig, rng)
        scale = max(1.0, _frobenius(g))
        p_gauss = decompose_gauss(g, sig)
        p_gs = decompose_gs(g, sig)
        resid = max(p_gauss.residual, p_gs.residual) / scale
        agree = max(_frobenius(p_gauss.s - p_gs.s), _frobenius(p_gauss.b - p_gs.b)) / scale
        bad = resid > resid_tol or agree > agree_tol
        return (resid, agree), f"residual {resid:.3e}, agreement {agree:.3e}" if bad else None

    return _run_trials("global_decomposition", 1, seed, trials, trial, max,
                       "worst relative residual/agreement")


def suite_timelike_preservation(n_max: int = 6, s_trials: int = 1000, x_per_s: int = 100,
                                seed: int = 42, tol: float = 1e-9) -> SuiteResult:
    """Admissible dagger-fixed elements map timelike vectors to timelike
    vectors; tracks the smallest relative indefinite norm of the images.
    Every image counts as one trial."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        s = random_admissible_q(sig, rng)
        images = _sample_cones([ConeClass.TIMELIKE] * x_per_s, sig, rng) @ s.T
        ns, e2, _ = _cone_margins(images, sig.p)
        margins = (ns / e2).tolist()
        bad = [m for m in margins if not m > tol]  # an overflowed image's NaN margin fails too
        return margins, f"image margin {bad[0]:.3e}" if bad else None

    result = _run_trials("timelike_preservation", 2, seed, s_trials, trial, min,
                         "smallest relative image margin")
    return replace(result, trials=s_trials * x_per_s)


def suite_multiplicativity(n_max: int = 6, trials: int = 1000, seed: int = 42) -> SuiteResult:
    """Products of admissible triangular factors stay admissible."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        b1 = random_admissible_an(sig, rng)
        b2 = random_admissible_an(sig, rng)
        report = check_admissible_an(b1 @ b2, sig)
        ok = report.admissible
        return (report.margin,), None if ok else f"product not admissible ({report.reason})"

    return _run_trials("multiplicativity", 3, seed, trials, trial, min,
                       "smallest product margin")


def suite_cone_characterization(n_max: int = 6, forward: int = 100, converse: int = 100,
                                forward_samples: int = 1000, converse_samples: int = 10000,
                                min_found: int = 95, seed: int = 42) -> SuiteResult:
    """Admissible elements pass the cone check (timelike and null samples);
    strict gap violations are caught, with at least ``min_found`` of the
    ``converse`` constructed counterexamples detected.  A forward trial also
    runs the check's Monte-Carlo search on the same draws, an oracle
    independent of its certificate, and fails if either refuses."""

    def violations(generate, samples, oracle):
        def trial(rng):
            sig = random_signature(rng, n_max)
            s = generate(sig, rng)
            draws = int(rng.integers(2**32))
            found = not cone_preservation_check(s, sig, samples, draws)
            return (found or (oracle and not _cone_search(s, sig, samples, draws, DEFAULT_TOL)),), None
        return trial

    fwd = _run_trials("cone_characterization", 4, seed, forward,
                      violations(random_admissible_q, forward_samples, True), sum, "forward failures")
    conv = _run_trials("cone_characterization", 5, seed, converse,
                       violations(random_nonadmissible_q, converse_samples, False), sum, "found")
    failed, found = int(fwd.worst), int(conv.worst)
    errors = [r.detail for r in (fwd, conv) if not r.passed]
    summary = (f"{failed} forward failures; violations found in {found}/{converse} constructed gap "
               "violators (the converse direction is probabilistic)")
    return replace(conv, passed=not errors and failed == 0 and found >= min_found,
                   trials=forward + converse, detail=errors[0] if errors else summary)


def suite_dressing_cocycle(n_max: int = 6, trials: int = 500, seed: int = 42,
                           rel: float = 1e-8) -> SuiteResult:
    """Dressing by a product equals dressing in two steps, for both the
    pseudo-unitary part and the triangular part."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        b1 = random_admissible_an(sig, rng, spread=0.5, scale=0.5)
        b2 = random_admissible_an(sig, rng, spread=0.5, scale=0.5)
        g = random_g0(sig, rng, spread=rng.uniform(0.1, 1.0))
        full = dress(b1 @ b2, g, sig)
        step2 = dress(b2, g, sig)
        step1 = dress(b1, step2.g_prime, sig)
        err_g = _rel_err(full.g_prime, step1.g_prime)
        err_b = _rel_err(full.b_prime, step1.b_prime @ step2.b_prime)
        bad = err_g > rel or err_b > rel
        return (err_g, err_b), f"cocycle errors {err_g:.3e}, {err_b:.3e}" if bad else None

    return _run_trials("dressing_cocycle", 6, seed, trials, trial, max,
                       "largest relative cocycle defect")


def suite_rayleigh_monotonicity(n_max: int = 6, trials: int = 500, seed: int = 42,
                                rel_margin: float = 1e-10) -> SuiteResult:
    """Sandwiching an admissible symmetrization by an admissible exp-diagonal
    strictly increases the top eigenvalue."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        amat = np.diag(np.exp(random_admissible_diag(sig, rng, gap=1e-3))).astype(np.complex128)
        b = random_admissible_an(sig, rng)
        s = dagger(b, sig) @ b
        top_s = float(_spectrum(s)[0][0].real)
        top_asa = float(_spectrum(amat @ s @ amat)[0][0].real)
        margin = (top_asa - top_s) / top_s
        return (margin,), f"relative increase {margin:.3e}" if margin <= rel_margin else None

    return _run_trials("rayleigh_monotonicity", 7, seed, trials, trial, min,
                       "smallest relative top-eigenvalue increase")


def suite_su11_oracle(trials: int = 10000, seed: int = 42, rel: float = 1e-10,
                      band: float = 1e-8) -> SuiteResult:
    """The general algorithms agree with the 2x2 closed form, and the
    numeric admissibility predicates agree with the exact inequalities
    outside a ``band`` around equality."""

    def factors(rng):
        el = random_sl2_decomposable(rng)
        M = el.as_matrix()
        scale = max(1.0, _frobenius(M))
        k_mat, b_mat = (factor.as_matrix() for factor in su11_decompose(el))
        pairs = decompose_gs(M, _SIG11), decompose_gauss(M, _SIG11)
        errs = [max(_frobenius(p.s - k_mat), _frobenius(p.b - b_mat)) / scale for p in pairs]
        bad = [e for e in errs if e > rel]
        return errs, f"oracle distance {bad[0]:.3e}" if bad else None

    def predicates(rng):
        s = random_su11_q(rng)
        if abs(s.t1 + s.t2 - 2.0) <= band or abs(s.t1 - 1.0) <= band:
            return (), None
        if check_admissible_q(s.as_matrix(), _SIG11).admissible != su11_q_admissible(s):
            return (1,), f"Q predicate mismatch at {s}"
        b = random_su11_an(rng)
        if abs(b.r - 1.0) <= band or abs(b.r**2 + b.r**-2 - abs(b.n) ** 2 - 2.0) <= band:
            return (1,), None
        ok = check_admissible_an(b.as_matrix(), _SIG11).admissible == su11_an_admissible(b)
        return (1,), None if ok else f"AN predicate mismatch at {b}"

    oracle = _run_trials("su11_oracle", 8, seed, trials, factors, max, "largest oracle distance")
    compared = _run_trials("su11_oracle", 9, seed, trials, predicates, sum, "pairs compared")
    failed = [r.detail for r in (oracle, compared) if not r.passed]
    summary = (f"{oracle.detail}; {int(compared.worst)} predicate pairs compared outside "
               f"the {band:.0e} band")
    return replace(oracle, passed=not failed, detail=failed[0] if failed else summary)


def suite_minor_ratios(n_max: int = 6, trials: int = 500, seed: int = 42,
                       rel: float = 1e-9) -> SuiteResult:
    """On successful triangular-route decompositions, a_k^2 equals the k-th
    leading-minor ratio of dagger(g) g, and reweighting those minors by J
    flips their signs exactly on the spacelike indices."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        g = random_decomposable(sig, rng)
        pair = decompose_gauss(g, sig)
        h = dagger(g, sig) @ g
        minors = leading_minors(h)
        signed = leading_minors(sig.j_diag[:, None] * h)
        errs, problems = [], []
        prev = 1.0 + 0.0j
        for k in range(sig.n):
            ratio = minors[k] / prev
            prev = minors[k]
            err = float(abs(pair.a[k] ** 2 - ratio) / pair.a[k] ** 2)
            errs.append(err)
            if err > rel:
                problems.append(f"minor ratio error {err:.3e} at k={k + 1}")
            expected_sign = -1.0 if k >= sig.p else 1.0
            if np.sign(signed[k].real) != np.sign(signed[k - 1].real if k else 1.0) * expected_sign:
                problems.append(f"J-weighted minor sign wrong at k={k + 1}")
        return errs, problems[0] if problems else None

    return _run_trials("minor_ratios", 10, seed, trials, trial, max,
                       "largest relative minor-ratio error")


def suite_exp_log(n_max: int = 6, trials: int = 500, seed: int = 42,
                  rel: float = 1e-9) -> SuiteResult:
    """exp and the admissible log invert each other on the admissible cone."""

    def trial(rng):
        sig = random_signature(rng, n_max)
        s = random_admissible_q(sig, rng)
        X = q_log(s, sig)
        err1 = _rel_err(s, mat_exp(X))
        d = random_admissible_diag(sig, rng, gap=1e-3)
        g = random_g0(sig, rng)
        X2 = dagger(g, sig) @ np.diag(d).astype(np.complex128) @ g
        X2 = 0.5 * (X2 + dagger(X2, sig))
        back = q_log(mat_exp(X2), sig)
        err2 = _rel_err(X2, back)
        bad = err1 > rel or err2 > rel
        return (err1, err2), f"round-trip errors {err1:.3e}, {err2:.3e}" if bad else None

    return _run_trials("exp_log_roundtrip", 11, seed, trials, trial, max,
                       "largest relative round-trip error")


def suite_failure_taxonomy(trials: int = 100, seed: int = 42) -> SuiteResult:
    """Elements built outside the identity cell make both routes raise at the
    generator's pivot (wrong inertia on the triangular route, a wrong cone on
    the orthogonalization route), never return a factorization."""

    def trial(rng):
        M, sig, pivot = random_cell_crossed(rng)
        problems = []
        for route, decompose, kind in (("triangular", decompose_gauss, "wrong_inertia"),
                                       ("orthogonalization", decompose_gs, "wrong_cone")):
            try:
                decompose(M, sig)
                problems.append(f"{route} route returned a factorization")
            except NotDecomposable as exc:
                if (exc.kind, exc.index) != (kind, pivot):
                    problems.append(f"{route} route named {exc.kind} at {exc.index}, "
                                    f"not {kind} at {pivot}")
            except SupqError as exc:
                problems.append(_unexpected(exc))
        return (len(problems),), problems[0] if problems else None

    result = _run_trials("failure_taxonomy", 12, seed, trials, trial, sum, "route failures")
    passed_detail = "every out-of-cell element was rejected by both routes"
    return replace(result, detail=passed_detail) if result.passed else result


def run_selftest(n_max: int = 4, trials: int = 200, seed: int = 42) -> list[SuiteResult]:
    """Run every suite at a size scaled from ``trials``."""
    t = max(1, int(trials))
    small = max(5, t // 10)
    return [
        suite_global_decomposition(n_max, t, seed),
        suite_timelike_preservation(n_max, s_trials=max(5, t // 5), x_per_s=20, seed=seed),
        suite_multiplicativity(n_max, t, seed),
        suite_cone_characterization(
            n_max,
            forward=small,
            converse=small,
            forward_samples=min(1000, 10 * t),
            converse_samples=min(10000, 100 * t),
            min_found=int(0.95 * small),
            seed=seed,
        ),
        suite_dressing_cocycle(n_max, max(5, t // 2), seed),
        suite_rayleigh_monotonicity(n_max, max(5, t // 2), seed),
        suite_su11_oracle(min(10000, 10 * t), seed),
        suite_minor_ratios(n_max, max(5, t // 2), seed),
        suite_exp_log(n_max, max(5, t // 2), seed),
        suite_failure_taxonomy(min(t, 100), seed),
    ]
