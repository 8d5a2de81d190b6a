"""Bit parity of supq's public calls between this checkout and another tree.

Usage::

    python tools/parity.py REF [--workload W ...] [--seed N ...]

``REF`` is a git ref of this repository, whose ``src/`` is extracted with
``git archive`` into a temporary directory, or a directory that holds a
checkout (its ``src/supq``).  Every operation of ``bench/workloads.build``
for each workload and seed (default: 1, 2 and 3) runs at tol 1e-9 and at
tol 0, once on REF's ``src`` and once on this checkout's, each side in its
own subprocess; the CLI operations get ``--tol``.  Three public entries that
no workload calls run on the inputs of one that does, appended after each
build's operations so that those keep their ids:
``iwasawa.decompose_g_admissible`` on every ``decompose_gauss`` input,
``iwasawa.sym`` on every ``check_admissible_an`` input, and
``admissible.pseudo_rayleigh(s, e_1, sig)`` on every ``check_admissible_q``
input ``s`` (``e_1`` is timelike whenever p >= 1).  The workload ``exact``
takes no seed: it runs ``decompose_gauss``, ``decompose_gs`` and
``decompose_g_admissible`` on every ``g = s @ b`` that
``tests/test_exact_families.py`` draws (``test_routes_recover_exact_factors``
at n = 4, 8, 16 and 32, the ``ILL_CONDITIONED_CELLS``, and the unpinned cell
n = 16, k = 18, |m| <= 2 at seed 18), where the two triangular divisions
decide whether Gauss returns the exact factors.  Three more workloads take
no seed.  ``boundary`` runs the same three decompositions on the
``_cell_boundary`` draws of ``tests/test_iwasawa.py``, 200 per delta, with
the deltas and generators of
``test_gs_null_test_at_tol_never_misnames_a_boundary_element``: elements
within |delta| <= 1e-9 of the cell boundary, where Gauss refuses most often
and the signed LDL* loop names the refusal.  ``dressing`` runs ``dress(b, g,
sig)`` on 300 draws per spread 4, 10, 12 and 16 of ``g = random_g0(sig, rng,
spread)``, with ``sig = random_signature(rng, 6)`` and ``b =
random_admissible_an(sig, rng)`` drawn first from ``default_rng(100 +
spread)``.  ``graded`` runs ``check_admissible_q``, ``check_admissible_an``,
``q_log``, ``decompose_gauss`` and ``decompose_gs`` on ``diag(10^e, 10^-e)``
at signature (1, 1), e = 0..307.  The default runs the four benchmark
workloads, then ``exact``, ``boundary``, ``dressing`` and ``graded``, so
that every operation keeps its id.  Both sides import
``bench/workloads.py``, ``tests/test_exact_families.py`` and
``tests/test_iwasawa.py`` of this checkout, read-only, and build their
inputs with their own library; an input that differs between the sides is
reported as a difference.

It prints, per public entry, the number of calls whose outputs (or
refusals) are bit for bit the same; then each changed verdict, refusal
kind, index or message, and each changed non-numeric field, with its
operation id ``workload/seed/tol/index``; then the largest relative change
``max|a - b| / max|b|`` of each returned numeric field.  The exit status is
0 when there is no difference, 1 when there is one and 2 when a side failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("factor_small", "factor_large", "admissibility_mix", "cli_docs", "exact", "boundary", "dressing",
             "graded")
DECOMPOSITIONS = ("decompose_gauss", "decompose_gs", "decompose_g_admissible")
# (n, k, mmax, seed) of the one exact-family cell that the tests do not pin
UNPINNED_CELL = (16, 18, 2, 18)
# the deltas of test_gs_null_test_at_tol_never_misnames_a_boundary_element
BOUNDARY_DELTAS = (1e-9, 1e-11, 1e-13, 1e-15, -1e-15, -1e-13, -1e-11, -1e-9)
DRESS_SPREADS = (4, 10, 12, 16)
GRADED = (("verdict", "admissible", "check_admissible_q"), ("verdict", "admissible", "check_admissible_an"),
          ("q_log", "iwasawa", "q_log"), ("factor", "iwasawa", "decompose_gauss"),
          ("factor", "iwasawa", "decompose_gs"))
SEEDS = (1, 2, 3)
TOLS = (1e-9, 0.0)
# (module, func) of a workload's call -> the entry also run on its inputs
ALSO = {("iwasawa", "decompose_gauss"): ("iwasawa", "decompose_g_admissible"),
        ("admissible", "check_admissible_an"): ("iwasawa", "sym")}


def _flatten(value, path: str = "") -> list[tuple[str, object]]:
    """``(field, value)`` pairs of a call's result: numbers and arrays as
    numpy arrays, anything else (bools, ints, strings, None) as itself."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _flatten(getattr(value, f.name), f"{path}.{f.name}")]
    if isinstance(value, tuple):
        return [x for i, v in enumerate(value) for x in _flatten(v, f"{path}[{i}]")]
    if isinstance(value, (bool, np.bool_, int, str)) or value is None:
        return [(path or ".", value if not isinstance(value, np.bool_) else bool(value))]
    return [(path or ".", np.asarray(value))]


def _digest(args: tuple) -> str:
    h = hashlib.sha256()
    for a in args:
        h.update(np.ascontiguousarray(a).tobytes() if isinstance(a, np.ndarray) else repr(a).encode())
    return h.hexdigest()


def _load(name: str, path: Path):
    """The module at ``path``, registered as ``name`` (dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _bench_ops(wl, name: str, seed: int, supq) -> list:
    """The operations of ``bench/workloads.build``, then the entries that no workload calls."""
    ops = wl.build(name, seed, "docs", supq).ops  # relative: the same paths on both sides
    ops += [dataclasses.replace(op, module=ALSO[key][0], func=ALSO[key][1])
            for op in ops if (key := (op.module, op.func)) in ALSO]
    for op in [op for op in ops if (op.module, op.func) == ("admissible", "check_admissible_q")]:
        s, sig = op.args
        ops.append(dataclasses.replace(op, func="pseudo_rayleigh", args=(s, np.eye(len(s), dtype=complex)[0], sig)))
    return ops


def _exact_ops(wl, supq) -> list:
    """The three decompositions of each draw of ``tests/test_exact_families.py``, in its order."""
    ef = _load("exact_families", ROOT / "tests" / "test_exact_families.py")
    cells = [(n, None, ef.MMAX, 3100 + n, ef.DRAWS) for n in (4, 8, 16, 32)]
    cells += [(*cell, 20) for cell in (*ef.ILL_CONDITIONED_CELLS, UNPINNED_CELL)]
    ops = []
    for n, k, mmax, seed, draws in cells:
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            p = int(rng.integers(1, n))
            sig = supq.Signature(p, n - p)
            s, b = ef.exact_pair(rng, sig, k, mmax)
            ops += [wl.Op("factor", "iwasawa", func, (s @ b, sig)) for func in DECOMPOSITIONS]
    return ops


def _boundary_ops(wl, supq) -> list:
    """The three decompositions of each ``_cell_boundary`` draw of ``tests/test_iwasawa.py``, in its order."""
    cell_boundary = _load("iwasawa_tests", ROOT / "tests" / "test_iwasawa.py")._cell_boundary
    ops = []
    for delta in BOUNDARY_DELTAS:
        rng = np.random.default_rng(int(-np.log10(abs(delta))) + (delta > 0))
        for _ in range(200):
            g, sig = cell_boundary(rng, delta)
            ops += [wl.Op("factor", "iwasawa", func, (g, sig)) for func in DECOMPOSITIONS]
    return ops


def _dressing_ops(wl, supq) -> list:
    """``dress(b, g, sig)`` on 300 draws per spread of ``g``."""
    selftest = importlib.import_module("supq.selftest")
    ops = []
    for spread in DRESS_SPREADS:
        rng = np.random.default_rng(100 + spread)
        for _ in range(300):
            sig = selftest.random_signature(rng, 6)
            b = selftest.random_admissible_an(sig, rng)
            ops.append(wl.Op("dress", "iwasawa", "dress", (b, supq.random_g0(sig, rng, spread), sig)))
    return ops


def _graded_ops(wl, supq) -> list:
    """The five calls of ``GRADED`` on ``diag(10^e, 10^-e)`` at signature (1, 1), e = 0..307."""
    sig = supq.Signature(1, 1)
    return [wl.Op(check, module, func, (np.diag([10.0**e, 10.0**-e]).astype(np.complex128), sig))
            for e in range(308) for check, module, func in GRADED]


SEEDLESS = {"exact": _exact_ops, "boundary": _boundary_ops, "dressing": _dressing_ops, "graded": _graded_ops}


def _worker(src: str, workloads: list[str], seeds: list[int], out) -> None:
    """Run every operation on the library under ``src``; pickle one record per call to ``out``."""
    sys.path.insert(0, src)
    import supq

    if not Path(supq.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {supq.__file__}, not the library under {src}")
    wl = _load("bench_workloads", ROOT / "bench" / "workloads.py")
    modules = {}
    for name in workloads:
        for seed in ["-"] if name in SEEDLESS else seeds:
            ops = SEEDLESS[name](wl, supq) if name in SEEDLESS else _bench_ops(wl, name, seed, supq)
            for op in ops:
                modules.setdefault(op.module, importlib.import_module(f"supq.{op.module}"))
            for tol in TOLS:
                for i, op in enumerate(ops):
                    if op.check == "cli":
                        op = dataclasses.replace(op, args=op.args + ("--tol", repr(tol)))
                    else:
                        op = dataclasses.replace(op, kwargs={**op.kwargs, "tol": tol})
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        result, exc, _ = wl.call(op, modules, time.perf_counter)
                    if exc is not None:
                        outcome = ("raised", type(exc).__name__, getattr(exc, "index", None),
                                   getattr(exc, "kind", None), str(exc))
                    else:
                        outcome = ("returned", _flatten(result) + ([(".stderr", err.getvalue())] if err.getvalue() else []))
                    record = (f"{name}/{seed}/{tol!r}/{i}", f"{op.module}.{op.func}", _digest(op.args), outcome)
                    pickle.dump(record, out, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.dump(None, out)
    out.flush()


def _start(src: Path, workloads: list[str], seeds: list[int], cwd: str) -> subprocess.Popen:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src)]
    argv += [f"--workload={w}" for w in workloads] + [f"--seed={s}" for s in seeds]
    return subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE)


def _relative_change(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b), initial=0.0))
    with np.errstate(invalid="ignore", over="ignore"):
        diff = float(np.max(np.abs(a - b), initial=0.0))
    return diff / scale if scale > 0 else (0.0 if diff == 0 else np.inf)


def _compare(ref, new, changed: list[str], largest: dict) -> bool:
    """Whether two records agree bit for bit; appends each changed label to
    ``changed`` and raises the largest relative change of each numeric field."""
    op_id, entry, _, outcome = new
    if ref[:3] != new[:3]:
        changed.append(f"{op_id} {entry}: inputs differ ({ref[1]} on REF)")
        return False
    if ref[3][0] == "raised" or outcome[0] == "raised":
        if ref[3] != outcome:
            changed.append(f"{op_id} {entry}: {_label(ref[3])} -> {_label(outcome)}")
        return ref[3] == outcome
    a, b = dict(ref[3][1]), dict(outcome[1])
    same = True
    for field in sorted(set(a) | set(b)):
        old, cur = a.get(field), b.get(field)
        if isinstance(old, np.ndarray) and isinstance(cur, np.ndarray) and (old.shape, old.dtype) == (cur.shape, cur.dtype):
            if old.tobytes() != cur.tobytes():
                same = False
                largest[entry, field] = max(largest.get((entry, field), 0.0), _relative_change(cur, old))
        elif type(old) is not type(cur) or isinstance(old, np.ndarray) or old != cur:
            same = False
            changed.append(f"{op_id} {entry} {field}: {old!r} -> {cur!r}")
    return same


def _label(outcome) -> str:
    if outcome[0] == "returned":
        return "returned"
    _, kind, index, refusal, message = outcome
    return f"raised {kind}(index={index}, kind={refusal}): {message}"


def _resolve(ref: str, tmp: str) -> Path:
    """The ``src`` directory of ``ref``: a checkout directory, or a git ref extracted into ``tmp``."""
    if Path(ref).is_dir():
        return Path(ref).resolve() / "src"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True, check=True).stdout
    os.makedirs(tmp)
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    return Path(tmp) / "src"


def compare(ref: str, workloads: list[str], seeds: list[int]) -> int:
    counts = defaultdict(lambda: [0, 0])  # entry -> [calls, identical]
    changed: list[str] = []
    largest: dict = {}
    with tempfile.TemporaryDirectory(prefix="supq-parity-") as tmp:
        sides = {}
        for side, src in (("ref", _resolve(ref, os.path.join(tmp, "tree"))), ("new", ROOT / "src")):
            os.makedirs(os.path.join(tmp, side))
            sides[side] = _start(src, workloads, seeds, os.path.join(tmp, side))
        try:
            while True:
                old, cur = (pickle.load(sides[side].stdout) for side in ("ref", "new"))
                if old is None or cur is None:
                    if old is not cur:
                        changed.append("the two sides ran a different number of operations")
                    break
                counts[cur[1]][0] += 1
                counts[cur[1]][1] += _compare(old, cur, changed, largest)
        except BaseException:
            for proc in sides.values():  # a side blocked on a full pipe would never exit
                proc.kill()
            raise
        finally:
            codes = [proc.wait() for proc in sides.values()]
    if any(codes):
        print(f"a side failed: exit codes {codes}", file=sys.stderr)
        return 2
    calls = sum(c for c, _ in counts.values())
    differing = calls - sum(i for _, i in counts.values())
    print(f"parity of {ref} against {ROOT}: workloads {', '.join(workloads)}; seeds "
          f"{', '.join(map(str, seeds))}; tol {' and '.join(map(repr, TOLS))}")
    print(f"{'entry':40s} {'calls':>7s} {'identical':>10s}")
    for entry in sorted(counts):
        print(f"{entry:40s} {counts[entry][0]:7d} {counts[entry][1]:10d}")
    for line in changed:
        print(f"changed: {line}")
    for (entry, field), rel in sorted(largest.items()):
        print(f"largest relative change: {entry} {field} {rel:.3e}")
    print(f"{calls} calls, {differing} with differences")
    return 1 if differing or changed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="a git ref of this repository, or a checkout directory")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default: all eight)")
    parser.add_argument("--seed", action="append", type=int, help="a build seed (repeatable; default: 1, 2, 3)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads, seeds = args.workload or list(WORKLOADS), args.seed or list(SEEDS)
    if args.worker:
        # the records go to the original stdout; anything the library prints, to stderr
        out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
        os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
        _worker(args.ref, workloads, seeds, out)
        return 0
    return compare(args.ref, workloads, seeds)


if __name__ == "__main__":
    sys.exit(main())
