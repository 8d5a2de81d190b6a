"""Bit parity of supq's public calls between this checkout and another tree.

Usage::

    python tools/parity.py REF [--workload W ...] [--seed N ...]

``REF`` is a git ref of this repository, whose ``src/`` is extracted with
``git archive`` into a temporary directory, or a directory that holds a
checkout (its ``src/supq``).  Every operation of ``bench/workloads.build``
for each workload (default: all four) and seed (default: 1, 2 and 3) runs
at tol 1e-9 and at tol 0, once on REF's ``src`` and once on this
checkout's, each side in its own subprocess; the CLI operations get
``--tol``.  Three public entries that no workload calls run on the inputs
of one that does, appended after each build's operations so that those keep
their ids: ``iwasawa.decompose_g_admissible`` on every ``decompose_gauss``
input, ``iwasawa.sym`` on every ``check_admissible_an`` input, and
``admissible.pseudo_rayleigh(s, e_1, sig)`` on every ``check_admissible_q``
input ``s`` (``e_1`` is timelike whenever p >= 1).  Both sides import
``bench/workloads.py`` of this checkout, read-only, and build their inputs
with their own library; an input that differs between the sides is reported
as a difference.

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
WORKLOADS = ("factor_small", "factor_large", "admissibility_mix", "cli_docs")
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


def _worker(src: str, workloads: list[str], seeds: list[int], out) -> None:
    """Run every operation on the library under ``src``; pickle one record per call to ``out``."""
    sys.path.insert(0, src)
    import supq

    if not Path(supq.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {supq.__file__}, not the library under {src}")
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    sys.modules["bench_workloads"] = wl  # its dataclasses look their module up
    spec.loader.exec_module(wl)
    modules = {}
    for name in workloads:
        for seed in seeds:
            ops = wl.build(name, seed, "docs", supq).ops  # relative: the same paths on both sides
            ops += [dataclasses.replace(op, module=ALSO[key][0], func=ALSO[key][1])
                    for op in ops if (key := (op.module, op.func)) in ALSO]
            for op in [op for op in ops if (op.module, op.func) == ("admissible", "check_admissible_q")]:
                s, sig = op.args
                ops.append(dataclasses.replace(op, func="pseudo_rayleigh", args=(s, np.eye(len(s), dtype=complex)[0], sig)))
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
                        help="a workload to run (repeatable; default: all four)")
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
