"""Spans around calls into ``supq``'s public functions, kept in memory.

Tracing rebinds each traced function, in every ``supq.*`` module that holds
it, to a wrapper that records a span: name, start, end, the enclosing span
and the operation it belongs to.  Nested calls (``decompose_gauss`` calling
``is_member``) therefore produce child spans, and a span's self time is its
duration minus that of its children.  Nothing in the library changes; the
bindings are restored by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: Traced public functions, by module of ``supq``.
TRACED = {
    "kernel": ("as_cmatrix", "eig", "mat_exp", "signed_ldl", "solve_upper_triangular"),
    "indefinite": ("dagger", "classify"),
    "groups": ("is_member",),
    "admissible": ("check_admissible_q", "check_admissible_an", "cone_preservation_check"),
    "iwasawa": ("decompose_gauss", "decompose_gs", "dress", "q_log", "decompose_g_admissible"),
    "su11": ("su11_decompose",),
    "docio": ("load_document", "dumps", "matrix_to_doc"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{m}.{f}" for m, funcs in TRACED.items() for f in funcs)

RAISED, VERDICT_TRUE, VERDICT_FALSE = 1, 2, 4


def rebind(package: str, replacements: dict) -> list[tuple[object, str, object]]:
    """``replacements`` maps ``id(old)`` to ``(old, new)``: every binding of
    ``old`` in the loaded modules of ``package`` becomes ``new``.  Returns
    what :func:`restore` needs to undo it."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            new = replacements.get(id(value))
            if new is not None and new[0] is value:
                setattr(module, attr, new[1])
                undo.append((module, attr, value))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("B")
        self.bytes_in = 0
        self.bytes_out = 0
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        replacements = {}
        for qualified in TRACED_NAMES:
            modname, func = qualified.split(".")
            try:
                module = importlib.import_module(f"supq.{modname}")
            except ImportError:
                self.absent.append(qualified)
                continue
            fn = getattr(module, func, None)
            if not callable(fn):
                self.absent.append(qualified)
                continue
            self.names.append(qualified)
            replacements[id(fn)] = (fn, self._wrap(len(self.names) - 1, qualified, fn))
        self._undo = rebind("supq", replacements)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, name_id: int, qualified: str, fn):
        tracer = self
        note = {
            "admissible.check_admissible_q": _note_verdict,
            "docio.load_document": _note_bytes_in,
            "docio.dumps": _note_bytes_out,
        }.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.flags.append(0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = perf_counter()
                tracer.flags[idx] |= RAISED
                stack.pop()
                raise
            tracer.end[idx] = perf_counter()
            stack.pop()
            if note is not None:
                note(tracer, idx, args, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "flags": np.asarray(self.flags, dtype=np.uint8),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per traced function: ``calls``, ``self_s`` and ``raised``, plus the
        verdict split of ``check_admissible_q`` and the share of
        ``decompose_gauss`` time spent in its ``is_member`` calls."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out: dict[str, float] = {}
        for qualified in TRACED_NAMES:
            for suffix in ("calls", "self_s", "raised"):
                out[f"{qualified}.{suffix}"] = 0.0
        for k, qualified in enumerate(self.names):
            mine = a["name_id"] == k
            out[f"{qualified}.calls"] = float(np.count_nonzero(mine))
            out[f"{qualified}.self_s"] = float(self_s[mine].sum())
            out[f"{qualified}.raised"] = float(np.count_nonzero(mine & (a["flags"] & RAISED > 0)))
        check_q = self._id("admissible.check_admissible_q")
        for flag, label in ((VERDICT_TRUE, "true"), (VERDICT_FALSE, "false")):
            mine = (a["name_id"] == check_q) & (a["flags"] & flag > 0)
            out[f"admissible.check_admissible_q.self_s.{label}"] = float(self_s[mine].sum())
        gauss, member = self._id("iwasawa.decompose_gauss"), self._id("groups.is_member")
        gauss_time = float(dur[a["name_id"] == gauss].sum())
        under_gauss = (a["name_id"] == member) & has_parent
        under_gauss[under_gauss] = a["name_id"][a["parent"][under_gauss]] == gauss
        out["iwasawa.decompose_gauss.is_member_share"] = (
            float(dur[under_gauss].sum()) / gauss_time if gauss_time > 0 else 0.0
        )
        out["docio.bytes_in"] = float(self.bytes_in)
        out["docio.bytes_out"] = float(self.bytes_out)
        return out

    def _id(self, qualified: str) -> int:
        return self.names.index(qualified) if qualified in self.names else -2


def _note_verdict(tracer: Tracer, idx: int, args, out) -> None:
    tracer.flags[idx] |= VERDICT_TRUE if out.admissible else VERDICT_FALSE


def _note_bytes_in(tracer: Tracer, idx: int, args, out) -> None:
    tracer.bytes_in += len(args[0]) if args else 0


def _note_bytes_out(tracer: Tracer, idx: int, args, out) -> None:
    tracer.bytes_out += len(out)
