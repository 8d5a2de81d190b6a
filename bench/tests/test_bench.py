"""Tests of the benchmark itself: seeded inputs, output checks and tracing.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import supq  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DECLINED, FAILED, OK, WRONG, Checker, call  # noqa: E402

MODULES = {m: __import__(f"supq.{m}", fromlist=["_"]) for m in ("iwasawa", "admissible", "cli")}


@pytest.fixture(scope="module")
def workdir():
    path = BENCH / "out" / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def checker() -> Checker:
    return Checker(supq)


def first(ops, **fields):
    for op in ops:
        if all((getattr(op, k) if hasattr(op, k) else op.expect.get(k)) == v
               for k, v in fields.items()):
            return op
    raise LookupError(fields)


def inputs(wl) -> list:
    """Every array, scalar and document byte string an operation receives."""
    out = []
    for op in wl.ops:
        for value in (*op.args, *op.kwargs.values()):
            if isinstance(value, np.ndarray):
                out.append(value.tobytes())
            elif isinstance(value, str) and value.endswith(".json"):
                out.append(Path(value).read_bytes())
            elif isinstance(value, supq.Signature):
                out.append((value.p, value.q))
            else:
                out.append(value)
    out.append(Path(wl.cold_start_doc).read_bytes())
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_bit_identical_inputs(name, workdir):
    a = inputs(workloads.build(name, 7, str(workdir / "a"), supq))
    b = inputs(workloads.build(name, 7, str(workdir / "b"), supq))
    c = inputs(workloads.build(name, 8, str(workdir / "c"), supq))
    assert a == b
    assert a != c


@pytest.fixture(scope="module")
def small(workdir):
    return workloads.build("factor_small", 3, str(workdir / "small"), supq)


def test_checks_accept_honest_factors(small):
    c = checker()
    for op in small.ops[:60]:
        out, exc, _ = call(op, MODULES, lambda: 0.0)
        assert c.check(op, out, exc) == OK, c.first_wrong or c.first_failed
    assert c.route_gap_max > 0.0


@pytest.mark.parametrize("func", ["decompose_gauss", "decompose_gs"])
def test_factor_check_rejects_perturbed_factor(small, func):
    op = first(small.ops, func=func, in_cell=True)
    out, exc, _ = call(op, MODULES, lambda: 0.0)
    assert exc is None
    n = op.n
    bumped_s = dataclasses.replace(out, s=out.s + 1e-3 * np.ones((n, n)))
    assert checker().check(op, bumped_s, None) == WRONG
    lower = out.b.copy()
    lower[-1, 0] = 1e-3
    assert checker().check(op, dataclasses.replace(out, b=lower), None) == WRONG


def test_dress_check_rejects_perturbed_factor(small):
    op = first(small.ops, check="dress")
    out, exc, _ = call(op, MODULES, lambda: 0.0)
    assert checker().check(op, out, exc) == OK
    bumped = dataclasses.replace(out, g_prime=out.g_prime * (1.0 + 1e-3))
    assert checker().check(op, bumped, None) == WRONG


def test_factor_check_classifies_refusals(small):
    crossed = first(small.ops, func="decompose_gauss", in_cell=False)
    out, exc, _ = call(crossed, MODULES, lambda: 0.0)
    assert isinstance(exc, supq.NotDecomposable)
    assert checker().check(crossed, out, exc) == OK
    honest = first(small.ops, func="decompose_gauss", in_cell=True)
    accepted, _, _ = call(honest, MODULES, lambda: 0.0)
    assert checker().check(crossed, accepted, None) == WRONG
    c = checker()
    assert c.check(honest, None, supq.SingularMinor(2)) == DECLINED
    assert (c.gauss_rejects, c.gauss_attempts) == (1, 1)
    assert c.check(honest, None, supq.NotInG()) == FAILED
    assert c.check(honest, None, FloatingPointError("overflow")) == FAILED


@pytest.fixture(scope="module")
def mix(workdir):
    return workloads.build("admissibility_mix", 3, str(workdir / "mix"), supq)


@pytest.mark.parametrize("func,expect", [
    ("check_admissible_q", True), ("check_admissible_q", False),
    ("check_admissible_an", True), ("cone_preservation_check", True),
])
def test_verdict_check_rejects_flipped_verdict(mix, func, expect):
    op = next(op for op in mix.ops if op.func == func and op.expect is expect)
    out, exc, _ = call(op, MODULES, lambda: 0.0)
    assert checker().check(op, out, exc) == OK
    flipped = (not out) if isinstance(out, bool) else dataclasses.replace(
        out, admissible=not out.admissible)
    assert checker().check(op, flipped, None) == WRONG


def test_q_log_check_rejects_perturbed_log(mix):
    op = first(mix.ops, check="q_log")
    out, exc, _ = call(op, MODULES, lambda: 0.0)
    c = checker()
    assert c.check(op, out, exc) == OK
    assert c.check(op, out + 1e-6 * np.eye(op.n), None) == WRONG


@pytest.fixture(scope="module")
def docs(workdir):
    return workloads.build("cli_docs", 3, str(workdir / "docs"), supq)


@pytest.mark.parametrize("code", [0, 2, 4])
def test_cli_check_rejects_wrong_exit_code(docs, code):
    op = first(docs.ops, check="cli", code=code)
    out, exc, _ = call(op, MODULES, lambda: 0.0)
    assert checker().check(op, out, exc) == OK
    wrong_code = 3 if code == 0 else 0
    assert checker().check(op, (wrong_code, out[1]), None) == WRONG


def test_cli_check_declines_refused_decomposable_document(docs):
    op = first(docs.ops, check="cli", command="decompose", code=0)
    out, exc, _ = call(op, MODULES, lambda: 0.0)
    c = checker()
    assert c.check(op, out, exc) == OK
    refusal = json.dumps({"command": "decompose", "success": False, "outputs": {},
                          "diagnostics": {"error_code": "not_decomposable"}})
    assert c.check(op, (4, refusal), None) == DECLINED
    assert c.first_declined


def test_cli_check_rejects_flipped_verdict(docs):
    op = first(docs.ops, check="cli", command="check", verdict=True)
    (code, text), exc, _ = call(op, MODULES, lambda: 0.0)
    report = json.loads(text)
    assert checker().check(op, (code, text), exc) == OK
    report["outputs"]["verdict"] = False
    assert checker().check(op, (code, json.dumps(report)), None) == WRONG
    assert checker().check(op, (code, text[:-2]), None) == WRONG


def test_tracer_records_nested_spans_and_restores_bindings(small):
    op = first(small.ops, func="decompose_gauss", in_cell=True)
    original = supq.iwasawa.is_member
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert supq.iwasawa.is_member is not original
        call(op, MODULES, lambda: 0.0)
    finally:
        tracer.uninstall()
    assert supq.iwasawa.is_member is original
    assert supq.groups.is_member is original
    summary = tracer.summary()
    assert summary["iwasawa.decompose_gauss.calls"] == 1
    assert summary["groups.is_member.calls"] == 2
    assert 0.0 < summary["iwasawa.decompose_gauss.is_member_share"] < 1.0
    assert summary["iwasawa.decompose_gauss.self_s"] > 0.0


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "TRACED_NAMES", spans.TRACED_NAMES + ("kernel.no_such_function",))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kernel.no_such_function"]
    assert tracer.summary()["kernel.no_such_function.calls"] == 0.0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
