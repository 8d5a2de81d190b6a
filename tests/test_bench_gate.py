"""The benchmark's output checks, run in tier-1: every operation of each
workload's schedule, built at one seed, once, judged by its ``Checker``."""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

import supq

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules["bench_workloads"] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_operation_passes_its_output_check(name, tmp_path):
    wl = workloads.build(name, 7, str(tmp_path), supq)
    modules = {m: importlib.import_module(f"supq.{m}") for m in {op.module for op in wl.ops}}
    checker = workloads.Checker(supq)
    for i, op in enumerate(wl.ops):
        out, exc, _ = workloads.call(op, modules, time.perf_counter)
        if checker.check(op, out, exc) in (workloads.FAILED, workloads.WRONG):
            pytest.fail(f"{name} operation {i} of {len(wl.ops)}: {checker.first_failed or checker.first_wrong}")
