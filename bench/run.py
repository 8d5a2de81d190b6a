"""Benchmark of supq: one closed-loop caller driving the public API.

Run from the repository root::

    python3 bench/run.py --workload factor_small --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` of the checkout the script lives in.
The caller issues one public call at a time, each on inputs generated from
``--seed`` (see ``workloads.py``), for ``--seconds`` seconds, and checks
every output.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts operations that raised unexpectedly.  An operation that
refused an input decomposable by construction with the library's
documented ``NotDecomposable`` (or CLI exit code 4) is counted as declined
instead: ``accept_ratio`` is one minus the declined share, and the
``fail_ratio`` of the lines before the result counts declined operations as
failures.  Wrong outputs make ``correct`` false and count as failed.

``--trace 0`` reports the end-to-end metrics.  ``ops_per_s`` counts
operations per second of time spent inside the library, so it is the
reciprocal of the mean latency and carries the slow tail (the cone check)
that the median hides.  ``setup_s`` is the median over three fresh
interpreters of importing supq, building the inputs and warming up;
``cold_start_s`` the median of eleven sequential ``python -m supq
decompose`` runs.  Every time is normalised for the machine's speed at the
moment it was taken (see ``calibrate.py``); the unnormalised figures are
printed too.  The lines before the result also print the accuracy figures
and the environment.

``--trace 1`` first runs the schedule untraced for a quarter of
``--seconds``, then traced for ``--seconds``, and reports per-layer metrics:
calls, self time and raised exceptions per traced function (``spans.py``),
the tracing overhead, the import-time breakdown and the wall time of each
``selftest`` suite at the CLI's default scale.  Spans are written to
``bench/out/`` at the end.
"""

import os
import time

T_START = time.perf_counter()

# One caller at n <= 32: BLAS threads do not speed up these sizes, but their
# spin-waiting made throughput swing by a quarter from one second to the
# next on a 2-vCPU machine.  Set before numpy loads; subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
    "accept_ratio": "ratio",
}

# Printed with the end-to-end metrics, and reported by the traced run: they
# are 0 or undefined on some workloads, and maxima over random inputs
# spread too much between seeds to carry a bound.
ACCURACY = {
    "fail_ratio": "ratio",
    "residual_max": "ratio",
    "unitary_defect_max": "ratio",
    "route_gap_max": "ratio",
    "log_roundtrip_max": "ratio",
}

SUITES = (
    "global_decomposition", "timelike_preservation", "multiplicativity",
    "cone_characterization", "dressing_cocycle", "rayleigh_monotonicity",
    "su11_oracle", "minor_ratios", "exp_log", "failure_taxonomy",
)

SETUP_RUNS = 3
CHUNK_SECONDS = 0.05
COLD_START_RUNS = 11
IMPORT_RUNS = 3
SUBPROCESS_TIMEOUT = 60


def per_layer_units() -> dict[str, str]:
    from spans import TRACED_NAMES

    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.raised"] = "count"
    units.update({
        "iwasawa.decompose_gauss.reject_ratio": "ratio",
        "iwasawa.decompose_gauss.unitary_defect_max": "ratio",
        "iwasawa.decompose_gauss.is_member_share": "ratio",
        "admissible.check_admissible_q.self_s.true": "s",
        "admissible.check_admissible_q.self_s.false": "s",
        "docio.bytes_in": "B",
        "docio.bytes_out": "B",
        "kernel.as_cmatrix.calls_per_op": "count",
        "supq.import_s": "s",
        "kernel.import_s": "s",
        "numpy.import_s": "s",
        "trace.overhead_ms_per_op": "ms",
        "trace.overhead_share": "ratio",
        "bench.ops": "count",
    })
    units.update({f"selftest.{suite}.wall_s": "s" for suite in SUITES})
    units.update(ACCURACY)
    return units


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build and warm up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_supq():
    """Import supq from this checkout's ``src/``, or exit without a result."""
    if not (SRC / "supq" / "__init__.py").is_file():
        print(f"bench: no supq sources under {SRC}", file=sys.stderr)
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    import supq

    if SRC.resolve() not in Path(supq.__file__).resolve().parents:
        print(f"bench: imported supq from {supq.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(3)
    return supq


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(seed: int) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unavailable"
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = "unavailable"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def measure(ops, modules, checker, seconds: float, tracer=None):
    """Cycle through ``ops`` for ``seconds``, with a compute probe after
    every ``CHUNK_SECONDS``.

    Returns raw latencies, outcome counts and, per latency, the speed factor
    of ``calibrate`` for its chunk.
    """
    from calibrate import compute_probe, speed_factors
    from workloads import call

    latencies: list[float] = []
    chunk_of: list[int] = []
    outcomes = [0, 0, 0, 0]
    clock = time.perf_counter
    gc.collect()
    probes = [compute_probe()]
    end = clock() + seconds
    i = chunk = 0
    while clock() < end:
        deadline = min(end, clock() + CHUNK_SECONDS)
        while clock() < deadline:
            op = ops[i % len(ops)]
            if tracer is not None:
                tracer.current_op = i
            out, exc, dt = call(op, modules, clock)
            if tracer is not None:
                tracer.current_op = -1
            latencies.append(dt)
            chunk_of.append(chunk)
            outcomes[checker.check(op, out, exc)] += 1
            i += 1
        probes.append(compute_probe())
        chunk += 1
    return latencies, outcomes, speed_factors(probes)[chunk_of]


def warm_up(ops, modules, checker) -> None:
    """Run the first operation of each kind and size once, with a checker
    whose figures are thrown away."""
    from workloads import call

    seen = set()
    for op in ops:
        key = (op.module, op.func, op.check, op.n, op.expect.get("code") if op.check == "cli" else None)
        if key not in seen:
            seen.add(key)
            out, exc, _ = call(op, modules, time.perf_counter)
            checker.check(op, out, exc)


def setup_samples(args) -> list[float]:
    """Normalised set-up times of fresh interpreters.

    Each child reports its import time raw and the rest of its set-up
    already scaled by its compute probes; the import time is scaled here by
    the import probes run before and after the child.
    """
    from calibrate import IMPORT_NOMINAL_S, import_probe

    env = subprocess_env()
    samples = []
    before = import_probe(env, ROOT, SUBPROCESS_TIMEOUT)
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=SUBPROCESS_TIMEOUT,
        )
        after = import_probe(env, ROOT, SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        samples.append(child["import_s"] * 2.0 * IMPORT_NOMINAL_S / (before + after)
                       + child["build_s"])
        before = after
    return samples


def cold_starts(doc: str) -> tuple[list[float], list[float], int, int]:
    """Sequential ``python -m supq decompose`` runs, each between two import
    probes; returns raw and normalised times, the failed runs and the runs
    that refused the decomposable document with exit code 4."""
    from calibrate import IMPORT_NOMINAL_S, import_probe

    raw, normalised, failures, declines = [], [], 0, 0
    env = subprocess_env()
    before = import_probe(env, ROOT, SUBPROCESS_TIMEOUT)
    for _ in range(COLD_START_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "supq", "decompose", "--in", doc, "--json"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT)
        elapsed = time.perf_counter() - t0
        after = import_probe(env, ROOT, SUBPROCESS_TIMEOUT)
        raw.append(elapsed)
        normalised.append(elapsed * 2.0 * IMPORT_NOMINAL_S / (before + after))
        before = after
        try:
            report = json.loads(proc.stdout)
            ok = proc.returncode == 0 and report["success"] is True
            declined = proc.returncode == 4 and report["success"] is False
        except (ValueError, KeyError):
            ok = declined = False
        declines += declined
        failures += not (ok or declined)
    return raw, normalised, failures, declines


def import_times() -> tuple[dict[str, float], list[str]]:
    """Cumulative import time of supq, supq.kernel and numpy, from
    ``python -X importtime -c "import supq"``; medians over a few runs."""
    wanted = {"supq": "supq.import_s", "supq.kernel": "kernel.import_s", "numpy": "numpy.import_s"}
    samples: dict[str, list[float]] = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import supq"],
                              capture_output=True, text=True, env=subprocess_env(), cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            metric = wanted.get(parts[2].strip())
            if metric is not None and parts[1].strip().isdigit():
                samples[metric].append(int(parts[1]) * 1e-6)
    absent = [metric for metric, values in samples.items() if not values]
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}, absent


def time_selftest() -> tuple[dict[str, float], int, list[str]]:
    """Wall time of each selftest suite at the CLI's default scale
    (n_max=4, trials=200, seed=42), untraced; returns times, failed suites
    and absent suites."""
    from spans import rebind, restore

    selftest = importlib.import_module("supq.selftest")
    walls: dict[str, float] = {}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                walls[name] = time.perf_counter() - t0
        return wrapper

    replacements = {
        id(fn): (fn, timed(attr[len("suite_"):], fn))
        for attr, fn in vars(selftest).items()
        if attr.startswith("suite_") and callable(fn)
    }
    undo = rebind("supq", replacements)
    try:
        results = selftest.run_selftest(n_max=4, trials=200, seed=42)
        failed = sum(not r.passed for r in results)
    except Exception as exc:  # a crashing suite is a failed suite
        print(f"selftest raised {type(exc).__name__}: {exc}")
        failed = 1
    finally:
        restore(undo)
    metrics = {f"selftest.{suite}.wall_s": walls.get(suite, 0.0) for suite in SUITES}
    return metrics, failed, [f"selftest.{s}" for s in SUITES if s not in walls]


def untraced(args, wl, modules, checker) -> dict:
    import numpy as np
    from workloads import DECLINED

    raw, outcomes, speeds = measure(wl.ops, modules, checker, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_samples(args)
    cold_raw, cold, cold_failed, cold_declined = cold_starts(wl.cold_start_doc)
    latencies = np.asarray(raw) * speeds
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": latencies.size / latencies.sum(),
        "op_p50_ms": float(np.quantile(latencies, 0.5)) * 1e3,
        "op_p90_ms": float(np.quantile(latencies, 0.9)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "cold_start_s": statistics.median(cold),
        "accept_ratio": 1.0 - (outcomes[DECLINED] + cold_declined) / (latencies.size + len(cold)),
    }
    print(f"samples: {latencies.size} ops, set-ups {setups}, cold starts {cold}")
    print(f"unnormalised: ops_per_s {len(raw) / sum(raw):.6g}, "
          f"op_p50_ms {float(np.quantile(raw, 0.5)) * 1e3:.6g}, "
          f"op_p90_ms {float(np.quantile(raw, 0.9)) * 1e3:.6g}, "
          f"cold_start_s {statistics.median(cold_raw):.6g}, "
          f"median compute speed factor {statistics.median(speeds):.4f}")
    return {
        "outcomes": [outcomes[0], outcomes[1] + cold_failed, outcomes[2],
                     outcomes[DECLINED] + cold_declined],
        "attempted": latencies.size + len(cold),
        "metrics": metrics,
        "units": END_TO_END,
    }


def traced(args, wl, modules, checker) -> dict:
    from spans import Tracer
    from workloads import DECLINED

    import numpy as np

    plain, outcomes, plain_speeds = measure(wl.ops, modules, checker, args.seconds / 4.0)
    tracer = Tracer()
    tracer.install()
    try:
        timed, traced_outcomes, timed_speeds = measure(wl.ops, modules, checker, args.seconds,
                                                       tracer)
    finally:
        tracer.uninstall()
    outcomes = [a + b for a, b in zip(outcomes, traced_outcomes)]
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"))

    metrics = tracer.summary()
    # the same first k operations, untraced and traced, each normalised for
    # the machine's speed at the time
    k = min(len(plain), len(timed))
    untraced_s = float(np.dot(plain[:k], plain_speeds[:k])) / k
    overhead = float(np.dot(timed[:k], timed_speeds[:k])) / k - untraced_s
    metrics["trace.overhead_ms_per_op"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / untraced_s
    metrics["bench.ops"] = float(len(timed))
    metrics["kernel.as_cmatrix.calls_per_op"] = metrics["kernel.as_cmatrix.calls"] / len(timed)
    suites, suites_failed, absent_suites = time_selftest()
    metrics.update(suites)
    imports, absent_imports = import_times()
    metrics.update(imports)
    metrics["iwasawa.decompose_gauss.reject_ratio"] = (
        checker.gauss_rejects / checker.gauss_attempts if checker.gauss_attempts else 0.0
    )
    metrics["iwasawa.decompose_gauss.unitary_defect_max"] = checker.gauss_unitary_defect_max
    absent = tracer.absent + absent_suites + absent_imports
    print(f"samples: {len(plain)} untraced and {len(timed)} traced ops, "
          f"{len(tracer.start)} spans; absent: {', '.join(absent) if absent else 'none'}")
    return {
        "outcomes": [outcomes[0], outcomes[1] + suites_failed, outcomes[2],
                     outcomes[DECLINED]],
        "attempted": len(plain) + len(timed) + len(SUITES),
        "metrics": metrics,
        "units": per_layer_units(),
    }


def accuracy(checker, attempted: int, failed: int) -> dict[str, float]:
    return {
        "fail_ratio": failed / attempted,
        "residual_max": checker.residual_max,
        "unitary_defect_max": checker.unitary_defect_max,
        "route_gap_max": checker.route_gap_max,
        "log_roundtrip_max": checker.log_roundtrip_max,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    supq = load_supq()
    imported = time.perf_counter()
    import calibrate
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir), supq)
        modules = {m: importlib.import_module(f"supq.{m}") for m in {op.module for op in wl.ops}}

        warm_up(wl.ops, modules, workloads.Checker(supq))
        if args.setup_only:
            build_s = (time.perf_counter() - imported) * calibrate.compute_speed()
            print(json.dumps({"import_s": imported - T_START, "build_s": build_s}))
            return 0
        env = environment(args.seed)
        checker = workloads.Checker(supq)
        if args.trace:
            run = traced(args, wl, modules, checker)
        else:
            run = untraced(args, wl, modules, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _, failed, wrong, declined = run["outcomes"]
    report = run["metrics"]
    report.update(accuracy(checker, run["attempted"], failed + wrong + declined))
    units = {**run["units"], **ACCURACY}
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env))
    for name, value in report.items():
        print(f"  {name:<48} {value:<24.10g} {units[name]}")
    if checker.first_wrong:
        print(f"first wrong output: {checker.first_wrong}")
    if checker.first_failed:
        print(f"first failed operation: {checker.first_failed}")
    print(f"declined: {declined} of {run['attempted']} operations refused an input "
          f"decomposable by construction")
    if checker.first_declined:
        print(f"first declined operation: {checker.first_declined}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "attempted": run["attempted"], "failed": failed + wrong, "declined": declined,
              "correct": wrong == 0, "metrics": report}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": wrong == 0,
        "attempted": run["attempted"],
        "failed": failed + wrong,
        "metrics": {name: {"value": float(report[name]), "unit": unit}
                    for name, unit in run["units"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
