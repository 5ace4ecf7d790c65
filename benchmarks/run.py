"""dualora benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload desk_run --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``. The run
sets up, runs one untimed warm-up operation, then repeats the workload's
operation in a closed loop for ``--seconds`` and checks every output. With
``--trace 0`` the last stdout line carries the end-to-end metrics; set-up is
repeated ``SETUP_REPEATS - 1`` more times at evenly spaced points of the loop,
outside any operation, and ``setup_s`` is the median. With ``--trace 1`` half
the time runs untraced and half traced, and the last line carries the
per-layer metrics plus the tracing overhead. Details (environment, inputs, samples, named figures) go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, spans of a traced run to
``.bench_out/<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import os

# BLAS thread count, pinned before numpy is imported; 1 is <= nproc everywhere
# and the desk-scale matrices (width 64) gain nothing from more threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_OPS = 3  # per timed phase, even when one operation outlasts --seconds


def op_time(samples: list[float]) -> float:
    """10th percentile of the operation times (README, "Why a low percentile")."""
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def cold_start_s() -> float:
    """Seconds for a fresh python3 to import the package, as each ``dualora``
    command pays before it does any work."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import dualora.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - started


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": int(BLAS_THREADS),
    }


class Run:
    """Operation loop bookkeeping: attempts, failures and their reasons."""

    def __init__(self, workload):
        self.w = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_counts: dict | None = None

    def one(self, tracer=None) -> float:
        i = self.next_op
        self.next_op += 1
        gc.collect()
        frame = tracer.begin_op() if tracer is not None else None
        result, problems = None, []
        started = time.perf_counter()
        try:
            result = self.w.operate(i)
        except Exception:
            problems.append(traceback.format_exc(limit=4))
        finally:
            elapsed = time.perf_counter() - started
            counts = tracer.end_op(frame) if tracer is not None else None
        if not problems:
            try:
                problems = self.w.check(result)
            except Exception:
                problems = [traceback.format_exc(limit=4)]
        if counts is not None:
            if counts.pop("eval_formula_mismatches"):
                problems.append("an evaluation's adapter passes differ from l + (N - l) * t")
            if self.first_counts is None:
                self.first_counts = counts
            elif counts != self.first_counts:
                problems.append(f"exact counts {counts} differ from the first traced op's {self.first_counts}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return elapsed

    def timed(self, seconds: float, tracer=None, between=None, times: int = 0) -> list[float]:
        """Operation times over ``seconds``; ``between`` runs ``times`` times
        at evenly spaced points, outside any operation."""
        samples: list[float] = []
        start = time.perf_counter()
        marks = [start + seconds * (k + 1) / (times + 1) for k in range(times)]
        while time.perf_counter() < start + seconds or len(samples) < MIN_OPS:
            if marks and time.perf_counter() >= marks[0]:
                marks.pop(0)
                between()
            samples.append(self.one(tracer))
        for _ in marks:
            between()
        return samples


def set_up(cls, seed: int, work: Path):
    """One timed set-up: a cold start, then the workload's preparation."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    cold_start_s()
    workload = cls()
    workload.prepare(seed, work)
    return workload, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dualora" / "__init__.py").is_file():
        print(f"benchmark: the dualora package is missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracer import Tracer
    from workloads import PKG, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}"
    try:
        workload, first_setup = set_up(cls, args.seed, work / "run")
        setup_s = [first_setup]

        def set_up_again():
            # a throwaway set-up, timed at another moment of the run
            extra = work / f"setup{len(setup_s)}"
            setup_s.append(set_up(cls, args.seed, extra)[1])
            shutil.rmtree(extra)

        workload.reference()
        run = Run(workload)
        run.one()  # warm-up: caches fill and the first output becomes the reference

        if args.trace:
            untraced = run.timed(args.seconds / 2)
            tracer = Tracer()
            tracer.install(PKG)
            try:
                traced = run.timed(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(len(traced))
            base, with_trace = op_time(untraced), op_time(traced)
            layers["trace.overhead_s"] = (with_trace - base, "s")
            layers["trace.overhead_pct"] = (100.0 * (with_trace - base) / base, "%")
            layers["trace.ops"] = (len(traced), "count")
            metrics = layers
            samples = {"untraced_s": untraced, "traced_s": traced}
            tracer.write_spans(OUT / f"{tag}-spans.jsonl")
        else:
            op_s = run.timed(args.seconds, between=set_up_again, times=SETUP_REPEATS - 1)
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "op_s": (op_time(op_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            samples = {"op_s": op_s}
        ops = next(iter(samples.values()))
        scale, unit = (1000.0, "ms") if workload.alias.endswith("_ms") else (1.0, "s")
        named = {
            "setup_s": (statistics.median(setup_s), "s"),
            workload.alias: (op_time(ops) * scale, unit),
            workload.alias + "_median": (statistics.median(ops) * scale, unit),
            **workload.named(ops),
        }
        if not args.trace:
            named["peak_rss_mb"] = metrics["peak_rss_mb"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(np)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {run.attempted} operations, {run.failed} failed")
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in named.items():
        print(f"  {name:24s} {value:.6g} {unit}")
    for problem in run.problems[:5]:
        print(f"  FAILED {problem}")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": workload.inputs(),
        "setup_s": setup_s,
        "samples": samples,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "problems": run.problems,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    details["result"] = result
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
