"""Run every workload over a range of seeds and print the figures by name.

    python3 benchmarks/suite.py                      # seed 0, every workload
    python3 benchmarks/suite.py --seeds 0-9          # ten seeds: medians and spreads
    python3 benchmarks/suite.py --trace              # also one traced run per workload

Each run is its own process (``run.py``), so ``peak_rss_mb`` is per workload.
For every end-to-end metric in BENCHMARK.json the suite prints the median
over seeds and the spread (interquartile distance over median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound, then each
workload's own figures under the names the benchmark's README uses, and the
count of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = ROOT / ".bench_out"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    details = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return details


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    workloads = args.workloads.split(",")

    layers: dict[str, dict] = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            d = run_once(workload, seed, args.seconds, 0)
            runs.append(d)
            m = d["result"]["metrics"]
            print(f"{workload:13s} seed {seed:3d}  " + "  ".join(
                f"{k} {v['value']:.5g}" for k, v in m.items()
            ) + f"  failed {d['result']['failed']}/{d['result']['attempted']}", flush=True)
        print(f"{workload}: medians over {len(seeds)} seeds")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            if name != "setup_s":
                worst = max(worst, s / metric["bound"])
            print(f"  {name:24s} {statistics.median(values):10.5g} {metric['unit']:6s}"
                  f" spread {100 * s:5.2f}%  bound {100 * metric['bound']:.0f}%")
        for name, first in runs[0]["named"].items():
            values = [r["named"][name]["value"] for r in runs if name in r["named"]]
            print(f"  {name:24s} {statistics.median(values):10.5g} {first['unit']}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"  failed operations        {failed} of {attempted}")
        if args.trace:
            layers[workload] = run_once(workload, seeds[0], args.seconds, 1)["result"]["metrics"]

    if layers:
        print(f"\nper-layer metrics per operation (traced run, seed {seeds[0]})")
        print(f"{'metric':42s}" + "".join(f"{w:>14s}" for w in layers))
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            print(f"{name:42s}" + "".join(f"{layers[w][name]['value']:14.5g}" for w in layers)
                  + f"  {metric['unit']}")
    print(f"\nlargest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
