"""Command-line front end: gen-data, run, ablate, gradcheck, report."""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import sys
from pathlib import Path

from . import harness, streams
from .errors import ConfigError, FormatError, InputError

# the largest relative gradient error `gradcheck` accepts before exiting 1
GRADCHECK_TOLERANCE = 1e-4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="JSON config overriding the defaults")
    p.add_argument("--seed", default="0", help="integer >= 0")
    _add_out(p)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None, help="output file or directory")


def _load(args) -> dict | None:
    return harness.read_json_object(args.config, ConfigError, "config") if args.config else None


def _seed(text: str) -> int:
    """A seed given on the command line: an integer >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise ConfigError(f"a seed must be an integer >= 0, got {text!r}")
    return int(text)


def cmd_gen_data(args) -> int:
    cfg = harness.resolve_config(_load(args))
    bcfg, _, scfg = harness.split_config(cfg)
    rng_data = harness.seeded_generators(_seed(args.seed), 0)[0]
    dataset = harness.synthetic_dataset(bcfg, scfg, rng_data)
    out = args.out or Path("dataset.clld")
    streams.save_dataset(out, dataset)
    print(f"wrote {out} ({dataset.num_classes} classes)")
    return 0


def cmd_run(args) -> int:
    out = args.out or Path("run_out")
    acc = harness.run_experiment(_load(args), _seed(args.seed), out_dir=out)["accuracy"]
    print(f"final accuracy A_T = {acc['final']:.4f}, average A_bar = {acc['average']:.4f}")
    print(f"report: {Path(out) / 'run_report.json'}")
    return 0


def cmd_ablate(args) -> int:
    axes = [a for a in (args.axes or "").split(",") if a]
    if not axes:
        raise ConfigError("--axes requires a comma-separated list of axis names")
    texts = [args.seed] if args.seeds is None else args.seeds.split(",")
    seeds = [_seed(s) for s in texts]
    out = args.out or Path("ablation_out")
    reports, summary = harness.run_ablation(_load(args), axes, seeds, out_dir=out)
    print(summary, end="")
    print(f"{len(reports)} runs; summary: {Path(out) / 'summary.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    report = harness.gradcheck(_load(args), _seed(args.seed))
    for term in report["terms_checked"]:
        info = report["terms"][term]
        print(f"{term}: max rel error {info['max_rel_error']:.3e} over {info['num_checked']} scalars")
        for tag, err in sorted(info["per_group"].items()):
            print(f"    {tag:14s} {err:.3e}")
    print(f"overall max rel error {report['max_rel_error']:.3e}")
    if args.out:
        harness.atomic_write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if not report["max_rel_error"] <= GRADCHECK_TOLERANCE:
        print(
            f"gradcheck failed: max rel error {report['max_rel_error']:.3e} "
            f"exceeds {GRADCHECK_TOLERANCE:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _load_report(path) -> dict:
    """The run report at ``path``; FormatError when the file is not one, or
    when a field that ``cmd_report`` prints could not be printed."""
    data = harness.read_json_object(path, FormatError, "report")
    acc = data.get("accuracy")
    per_task = acc.get("per_task") if isinstance(acc, dict) else None
    # type(), not isinstance(): JSON's true and false load as bool, a subclass of int
    if not (isinstance(per_task, list) and per_task) or not all(
        type(v) in (int, float) for v in [acc.get("average"), acc.get("final"), *per_task]
    ):
        raise FormatError(f"report file {path} holds no run report accuracy record")
    params = data.get("params", {"total": 0, "backbone_ratio": 0.0})
    if not isinstance(params, dict) or not all(
        type(params.get(k)) in (int, float) for k in ("total", "backbone_ratio")
    ):
        raise FormatError(f"report file {path} holds a malformed 'params' block")
    if type(data.get("adapter_pass_count", 0)) is not int:
        raise FormatError(f"report file {path} holds a non-integer 'adapter_pass_count'")
    return data


def cmd_report(args) -> int:
    data = _load_report(args.path)
    acc = data["accuracy"]
    print(f"seed {data.get('seed')}")
    for t, a in enumerate(acc["per_task"], start=1):
        print(f"  after task {t}: accuracy {a:.4f}")
    print(f"  average A_bar = {acc['average']:.4f}")
    print(f"  final   A_T   = {acc['final']:.4f}")
    if "params" in data:
        params = data["params"]
        ratio = 100.0 * params["backbone_ratio"]
        print(f"  trainable params: {params['total']} ({ratio:.3f}% of backbone)")
    if "adapter_pass_count" in data:
        print(f"  adapter passes per query: {data['adapter_pass_count']}")
    if args.out:
        harness.atomic_write(args.out, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def _keep_freed_heap() -> None:
    """On glibc, keep freed heap memory mapped: glibc trims the heap top above a
    threshold that the largest freed temporary sets, so each training step would
    fault back in what the last one freed. Library callers keep the defaults."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-2, 16 << 20)  # M_TOP_PAD


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="dualora",
        description="Continual image classification with shared and per-task low-rank adapters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("run", help="train the task sequence and write a report")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ablate", help="sweep toggle/position/rank axes")
    _add_common(p)
    p.add_argument("--axes", type=str, required=True, help="comma list, e.g. kd,gr,l-sweep")
    p.add_argument("--seeds", type=str, default=None, help="comma list of seeds")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference verification of the loss gradients")
    _add_common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="pretty-print a run report")
    _add_out(p)
    p.add_argument("path", type=Path, help="run_report.json to display")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as e:  # OSError: e.g. --out in a missing directory
        print(f"dualora {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
