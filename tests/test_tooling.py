"""Checks that tie the package to what stands outside it.

The benchmark's tracer wraps package functions by their names, so a rename
in the package must fail here and not only under ``benchmarks/run.py
--trace 1``; one traced operation of three workloads must pass the workload's
own check at the exact counts the benchmark reports. The tests read
``benchmarks/`` and leave it as it is. README's
CLI section may name only options that the command defines.
"""

import re
from pathlib import Path

import pytest

from dualora import cli, harness

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def test_tracer_installs_over_the_package_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer
    import workloads

    t = tracer.Tracer()
    try:
        t.install(workloads.PKG)
        wrapped = list(t._undo)
        for owner, attr, fn in wrapped:
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr} not wrapped"
    finally:
        t.uninstall()
    assert wrapped
    for owner, attr, fn in wrapped:
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"


def _one_traced_op(name, work):
    """One operation of benchmark workload ``name`` at seed 0, as the
    benchmark runs it under its tracer: the problems its check finds, the
    operation's exact counts, and its per-layer metrics."""
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.prepare(0, work)
    workload.reference()
    t = tracer.Tracer()
    t.install(workloads.PKG)
    try:
        frame = t.begin_op()
        try:
            result = workload.operate(0)
        finally:
            counts = t.end_op(frame)
    finally:
        t.uninstall()
    return workload.check(result), counts, t.layer_metrics(1)


def test_benchmark_ops_pass_their_checks_at_the_exact_counts(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    problems, counts, _ = _one_traced_op("desk_run", tmp_path)
    assert problems == []
    assert counts["autodiff.tape_nodes_per_step"] == 32.6
    assert counts["trainer.teacher_rows_per_unique"] == 1.0
    assert counts["eval_formula_mismatches"] == 0
    # the tracer counts the closure calls of this process only: all 2 + 2 * 227
    # at 1 CPU; at 2 CPUs, those of the parent's share of 4 parameters of 32
    # scalars (the forked worker checks the other 99)
    for cpus, closure_calls in ((1, 456), (2, 2 + 2 * 128)):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        problems, counts, layers = _one_traced_op("gradcheck", tmp_path)
        assert problems == []
        assert counts["eval_formula_mismatches"] == 0
        assert layers["autodiff.fd_closure_calls"] == (closure_calls, "count")
    # set-up trains the query model, so this covers finish and prototypes too
    problems, counts, _ = _one_traced_op("query_stream", tmp_path)
    assert problems == []
    assert counts["classifier.adapter_passes_per_query"] == 18
    assert counts["eval_formula_mismatches"] == 0


OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_readme_cli_section_names_only_defined_options(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(OPTION.findall(section))
    (commands,) = re.findall(r"\{([a-z,-]+)\}", _help([], capsys))[:1]
    defined = set()
    for command in commands.split(","):
        defined |= set(OPTION.findall(_help([command], capsys)))
    assert {"--config", "--seed", "--seeds", "--axes", "--out"} <= named
    assert named <= defined, sorted(named - defined)
