"""Checks that tie the package to what stands outside it.

The benchmark's tracer wraps package functions by their names, so a rename
in the package must fail here and not only under ``benchmarks/run.py
--trace 1``. The test reads ``benchmarks/`` and leaves it as it is. README's
CLI section may name only options that the command defines.
"""

import re
from pathlib import Path

import pytest

from dualora import cli

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
