"""The benchmark's tracer wraps package functions by their names, so a rename
in the package must fail here and not only under ``benchmarks/run.py
--trace 1``. The test reads ``benchmarks/`` and leaves it as it is."""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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
