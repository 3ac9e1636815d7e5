"""The benchmark's tracer wraps rsedlab names where the drivers look them up
(perfbench/tracing.py).  A refactor that drops or moves one of those names
breaks `perfbench/run.py --trace 1` without failing any other test here."""

from pathlib import Path


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracing import Tracer, install

    tracer = Tracer("names")
    try:
        install(tracer)  # AttributeError on a missing name
        wrapped = list(tracer._undo)
    finally:
        tracer.restore()
    assert len(wrapped) == 16
    assert all(getattr(owner, attr) is fn for owner, attr, fn in wrapped)
