"""Every function and method the benchmark's traced run wraps still exists.

``perfbench/layers.py`` resolves its targets by name when a ``--trace 1`` run
starts, so renaming or deleting one of them would otherwise only show up
there.
"""

from __future__ import annotations

import importlib
from pathlib import Path


class _Recorder:
    """Stands in for the tracer: records what ``install`` would patch."""

    def __init__(self) -> None:
        self.functions = []
        self.methods = []

    def patch_function(self, module, attr, name, after=None, prefix="repro"):
        self.functions.append((module, attr))

    def patch_method(self, cls, attr, name, after=None):
        self.methods.append((cls, attr))


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    recorder = _Recorder()
    layers.install(recorder)

    assert recorder.functions == [(module, attr) for module, attr, _ in layers.FUNCTIONS]
    for module, attr in recorder.functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    assert recorder.methods
    for cls, attr in recorder.methods:
        assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr}"
