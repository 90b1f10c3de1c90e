"""The benchmark's tracing targets and the package's exports still name its code."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_span_targets_resolve(monkeypatch):
    # a deleted or renamed target would break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for _, module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans.TARGETS
    assert missing == []


def test_package_exports_resolve_once():
    # a name left in __all__ after its function is deleted breaks `import *`
    cmclab = importlib.import_module("cmclab")
    assert len(cmclab.__all__) == len(set(cmclab.__all__))
    assert [name for name in cmclab.__all__ if not hasattr(cmclab, name)] == []
