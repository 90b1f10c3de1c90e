"""Span tracing for the traced benchmark run.

`install` wraps the public functions of each cmclab module under every name
they are looked up by (for example `cmclab.pipeline.surface_primary` and
`cmclab.verify.measure`), so nested calls become child spans of their
caller.  Spans stay in memory; `layer_table` turns them into per-layer
numbers when the run ends.  Only `run.py --trace 1` imports this module.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter

import numpy as np

OP = "op"
# time spent in the hooks below (hashing, stat calls); reported as its own row
TRACE = "trace"
MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, perf_counter(), float("nan"), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()


def _fingerprint(a) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a), digest_size=16).hexdigest()


def _path_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _cells(args, result):
    # every node but the base is reached by exactly one RK4 cell step
    g = result.grid
    return {"cells": g.nx * g.ny - 1}


def _surface_key(args, result):
    return {"key": (result.kind, _fingerprint(result.points))}


def _normal_key(args, result):
    return {"key": _fingerprint(result.vectors)}


def _measured_key(args, result):
    surface = args[0]
    return {"key": (surface.kind, _fingerprint(surface.points))}


# (span name, module, function, hook run after the call)
TARGETS = (
    ("cli.main", "cmclab.cli", "main", None),
    ("cli.load_config", "cmclab.config", "load_config", None),
    ("surface_data.generate", "cmclab.surface_data", "cylinder_data", None),
    ("surface_data.generate", "cmclab.surface_data", "delaunay_data", None),
    ("surface_data.save", "cmclab.surface_data", "save_surface_data", _path_bytes),
    ("surface_data.load", "cmclab.surface_data", "load_surface_data", _path_bytes),
    ("frames.integrate", "cmclab.frames", "integrate_frame", _cells),
    ("frames.shift", "cmclab.frames", "shift_frame", None),
    ("surfaces.surface", "cmclab.surfaces", "surface_primary", _surface_key),
    ("surfaces.surface", "cmclab.surfaces", "surface_shifted", _surface_key),
    ("surfaces.normal", "cmclab.surfaces", "normal_field", _normal_key),
    ("minkowski.require_h3", "cmclab.minkowski", "require_h3", None),
    ("measure", "cmclab.measure", "measure", _measured_key),
    ("verify", "cmclab.verify", "verify_theorem", None),
    ("report.render", "cmclab.report", "render_text", None),
    ("report.render", "cmclab.report", "render_machine", None),
    ("pipeline.save_frame", "cmclab.pipeline", "save_frame", _path_bytes),
    ("pipeline.load_frame", "cmclab.pipeline", "load_frame", _path_bytes),
    ("pipeline.write_mesh", "cmclab.pipeline", "write_mesh", _path_bytes),
    ("pipeline.write_diagnostics", "cmclab.pipeline", "write_diagnostics", _path_bytes),
    ("pipeline.glue", "cmclab.pipeline", "run", None),
    ("pipeline.glue", "cmclab.pipeline", "verify_outputs", None),
    ("pipeline.glue", "cmclab.pipeline", "export_meshes", None),
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if hook is not None:
            with tracer.span(TRACE):
                s.info = hook(args, result)
        return result

    setattr(traced, MARK, name)
    return traced


def install(tracer: Tracer):
    """Replace every module-level reference to a target inside cmclab.

    Returns the list of patches for `uninstall`.
    """
    wrappers = {}
    for name, modname, attr, hook in TARGETS:
        fn = getattr(importlib.import_module(modname), attr)
        wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, hook))
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "cmclab" and not modname.startswith("cmclab."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                patches.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    return patches


def uninstall(patches) -> None:
    for mod, attr, val in reversed(patches):
        setattr(mod, attr, val)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in kids]
        out.append((s.end - s.start) - _covered(clipped))
    return out


# layer rows: (metric prefix, span names whose self time the row sums)
SELF_ROWS = (
    ("cli", ("cli.main", "cli.load_config")),
    ("pipeline", ("pipeline.glue",)),
    ("pipeline.save_frame", ("pipeline.save_frame",)),
    ("pipeline.write_diagnostics", ("pipeline.write_diagnostics",)),
    ("pipeline.write_mesh", ("pipeline.write_mesh",)),
    ("pipeline.load_frame", ("pipeline.load_frame",)),
    ("surface_data.generate", ("surface_data.generate",)),
    ("surface_data.save", ("surface_data.save",)),
    ("surface_data.load", ("surface_data.load",)),
    ("frames.integrate", ("frames.integrate",)),
    ("frames.shift", ("frames.shift",)),
    ("surfaces", ("surfaces.surface", "surfaces.normal")),
    ("minkowski.require_h3", ("minkowski.require_h3",)),
    ("measure", ("measure",)),
    ("verify", ("verify",)),
    ("report.render", ("report.render",)),
    ("bench", (OP,)),
    ("trace", (TRACE,)),
)

# count rows: (metric name, span name, what to count)
COUNT_ROWS = (
    ("pipeline.save_frame.bytes", "pipeline.save_frame", "bytes"),
    ("pipeline.write_diagnostics.bytes", "pipeline.write_diagnostics", "bytes"),
    ("pipeline.write_mesh.calls", "pipeline.write_mesh", "calls"),
    ("pipeline.write_mesh.bytes", "pipeline.write_mesh", "bytes"),
    ("pipeline.load_frame.bytes", "pipeline.load_frame", "bytes"),
    ("surface_data.save.bytes", "surface_data.save", "bytes"),
    ("surface_data.load.bytes", "surface_data.load", "bytes"),
    ("frames.integrate.calls", "frames.integrate", "calls"),
    ("frames.integrate.cells", "frames.integrate", "cells"),
    ("frames.shift.calls", "frames.shift", "calls"),
    ("surfaces.surface_calls", "surfaces.surface", "calls"),
    ("surfaces.normal_calls", "surfaces.normal", "calls"),
    ("surfaces.unique_ratio", "surfaces.surface", "unique_ratio"),
    ("measure.calls", "measure", "calls"),
    ("measure.unique_ratio", "measure", "unique_ratio"),
    ("minkowski.require_h3.calls", "minkowski.require_h3", "calls"),
)


def per_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per-layer numbers for each traced op, keyed by op id.

    Self times of all rows in SELF_ROWS add up to the op span's duration;
    the `op_s` entry holds that duration.
    """
    selfs = self_times(spans)
    ops: dict[int, dict[str, float]] = {}
    keys: dict[tuple[int, str], list] = {}
    row_of = {name: row for row, names in SELF_ROWS for name in names}
    for s, own in zip(spans, selfs):
        d = ops.setdefault(s.op, {})
        if s.name == OP:
            d["op_s"] = s.end - s.start
        row = row_of[s.name] + ".self_s"
        d[row] = d.get(row, 0.0) + own
        d[s.name + ".calls"] = d.get(s.name + ".calls", 0) + 1
        for what in ("bytes", "cells"):
            if what in s.info:
                d[f"{s.name}.{what}"] = d.get(f"{s.name}.{what}", 0) + s.info[what]
        if "key" in s.info:
            keys.setdefault((s.op, s.name), []).append(s.info["key"])
    for (op, name), ks in keys.items():
        ops[op][name + ".unique_ratio"] = len(set(ks)) / len(ks)
    return ops


def layer_table(spans: list[Span]) -> dict[str, float]:
    """Mean over traced ops of every SELF_ROWS and COUNT_ROWS metric."""
    ops = [d for d in per_op(spans).values() if "op_s" in d]
    out = {}
    for row, _ in SELF_ROWS:
        out[row + ".self_s"] = sum(d.get(row + ".self_s", 0.0) for d in ops) / len(ops)
    for metric, name, what in COUNT_ROWS:
        out[metric] = sum(d.get(f"{name}.{what}", 0) for d in ops) / len(ops)
    return out
