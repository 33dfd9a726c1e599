"""Per-module tracing of chowkit, installed from outside the package.

A ``Tracer`` wraps the public functions of every chowkit module, the
suite functions in ``cli._SUITES`` and a few methods, replacing every
module-level binding of each original object (modules import each other's
functions with ``from .x import y``, so patching one module would miss the
other call sites).  Three wrapper kinds keep the cost in proportion:

* count: hot methods (``Cycle.__init__``, ``ChowRing.multiply``, ...) only
  bump a counter;
* timed: public functions count calls and add their time to their layer,
  aggregated in memory;
* span: coarse entry points also append a span record (id, parent id,
  name, start, end).

Self time is kept on a stack: each timed frame's duration minus its timed
children goes to its module's layer.  Module bodies run under the same
accounting through an import hook, so every layer's self time includes its
import.  Nothing is written until ``dump``, which the benchmark's child
process calls as it exits.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time

LAYERS = (
    "rings",
    "correspondences",
    "fibrations",
    "motives",
    "murre",
    "identities",
    "linalg",
    "schubert",
    "catalog",
    "fileio",
    "cli",
    "sampling",
)

# called hundreds of thousands of times per invocation: counter only
COUNTED = (
    "rings.Cycle.__init__",
    "rings.ChowRing.multiply",
    "fibrations.FiberedCycle.__init__",
    "fibrations.FibrationModel.multiply",
)

# methods timed like public functions
TIMED_METHODS = (
    "rings.ChowRing.__init__",
    "rings.ChowRing.pairing_matrix",
    "rings.KunnethRing.__init__",
    "fibrations.ProjectorFamily.apply_all_with_coefficients",
)

# coarse entry points that also leave a span record
SPANS = (
    "cli.main",
    "cli.load_target",
    "cli._emit",
    "catalog.resolve",
    "fileio.load_ring",
    "fileio.load_fibration",
    "rings.ChowRing.__init__",
    "rings.KunnethRing.__init__",
    "rings.verify_pairing",
    "fibrations.validate_fibration",
    "fibrations.verify_projector_family",
    "fibrations.manin_battery",
    "fibrations.duality_report",
    "motives.decompose_model",
    "motives.decompose_motive",
    "motives.verify_projector_system",
    "murre.lift_ck",
    "murre.cellular_ck",
    "murre.verify_ck",
    "murre.verify_action_window",
    "murre.verify_block_diagonality",
    "murre.ck_battery",
    "identities.run_identity_battery",
    "identities.compose_oracle_battery",
)


class Tracer:
    def __init__(self):
        self.calls = {}  # name -> [count]
        self.inclusive = {}  # name -> seconds over outermost activations
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.cells = {"rings.kunneth_cells": 0}
        self.spans = []  # [id, parent id, name, start, end]
        self._stack = []  # [child seconds] per open timed frame
        self._span_ids = [0]  # open span ids; 0 is the root
        self._next_id = 1

    # -- wrappers --------------------------------------------------------------

    def _counter(self, name):
        return self.calls.setdefault(name, [0])

    def counted(self, name, fn):
        cell = self._counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, layer, fn, span=False):
        cell = self._counter(name)
        self.inclusive.setdefault(name, 0.0)
        depth = [0]
        clock, stack, self_time, inclusive = time.perf_counter, self._stack, self.self_time, self.inclusive
        spans, span_ids = self.spans, self._span_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if span:
                sid = self._next_id
                self._next_id += 1
                parent = span_ids[-1]
                span_ids.append(sid)
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                elapsed = end - start
                self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not depth[0]:
                    inclusive[name] += elapsed
                if span:
                    span_ids.pop()
                    spans.append([sid, parent, name, start, end])

        return wrapper

    # -- installation ------------------------------------------------------------

    def hook_imports(self):
        """Time each chowkit module body as a frame of its layer; call before
        chowkit is first imported."""
        sys.meta_path.insert(0, _ImportTimer(self))

    def install(self):
        """Wrap every public function of every layer module, plus the listed
        methods and the cli suites, and rebind every reference to them."""
        modules = {layer: importlib.import_module(f"chowkit.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not _defined_in(value, module):
                    continue
                name = f"{layer}.{attr}"
                replaced[id(value)] = self.timed(name, layer, value, span=name in SPANS)
        cli = modules["cli"]
        for attr in ["_emit"] + [fn.__name__ for fn in cli._SUITES.values()]:
            value = getattr(cli, attr)
            name = f"cli.{attr}"
            replaced[id(value)] = self.timed(name, "cli", value, span=True)

        for module in list(modules.values()) + [sys.modules["chowkit"]]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        for suite, fn in cli._SUITES.items():
            cli._SUITES[suite] = replaced[id(fn)]

        kunneth_init = modules["rings"].KunnethRing.__init__
        cells = self.cells

        def kunneth_with_cells(ring, *args, **kwargs):
            kunneth_init(ring, *args, **kwargs)
            cells["rings.kunneth_cells"] += len(ring.cells)

        for name in COUNTED + TIMED_METHODS:
            layer, cls_name, method = name.split(".")
            cls = getattr(modules[layer], cls_name)
            fn = kunneth_with_cells if name == "rings.KunnethRing.__init__" else getattr(cls, method)
            if name in COUNTED:
                wrapped = self.counted(name, fn)
            else:
                wrapped = self.timed(name, layer, fn, span=name in SPANS)
            setattr(cls, method, wrapped)

    # -- output ------------------------------------------------------------------

    def dump(self, path):
        summary = {
            "calls": {name: cell[0] for name, cell in self.calls.items()},
            "inclusive": self.inclusive,
            "self": self.self_time,
            "cells": self.cells,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(summary, fh)


def _defined_in(value, module):
    """A function (or an lru_cache around one) whose home is ``module``."""
    target = getattr(value, "__wrapped__", value)
    return inspect.isfunction(target) and target.__module__ == module.__name__


class _ImportTimer(importlib.abc.MetaPathFinder):
    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        parts = fullname.split(".")
        if len(parts) != 2 or parts[0] != "chowkit" or parts[1] not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self.tracer, parts[1])
        return spec


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer, layer):
        self.loader = loader
        self.exec_module = tracer.timed(f"{layer}.<import>", layer, loader.exec_module)

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def __getattr__(self, attr):
        return getattr(self.loader, attr)
