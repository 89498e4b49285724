"""Spans around calls into hodoflow's public functions, installed from outside.

``install()`` wraps each function named in ``TRACED`` and rebinds the wrapper
in every ``hodoflow`` module that holds the function, since a name imported
with ``from ... import`` is bound in several modules.  Each call records a
span: name, start, end, parent span and operation id.  Spans stay in memory
until ``save()``; ``summarize()`` turns them into per-operation counts and
self times (a span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

TRACED = {
    "specfun": ("kummer_m", "kummer_m_scaled", "kummer_logderiv", "tricomi_psi", "gamma"),
    "momentum": ("radial_value_slope", "factorized_u"),
    "mapping": ("forward_map", "script_R", "sample_fields", "invert_map", "map_differential"),
    "potentials": ("quantum_potential", "classical_potential"),
    "maxwell": ("density_F", "coeff_g", "normalization_sector"),
    "verify": ("quad2d_polar",),
    "suites": ("run_suite",),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.stack = []
        self.op_id = -1

    def wrap(self, code: int, fn):
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int16),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(NAMES), **self.arrays())


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` wherever a hodoflow module binds it."""
    originals = {}
    for code, qual in enumerate(NAMES):
        mod, fn = qual.split(".")
        try:
            target = getattr(importlib.import_module(f"hodoflow.{mod}"), fn)
        except (ImportError, AttributeError):
            continue  # gone from the program: its metrics read 0
        originals[id(target)] = tracer.wrap(code, target)
    for modname, module in list(sys.modules.items()):
        if modname != "hodoflow" and not modname.startswith("hodoflow."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def summarize(spans: dict) -> dict:
    """Per-name totals over all spans: calls, self seconds and inclusive seconds,
    and the number of ``forward_map`` calls made inside ``normalization_sector``."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    out = {}
    for code, qual in enumerate(NAMES):
        sel = name == code
        out[qual] = {"calls": int(sel.sum()), "self_s": float(self_s[sel].sum()),
                     "incl_s": float(dur[sel].sum())}
    # parents precede their children, so one forward pass marks each subtree
    norm_code, fmap_code = NAMES.index("maxwell.normalization_sector"), NAMES.index("mapping.forward_map")
    inside = np.zeros(len(name), dtype=bool)
    if np.any(name == norm_code):
        for i in range(len(name)):
            p = parent[i]
            inside[i] = p >= 0 and (inside[p] or name[p] == norm_code)
    out["integrand_calls"] = int(np.sum(inside & (name == fmap_code)))
    return out
