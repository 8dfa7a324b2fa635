"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each public function of the traced phasecomp
modules with a timing wrapper, everywhere the package holds a reference to
it (``solver`` and ``cli`` import ``sequence_propagator`` by name, for
instance), plus ``Jet.__mul__`` and the ``numpy.linalg.lstsq`` that
``solver`` calls.  Spans are folded into totals as they close:

- ``calls``: completed calls;
- ``s``: inclusive time over outermost calls (a call nested inside another
  call of the same function, or for a layer of the same layer, adds nothing);
- ``self_s``: inclusive time minus the time of wrapped children.

Private helpers (``expansion._bconv``, ``solver._newton_batch``, ...) are not
wrapped; their time shows as self time of the public caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "solver", "expansion", "jets", "profiler", "serialize", "su2")


def _rows(args, result):
    batch, pulses = np.shape(args[0])
    return {"rows": batch, "pulse_rows": batch * pulses}


# Work counted at the boundary, from a wrapped call's arguments and result.
COUNTERS = {
    "expansion.u11_coefficients_batch": _rows,
    "profiler.scan": lambda args, result: {"points": result.values.size},
    "profiler.grid_to_csv": lambda args, result: {"bytes": len(result)},
    "serialize.dumps": lambda args, result: {"bytes": len(result)},
}


class Tracer:
    def __init__(self):
        self.functions = defaultdict(Counter)  # "layer.name" -> calls, s, self_s, counters
        self.layers = defaultdict(Counter)  # layer -> s, self_s
        self._stack = []  # child-time accumulator of each open span
        self._depth = Counter()  # open spans per function key and per layer

    def wrap(self, key: str, layer: str, fn):
        stats, layer_stats = self.functions[key], self.layers[layer]
        stack, depth, count = self._stack, self._depth, COUNTERS.get(key)
        layer_key = "layer:" + layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[key] += 1
            depth[layer_key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - children[0]
                layer_stats["self_s"] += elapsed - children[0]
                if depth[key] == 1:
                    stats["s"] += elapsed
                if depth[layer_key] == 1:
                    layer_stats["s"] += elapsed
                depth[key] -= 1
                depth[layer_key] -= 1
            if count is not None:
                stats.update(count(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "phasecomp"):
        """Swap the wrappers in for the duration of the block."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", layer, obj)
        undo = []

        def rebind(owner, name, value):
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    rebind(mod, name, wrappers[id(obj)])
        jet = modules[f"{package}.jets"].Jet
        mul = self.wrap("jets.mul", "jets", jet.__mul__)
        rebind(jet, "__mul__", mul)
        rebind(jet, "__rmul__", mul)
        # solver's numpy, with a traced lstsq; other callers keep the real one
        solver = modules[f"{package}.solver"]
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(np.linalg))
        linalg.lstsq = self.wrap("solver.lstsq", "solver", np.linalg.lstsq)
        traced_np = types.ModuleType("numpy")
        traced_np.__dict__.update(vars(np))
        traced_np.linalg = linalg
        rebind(solver, "np", traced_np)
        try:
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)

    def metrics(self) -> dict:
        """Flat ``{"<fn key>.<stat>": value, "<layer>.<stat>": value}``."""
        out = {}
        for key, stats in self.functions.items():
            for stat, value in stats.items():
                out[f"{key}.{stat}"] = value
        for layer, stats in self.layers.items():
            for stat, value in stats.items():
                out[f"{layer}.{stat}"] = value
        return out
