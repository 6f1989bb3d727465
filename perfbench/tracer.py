"""Span recorder that wraps contiform's public functions from outside.

Only the traced run imports this module.  `install` replaces every public
function and public method of the layer modules with a wrapper that
records one span per call: name, start, end (perf_counter_ns) and the
index of the enclosing span.  A function imported by name into another
module (``from .automaton import transition``) is replaced there too,
because that module attribute is where its caller looks it up.

Spans stay in memory, in flat arrays, until `save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import is_dataclass

import numpy as np

LAYERS = ("scenario", "refnet", "geometry", "anomaly", "cem", "automaton",
          "simulate", "logio", "cli")

# Work counts recorded at the span boundary: name -> f(args) -> int.
SIZES = {
    "geometry.lambda_nd_batch": lambda args, kwargs: len(
        args[0] if args else kwargs["vertices"]),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        size = SIZES.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, parent, start, end, sizes = (
            self.name_id, self.parent, self.start, self.end, self.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            sizes.append(size(args, kwargs) if size else 0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 size=np.frombuffer(self.size, dtype=np.int64))


def _defined_in(obj, module):
    return getattr(obj, "__module__", None) == module.__name__


def install(tracer, package="contiform"):
    """Wrap the public functions and methods of every layer module."""
    modules = {layer: importlib.import_module(f"{package}.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _defined_in(obj, module):
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    public = not meth.startswith("_") or (
                        meth == "__init__" and not is_dataclass(obj))
                    if public and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(
                            f"{layer}.{obj.__name__}.{meth}", fn))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
