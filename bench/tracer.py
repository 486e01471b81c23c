"""Spans around the calls into each woldlab layer, recorded from outside.

The tracer wraps every function named in a layer module's ``__all__``,
plus the ``linalg.Subspace`` constructor, and rebinds each wrapper
wherever woldlab holds the original object: the defining module, every
sibling that imported it with ``from .x import y``, and the package
namespace. Imports made inside a function body (``cli._decay_rows``
imports ``hyper_range`` at call time) read the defining module, so they
resolve to the wrapper too. ``uninstall`` puts every original back.

A span is (name, start, end, parent, op), where op numbers the benchmark
operation that caused it. Spans stay in flat in-memory arrays
while the run lasts; ``write`` dumps them when it ends. Because the
program is single-threaded and spans nest, a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from array import array
from functools import wraps

import numpy as np

PACKAGE = "woldlab"
LAYERS = ("symbols", "hardy", "linalg", "wold", "pairs", "moments", "cli")

#: spans of this name also record a content hash of their first argument
HASHED = "wold.hyper_range"


def targets() -> dict:
    """Map ``layer.name`` to the function object the tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = obj
    return found


def _matrix_key(arg) -> str:
    m = np.ascontiguousarray(getattr(arg, "matrix", arg))
    digest = hashlib.blake2b(m.tobytes(), digest_size=16).hexdigest()
    return f"{m.shape}{m.dtype.str}{digest}"


class Tracer:
    """Install with ``with Tracer():``; read the spans afterwards."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outermost = array("b")
        self.op_of = array("i")
        #: (op, content key) of every hashed call, in call order
        self.inputs: list = []
        #: the benchmark sets this before each operation
        self.op = -1
        self._stack: list = []
        self._depth: list = []
        self._saved: list = []
        self._wrappers: dict = {}

    # -- installation --------------------------------------------------

    def _wrap(self, label: str, fn):
        ident = len(self.names)
        self.names.append(label)
        self._depth.append(0)
        hashed = label == HASHED
        name_of, start, end = self.name_of, self.start, self.end
        parent, outermost, op_of = self.parent, self.outermost, self.op_of
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if hashed:
                self.inputs.append((self.op, _matrix_key(args[0])))
            idx = len(start)
            name_of.append(ident)
            op_of.append(self.op)
            parent.append(stack[-1] if stack else -1)
            outermost.append(depth[ident] == 0)
            end.append(0.0)
            stack.append(idx)
            depth[ident] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[ident] -= 1
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        """Bind the wrappers; a tracer may be installed again after
        ``uninstall`` and keeps adding to the same spans."""
        if not self._wrappers:
            for label, fn in targets().items():
                self._wrappers[id(fn)] = self._wrap(label, fn)
            subspace = sys.modules[f"{PACKAGE}.linalg"].Subspace
            self._wrappers["Subspace"] = self._wrap("linalg.Subspace",
                                                    subspace.__init__)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        subspace = sys.modules[f"{PACKAGE}.linalg"].Subspace
        self._saved.append((subspace, "__init__", subspace.__init__))
        subspace.__init__ = self._wrappers["Subspace"]
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) \
            - np.frombuffer(self.start, dtype=np.float64)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        par = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(dur)
        child = par >= 0
        np.add.at(covered, par[child], dur[child])
        return dur - covered

    def root_time(self) -> float:
        """Inclusive time of the outermost spans."""
        par = np.frombuffer(self.parent, dtype=np.int32)
        return float(self.durations()[par < 0].sum())

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self times, and layer sums."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        dur, own = self.durations(), self.self_times()
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        per_name = {}
        for ident, label in enumerate(self.names):
            sel = names == ident
            per_name[label] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel & outer].sum()),
                "self_s": float(own[sel].sum()),
            }
        per_layer = {layer: 0.0 for layer in LAYERS}
        for label, row in per_name.items():
            per_layer[label.split(".")[0]] += row["self_s"]
        return {"names": per_name, "layers": per_layer}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        want, target = self.names.index(ancestor), self.names.index(name)
        inside = [False] * len(self.start)
        count = 0
        for i, (nm, par) in enumerate(zip(self.name_of, self.parent)):
            inside[i] = par >= 0 and (self.name_of[par] == want
                                      or inside[par])
            count += nm == target and inside[i]
        return int(count)

    def repeated_input_ops(self) -> int:
        """Operations with a hashed call on an input already seen."""
        seen: set = set()
        repeats: set = set()
        for op, key in self.inputs:
            if key in seen:
                repeats.add(op)
            seen.add(key)
        return len(repeats)

    def write(self, path: str) -> None:
        """Dump the spans as CSV: index, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op_of[i]}\n")
