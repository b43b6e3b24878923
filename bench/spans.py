"""Span tracing of gatediscrim from outside the package.

`Tracer.install` wraps the public functions and the constructors of the
public classes of the layer modules, and rebinds every module attribute
that held an original function, so `protocol.gate_distance`,
`cli.gate_distance` and the package-level `gatediscrim.gate_distance` all
reach the same wrapper, and `gates.numkit.eig_unitary` resolves to the
wrapped `numkit.eig_unitary`.  `Gate.spectral` gets a span of its own and a
cache-hit count.  `uninstall` restores every binding; nothing is patched
outside a traced phase.

Spans are kept in flat integer arrays (id, parent, op, name, start, end)
and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array

import numpy as np

PACKAGE = "gatediscrim"
LAYERS = ("numkit", "gates", "protocol", "geometry", "cli")
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._name_index = {OP_SPAN: 0}
        cols = ("sid", "parent", "op", "name", "start", "end")
        self.cols = {c: array("q") for c in cols}
        self._stack = [0]
        self._next_sid = 1
        self.op_id = -1
        self.spectral_access = 0
        self.spectral_hits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn):
        """Wrap `fn` so that each call records one span named `name`."""
        idx = self._name(name)
        stack, cols = self._stack, self.cols
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cols["sid"].append(sid)
                cols["parent"].append(parent)
                cols["op"].append(self.op_id)
                cols["name"].append(idx)
                cols["start"].append(start)
                cols["end"].append(end)

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation `op_id`, under a root span."""
        self.op_id = op_id
        try:
            return self.span(OP_SPAN, fn)(*args)
        finally:
            self.op_id = -1

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        pkg_modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if "__init__" in vars(obj):
                        self._set(obj, "__init__", self.span(name, obj.__init__))
                    if isinstance(vars(obj).get("spectral"), property):
                        self._set(obj, "spectral", self._spectral_property(obj.spectral, name))
                elif inspect.isfunction(obj):
                    wrapper = self.span(name, obj)
                    for m in pkg_modules:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                self._set(m, a, wrapper)

    def _spectral_property(self, prop: property, cls_name: str) -> property:
        """`spectral` getter with a span, counting accesses that return the
        object an earlier access on the same instance returned (cache hits)."""
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        getter = self.span(f"{cls_name}.spectral", prop.fget)

        def fget(obj):
            value = getter(obj)
            self.spectral_access += 1
            if seen.get(obj) is value:
                self.spectral_hits += 1
            seen[obj] = value
            return value

        return property(fget, prop.fset, prop.fdel, prop.__doc__)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(a, dtype=np.int64) for c, a in self.cols.items()}

    def write(self, path, chunk: int = 50_000):
        """Write spans as TSV: id, parent, op, name, start_ns, end_ns."""
        a = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for lo in range(0, a["sid"].size, chunk):
                cols = [a[c][lo:lo + chunk].tolist() for c in ("sid", "parent", "op", "name", "start", "end")]
                cols[3] = [self.names[i] for i in cols[3]]
                fh.writelines("\t".join(map(str, row)) + "\n" for row in zip(*cols))


class SpanStats:
    """Per-name call counts and self times over a subset of operations."""

    def __init__(self, tracer: Tracer, op_ids):
        a = tracer.arrays()
        sel = np.isin(a["op"], np.asarray(list(op_ids), dtype=np.int64))
        self.names = tracer.names
        sid, parent, name = a["sid"][sel], a["parent"][sel], a["name"][sel]
        dur = a["end"][sel] - a["start"][sel]
        # Self time: duration minus the durations of direct children (one
        # thread, so children never overlap each other).
        pos = np.full(int(a["sid"].max(initial=0)) + 1, -1, dtype=np.int64)
        pos[sid] = np.arange(sid.size)
        child_total = np.zeros(sid.size, dtype=np.int64)
        has_parent = pos[parent] >= 0
        np.add.at(child_total, pos[parent[has_parent]], dur[has_parent])
        self_ns = dur - child_total
        n_names = len(self.names)
        self.calls = np.bincount(name, minlength=n_names)
        self.self_ns = np.bincount(name, weights=self_ns, minlength=n_names)
        self._parent, self._name, self._pos = parent, name, pos

    def _idx(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name: str) -> int:
        i = self._idx(name)
        return 0 if i is None else int(self.calls[i])

    def self_us(self, name: str) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self.self_ns[i]) / 1e3

    def count_inside(self, name: str, ancestor: str) -> int:
        """Spans named `name` that have a span named `ancestor` above them."""
        i, j = self._idx(name), self._idx(ancestor)
        if i is None or j is None:
            return 0
        total = 0
        for p in self._parent[self._name == i].tolist():
            while p > 0 and self._pos[p] >= 0:
                k = self._pos[p]
                if self._name[k] == j:
                    total += 1
                    break
                p = int(self._parent[k])
        return total
