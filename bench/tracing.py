"""Span tracing of bjcones from the outside, by rebinding its public functions.

``install`` wraps
  * ``values`` on every concrete ``Norm`` subclass, at class level, so calls
    the library makes internally are caught and ``isinstance`` still works;
  * every function named in a module's ``__all__`` (or, for a module without
    ``__all__``, every public function it defines), in every module namespace
    of the package that binds it, because the modules import each other's
    functions by name.
Functions are discovered at install time, so a renamed or new public function
is traced without changing this file.

Spans (name, start, end, parent, query) are kept in memory in flat arrays and
written out by ``Tracer.save``.  A span's self time is its duration minus the
time its child spans cover; spans nest strictly because the library is single
threaded.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_self = array("d")
        self.span_rows = array("q")
        self.query = -1
        self._stack = []          # [span index, time covered by children]
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, rows_arg=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_query, s_self, s_rows = (self.span_parent, self.span_query,
                                             self.span_self, self.span_rows)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_query.append(self.query)
            s_rows.append(-1 if rows_arg is None else len(args[rows_arg]))
            s_end.append(0.0)
            s_self.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s_end[idx] = t1
                s_self[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self, package):
        """Wrap the package's norms' values and its modules' public functions."""
        mods = [package]
        for info in pkgutil.iter_modules(package.__path__):
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in mods}

        base = package.norms.Norm
        todo, classes = list(base.__subclasses__()), []
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            if "values" in cls.__dict__:
                orig = cls.__dict__["values"]
                name = f"{short.get(cls.__module__, cls.__module__)}.values"
                setattr(cls, "values", self._wrap(name, orig, rows_arg=1))
                self._undo.append((cls, "values", orig))

        wrapped = {}
        for m in mods[1:]:
            names = getattr(m, "__all__", None)
            if names is None:
                names = [n for n in vars(m) if not n.startswith("_")]
            for n in names:
                fn = getattr(m, n, None)
                if inspect.isfunction(fn) and fn.__module__ == m.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{short[m.__name__]}.{n}", fn))
        for m in mods:
            for attr, obj in list(vars(m).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(m, attr, hit[1])
                    self._undo.append((m, attr, obj))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ----- analysis -------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "query": np.frombuffer(self.span_query, dtype=np.int32),
            "self": np.frombuffer(self.span_self, dtype=np.float64),
            "rows": np.frombuffer(self.span_rows, dtype=np.int64),
        }

    def save(self, path):
        """Write every span and the name table as one .npz file."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())
