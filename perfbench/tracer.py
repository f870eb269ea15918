"""Outside-in tracer: spans around the public functions of each layer module.

`install()` wraps every public function defined in a layer module and rebinds
every module-level name in `hypergroups.*` that is bound to one of them, so
that names imported with `from .core import validate` are traced too.  Each
thread keeps its own span stack (`batch` runs a thread pool).  A span records
its id, parent, name, start, end, whether an exception left it, the ring id
and the phase.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("core", "spectra", "dual", "burnside", "structure", "galois", "criteria",
          "_exact", "report", "cli", "builders.formats", "builders.rings",
          "builders.groups", "builders.enumeration")

# the function whose argument names the ring that a pool thread works on
_RING_FROM_ARG = "builders.formats.load"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, raised, ring, phase)
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count()
        self._wrapped = {}  # id(original) -> (original, wrapper)
        self._rebound = []  # (module, attribute, original)

    def set_ring(self, ring):
        self._local.ring = ring

    def _wrap(self, fn, name):
        local, ids, spans = self._local, self._ids, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if name == _RING_FROM_ARG and args:
                local.ring = os.path.basename(str(args[0]))
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            raised = False
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, raised,
                              getattr(local, "ring", None), tracer.phase))

        return wrapper

    def install(self):
        if not self._wrapped:
            for layer in LAYERS:
                mod = importlib.import_module("hypergroups." + layer)
                for attr, fn in vars(mod).items():
                    if (not attr.startswith("_") and inspect.isfunction(fn)
                            and fn.__module__ == mod.__name__):
                        self._wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "hypergroups" and not modname.startswith("hypergroups."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._rebound:
            setattr(mod, attr, val)
        self._rebound.clear()

    def stats(self, phase):
        """name -> [calls, self seconds, raised, inclusive seconds] over one phase."""
        spans = [s for s in self.spans if s[7] == phase]
        child = defaultdict(float)
        for sid, parent, _, t0, t1, *_ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0, 0.0])
        for sid, _, name, t0, t1, raised, *_ in spans:
            st = out[name]
            st[0] += 1
            st[1] += (t1 - t0) - child[sid]
            st[2] += raised
            st[3] += t1 - t0
        return out

    def uncovered(self, outer, inner_names, phase):
        """Seconds of `outer` spans not covered by `inner_names` spans on any thread."""
        spans = [s for s in self.spans if s[7] == phase]
        inner = sorted((s[3], s[4]) for s in spans if s[2] in inner_names)
        total = 0.0
        for s in spans:
            if s[2] != outer:
                continue
            lo, hi = s[3], s[4]
            covered, cur_lo, cur_hi = 0.0, None, None
            for a, b in inner:
                a, b = max(a, lo), min(b, hi)
                if a >= b:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            total += (hi - lo) - covered
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
