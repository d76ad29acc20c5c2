"""In-memory span recorder that wraps named functions of a live program.

A hook is ``(layer, module, qualname)``, for example
``("bspline", "t2spline.bspline", "sample_curve")`` or
``("fuzzy", "t2spline.fuzzy", "NT2FuzzyScalar.__init__")``.  Installing a
hook replaces the function with a wrapper that records one span per call:
``(layer, name, start_ns, end_ns, parent_index, payload)``.  A module-level
function is replaced in every module of the package that bound the same
object (``sample_curve`` is bound in both ``bspline`` and ``curves``).  A
hook whose target does not exist is listed in ``missing`` and otherwise
ignored.

Spans accumulate in memory until :meth:`Tracer.take` hands them over; the
parent index refers to the list that ``take`` returns.  Only stdlib is
imported here, so loading this module does not change the program's import
time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time


class Tracer:
    def __init__(self, hooks, keep=(), package: str = "t2spline"):
        self.hooks = tuple(hooks)
        self.keep = frozenset(keep)  # span names whose (args, kwargs, result) are kept
        self.package = package
        self.missing: list[str] = []
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> list[tuple]:
        """Return the spans recorded since the last call, in start order,
        and start afresh."""
        out = sorted(self._spans)
        self._spans.clear()
        self._ids = itertools.count()
        return [rec[1:] for rec in out]

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns
        keep = name in self.keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Records are tuples appended on exit; the span id is taken on
            # entry so that children can name their parent.
            ident = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(ident)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((ident, layer, name, t0, t1, parent, (args, kwargs, result) if keep else None))

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        for layer, module, qualname in self.hooks:
            name = f"{layer}.{qualname}"
            try:
                owner = importlib.import_module(module)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}:{qualname}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(self._wrap(layer, name, raw.__func__)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(layer, name, raw))
            else:
                wrapper = self._wrap(layer, name, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == self.package or mod_name.startswith(self.package + "."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> tuple[dict[str, int], int]:
    """Per-layer self time and total root-span time, in ns.

    A span's self time is its duration minus the durations of its direct
    children, so the layer self times sum exactly to the root spans.
    """
    child = [0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    per_layer: dict[str, int] = {}
    root = 0
    for i, rec in enumerate(spans):
        duration = rec[3] - rec[2]
        per_layer[rec[0]] = per_layer.get(rec[0], 0) + duration - child[i]
        if rec[4] < 0:
            root += duration
    return per_layer, root
