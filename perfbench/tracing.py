"""Span tracing of iwrank from outside the package.

`Tracer.install()` replaces the public functions and methods of every
iwrank module with timing wrappers, at every place a caller looks the
name up: the defining module, each module that imported the name
(`modsym.rref` as well as `linalg.rref`), and the class for methods.
`Tracer.restore()` puts every original back.

Spans are aggregated in memory per name: calls, inclusive time and self
time (inclusive time minus the time of child spans).  The self times of
all spans, `bench.job` roots included, add up to the time spent inside
traced jobs.
"""

from __future__ import annotations

import builtins
import cProfile
import importlib
import os
import pstats
import types
from time import perf_counter

# iwrank modules in pipeline order; each one is a layer of the trace.
LAYERS = ("cli", "examples", "padic_l", "iwasawa", "modsym", "newforms",
          "qseries", "numfield", "characters", "padics", "cyclotomic",
          "linalg", "kernels")

# Methods with a leading underscore that are still traced: the arithmetic
# operators and constructors carry most of the work of the number types.
_DUNDERS = frozenset({
    "__init__", "__call__", "__eq__", "__neg__", "__pow__",
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
})

_MISSING = object()


def _kernel_ops(args):
    # convolve(a, b) / fold_tail(vec, red, deg) / convolve_reduce(a, b, red, deg)
    if len(args) == 2:
        return len(args[0]) * len(args[1])
    if len(args) == 3:
        vec, _, deg = args
        return max(len(vec) - deg, 0) * deg
    a, b, _, deg = args
    return len(a) * len(b) + max(len(a) + len(b) - 1 - deg, 0) * deg


class Tracer:
    def __init__(self):
        self.stats = {}      # span name -> [calls, inclusive s, self s]
        self.counters = {"kernels.mul_ops": 0, "modsym.fresh_builds": 0,
                         "modsym.cache_hits": 0, "modsym.cache_write_bytes": 0,
                         "modsym.cache_read_s": 0.0}
        self.orders = set()
        self._stack = []     # child-time accumulators of the open spans
        self._patches = []   # (owner, attribute, original or _MISSING)

    # --- spans ---------------------------------------------------------

    def _enter(self):
        acc = [0.0]
        self._stack.append(acc)
        return acc

    def _leave(self, name, acc, dt):
        self._stack.pop()
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - acc[0]
        if self._stack:
            self._stack[-1][0] += dt

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name` (used for the job roots)."""
        acc = self._enter()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(name, acc, perf_counter() - t0)

    def wrap(self, fn, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            post = hook(args, kwargs) if hook is not None else None
            acc = tracer._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._leave(name, acc, dt)
                if post is not None:
                    post(dt)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # --- counters computed from arguments ------------------------------

    def _hook_for(self, name):
        c = self.counters
        if name.startswith("kernels."):
            def kernel(args, kwargs):
                c["kernels.mul_ops"] += _kernel_ops(args)
            return kernel
        if name == "cyclotomic.CyclotomicNumber.__init__":
            def order(args, kwargs):
                self.orders.add(args[1])
            return order
        if name == "modsym.ModularSymbolSpace.__init__":
            def space(args, kwargs):
                # a space built from its relations, not from a cache payload
                if (args[2] if len(args) > 2 else kwargs.get("_payload")) is None:
                    c["modsym.fresh_builds"] += 1
            return space
        if name == "modsym.build_space":
            def build(args, kwargs):
                before = c["modsym.fresh_builds"]

                def post(dt):
                    # served from the cache when no relation matrix was reduced
                    if c["modsym.fresh_builds"] == before:
                        c["modsym.cache_hits"] += 1
                        c["modsym.cache_read_s"] += dt
                return post
            return build
        return None

    def _counting_open(self, *args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
        if any(m in mode for m in "wax"):
            return _CountingFile(fh, self.counters)
        return fh

    # --- install / restore ---------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the loaded iwrank."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"iwrank.{layer}")
                for layer in LAYERS}
        wrapped = {}          # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif self._is_own_function(layer, mod, obj):
                    wrapped[id(obj)] = (obj, self.wrap(
                        obj, f"{layer}.{attr}", self._hook_for(f"{layer}.{attr}")))
        # rebind each wrapped function wherever a module holds it
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        # cache files are written through modsym's name lookup of `open`
        self._patch(mods["modsym"], "open", self._counting_open)

    @staticmethod
    def _is_own_function(layer, mod, obj):
        if isinstance(obj, types.FunctionType):
            if obj.__module__ == mod.__name__:
                return True
            # kernels re-exports the selected implementation's functions
            return layer == "kernels" and obj.__module__.startswith("iwrank._kernels")
        return layer == "kernels" and isinstance(obj, types.BuiltinFunctionType)

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if isinstance(val, (classmethod, staticmethod)):
                fn = val.__func__
                name = f"{layer}.{fn.__qualname__}"
                self._patch(cls, attr, type(val)(self.wrap(fn, name, self._hook_for(name))))
            elif isinstance(val, types.FunctionType):
                name = f"{layer}.{val.__qualname__}"
                self._patch(cls, attr, self.wrap(val, name, self._hook_for(name)))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def patched(self):
        """(owner, attribute, original) for every wrap currently installed."""
        return list(self._patches)


class _CountingFile:
    """File proxy that counts the characters written through it."""

    def __init__(self, fh, counters):
        self._fh = fh
        self._counters = counters

    def write(self, text):
        self._counters["modsym.cache_write_bytes"] += len(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def profile_shares(profiler: cProfile.Profile, src_dir: str):
    """Share of profiled self time per iwrank module, `fractions`, and the
    rest (`other`), from one cProfile pass."""
    st = pstats.Stats(profiler)
    per = {}
    for (filename, _, _), (_, _, tottime, _, _) in st.stats.items():
        key = _profile_bucket(filename, src_dir)
        per[key] = per.get(key, 0.0) + tottime
    total = sum(per.values()) or 1.0
    return {k: v / total for k, v in per.items()}


def _profile_bucket(filename, src_dir):
    if filename.startswith(src_dir + os.sep):
        stem = os.path.splitext(os.path.basename(filename))[0]
        return "kernels" if stem.startswith("_kernels") else stem
    if os.path.basename(filename) == "fractions.py":
        return "fractions"
    return "other"
