"""Timing wrappers around perfchain's public functions, for the traced run.

`Tracer.install` wraps every public function of each layer module, every
public class's `__init__` and every public method, and rebinds each
binding of the wrapped object: the module global, each `from .x import f`
copy in other perfchain modules (and module-level tables such as the
certificate checkers), and the class attribute.  Nothing under src/
changes; only the traced worker imports this module.

Span names are `<layer>.<function>`, `<layer>.<Class>` for a constructor
and `<layer>.<method>` for a method (`<layer>.<Class>.<method>` when that
name is taken).  Each span records its name, start, end, parent span and
job; self time is the duration minus the time of the child spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import sys
import time

LAYERS = ["flinalg", "groups", "modules", "chains", "finiteness", "towers", "abelian",
          "certificates", "serialize", "cli"]


def _decimal_digits(x: int) -> int:
    """Digits of |x| without str(), which refuses ints over 4300 digits."""
    x = abs(x)
    if x == 0:
        return 1
    d = int(x.bit_length() * math.log10(2)) + 1
    while d > 1 and x < 10 ** (d - 1):
        d -= 1
    while x >= 10 ** d:
        d += 1
    return d


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []       # (id, parent, name index, start, end, job)
        self.stack: list[list] = []        # [span id, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.job = None
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    # counters computed at the layer boundary

    def _count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _hooks(self, name: str):
        """(before, after) callbacks for the spans that carry a count."""
        if name == "flinalg.rref":
            def after(args, kwargs, result, before):
                shape = getattr(args[0], "shape", None) or (len(args[0]), len(args[0][0]))
                self._count(name + ".cells", int(shape[0]) * int(shape[1]))
            return None, after
        if name == "flinalg.asfield":
            return None, lambda a, k, result, b: self._count(name + ".bytes", result.nbytes)
        if name == "groups.expand":
            def after(args, kwargs, result, cached):
                if not cached:
                    self._count(name + ".bytes", result.nbytes)
            return lambda args: args[0]._expanded is not None, after
        if name == "modules.PiModule":
            def after(args, kwargs, result, before):
                M = args[0]
                self._count(name + ".action_bytes", M.group.order * M.dim * M.dim * 8)
            return None, after
        if name == "chains.minimalize":
            def after(args, kwargs, result, before):
                self._count(name + ".cancellations",
                            (sum(args[0].ranks) - sum(result[0].ranks)) // 2)
            return None, after
        if name == "abelian.smith_normal_form":
            def after(args, kwargs, result, before):
                big = max((abs(x) for mat in (result.U, result.V) for row in mat for x in row),
                          default=0)
                big = max([big, *(abs(d) for d in result.diag)])
                key = name + ".max_digits"
                self.counts[key] = max(self.counts.get(key, 0), _decimal_digits(big))
            return None, after
        return None, None

    # ------------------------------------------------------------------

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        before, after = self._hooks(name)
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter
        tracer, ids = self, self._ids

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                spans.append((frame[0], parent, index, start, end, tracer.job))
            if after:
                after(args, kwargs, result, state)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper._perfbench_span = name
        return wrapper

    def install(self) -> None:
        """Wrap and rebind."""
        mods = {name: importlib.import_module(f"perfchain.{name}") for name in LAYERS}
        everywhere = [m for n, m in sys.modules.items()
                      if n == "perfchain" or n.startswith("perfchain.")]
        replaced = {}                      # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            funcs, classes = {}, {}
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs[name] = obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    classes[name] = obj
            method_owners = {}
            for cname, cls in classes.items():
                for attr in vars(cls):
                    if not attr.startswith("_"):
                        method_owners.setdefault(attr, []).append(cname)
            for name, fn in funcs.items():
                replaced[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
            for cname, cls in classes.items():
                for attr, val in list(vars(cls).items()):
                    if attr == "__init__" and inspect.isfunction(val):
                        span = f"{layer}.{cname}"
                    elif attr.startswith("_"):
                        continue
                    elif attr in funcs or len(method_owners[attr]) > 1:
                        span = f"{layer}.{cname}.{attr}"
                    else:
                        span = f"{layer}.{attr}"
                    if isinstance(val, staticmethod):
                        setattr(cls, attr, staticmethod(self.wrap(span, val.__func__)))
                    elif inspect.isfunction(val):
                        setattr(cls, attr, self.wrap(span, val))
        for mod in everywhere:
            for name, val in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[key] = hit[1]

    # ------------------------------------------------------------------

    def summary(self, passes: int) -> dict:
        """Per-pass calls, self time and counts for every span name, plus
        the self-check that minimalize's cancellation count agrees with the
        number of unit inversions it made (one per cancellation)."""
        layers = {}
        for name in self.names:
            if self.calls[name]:
                layers[f"{name}.calls"] = self.calls[name] / passes
                layers[f"{name}.self_s"] = self.self_s[name] / passes
        for key, value in self.counts.items():
            layers[key] = value if key.endswith(".max_digits") else value / passes
        minimalize = {i for i, n in enumerate(self.names) if n == "chains.minimalize"}
        inverse = {i for i, n in enumerate(self.names) if n == "groups.ga_inverse"}
        parents = {s[0] for s in self.spans if s[2] in minimalize}
        inversions = sum(1 for s in self.spans if s[2] in inverse and s[1] in parents)
        return {"layers": layers,
                "self_total_s": sum(self.self_s.values()) / passes,
                "minimalize_inversions": inversions / passes,
                "spans": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["id", "parent", "name", "start", "end", "job"],
                       "spans": self.spans}, fh)
