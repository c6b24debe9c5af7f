"""Span tracer for the starsmm layers, installed from outside the program.

The program's source is not edited.  In a fresh process, before
``starsmm`` is imported, :func:`install` does two things:

* an import hook opens an ``import`` span around the execution of each
  layer module's body, so a layer's module import counts as its own work;
* once the package is imported, every reference that one layer module
  holds to another layer (``from . import tmr`` in ``smm``, say) is
  replaced by a :class:`LayerProxy`.  The proxy hands out wrapped copies
  of the target layer's public functions, so each call that crosses a
  layer boundary opens a ``call`` span.  Calls inside one layer, and the
  layer's own global names, are left alone.

A layer's self time is the duration of its spans minus the part of each
span covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("zchan", "tmr", "pcec", "smm", "mitigation", "tepai", "hamcat", "cli")
_INDEX = {name: i for i, name in enumerate(LAYERS)}
_PACKAGE = "starsmm"

KIND_CALL = 0
KIND_IMPORT = 1


class SpanLog:
    """Spans kept in flat arrays: layer, kind, parent span, start, end."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.kind = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, layer: int, kind: int) -> int:
        span = len(self.start)
        self.layer.append(layer)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        """``fn`` with a ``call`` span of ``layer`` around every call."""
        index = _INDEX[layer]
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            span = open_(index, KIND_CALL)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def summary(self) -> dict:
        """Per-layer call count, self time and import self time."""
        own = self_times(self.parent, self.start, self.end)
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        import_s = [0.0] * len(LAYERS)
        for layer, kind, t in zip(self.layer, self.kind, own):
            self_s[layer] += t
            if kind == KIND_CALL:
                calls[layer] += 1
            else:
                import_s[layer] += t
        return {
            name: {"calls": calls[i], "self_s": self_s[i], "import_s": import_s[i]}
            for i, name in enumerate(LAYERS)
        }


def self_times(parent, start, end) -> list[float]:
    """Span duration minus the union of its children's intervals.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children may overlap each other (spans from several threads); a
    child's interval is clipped to its parent's before the union is taken.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    own = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            elif e > run_end:
                run_end = e
        if run_end is not None:
            covered += run_end - run_start
        own[p] -= covered
    return own


class LayerProxy:
    """Stands in for a layer module inside another layer's namespace."""

    def __init__(self, module: types.ModuleType, log: SpanLog) -> None:
        self.__dict__["_module"] = module
        self.__dict__["_log"] = log

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        if _is_public_function(value, self._module):
            value = self._log.wrap(self._module.__name__.rsplit(".", 1)[1], value)
        # cache, so later lookups skip __getattr__
        self.__dict__[name] = value
        return value


def _is_public_function(value, module: types.ModuleType) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and not value.__name__.startswith("_")
        and value.__module__ == module.__name__
    )


def _layer_of(fullname: str) -> str | None:
    head, _, tail = fullname.partition(".")
    return tail if head == _PACKAGE and tail in _INDEX else None


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Opens an ``import`` span around each layer module's body."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log

    def find_spec(self, fullname, path=None, target=None):
        layer = _layer_of(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        log, index = self.log, _INDEX[layer]

        def traced_exec(module):
            span = log.open(index, KIND_IMPORT)
            try:
                exec_module(module)
            finally:
                log.close(span)

        spec.loader.exec_module = traced_exec
        return spec


def install(log: SpanLog) -> None:
    """Trace imports of the layer modules; call before importing starsmm."""
    if _PACKAGE in sys.modules:
        raise RuntimeError("install the tracer before starsmm is imported")
    sys.meta_path.insert(0, _ImportSpans(log))


def patch_layers(log: SpanLog) -> dict[str, LayerProxy]:
    """Route every cross-layer reference through a proxy.

    Returns one proxy per layer, for callers outside the package (the
    benchmark's own in-process work) to call the layers through.
    """
    modules = {name: sys.modules[f"{_PACKAGE}.{name}"] for name in LAYERS
               if f"{_PACKAGE}.{name}" in sys.modules}
    proxies = {name: LayerProxy(mod, log) for name, mod in modules.items()}
    for name, mod in modules.items():
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if isinstance(value, types.ModuleType):
                target = _layer_of(value.__name__)
                if target is not None and target != name:
                    namespace[attr] = proxies[target]
            elif isinstance(value, types.FunctionType):
                target = _layer_of(value.__module__ or "")
                if target is not None and target != name and _is_public_function(
                    value, modules[target]
                ):
                    namespace[attr] = log.wrap(target, value)
    return proxies
