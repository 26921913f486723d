"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces every public function of the layer modules
(lattice, cones, polynomials, determinantal, spaces, rendering, cli) with a
wrapper, in every ``completeforms.*`` namespace that binds it, because
``spaces``, ``rendering`` and ``cli`` import functions by name.  Public
methods are wrapped on their classes.  A layer that the program imports
only later is wrapped when its import finishes, so installing the tracer
never imports anything of the program.  ``src/`` is never edited.

A wrapper records one span per call (id, function, start, end, parent id,
case id, raised) in memory, and keeps running sums: calls, self time (the
span minus the wrapped child spans) and exceptions, counted once at the
innermost wrapper they leave.  Work counts are read from return values.
``dump`` writes the spans out at the end.
"""

from __future__ import annotations

import functools
import importlib.abc
import inspect
import json
import sys
from enum import Enum
from time import perf_counter

PACKAGE = "completeforms"
LAYERS = ("lattice", "cones", "polynomials", "determinantal", "spaces", "rendering", "cli")


class ImportWatch(importlib.abc.MetaPathFinder):
    """Watches the first import of the modules that `watch(name)` selects.

    Put first on ``sys.meta_path``, it lets the other finders find the
    module, then times the module's own code (for a package this includes
    the submodules that code imports) into ``seconds[name]`` and calls
    ``loaded(module)`` when it has run.  A module that is never imported
    has no entry.
    """

    def __init__(self, watch, loaded=None):
        self.watch = watch
        self.loaded = loaded
        self.seconds: dict[str, float] = {}

    def install(self) -> "ImportWatch":
        sys.meta_path.insert(0, self)
        return self

    def find_spec(self, name, path=None, target=None):
        if not self.watch(name):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        run = loader.exec_module

        def exec_module(module):
            start = perf_counter()
            try:
                run(module)
            finally:
                self.seconds[name] = perf_counter() - start
            if self.loaded is not None:
                self.loaded(module)

        loader.exec_module = exec_module
        return spec


def _census_matrices(result):
    return {"matrices": sum(c for _, c in result.counts)}


def _report_counts(*keys):
    return lambda report: {k: report.counts[k] for k in keys}


def _gkz(result):
    return {"hyperplanes": len(result.hyperplane_normals), "chambers": len(result.chambers)}


# Work counts read from the return value of one call, summed per function.
OBSERVERS = {
    "cones.gkz_decomposition": _gkz,
    "determinantal.rank_census": _census_matrices,
    "determinantal.verify_rank_minor_lemma": _report_counts("matrices", "candidates"),
    "determinantal.verify_component_split": _report_counts("matrices"),
    "polynomials.minor_det": lambda poly: {"terms": len(poly.terms)},
    "polynomials.verify_tangent_cone": _report_counts("minors_checked"),
}

GKZ = "cones.gkz_decomposition"
CONE_FROM_RAYS = "cones.cone_from_rays"


class Tracer:
    def __init__(self):
        self.enabled = True
        self.case = -1
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, errors]
        self.counts: dict[str, int] = {}
        self.module_errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.gkz_inputs: set = set()
        self.top_level = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._gkz_depth = 0
        self._counted_errors: list[BaseException] = []
        self._replaced: dict = {}  # original function -> wrapper

    # ------------------------------------------------------------ install

    def install(self) -> int:
        """Wrap the layers imported so far, and every other layer when the
        program first imports it; returns the number of functions wrapped
        so far."""
        for layer in LAYERS:
            module = sys.modules.get("%s.%s" % (PACKAGE, layer))
            if module is not None:
                self._wrap_module(layer, module)
        self._rebind()
        ImportWatch(lambda name: name.startswith(PACKAGE + "."), self._loaded).install()
        return len(self._replaced)

    def _loaded(self, module) -> None:
        layer = module.__name__[len(PACKAGE) + 1:]
        if layer in LAYERS:
            self._wrap_module(layer, module)
        self._rebind()

    def _wrap_module(self, layer: str, module) -> None:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                self._replaced[value] = self._wrap("%s.%s" % (layer, attr), value)
            elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
                self._wrap_methods(layer, value)

    def _rebind(self) -> None:
        """Point every name bound to a wrapped function at its wrapper."""
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in self._replaced:
                        setattr(module, attr, self._replaced[value])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name: str, func):
        index = len(self.names)
        self.names.append(name)
        module = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)
        is_gkz = name == GKZ
        is_cone_from_rays = name == CONE_FROM_RAYS
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if is_gkz:
                # the configuration may be a one-shot iterator: read it once
                # and hand the same vectors on
                vectors = [tuple(v) for v in args[0]]
                args = (vectors,) + args[1:]
                tracer.gkz_inputs.add(tuple(vectors))
                tracer._gkz_depth += 1
            elif is_cone_from_rays and tracer._gkz_depth:
                tracer._bump("cones.cone_from_rays.calls_in_gkz", 1)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            if parent < 0:
                tracer.top_level += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            raised = False
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                raised = True
                if not any(exc is seen for seen in tracer._counted_errors):
                    tracer._counted_errors.append(exc)
                    tracer.module_errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if is_gkz:
                    tracer._gkz_depth -= 1
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                entry[2] += raised
                tracer.spans.append((span_id, index, start, end, parent, tracer.case, raised))
            if observe is not None:
                for key, value in observe(result).items():
                    tracer._bump("%s.%s" % (name, key), value)
            return result

        return wrapper

    def _bump(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------------ output

    def summary(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "self_s": s, "errors": e}
                for name, (c, s, e) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "module_errors": dict(self.module_errors),
            "gkz_inputs": len(self.gkz_inputs),
            "top_level": self.top_level,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "function", "start", "end", "parent", "case", "raised"],
                    "functions": self.names,
                    "spans": self.spans,
                },
                handle,
            )
