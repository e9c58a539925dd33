"""Outside-in per-layer tracing for the end-to-end benchmark.

A *layer* is one ``repro`` package on the benchmark's workload paths
(:data:`LAYERS`).  :class:`LayerTracer` wraps every public function and
method those packages define -- plus ``__init__``/``__call__`` of their
public classes and the getters of their public properties -- and
rebinds module-global aliases of the wrapped functions (such as
``from repro.isa.workload import uniform_loop``), so a call reaches the
wrapper whichever name it goes through.  No file under ``src/`` changes.

A wrapper opens a span only when a call crosses into a different layer
than the one currently running; calls inside a layer cost one stack
peek.  A layer's self time is the duration of its spans minus the part
covered by their child spans, so the self times of all layers add up
to the traced time spent inside any layer.

Two rules keep tracing from changing what it measures:

* wrappers keep ``__module__``/``__qualname__`` (``functools.wraps``),
  so :class:`repro.runner.ResultCache` keys -- which hash a task
  function's module and qualified name -- do not change under tracing;
* private methods stay unwrapped, so the batch kernel's
  mechanical-callback set (bound private methods compared by identity)
  is untouched.  The one private hook, ``Engine._dispatch``, is wrapped
  without touching the callback it receives: it charges each engine
  event's callback to the layer that defines it, which would otherwise
  be charged to ``soc`` because callbacks are private methods.

Besides spans, a handful of wrappers count model work (:data:`COUNTERS`)
at the layer boundary where it happens: engine events and schedules,
``StepTrace.record`` calls and the appends they make, thermal advances,
PMU requests and throttle queries, VR commands and DAQ samples.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The traced layers: ``repro`` packages the workloads run through.
LAYERS: Tuple[str, ...] = (
    "soc", "pmu", "pdn", "measure", "microarch", "isa", "core", "faults",
    "runner", "scenarios", "mitigations", "analysis",
)

#: (module, qualified name) -> the work counter each call increments.
COUNTERS: Dict[Tuple[str, str], str] = {
    ("repro.soc.engine", "Engine.schedule_at"): "engine.scheduled",
    ("repro.measure.trace", "StepTrace.record"): "trace.records",
    ("repro.pmu.thermal", "ThermalModel.advance"): "thermal.advances",
    ("repro.pmu.central", "CentralPMU.request_up"): "pmu.up_requests",
    ("repro.pmu.central", "CentralPMU.is_core_throttled"):
        "pmu.throttle_queries",
    ("repro.pdn.regulator", "VoltageRegulator.command"): "vr.commands",
}

#: The one private hook the tracer wraps (see the module docstring).
DISPATCH = ("repro.soc.engine", "Engine._dispatch")

_HERE = Path(__file__).resolve().parent


def layer_of(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None if untraced."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def layer_modules() -> List[Any]:
    """Import and return every module of every traced layer."""
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix=f"repro.{layer}."):
            if info.name.rsplit(".", 1)[-1] == "__main__":
                continue
            modules.append(importlib.import_module(info.name))
    return modules


class LayerTracer:
    """Per-layer self time and call counts, recorded from outside.

    Use as a context manager (or call :meth:`install` and
    :meth:`uninstall`); :meth:`snapshot` reads the totals.  Only one
    tracer may be installed at a time, and spans assume one thread.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        #: Open spans: [layer, start, time covered by child spans].
        #: The root frame stands for the benchmark's own code.
        self._stack: List[list] = [[None, 0.0, 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callback_layer: Dict[Any, Optional[str]] = {}

    # -- measurement window ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Totals so far (plain JSON types); diff two to measure a window."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer: str, fn: Callable[..., Any],
              args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        self.calls[layer] += 1
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame[1]
            stack.pop()
            self.self_s[layer] += elapsed - frame[2]
            stack[-1][2] += elapsed

    def _wrap(self, fn: Callable[..., Any], layer: str,
              counter: Optional[str] = None) -> Callable[..., Any]:
        stack = self._stack
        span = self._span
        counts = self.counts

        if counter is None:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return span(layer, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                counts[counter] += 1
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return span(layer, fn, args, kwargs)
        return traced

    def _wrap_record(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``StepTrace.record``: count calls and the appends they make."""
        inner = self._wrap(fn, "measure", "trace.records")
        counts = self.counts

        @functools.wraps(fn)
        def record(trace: Any, *args: Any, **kwargs: Any) -> Any:
            before = len(trace._times)
            try:
                return inner(trace, *args, **kwargs)
            finally:
                counts["trace.appends"] += len(trace._times) - before
        return record

    def _wrap_daq_sample(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``DAQCard.sample``: count the samples each call returns."""
        inner = self._wrap(fn, "measure")
        counts = self.counts

        @functools.wraps(fn)
        def sample(*args: Any, **kwargs: Any) -> Any:
            series = inner(*args, **kwargs)
            counts["daq.samples"] += len(series.times_ns)
            return series
        return sample

    def _wrap_dispatch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``Engine._dispatch``: charge each event to its callback's layer."""
        stack = self._stack
        span = self._span
        counts = self.counts
        layers = self._callback_layer

        @functools.wraps(fn)
        def dispatch(engine: Any, time_ns: float, handle: Any) -> Any:
            counts["engine.events"] += 1
            callback = handle.callback
            key = getattr(callback, "__func__", callback)
            try:
                layer = layers[key]
            except KeyError:
                layer = layers[key] = layer_of(
                    getattr(key, "__module__", None) or "")
            if layer is None or stack[-1][0] == layer:
                return fn(engine, time_ns, handle)
            return span(layer, fn, (engine, time_ns, handle), {})
        return dispatch

    def _wrapper_for(self, fn: Callable[..., Any], layer: str,
                     module: str, qualname: str) -> Callable[..., Any]:
        if (module, qualname) == ("repro.measure.trace", "StepTrace.record"):
            return self._wrap_record(fn)
        if (module, qualname) == ("repro.measure.daq", "DAQCard.sample"):
            return self._wrap_daq_sample(fn)
        if (module, qualname) == DISPATCH:
            return self._wrap_dispatch(fn)
        return self._wrap(fn, layer, COUNTERS.get((module, qualname)))

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(cls.__dict__.items()):
            where = (cls.__module__, f"{cls.__qualname__}.{name}")
            if (name.startswith("_") and name not in ("__init__", "__call__")
                    and where != DISPATCH):
                continue
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(
                    self._wrapper_for(attr.__func__, layer, *where)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(
                    self._wrapper_for(attr.__func__, layer, *where)))
            elif isinstance(attr, property) and attr.fget is not None:
                self._patch(cls, name, property(
                    self._wrapper_for(attr.fget, layer, *where),
                    attr.fset, attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr):
                self._patch(cls, name,
                            self._wrapper_for(attr, layer, *where))

    def install(self) -> "LayerTracer":
        """Wrap every layer's public surface and rebind aliases to it.

        Aliases are rebound in every ``repro`` module and in the modules
        of this benchmark's directory.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        #: id(original function) -> (original, wrapper)
        functions: Dict[int, Tuple[Any, Callable[..., Any]]] = {}
        for module in layer_modules():
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if (name.startswith("_")
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj):
                    functions[id(obj)] = (obj, self._wrapper_for(
                        obj, layer, module.__name__, obj.__qualname__))
        # Rebind every global naming a wrapped function -- the defining
        # module's own name for it as well as every imported alias.
        rebind = [m for m in list(sys.modules.values())
                  if getattr(m, "__name__", "").startswith("repro")
                  or str(getattr(m, "__file__", None) or "").startswith(
                      str(_HERE))]
        for module in rebind:
            for name, obj in list(vars(module).items()):
                entry = functions.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

