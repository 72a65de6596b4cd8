"""Outside-in layer tracer: spans around the calls into each layer.

The simulator has no tracing of its own, so the benchmark wraps each
layer's entry points from the outside -- its public methods and the
handlers the engine dispatches to it -- with reversible class-method
patches (:class:`repro.sanitize.base.MethodPatch`).  Patches must be
installed *before* the simulation is built: components capture some
bound methods at construction (delivery listeners, the workload's init
event).

A span's self time is its duration minus the time of the spans it
encloses.  A call into the layer that is already on top of the span
stack (a ``super()`` chain, or a layer calling its own public method)
is counted but opens no new span, so its time stays with the caller.
Run time that no span covers is the engine's own: heap operations and
dispatch (``core.self_s``).  Spans stay in memory as per-method totals
and are reported once, at the end.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.sanitize.base import MethodPatch

#: (module, class, methods, layer, census kind of the handlers or None).
#: Every class in the named class's subtree that defines one of the
#: methods gets its own patch.
SPANS: Tuple[Tuple[str, str, Tuple[str, ...], str, Optional[str]], ...] = (
    ("repro.net.channel", "Channel", ("_deliver_batch", "_deliver"),
     "net.channel", "flit_delivery"),
    ("repro.net.channel", "Channel", ("send_flit", "_deliver_item"),
     "net.channel", None),
    ("repro.net.channel", "CreditChannel", ("_deliver_batch", "_deliver"),
     "net.credit", "credit_delivery"),
    ("repro.net.channel", "CreditChannel", ("send_credit", "_deliver_item"),
     "net.credit", None),
    ("repro.net.interface", "Interface", ("_inject_step",),
     "net.interface", "inject_step"),
    ("repro.net.interface", "Interface",
     ("send_message", "receive_flit", "receive_credit"),
     "net.interface", None),
    ("repro.router.base", "Router", ("_step",), "router.step", "router_step"),
    ("repro.router.base", "Router", ("_core_arrival",),
     "router.core_arrival", "core_arrival"),
    ("repro.router.base", "Router", ("receive_flit", "receive_credit"),
     "router.receive", None),
    ("repro.router.congestion", "CongestionSensor", ("record", "status"),
     "router.congestion", None),
    ("repro.routing.base", "RoutingAlgorithm", ("respond",), "routing", None),
    ("repro.workload.application", "Terminal", ("_generate",),
     "workload", "application"),
    ("repro.workload.workload", "Workload", ("_init_event",),
     "workload", "application"),
    ("repro.workload.application", "Application",
     ("message_generated", "_message_delivered"), "workload", None),
    ("repro.stats.records", "MessageLog", ("_on_delivery",), "stats", None),
    # Set-up layers: spans taken while the simulation is built.
    ("repro.net.network", "Network", ("__init__",), "topology.build", None),
    ("repro.workload.workload", "Workload", ("__init__",),
     "workload.build", None),
)

#: layers whose spans run before the first event, outside simulate time.
SETUP_LAYERS = ("topology.build", "workload.build")

#: census kind of handlers scheduled through ``Component.schedule``,
#: by the top-level package of the component that owns them.
GENERIC_KINDS = {"repro.workload": ("workload", "application"),
                 "repro.stats": ("stats", "monitor")}

_MARK = "_perfbench_span"


def _subtree(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Collects per-layer call counts and self times for one process."""

    def __init__(self) -> None:
        self._stack: List[float] = [0.0]  # child time of each open span
        self._layers: List[Optional[str]] = [None]
        #: (layer, method) -> [calls, self seconds, tally]
        self.stats: Dict[Tuple[str, str], list] = {}
        #: handler kind -> (layer, method) keys counted in the census
        self.kinds: Dict[Tuple[str, str], str] = {}
        self._queue: list = [[]]
        self._heap_peak = [0]
        self._allocs = [0, False]  # Event allocations, counting enabled
        self._patches: List[MethodPatch] = []
        self.simulate_s = 0.0
        self.covered_s = 0.0
        self._t_begin = 0.0
        self._covered_begin = 0.0

    # -- span wrappers ---------------------------------------------------------

    def _span(self, layer: str, method: str, fn: Callable,
              kind: Optional[str] = None, tally: bool = False) -> Callable:
        stat = self.stats.setdefault((layer, method), [0, 0.0, 0])
        if kind is not None:
            self.kinds[(layer, method)] = kind
        stack, layers = self._stack, self._layers
        clock = time.perf_counter
        queue, peak = self._queue, self._heap_peak

        # Three variants rather than one with flags: every traced call
        # pays for each test in its wrapper, and the overhead is measured.
        if kind is not None:
            # An engine-dispatched handler: never nested, samples the heap.
            def wrapper(*args, **kwargs):
                layers.append(layer)
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    layers.pop()
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    stack[-1] += elapsed
                    size = len(queue[0])
                    if size > peak[0]:
                        peak[0] = size
        elif tally:
            def wrapper(*args, **kwargs):
                if layers[-1] is layer:
                    stat[0] += 1
                    result = fn(*args, **kwargs)
                    stat[2] += len(result)
                    return result
                layers.append(layer)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    stat[2] += len(result)
                    return result
                finally:
                    elapsed = clock() - start
                    layers.pop()
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    stack[-1] += elapsed
        else:
            def wrapper(*args, **kwargs):
                if layers[-1] is layer:
                    stat[0] += 1
                    return fn(*args, **kwargs)
                layers.append(layer)
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    layers.pop()
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    stack[-1] += elapsed
        setattr(wrapper, _MARK, True)
        return wrapper

    def _maker(self, layer: str, method: str,
               kind: Optional[str]) -> Callable[[Callable], Callable]:
        tally = layer == "routing"  # candidates returned per call
        return lambda fn: self._span(layer, method, fn, kind, tally)

    def _generic_handler(self, handler: Callable) -> Callable:
        owner = getattr(handler, "__self__", None)
        module = type(owner).__module__ if owner is not None \
            else getattr(handler, "__module__", "")
        layer, kind = next(
            (value for prefix, value in GENERIC_KINDS.items()
             if module.startswith(prefix)),
            ("other", "other"),
        )
        return self._span(layer, getattr(handler, "__name__", "handler"),
                          handler, kind)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced entry point; call before building a run."""
        import importlib

        from repro.core.component import Component
        from repro.core.event import Event
        from repro.models import load_all

        load_all()
        for module, name, methods, layer, kind in SPANS:
            base = getattr(importlib.import_module(module), name)
            for cls in _subtree(base):
                for method in methods:
                    if method in cls.__dict__:
                        self._patch(cls, method, self._maker(layer, method,
                                                             kind))

        tracer = self

        def schedule_wrapper(fn):
            def wrapper(component, handler, *args, **kwargs):
                if not getattr(handler, _MARK, False):
                    handler = tracer._generic_handler(handler)
                return fn(component, handler, *args, **kwargs)
            return wrapper

        self._patch(Component, "schedule", schedule_wrapper)
        self._patch(Component, "schedule_at", schedule_wrapper)

        allocs = self._allocs

        def init_wrapper(fn):
            def wrapper(*args, **kwargs):
                if allocs[1]:
                    allocs[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._patch(Event, "__init__", init_wrapper)

    def _patch(self, cls: type, method: str, make: Callable) -> None:
        patch = MethodPatch(cls, method, make)
        patch.install()
        self._patches.append(patch)

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            patch.remove()
        self._patches = []

    # -- simulate window -----------------------------------------------------------

    def bind(self, simulator) -> None:
        """Sample the heap of ``simulator`` from now on."""
        self._queue[0] = simulator._queue

    def begin(self) -> None:
        self._allocs[1] = True
        self._covered_begin = self._stack[0]
        self._t_begin = time.perf_counter()

    def end(self) -> None:
        self.simulate_s += time.perf_counter() - self._t_begin
        self.covered_s += self._stack[0] - self._covered_begin
        self._allocs[1] = False

    # -- report ----------------------------------------------------------------------

    def report(self) -> dict:
        layers: Dict[str, Dict[str, float]] = {}
        census: Dict[str, int] = {}
        for (layer, method), (calls, self_s, _tally) in self.stats.items():
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            kind = self.kinds.get((layer, method))
            if kind is not None:
                census[kind] = census.get(kind, 0) + calls
        run_self_s = sum(entry["self_s"] for layer, entry in layers.items()
                         if layer not in SETUP_LAYERS)
        core_self_s = self.simulate_s - self.covered_s
        return {
            "layers": layers,
            "methods": {f"{layer}:{method}": stat
                        for (layer, method), stat in self.stats.items()},
            "census": census,
            "heap_peak": self._heap_peak[0],
            "event_allocations": self._allocs[0],
            "simulate_s": self.simulate_s,
            "covered_s": self.covered_s,
            # Layer self times plus the engine's own time, as a share of
            # simulate time: 1 unless spans were lost or double-counted.
            "coverage": (run_self_s + core_self_s) / self.simulate_s
            if self.simulate_s else 0.0,
        }
