"""Layer tracing from outside the program.

The tracer wraps the functions that each layer's modules define -- public
methods, the private callbacks the event loop dispatches, and
module-level functions -- and keeps, per function, the number of calls,
the inclusive time and the self time (inclusive time minus the time of
wrapped callees). A layer's self time is the sum over its functions.

Modules that are not listed in :data:`LAYERS` are left unwrapped, so
their time lands in the self time of whichever layer called them: the
metrics registry counts as ``obs`` under the engine instrumentation and
as ``fleet`` under a fleet device summary.

Wrappers replace class attributes and module globals, so they must be
installed before the workload is built: the engine and the event loop
capture bound methods when they are wired up.

:func:`inject_delay` adds a fixed busy-wait to one function. It is the
mechanism of the sensitivity self-check (``selfcheck.py``).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List, Tuple

#: Module prefix -> layer. The first matching prefix wins.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.simulator", "sim"),
    ("repro.sim.events", "sim"),
    ("repro.sim.process", "sim"),
    ("repro.net.flow", "net.flow"),
    ("repro.net.queueing", "net.flow"),
    ("repro.net.sources", "net.sources"),
    ("repro.net.interface", "net.interface"),
    ("repro.net.sink", "net.sink"),
    ("repro.schedulers", "schedulers"),
    ("repro.core.engine", "core.engine"),
    ("repro.core.runner", "setup"),
    ("repro.health", "health"),
    ("repro.fairness", "fairness"),
    ("repro.obs.instrument", "obs"),
    ("repro.obs.snapshot", "obs"),
    ("repro.faults", "faults"),
    ("repro.fleet", "fleet"),
    ("repro.trace", "trace"),
)

#: Properties whose reads are counted (not timed): (module, class, name).
COUNTED_PROPERTIES = (("repro.net.flow", "Flow", "backlogged"),)

clock = time.perf_counter


def layer_of(module_name: str):
    for prefix, layer in LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _program_globals() -> Dict[int, List[Tuple[dict, str]]]:
    """id(value) -> every (namespace, name) of a ``repro`` module bound to it."""
    index: Dict[int, List[Tuple[dict, str]]] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in namespace.items():
            index.setdefault(id(value), []).append((namespace, key))
    return index


def replace_globals(original, replacement, index=None) -> None:
    """Point every ``repro`` module global bound to *original* at *replacement*."""
    if index is None:
        index = _program_globals()
    for namespace, key in index.get(id(original), ()):
        if namespace[key] is original:
            namespace[key] = replacement


def _resolve(spec: str):
    """``"module:Qual.name"`` -> (owner, attribute name, function)."""
    module_name, _, qualname = spec.partition(":")
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = vars(owner)[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
    return owner, parts[-1], raw


def inject_delay(spec: str, delay_s: float) -> None:
    """Busy-wait *delay_s* seconds on every call of the function *spec*.

    The wait burns CPU, so CPU-time metrics see it exactly as they would
    see a slower implementation of that function.
    """
    owner, name, raw = _resolve(spec)
    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw

    @functools.wraps(fn)
    def delayed(*args, **kwargs):
        end = clock() + delay_s
        while clock() < end:
            pass
        return fn(*args, **kwargs)

    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(delayed))
    elif isinstance(raw, classmethod):
        setattr(owner, name, classmethod(delayed))
    elif isinstance(owner, type):
        setattr(owner, name, delayed)
    else:
        replace_globals(fn, delayed)


class Tracer:
    """Per-function call counts, inclusive and self time, grouped by layer."""

    def __init__(self) -> None:
        # One entry per open span: [start, time covered by wrapped callees].
        self._stack: List[List[float]] = []
        self._on = [False]
        self._paused_at = 0.0
        #: ``module:qualname`` -> (layer, [calls, inclusive s, self s]).
        self.functions: Dict[str, Tuple[str, List[float]]] = {}
        #: ``module:Class.property`` -> [reads].
        self.counted: Dict[str, List[int]] = {}
        self.root_seconds = 0.0
        self.root_self_seconds = 0.0

    # -- installation ---------------------------------------------------
    def _wrap(self, fn, key: str, layer: str):
        slot = [0, 0.0, 0.0]
        self.functions[key] = (layer, slot)
        stack = self._stack
        on = self._on

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every function of every loaded module that maps to a layer."""
        done: Dict[int, object] = {}
        index = _program_globals()
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of(module_name) if module is not None else None
            if layer is None:
                continue
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if isinstance(value, type):
                    self._install_class(value, module_name, layer, done)
                elif callable(value) and hasattr(value, "__code__") and not _is_dunder(name):
                    if id(value) not in done:
                        done[id(value)] = self._wrap(
                            value, f"{module_name}:{value.__qualname__}", layer
                        )
                        replace_globals(value, done[id(value)], index)
        for module_name, class_name, name in COUNTED_PROPERTIES:
            cls = getattr(sys.modules[module_name], class_name)
            prop = vars(cls)[name]
            reads = [0]
            self.counted[f"{module_name}:{class_name}.{name}"] = reads
            fget = prop.fget

            def counting(obj, _fget=fget, _reads=reads, _on=self._on):
                if _on[0]:
                    _reads[0] += 1
                return _fget(obj)

            setattr(cls, name, property(counting, prop.fset, prop.fdel, prop.__doc__))

    def _install_class(self, cls, module_name: str, layer: str, done) -> None:
        for name, raw in list(vars(cls).items()):
            if _is_dunder(name):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
            elif callable(raw) and hasattr(raw, "__code__"):
                fn = raw
            else:
                continue
            key = f"{module_name}:{fn.__qualname__}"
            wrapped = done.get(id(fn))
            if wrapped is None:
                wrapped = done[id(fn)] = self._wrap(fn, key, layer)
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(wrapped))
            elif isinstance(raw, classmethod):
                setattr(cls, name, classmethod(wrapped))
            else:
                setattr(cls, name, wrapped)

    # -- measurement ----------------------------------------------------
    def begin(self) -> None:
        """Open the root span: everything until :meth:`end` is attributed."""
        self._stack.append([clock(), 0.0])
        self._on[0] = True

    def end(self) -> None:
        self._on[0] = False
        frame = self._stack.pop()
        elapsed = clock() - frame[0]
        self.root_seconds += elapsed
        self.root_self_seconds += elapsed - frame[1]

    def pause(self) -> None:
        """Stop attributing time (benchmark bookkeeping inside a span)."""
        self._on[0] = False
        self._paused_at = clock()

    def resume(self) -> None:
        gap = clock() - self._paused_at
        for frame in self._stack:
            frame[0] += gap
        self._on[0] = True

    # -- results --------------------------------------------------------
    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {layer: 0.0 for _, layer in LAYERS}
        for layer, slot in self.functions.values():
            totals[layer] += slot[2]
        return totals

    def calls(self, key: str) -> int:
        entry = self.functions.get(key)
        return int(entry[1][0]) if entry else 0

    def reads(self, key: str) -> int:
        entry = self.counted.get(key)
        return entry[0] if entry else 0

    def table(self) -> List[Dict[str, object]]:
        """Every function that was called, busiest first."""
        rows = [
            {"function": key, "layer": layer, "calls": int(slot[0]),
             "inclusive_s": slot[1], "self_s": slot[2]}
            for key, (layer, slot) in self.functions.items()
            if slot[0]
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
