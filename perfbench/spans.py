"""In-memory span tracer that wraps the program's functions from outside.

The tracer never edits ``src/``: :meth:`Tracer.install` replaces selected
functions and methods of the imported ``repro`` modules with timing
wrappers, and :meth:`Tracer.uninstall` puts every original object back.

Two details make the wrapping complete:

* a function imported with ``from module import name`` is looked up in the
  importing module, so a :class:`FunctionProbe` rebinds *every* module
  global of ``repro.*`` that refers to the target object (for example
  ``repro.engine.evaluation.pack_spike_words`` as well as
  ``repro.sparse.packed.pack_spike_words``);
* a ``functools.cached_property`` only calls its function on first access,
  so a :class:`MethodProbe` builds a new descriptor around the wrapper and
  binds it with ``__set_name__`` before installing it on the class.

Each span records its layer, its duration and the part of that duration
its child spans cover; the difference is the layer's *self time*.  Spans
of one :meth:`Tracer.call` share one :class:`CallRecord`, so self times
and counts are per call, never cumulative.  The record also keeps the
thread CPU time of the whole call and of its root spans: their difference
is work done outside every span, which host preemption does not inflate.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["CallRecord", "FunctionProbe", "MethodProbe", "Tracer"]

#: ``count(counts, args, result)`` adds a probe's counters for one call.
CountHook = Callable[[dict, tuple, object], None]


@dataclass
class CallRecord:
    """Self times (seconds), span counts and counters of one traced call."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    spans: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    #: Wall-clock and thread CPU seconds of the outermost spans.
    root_s: float = 0.0
    root_cpu_s: float = 0.0
    #: Thread CPU seconds of the whole traced call.
    call_cpu_s: float = 0.0

    def total_self_s(self) -> float:
        """Sum of every layer's self time: the traced root spans' wall-clock."""
        return sum(self.self_s.values())


@dataclass(frozen=True)
class FunctionProbe:
    """A module-level function, wrapped wherever ``repro`` modules bind it."""

    module: str
    name: str
    layer: str
    count: CountHook | None = None


@dataclass(frozen=True)
class MethodProbe:
    """A method or ``cached_property`` defined in ``cls.__dict__[name]``."""

    cls: type
    name: str
    layer: str
    count: CountHook | None = None


class Tracer:
    """Installs span wrappers for ``probes`` and records them per call."""

    def __init__(self, probes):
        self.probes = tuple(probes)
        self._record: CallRecord | None = None
        self._stack: list[list[float]] = []
        #: ``(owner, attribute, original)`` for every replaced binding.
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for probe in self.probes:
                if isinstance(probe, FunctionProbe):
                    self._install_function(probe)
                else:
                    self._install_method(probe)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _install_function(self, probe: FunctionProbe) -> None:
        target = getattr(sys.modules[probe.module], probe.name)
        wrapper = self.wrap(target, probe.layer, probe.count)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is target:
                    self._saved.append((module, attribute, value))
                    setattr(module, attribute, wrapper)
                    bound += 1
        if not bound:
            raise LookupError("%s.%s is bound nowhere" % (probe.module, probe.name))

    def _install_method(self, probe: MethodProbe) -> None:
        original = probe.cls.__dict__[probe.name]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                self.wrap(original.func, probe.layer, probe.count)
            )
            replacement.__set_name__(probe.cls, probe.name)
        elif callable(original):
            replacement = self.wrap(original, probe.layer, probe.count)
        else:
            raise TypeError("%s.%s is not wrappable" % (probe.cls.__name__, probe.name))
        self._saved.append((probe.cls, probe.name, original))
        setattr(probe.cls, probe.name, replacement)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def call(self, function, *args, **kwargs):
        """Run ``function`` as one traced call: ``(result, CallRecord)``.

        Spans outside a call (none are expected) are not recorded.
        """
        if self._record is not None:
            raise RuntimeError("traced calls do not nest")
        record = self._record = CallRecord()
        start = time.thread_time()
        try:
            result = function(*args, **kwargs)
        finally:
            record.call_cpu_s = time.thread_time() - start
            self._record = None
            self._stack.clear()
        return result, record

    def wrap(self, function, layer: str, count: CountHook | None):
        stack = self._stack
        clock = time.perf_counter
        cpu_clock = time.thread_time
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = tracer._record
            if record is None:
                return function(*args, **kwargs)
            frame = [0.0]
            root = not stack
            stack.append(frame)
            cpu_start = cpu_clock() if root else 0.0
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record.self_s[layer] += elapsed - frame[0]
                record.spans[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    record.root_cpu_s += cpu_clock() - cpu_start
                    record.root_s += elapsed
            if count is not None:
                count(record.counts, args, result)
            return result

        return wrapper
