"""Outside-in span tracer: time calls into ``repro``'s public functions
from the benchmark's own code, without changing anything under ``src/``.

A :class:`Tracer` wraps each named function or method in a thin timing
shim and records one span per call: name, start, end, the span that was
open when it began (its parent) and the benchmark phase.  Spans stay in
memory; :meth:`Tracer.aggregate` turns them into per-name call counts,
busy time and self time, and :meth:`Tracer.dump` writes them out when
the benchmark ends.

Two pitfalls shape :meth:`Tracer.install`:

* Modules import functions by name (``from repro.nn.im2col import
  col2im_patches``), so wrapping the defining module's attribute alone
  misses every call made through the importer's own binding.  Install
  rebinds *every* ``repro.*`` module attribute bound to the original,
  and :meth:`Tracer.uninstall` restores all of them — including
  bindings made by modules imported while the tracer was installed — so
  an untraced run in the same process is clean.
* Forked workers inherit the wrappers but keep their spans: the parent
  never sees them.  Callers take pool-level numbers from the parent and
  cell-level numbers from a serial run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span record fields, in order.
NAME, START, END, PARENT, PHASE = range(5)


def covered_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def span_self_times(spans) -> "list[float]":
    """Self time of every span: its duration minus what its children cover.

    Spans that never closed (``end is None``) get self time 0 and are
    ignored as children.
    """
    children = defaultdict(list)
    for span in spans:
        if span[END] is not None and span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        if span[END] is None:
            result.append(0.0)
            continue
        duration = span[END] - span[START]
        inner = covered_length(children.get(index, ()), span[START], span[END])
        result.append(duration - inner)
    return result


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: "list[list]" = []
        #: phase -> counter name -> total.
        self.counters = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: "list[int]" = []
        self._open = defaultdict(int)
        self._patches: "list[tuple]" = []
        self._wrappers: "dict[int, tuple]" = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span named ``name`` under the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.phase])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned (must be the innermost)."""
        span = self.spans[index]
        span[END] = self.clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")
        self._stack.pop()
        self._open[span[NAME]] -= 1

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` of the current phase."""
        self.counters[self.phase][name] += amount

    def wrap(self, name: str, function, observe=None):
        """A traced stand-in for ``function`` recording spans named ``name``.

        A call made while a span of the same name is already open (a
        subclass method delegating to its base, a block nesting another
        block) runs untraced, so busy time never counts one interval
        twice.  ``observe(tracer, args, kwargs, result)`` runs after a
        successful outermost call, to record work counts.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer._open[name]:
                return function(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        self._wrappers[id(traced)] = (traced, function)
        return traced

    # ------------------------------------------------------------------
    # Installing wrappers.
    # ------------------------------------------------------------------
    def install(self, layers) -> "list[str]":
        """Wrap every layer's targets; returns the names that resolved none.

        ``layers`` are :class:`perfbench.layers.Layer` specs.  A module
        function is rebound in every loaded ``repro.*`` module that holds
        it; a method is replaced on each class of the layer's module
        that defines it.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        missing = []
        for layer in layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                missing.append(layer.name)
                continue
            found = False
            for attr in layer.attrs:
                function = vars(module).get(attr)
                if callable(function) and getattr(
                    function, "__module__", None
                ) == module.__name__:
                    self._rebind_function(
                        function, self.wrap(layer.name, function, layer.observe)
                    )
                    found = True
                    continue
                for owner in vars(module).values():
                    if (
                        isinstance(owner, type)
                        and owner.__module__ == module.__name__
                        and callable(vars(owner).get(attr))
                        and not isinstance(
                            vars(owner)[attr], (staticmethod, classmethod)
                        )
                    ):
                        method = vars(owner)[attr]
                        wrapper = self.wrap(layer.name, method, layer.observe)
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, method))
                        found = True
            if not found:
                missing.append(layer.name)
        return missing

    def _rebind_function(self, original, wrapper) -> None:
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # Modules imported while installed copied wrappers by name.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._wrappers.clear()

    @contextmanager
    def installed_for(self, layers):
        self.install(layers)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Analysis and output.
    # ------------------------------------------------------------------
    def aggregate(self, phase=None) -> "dict[str, dict]":
        """Per-name ``calls``, ``busy_s`` and ``self_s`` over closed spans.

        ``phase`` limits the result to spans begun in that phase (a
        string or a collection of strings).  Busy time is the sum of the
        spans' durations: same-name spans never nest (see :meth:`wrap`),
        so it equals the union of their intervals.
        """
        if isinstance(phase, str):
            phase = (phase,)
        self_times = span_self_times(self.spans)
        totals: "dict[str, dict]" = {}
        for span, self_time in zip(self.spans, self_times):
            if span[END] is None or (phase is not None and span[PHASE] not in phase):
                continue
            entry = totals.setdefault(
                span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["busy_s"] += span[END] - span[START]
            entry["self_s"] += self_time
        return totals

    def dump(self, path: str, **extra) -> None:
        """Write every span, counter and ``extra`` field as JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "phase"],
            "spans": self.spans,
            "counters": {
                phase: dict(values) for phase, values in self.counters.items()
            },
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
