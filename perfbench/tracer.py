"""Timing wrappers installed around vbscd's public calls from outside the package.

A :class:`Tracer` keeps, in memory,

* a span (name, start, end, parent span) for every call of a *stage*
  function: flows, instance build, reference, replications, audit, probes;
* an aggregate for every *leaf* name: call count, busy time (outermost calls
  only, so recursion is not counted twice), self time (busy time minus the
  time of wrapped calls made inside it) and a bounded reservoir of call
  durations for percentiles;
* call counts keyed by (name, name of the calling wrapped frame);
* plain counters.

Nothing is written until :meth:`Tracer.dump`.  Clock: ``time.monotonic``
(CLOCK_MONOTONIC on Linux), so stamps compare across processes.

vbscd modules bind functions by name (``from .prox import full_prox``) and
the harness keeps its flows in a module-level dict, so :meth:`Tracer.rebind`
replaces every binding of the original function object in every loaded
``vbscd`` module namespace and in the module-level dicts, not only the
attribute of the defining module.  Methods are patched on their class.
Installation is meant for a dedicated process; nothing is uninstalled.
"""
from __future__ import annotations

import functools
import json
import random
import sys
import time

_clock = time.monotonic
SAMPLE_CAP = 2048  # call durations kept per name, for percentiles


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "samples")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.samples: list[float] = []


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.stats: dict[str, _Stat] = {}
        self.by_parent: dict[tuple, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child time]
        self._active: dict[str, int] = {}
        self._span = -1
        self._rng = random.Random(0)  # reservoir choices repeat run to run

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, stage: bool = False, on_return=None):
        """Wrapper that records one call of ``fn`` under ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after the timed
        region, for counters read off a call's result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer._call(fn, name, stage, args, kwargs)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        wrapper.__traced_original__ = fn
        return wrapper

    def counting(self, fn, name: str):
        """Count-only wrapper for calls too cheap and frequent to time."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__traced_original__ = fn
        return wrapper

    def _call(self, fn, name, stage, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        outer = self._active.get(name, 0)
        self._active[name] = outer + 1
        span = parent_span = self._span
        if stage:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent_span])
            self._span = span
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            self._active[name] = outer
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            if stage:
                self.spans[span][1:3] = [t0, t1]
                self._span = parent_span
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = _Stat()
            st.calls += 1
            st.self_time += dur - frame[1]
            if outer == 0:
                st.busy += dur
            if len(st.samples) < SAMPLE_CAP:
                st.samples.append(dur)
            else:
                j = self._rng.randrange(st.calls)
                if j < SAMPLE_CAP:
                    st.samples[j] = dur
            key = (name, parent)
            self.by_parent[key] = self.by_parent.get(key, 0) + 1

    # -- installation ----------------------------------------------------

    @staticmethod
    def _namespaces():
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "vbscd" or n.startswith("vbscd."))
        ]

    def rebind(self, module: str, attr: str, make, only_in=None) -> int:
        """Replace every binding of ``module.attr`` in vbscd namespaces.

        ``make(original)`` returns the replacement.  ``only_in`` restricts
        the namespaces touched by name.  Returns the number of bindings
        replaced: 0 when the function no longer exists.
        """
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            return 0
        new = make(orig)
        replaced = 0
        for ns in self._namespaces():
            if only_in is not None and ns.__name__ not in only_in:
                continue
            space = vars(ns)
            for key, value in list(space.items()):
                if value is orig:
                    space[key] = new
                    replaced += 1
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if v2 is orig:
                            value[k2] = new
                            replaced += 1
        return replaced

    def patch_method(self, cls, attr: str, make) -> bool:
        """Patch ``attr`` where ``cls`` itself defines it."""
        if attr not in vars(cls):
            return False
        setattr(cls, attr, make(vars(cls)[attr]))
        return True

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        stats = {}
        for name, st in sorted(self.stats.items()):
            us = sorted(1e6 * d for d in st.samples)
            stats[name] = {
                "calls": st.calls,
                "busy_s": st.busy,
                "self_s": st.self_time,
                "samples_us": us,
            }
        return {
            "spans": self.spans,
            "stats": stats,
            "by_parent": [[n, p, c] for (n, p), c in sorted(self.by_parent.items(), key=str)],
            "counters": dict(sorted(self.counters.items())),
        }

    def dump(self, path, **extra) -> None:
        data = self.summary()
        data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
