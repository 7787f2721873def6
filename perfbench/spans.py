"""Timers around calls into maskforge's public functions, for the traced run.

`Tracer.install` replaces each target function, in every loaded `maskforge`
module that holds it, with a wrapper that records one span per call: the
target's name, the calling thread, wall start and end, process CPU time used,
and a few counts taken from the call's arguments and result. `restore` puts
the original functions back. Nothing inside the package is edited, so the
untraced runs execute exactly the code a user gets.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# counter(bound_arguments, result) -> {count name: increment}; a name that
# starts with "max:" keeps the largest value seen instead of the sum.
Counter = Callable[[dict, object], dict]


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    cpu: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets: dict[str, tuple[Callable, Counter | None]],
                callers: tuple = ()) -> None:
        """Wrap each `name: (function, counter)` wherever maskforge or one of
        the `callers` modules holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "maskforge" or n.startswith("maskforge."))]
        modules += list(callers)
        for name, (fn, counter) in targets.items():
            wrapper = self._wrap(name, fn, counter)
            found = False
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
                        found = True
            if not found:
                self.restore()
                raise RuntimeError(f"{name}: not found in any maskforge module")

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            c1 = time.process_time()
            increments = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                increments = counter(bound.arguments, result)
            with self._lock:
                self.spans.append(Span(name, threading.get_ident(), t0, t1, c1 - c0))
                for key, value in increments.items():
                    if key.startswith("max:"):
                        self.maxima[key[4:]] = max(self.maxima[key[4:]], value)
                    else:
                        self.counts[key] += value
            return result

        return wrapper

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def state(self) -> tuple[list[Span], dict[str, float], dict[str, float]]:
        return self.spans, dict(self.counts), dict(self.maxima)

    def merge(self, state: tuple[list[Span], dict[str, float], dict[str, float]]) -> None:
        """Add what a tracer in a forked process recorded. Its spans share this
        process's clock: `time.perf_counter` is the system's monotonic clock."""
        spans, counts, maxima = state
        self.spans.extend(spans)
        for key, value in counts.items():
            self.counts[key] += value
        for key, value in maxima.items():
            self.maxima[key] = max(self.maxima[key], value)

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.of(name))

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def covered(self, start: float, end: float) -> float:
        """Wall time in [start, end] that at least one span covers."""
        total = 0.0
        cursor = start
        for s in sorted(self.spans, key=lambda s: s.start):
            lo, hi = max(s.start, cursor), min(s.end, end)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total
