"""In-memory span recorder with wall, CPU and self-time accounting.

A span covers one call into a layer.  Spans nest on a stack; when a span
ends, its wall and CPU durations are added to its parent's child totals,
so a span's self time is its duration minus the time its child spans
cover.  The self times of all spans under a root therefore partition the
root's interval.  A function that re-enters itself adds its inclusive time
once, at the outermost call, so recursion is not double counted.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0           # inclusive wall time, outermost calls only
    cpu_s: float = 0.0       # inclusive process CPU time, outermost calls only
    self_s: float = 0.0      # wall time minus child spans
    self_cpu_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def count(self, key: str, value: float, how: str = "sum"):
        old = self.counters.get(key)
        if old is None:
            self.counters[key] = value
        elif how == "max":
            self.counters[key] = max(old, value)
        else:
            self.counters[key] = old + value


class _Frame:
    __slots__ = ("name", "wall0", "cpu0", "child_wall", "child_cpu")

    def __init__(self, name, wall0, cpu0):
        self.name = name
        self.wall0 = wall0
        self.cpu0 = cpu0
        self.child_wall = 0.0
        self.child_cpu = 0.0


class Recorder:
    """Collects per-name span statistics.  Clocks are injectable for tests."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def enter(self, name: str):
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append(_Frame(name, self.clock(), self.cpu_clock()))

    def exit(self) -> Stat:
        wall1, cpu1 = self.clock(), self.cpu_clock()
        fr = self._stack.pop()
        wall, cpu = wall1 - fr.wall0, cpu1 - fr.cpu0
        st = self.stat(fr.name)
        st.calls += 1
        st.self_s += wall - fr.child_wall
        st.self_cpu_s += cpu - fr.child_cpu
        self._depth[fr.name] -= 1
        if self._depth[fr.name] == 0:
            st.s += wall
            st.cpu_s += cpu
        if self._stack:
            parent = self._stack[-1]
            parent.child_wall += wall
            parent.child_cpu += cpu
        return st

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` wrapped in a span; `observe(stat, args, result)` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = self.exit()
            if observe is not None:
                observe(st, args, result)
            return result

        return traced
