"""A host-speed yardstick that runs inside the timed simulations.

The simulator is pure Python, and on a shared host the CPU time of one
simulation moves with what the host's other tenants do and with where the
process happens to land in memory. The same input read 0.20 s in one
process and 0.34 s in another, and within one process the host's speed
drifts by up to a factor of two over a few seconds. Repeating the run
inside one process does not remove that.

:class:`Yardstick` measures the host's speed while the simulator runs.
While it is armed, a CPU-time interval timer (``ITIMER_PROF``) interrupts
the process every ``INTERVAL_S`` of CPU time, and the signal handler runs
one *slice*: a fixed amount of work on a tiny discrete-event model, written
with the interpreter operations the simulator spends its time in (a heap of
timed events, generator processes resumed with ``send``, method calls,
dict lookups on a set-associative tag store). The slices are spread
evenly over the simulator's own CPU time, so their mean cost is the speed
of the host as the simulator saw it. The benchmark removes the slices'
time from every interval it measures (:meth:`Yardstick.clock`) and
multiplies the result by :meth:`Yardstick.scale`.

The host's *speed* is ``NOMINAL_SLICE_S`` over the mean slice time. The
simulator does not slow down by the same factor as the slices: its working
set and code paths are far larger, so it loses more to the host's other
tenants. Fitted over the swings in ten-run sets, the exponent that relates
the two moved between about 1 and 2 with the kind of load on the host;
1.5 gave the lowest spread in most sets. So ``scale`` is
``speed ** SENSITIVITY``: a CPU time on the host as it was, converted to
the host at nominal speed. The factor is the same for any version of the
simulator, so the ratio between two versions measured in the same host
state is kept.

The yardstick lives in the benchmark's own files and does not import the
simulator, so no change to the simulator changes it.

All times are thread CPU seconds (``time.thread_time``). While an
``ITIMER_PROF`` is armed, Linux serves the process-wide CPU clock
(``time.process_time``) from a cache that only advances at scheduler
ticks, so it cannot time a slice. The simulator runs on one thread.
"""

from __future__ import annotations

import heapq
import signal
from time import thread_time

#: CPU seconds between two slices
INTERVAL_S = 0.01
#: events one slice processes
SLICE_EVENTS = 400
#: slices' worth of events run untimed to fill the tag store
FILL_SLICES = 40
#: CPU seconds one slice takes at nominal host speed: about what it takes
#: on a quiet 2-vCPU Intel Xeon VM under CPython 3.11. Only a scale: any
#: constant gives the same ratio between two versions of the simulator.
NOMINAL_SLICE_S = 0.00085
#: how much harder than the slices a host slowdown hits the simulator, as
#: an exponent on the speed ratio (see the module docstring)
SENSITIVITY = 1.5


class _TagStore:
    """Set-associative tag store with LRU replacement."""

    __slots__ = ("sets", "ways", "refs")

    def __init__(self, nsets: int, ways: int) -> None:
        self.sets = [dict() for _ in range(nsets)]
        self.ways = ways
        self.refs = 0

    def access(self, addr: int, now: int) -> int:
        self.refs += 1
        line = addr >> 5
        s = self.sets[line % len(self.sets)]
        if line in s:
            s[line] = now
            return 1
        if len(s) >= self.ways:
            del s[min(s, key=s.get)]
        s[line] = now
        return 20


def _proc(pid: int, tags: _TagStore):
    """A process that alternates computing and memory references."""
    x = pid * 7919 + 1
    now = yield 0
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 4) & 0xFFFF if x & 3 else pid << 12 | (x & 0x3FF)
        now = yield tags.access(addr, now) + (x & 7)


class Yardstick:
    """Runs yardstick slices on a CPU-time timer while armed (``with``)."""

    def __init__(self) -> None:
        # 64 processes over 4096 sets: a working set of about 1.5 MB. A
        # 256-set store of 8 processes tracked the simulator less well.
        self.tags = _TagStore(4096, 8)
        self.procs = [_proc(pid, self.tags) for pid in range(64)]
        self.heap = []
        for pid, p in enumerate(self.procs):
            p.send(None)
            self.heap.append((0, pid))
        self._events(FILL_SLICES * SLICE_EVENTS)
        #: CPU seconds spent in slices, and how many slices ran
        self.spent = 0.0
        self.slices = 0
        self.busy = False

    def _events(self, n: int) -> None:
        heap, procs = self.heap, self.procs
        for _ in range(n):
            now, pid = heapq.heappop(heap)
            heapq.heappush(heap, (now + procs[pid].send(now), pid))

    def _slice(self, _signum, _frame) -> None:
        # a tick that lands inside a slice (one delayed by a long C call
        # such as gc.collect) is dropped, never nested
        if self.busy:
            return
        self.busy = True
        t0 = thread_time()
        self._events(SLICE_EVENTS)
        self.spent += thread_time() - t0
        self.slices += 1
        self.busy = False

    def __enter__(self) -> "Yardstick":
        signal.signal(signal.SIGPROF, self._slice)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        # a SIGPROF still pending must not take the default action (exit)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def clock(self) -> float:
        """Thread CPU seconds, not counting the time spent in slices."""
        while True:
            spent = self.spent
            now = thread_time()
            if spent == self.spent:  # no slice ran in between
                return now - spent

    def speed(self) -> float:
        """The host's speed while armed, relative to nominal."""
        if (not self.slices
                or self.tags.refs
                != (FILL_SLICES + self.slices) * SLICE_EVENTS):
            raise RuntimeError("yardstick slices did not run as counted")
        return NOMINAL_SLICE_S * self.slices / self.spent

    def scale(self) -> float:
        """Factor that converts the simulator's CPU seconds on this host to
        CPU seconds at nominal speed."""
        return self.speed() ** SENSITIVITY
