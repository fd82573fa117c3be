"""Per-layer host-time attribution for one simulator process.

Boundaries are installed by replacing methods *on the class*, before any
engine is built, and removed again afterwards. Nothing is ever bound on an
instance: ``Engine.run`` and ``MemorySystem.access_run`` treat an instance
attribute ``access`` as a memory tap and turn speculation, vec and the
inlined fast path off, which would make the traced run a different program.

Each boundary call is a span, timed in process CPU seconds like the
benchmark's other times. Spans nest on one stack; a span's time minus the
time of the spans it encloses is its layer's *self* time, so the layer self
times add up to the traced ``Engine.run`` time exactly.
Generator frames (application code, syscall/fault/interrupt kernel code)
are wrapped in a proxy that times every resume.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import process_time

from repro.checkpoint.micro import MicroCheckpoint
from repro.core.communicator import Communicator
from repro.core.engine import Engine
from repro.core.frontend import SimProcess
from repro.core.scheduler import GlobalScheduler
from repro.devices.disk import Disk
from repro.devices.ethernet import EthernetNic
from repro.mem.coherence.base import CoherenceProtocol
from repro.mem.hierarchy import MemorySystem
from repro.mem.vec import VecState
from repro.osim.server import OSServer

#: (class, method, layer) boundaries; see README.md for what each layer
#: should move end to end
BOUNDARIES = [
    (Engine, "run", "core.engine"),
    (Communicator, "select", "core.communicator"),
    (Communicator, "batch_horizon", "core.communicator"),
    (Communicator, "lookahead_horizon", "core.communicator"),
    (Communicator, "speculation_bound", "core.communicator"),
    (GlobalScheduler, "run_task", "core.scheduler"),
    (MemorySystem, "access", "mem.hierarchy"),
    (MemorySystem, "access_run", "mem.hierarchy"),
    (MemorySystem, "_access_run_scalar", "mem.hierarchy"),
    (MemorySystem, "invisible_until", "mem.hierarchy"),
    (MemorySystem, "invisible_frontier", "mem.hierarchy"),
    (MemorySystem, "ref_invisible_latency", "mem.hierarchy"),
    (MemorySystem, "access_run_vec", "mem.vec"),
    (VecState, "run", "mem.vec"),
    (MicroCheckpoint, "__init__", "checkpoint.micro"),
    (MicroCheckpoint, "rollback", "checkpoint.micro"),
    (Disk, "submit", "devices"),
    (EthernetNic, "deliver", "devices"),
    (EthernetNic, "transmit", "devices"),
]

#: coherence entry points, wrapped on every protocol class that defines them
COHERENCE_METHODS = ("read_miss", "write_miss", "writeback")


def _protocol_classes():
    todo = [CoherenceProtocol]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        yield cls


class _TimedFrame:
    """Generator proxy: each ``send`` is one span of ``layer``.

    The engine drives frames only through ``send`` and catches the
    ``StopIteration`` that ends them, which passes through unchanged."""

    __slots__ = ("_gen", "_span", "_layer")

    def __init__(self, gen, span, layer: str) -> None:
        self._gen = gen
        self._span = span
        self._layer = layer

    def send(self, value):
        return self._span(self._layer, self._gen.send, value)


class LayerTracer:
    """Installs the boundaries, accumulates self time and call counts."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []
        self._saved = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def span(self, key: str, fn, *args, **kw):
        """Run ``fn`` as one span; ``key`` is ``layer`` or ``layer:name``."""
        stack = self._stack
        inner = [0.0]
        stack.append(inner)
        t0 = process_time()
        try:
            return fn(*args, **kw)
        finally:
            dt = process_time() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            self.self_s[key.partition(":")[0]] += dt - inner[0]
            self.calls[key] += 1

    # -- installation --------------------------------------------------

    def _patch(self, cls, name: str, wrapper) -> None:
        orig = cls.__dict__[name]
        functools.update_wrapper(wrapper, orig)
        self._saved.append((cls, name, orig))
        setattr(cls, name, wrapper)

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        orig = cls.__dict__[name]
        span = self.span
        key = f"{layer}:{name}"

        def wrapper(*args, **kw):
            return span(key, orig, *args, **kw)

        self._patch(cls, name, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("boundaries already installed")
        for cls, name, layer in BOUNDARIES:
            self._wrap_method(cls, name, layer)
        for cls in _protocol_classes():
            for name in COHERENCE_METHODS:
                if name in cls.__dict__:
                    self._wrap_method(cls, name, "mem.coherence")
        span = self.span

        # syscall handlers: category 2 runs as a direct call, category 1
        # returns a kernel frame that push_frame (below) wraps per resume
        lookup = OSServer.__dict__["lookup"]

        def timed_lookup(server, name):
            entry = lookup(server, name)
            if entry is None:
                return None
            self.calls["osim:syscalls"] += 1
            category, handler = entry
            if category != 2:
                return entry
            return category, functools.partial(span, "osim:cat2", handler)

        self._patch(OSServer, "lookup", timed_lookup)

        # generator frames: the application's base frame and user-mode
        # signal wrappers are frontend code; syscall, VM-fault and
        # interrupt-handler frames are kernel code modelled by the OS layer
        base_frame = SimProcess.__dict__["base_frame"]
        push_frame = SimProcess.__dict__["push_frame"]

        def timed_base_frame(proc, frame):
            return base_frame(proc, _TimedFrame(frame, span, "frontend"))

        def timed_push_frame(proc, frame, mode, meta=("syscall", None)):
            layer = "frontend" if mode == "user" else "osim"
            return push_frame(proc, _TimedFrame(frame, span, layer), mode,
                              meta)

        self._patch(SimProcess, "base_frame", timed_base_frame)
        self._patch(SimProcess, "push_frame", timed_push_frame)

    def uninstall(self) -> None:
        while self._saved:
            cls, name, orig = self._saved.pop()
            setattr(cls, name, orig)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
