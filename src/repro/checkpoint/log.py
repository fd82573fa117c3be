"""Memory-system wrappers: record backend replies, or replay them.

The engine reaches the memory system only through ``engine.memsys``, so a
delegating wrapper captures (or substitutes) the full reply stream without
touching the hierarchy itself. Both wrappers run batched references through
the per-reference loop ``run_each`` without its lookahead probe — the strict
loop the tapped hierarchy runs — so recording changes no timing.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.errors import ReplayDivergence
from ..mem.hierarchy import run_each

#: reply-log sentinel for "this access raised a major fault"
MAJOR_FAULT = -1


class _MemoryWrapper:
    """Delegates everything to the real MemorySystem except the two access
    entry points, which subclasses intercept."""

    def __init__(self, real, replies: Dict[int, List[int]]) -> None:
        self.real = real
        self.replies = replies

    def __getattr__(self, name):
        return getattr(self.real, name)

    def access_run(self, pid: int, cpu: int, kinds: list, addrs: list,
                   sizes: list, pends: list, i: int, n: int, t: int,
                   limit: int, horizon: int, ext: int = 0, clock=None,
                   serial=None, uhint=None):
        # the lookahead extension (``ext``) is deliberately ignored, as in
        # MemorySystem.access_run's tapped branch: record and replay must
        # both observe the strict interleaving so the reply log lines up
        # deterministically
        return run_each(self.access, pid, cpu, kinds, addrs, sizes, pends,
                        i, n, t, limit, horizon, clock)


class RecordingMemory(_MemoryWrapper):
    """Pass every access through and append its reply to the per-pid log."""

    def access(self, pid, vaddr, size, write, cpu, now, atomic=False):
        lat, major = self.real.access(pid, vaddr, size, write, cpu, now,
                                      atomic=atomic)
        log = self.replies.get(pid)
        if log is None:
            log = self.replies[pid] = []
        log.append(MAJOR_FAULT if major is not None else lat)
        return lat, major


class ReplayMemory(_MemoryWrapper):
    """Answer every access from the log; the hierarchy is never touched.

    A :data:`MAJOR_FAULT` entry reconstructs the fault by asking the live
    VMM to translate the access's own address — valid because ``access``
    translates exactly once per reference, and the file-backed mapping
    state the decision depends on is maintained live by the replayed
    mmap/page-install path.
    """

    def __init__(self, real, replies: Dict[int, List[int]]) -> None:
        super().__init__(real, replies)
        self.cursors: Dict[int, int] = {}

    def access(self, pid, vaddr, size, write, cpu, now, atomic=False):
        log = self.replies.get(pid)
        c = self.cursors.get(pid, 0)
        if log is None or c >= len(log):
            raise ReplayDivergence(
                f"pid {pid} issued more memory accesses than recorded "
                f"({c} replies in the log)")
        self.cursors[pid] = c + 1
        lat = log[c]
        if lat == MAJOR_FAULT:
            _, major, _ = self.real.vmm.translate(pid, vaddr, write, cpu)
            if major is None:
                raise ReplayDivergence(
                    f"recorded major fault for pid {pid} at {vaddr:#x} "
                    "did not reproduce during replay")
            return 0, major
        return lat, None

    def check_exhausted(self) -> None:
        """Every recorded reply must have been consumed at the stop point."""
        for pid, log in self.replies.items():
            c = self.cursors.get(pid, 0)
            if c != len(log):
                raise ReplayDivergence(
                    f"pid {pid} consumed {c} of {len(log)} recorded "
                    "replies: replay stopped short of the checkpoint")
