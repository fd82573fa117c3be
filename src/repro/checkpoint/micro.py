"""Micro-checkpoints: per-CPU incremental snapshots for speculative windows.

A full :class:`~repro.checkpoint.CheckpointManager` snapshot serialises the
whole backend — far too heavy to take once per speculation window. But a
speculative window is *confined by construction*: every reference consumed
past the rival horizon must resolve on the L1 fast path (`access_run` cuts
the first slow reference at or beyond the horizon unconsumed), and a fast
path hit mutates only

* the issuing CPU's L1 line-state dict (EXCLUSIVE -> MODIFIED flips) and
  per-set LRU orders (plus the same flips mirrored into its inclusive L2),
* the commutative hit/access counters (``Cache.hits``, ``accesses``,
  ``fast_hits``, the vec-path observability counters),
* the global clock's high-water mark (``gsched.now``).

:class:`MicroCheckpoint` snapshots exactly that slice — O(L1 lines) dict and
list copies, no pickling — before a window opens, and restores it in place
on a horizon violation. Restoring bumps ``Cache.version`` so the vectorized
mirror and every version-keyed memo (rival invisibility frontiers,
classification caches) drop their now-stale entries.
"""

from __future__ import annotations

__all__ = ["MicroCheckpoint"]


class MicroCheckpoint:
    """Snapshot/rollback of one CPU's speculation-visible state slice."""

    __slots__ = ("ms", "cpu", "clock", "_states", "_sets", "_l2", "_hits",
                 "_accesses", "_fast_hits", "_vecc", "_now")

    def __init__(self, ms, cpu: int, clock) -> None:
        self.ms = ms
        self.cpu = cpu
        self.clock = clock
        self._states = dict(ms._l1_states[cpu])
        self._sets = [list(s) for s in ms._l1_sets[cpu]]
        l2s = ms._l2_states[cpu] if ms._l2_states is not None else None
        self._l2 = dict(l2s) if l2s is not None else None
        self._hits = ms.l1s[cpu].hits
        self._accesses = ms.accesses
        self._fast_hits = ms.fast_hits
        self._vecc = (ms.vec_batches, ms.vec_refs, ms.vec_fallbacks,
                      ms.vec_rebuilds)
        self._now = clock.now

    def rollback(self) -> None:
        """Restore the captured slice in place.

        In-place restoration matters: the hot loops hold direct references
        to the state dict and the per-set lists (``_l1_states``/``_l1_sets``
        aliases, bound ``.get`` methods), so containers must keep their
        identity. The version bump invalidates the vec mirror and any
        version-keyed caches built against the speculated state.
        """
        ms = self.ms
        cpu = self.cpu
        states = ms._l1_states[cpu]
        states.clear()
        states.update(self._states)
        for dst, src in zip(ms._l1_sets[cpu], self._sets):
            dst[:] = src
        if self._l2 is not None:
            l2s = ms._l2_states[cpu]
            l2s.clear()
            l2s.update(self._l2)
        l1 = ms.l1s[cpu]
        l1.hits = self._hits
        ms.accesses = self._accesses
        ms.fast_hits = self._fast_hits
        (ms.vec_batches, ms.vec_refs, ms.vec_fallbacks,
         ms.vec_rebuilds) = self._vecc
        # the clock only ever moved forward inside the window and nothing
        # else observed it (no tasks ran, no events were delivered), so it
        # is safe to move it back to the capture point
        self.clock.now = self._now
        l1.version += 1
        if ms._vec is not None:
            ms._vec.on_rollback(cpu)

