"""Property tests for the speculation micro-checkpoint slice.

:class:`~repro.checkpoint.MicroCheckpoint` claims an exact, in-place
round-trip of one CPU's speculation-visible state: the L1 line-state
dict, the per-set LRU orders, the inclusive-L2 mirror, the commutative
hit/access counters, the vec-path counters and the global clock's
high-water mark — and *nothing else*. These tests pin every clause of
that contract directly against a standalone :class:`MemorySystem`,
including that the FaultInjector (and its checkpoint record/replay
FIFOs) is never perturbed by a capture/rollback cycle.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultRule
from repro.checkpoint import MicroCheckpoint
from repro.core.config import complex_backend
from repro.core.stats import StatsRegistry
from repro.faults.injector import FaultInjector
from repro.mem.hierarchy import MemorySystem


class _Clock:
    def __init__(self, now=0):
        self.now = now


def make_ms(**kw):
    cfg = complex_backend(num_cpus=2, **kw)
    ms = MemorySystem(cfg, StatsRegistry(cfg.num_cpus))
    ms.vmm.new_space(1)
    ms.vmm.map_anon(1, 0x10000, 1 << 24)
    return ms


def _warm(ms, cpu, n=8, base=0x20000, stride=64):
    """Read ``n`` lines into EXCLUSIVE on ``cpu``; returns (addrs, now)."""
    now = 0
    addrs = [base + i * stride for i in range(n)]
    for a in addrs:
        lat, fault = ms.access(1, a, 4, False, cpu, now)
        assert fault is None
        now += lat
    return addrs, now


def _slice(ms, cpu, clock):
    """Everything MicroCheckpoint promises to restore, deep-copied."""
    return (dict(ms._l1_states[cpu]),
            [list(s) for s in ms._l1_sets[cpu]],
            dict(ms._l2_states[cpu]) if ms._l2_states is not None else None,
            ms.l1s[cpu].hits, ms.accesses, ms.fast_hits,
            (ms.vec_batches, ms.vec_refs, ms.vec_fallbacks, ms.vec_rebuilds),
            clock.now)


def test_roundtrip_exact():
    """Capture -> mutate (E->M flips, LRU reorder, counters, clock) ->
    rollback returns the slice bit-for-bit."""
    ms = make_ms()
    addrs, now = _warm(ms, 0)
    clk = _Clock(now)
    before = _slice(ms, 0, clk)
    mck = MicroCheckpoint(ms, 0, clk)

    # writes flip EXCLUSIVE -> MODIFIED and reorder the LRU lists;
    # reversed order maximises the reordering
    for a in reversed(addrs):
        lat, fault = ms.access(1, a, 4, True, 0, clk.now)
        assert fault is None
        clk.now += lat
    assert _slice(ms, 0, clk) != before   # the window really mutated it

    mck.rollback()
    assert _slice(ms, 0, clk) == before


def test_rollback_preserves_container_identity():
    """The hot loops hold direct references to the dict and the LRU
    lists, so rollback must restore *in place*."""
    ms = make_ms()
    addrs, now = _warm(ms, 0)
    clk = _Clock(now)
    states_id = id(ms._l1_states[0])
    set_ids = [id(s) for s in ms._l1_sets[0]]
    l2_id = id(ms._l2_states[0]) if ms._l2_states is not None else None
    version = ms.l1s[0].version

    mck = MicroCheckpoint(ms, 0, clk)
    for a in addrs:
        lat, _ = ms.access(1, a, 4, True, 0, clk.now)
        clk.now += lat
    mck.rollback()

    assert id(ms._l1_states[0]) == states_id
    assert [id(s) for s in ms._l1_sets[0]] == set_ids
    if l2_id is not None:
        assert id(ms._l2_states[0]) == l2_id
    # the version bump is what invalidates version-keyed memos
    assert ms.l1s[0].version == version + 1
    if ms._vec is not None:
        assert ms._vec._cache_versions[0] == -1


def test_rollback_is_idempotent():
    ms = make_ms()
    addrs, now = _warm(ms, 0)
    clk = _Clock(now)
    mck = MicroCheckpoint(ms, 0, clk)
    for a in addrs:
        lat, _ = ms.access(1, a, 4, True, 0, clk.now)
        clk.now += lat
    mck.rollback()
    snap = _slice(ms, 0, clk)
    mck.rollback()
    assert _slice(ms, 0, clk) == snap


def test_other_cpu_slice_untouched():
    """Rollback is confined to its CPU: a rival's slice mutated after the
    capture stays mutated."""
    ms = make_ms()
    addrs0, now = _warm(ms, 0)
    clk = _Clock(now)
    mck = MicroCheckpoint(ms, 0, clk)
    addrs1, _ = _warm(ms, 1, base=0x80000)
    rival = (dict(ms._l1_states[1]), [list(s) for s in ms._l1_sets[1]])
    mck.rollback()
    assert dict(ms._l1_states[1]) == rival[0]
    assert [list(s) for s in ms._l1_sets[1]] == rival[1]


def test_fault_injector_fifos_untouched():
    """A speculative window consumes only fast-path hits, which never
    reach a fault site: the injector's counters, RNG stream and — while
    a checkpoint is recording — its outcome FIFOs must come through a
    capture/mutate/rollback cycle untouched, so replay stays aligned."""
    plan = FaultPlan(rules=(
        FaultRule(site="mem:degraded", prob=0.5, extra_cycles=300),
    ), seed=7)
    ms = make_ms()
    inj = FaultInjector(plan)
    ms.fault_extra = inj.mem_extra
    rec_log = {}
    inj.begin_recording(rec_log)

    addrs, now = _warm(ms, 0)           # misses: these DO visit the site
    baseline = inj.state_dict()
    fifo_lens = {k: len(v) for k, v in rec_log.items()}
    assert inj.stats.draws > 0          # the site is live

    clk = _Clock(now)
    mck = MicroCheckpoint(ms, 0, clk)
    for a in reversed(addrs):           # hits: must not touch the site
        lat, _ = ms.access(1, a, 4, True, 0, clk.now)
        clk.now += lat
    mck.rollback()

    assert inj.state_dict() == baseline
    assert {k: len(v) for k, v in rec_log.items()} == fifo_lens

    # ...and the post-rollback miss stream draws exactly as a control
    # injector that never saw the window
    ctl = FaultInjector(plan)
    ctl_log = {}
    ctl.begin_recording(ctl_log)
    ms2 = make_ms()
    ctl_ms = ms2
    ctl_ms.fault_extra = ctl.mem_extra
    _warm(ctl_ms, 0)
    extra = [inj.mem_extra() for _ in range(16)]
    extra_ctl = [ctl.mem_extra() for _ in range(16)]
    assert extra == extra_ctl
    assert rec_log == ctl_log


def test_capture_is_cheap_no_pickling():
    """The capture is plain dict/list copies — its cost scales with the
    resident L1 line count, not the machine; trivially, capturing an
    idle CPU's slice copies empty containers."""
    ms = make_ms()
    clk = _Clock(0)
    mck = MicroCheckpoint(ms, 1, clk)
    assert mck._states == {}
    assert all(s == [] for s in mck._sets)

