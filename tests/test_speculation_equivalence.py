"""Bit-identity of the optimistic (Time Warp-style) speculation layer.

``SimConfig.speculate`` lets the engine consume references *past* the
conservative rival horizon behind a micro-checkpoint, validating after the
fact and rolling back on a horizon violation. It must produce *exactly*
the simulated cycle counts, cache statistics, CPU time buckets and
fault-fire counts of the strict conservative schedule — with and without
fault plans, under memory taps, composed with checkpoint crash/resume, and
under bounded max_events stepping. ``ParallelEngine`` workers never
speculate (their leases stop at the conservative window end), so there
the knob must change nothing at all.
"""

from __future__ import annotations

import pytest

from repro import (Engine, SimulatedCrash, checkpoint_exists,
                   complex_backend, resume)
from repro.core import engine as engine_mod
from repro.core.config import SimConfig
from repro.core.frontend import SimProcess
from repro.host import ParallelEngine, WorkerSpec, parallel
from repro.mem.hierarchy import MemorySystem
from repro.traces.memtrace import MemTraceRecorder

from tests.test_determinism_harness import FAULT_OFF_WORKLOADS
from tests.test_lookahead_equivalence import (HOT_PROG, TIMING_PLAN,
                                              _private_heavy, _snapshot)


def _run(build, faults=None, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = build(lambda **kw: complex_backend(faults=faults, **cfg_kw, **kw))
    stats = eng.run()
    return _snapshot(eng, stats), eng


#: the strict oracle: no speculation, no lookahead — the paper's
#: conservative basic-block-granular schedule
STRICT = dict(speculate=False, lookahead=False)


# ---------------------------------------------------------------------------
# inline engine: speculation on == strict, on every workload class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
def test_speculation_bit_identical(name):
    build = FAULT_OFF_WORKLOADS[name]
    snap_on, eng_on = _run(build, speculate=True)
    snap_off, eng_off = _run(build, **STRICT)
    assert snap_on == snap_off
    # a window opens only when its first reference is invisible, so every
    # window consumes something and then commits or rolls back
    bs = eng_on.batch_stats
    assert bs["sp_windows"] == bs["sp_commits"] + bs["sp_rollbacks"]
    # the strict run must never open a window
    assert eng_off.batch_stats["sp_windows"] == 0
    assert eng_off.batch_stats["sp_refs"] == 0


@pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
def test_speculation_bit_identical_under_faults(name):
    build = FAULT_OFF_WORKLOADS[name]
    snap_on, eng_on = _run(build, faults=TIMING_PLAN, speculate=True)
    snap_off, _ = _run(build, faults=TIMING_PLAN, **STRICT)
    assert snap_on == snap_off
    assert eng_on.faults.stats.draws > 0


def test_speculation_denied_under_memory_tap():
    """A memtrace tap needs the strict per-reference stream; speculation
    must stand down — and the tapped runs (including the traces) must
    still match."""
    build = FAULT_OFF_WORKLOADS["oltp"]

    def run(**cfg_kw):
        SimProcess._next_pid[0] = 1
        eng = build(lambda **kw: complex_backend(**cfg_kw, **kw))
        rec = MemTraceRecorder.attach(eng, max_records=2_000_000)
        stats = eng.run()
        assert rec.dropped == 0
        return _snapshot(eng, stats) + (tuple(rec.records),), eng

    snap_on, eng_on = run(speculate=True)
    snap_off, _ = run(**STRICT)
    assert snap_on == snap_off
    assert eng_on.batch_stats["sp_windows"] == 0


def test_speculation_engages_and_commits():
    """On the private-heavy workload the windows must actually open and
    commit past the rival horizon — while staying bit-identical and using
    no more batch dispatches than conservative lookahead."""
    snap_on, eng_on = _run(_private_heavy, speculate=True)
    snap_off, eng_off = _run(_private_heavy, **STRICT)
    snap_la, eng_la = _run(_private_heavy, speculate=False, lookahead=True)
    assert snap_on == snap_off == snap_la
    bs = eng_on.batch_stats
    assert bs["sp_windows"] > 0
    assert bs["sp_commits"] > 0
    assert bs["sp_refs"] > 0
    assert bs["batches"] < eng_off.batch_stats["batches"]
    assert bs["batches"] <= eng_la.batch_stats["batches"]
    # speculation supersedes the conservative scan when both are on
    assert bs["la_windows"] == 0


def test_speculation_rollback_restores_bit_identity(monkeypatch):
    """Force every validation to fail: all windows roll back, and the
    results still match the strict schedule exactly (rollback must be a
    perfect undo)."""
    from repro.core.communicator import Communicator

    SimProcess._next_pid[0] = 1
    eng = _private_heavy(lambda **kw: complex_backend(speculate=True, **kw))
    orig = Communicator.speculation_bound

    def always_violate(self, winner, strict, cap, bound_fn):
        orig(self, winner, strict, cap, bound_fn)   # exercise the walk
        return strict
    eng.comm.speculation_bound = always_violate.__get__(eng.comm)
    # keep speculating even after consecutive rollbacks
    monkeypatch.setattr(engine_mod, "SPEC_MAX_ROLLBACKS", 1 << 30)
    stats = eng.run()
    snap = _snapshot(eng, stats)
    snap_off, _ = _run(_private_heavy, **STRICT)
    assert snap == snap_off
    bs = eng.batch_stats
    assert bs["sp_rollbacks"] > 0
    assert bs["sp_commits"] == 0


def test_adaptive_quantum_and_stand_down(monkeypatch):
    """The quantum starts at the lookahead window and stays within its
    adaptive bounds, and a run capped at one consecutive rollback stands
    down permanently — without affecting the simulated results."""
    eng = Engine(complex_backend(num_cpus=2))
    assert eng._spec_quantum == eng._lookahead_cycles
    snap_on, eng_on = _run(_private_heavy, speculate=True)
    assert (eng_on._spec_quantum_min <= eng_on._spec_quantum
            <= eng_on._spec_quantum_max)
    bs = eng_on.batch_stats
    assert bs["sp_commits"] + bs["sp_rollbacks"] == bs["sp_windows"]

    monkeypatch.setattr(engine_mod, "SPEC_MAX_ROLLBACKS", 1)
    snap_capped, eng_capped = _run(_private_heavy, speculate=True)
    assert snap_capped == snap_on
    if eng_capped.batch_stats["sp_rollbacks"]:
        assert not eng_capped._spec_on


def test_config_validation():
    """The removed knobs fail loudly instead of being ignored."""
    for knob in ("lookahead_cycles", "speculate_quantum",
                 "speculate_max_rollbacks", "instrument_default"):
        with pytest.raises(TypeError):
            SimConfig(num_cpus=1, **{knob: 1})


def _sharing(cfg):
    """4 CPUs mostly re-touching private buffers, each also writing its own
    slots of one shared segment: the write invalidations revoke rivals'
    invisibility rights mid-run, so memoised walks must notice the moved
    cache versions."""
    eng = Engine(cfg(num_cpus=4, coherence="mesi", num_nodes=1))

    def make_app(c):
        base = 0x1_0000 + c * 0x10_000

        def app(p):
            r = yield from p.call("shmget", 0x5EED, 8192)
            r = yield from p.call("shmat", r.value)
            shared = r.value
            for _ in range(12):
                yield from p.touch(base, 8192, write=True, stride=32,
                                   work_per_line=2)
                yield from p.touch(shared + c * 64, 4096, write=True,
                                   stride=256)
            yield from p.exit(0)
        return app

    for c in range(4):
        eng.spawn(f"s{c}", make_app(c))
    return eng


@pytest.mark.parametrize("build", [_private_heavy, _sharing,
                                   FAULT_OFF_WORKLOADS["dss"]],
                         ids=["private_heavy", "sharing", "dss"])
def test_memoised_frontier_is_sound(monkeypatch, build):
    """A resumed (memoised) invisibility walk never claims more than a
    fresh walk at the same call: a bound that is too large could commit a
    window a rival could have seen into."""
    orig = MemorySystem.invisible_frontier
    resumed = []

    def checked(self, pid, cpu, batch, cap, memo):
        had = pid in memo
        got = orig(self, pid, cpu, batch, cap, memo)
        assert got <= orig(self, pid, cpu, batch, cap, {})
        resumed.append(had)
        return got

    monkeypatch.setattr(MemorySystem, "invisible_frontier", checked)
    _run(build, speculate=True)
    assert any(resumed)


# ---------------------------------------------------------------------------
# x checkpointing
# ---------------------------------------------------------------------------

def test_speculation_denied_while_recording(tmp_path):
    """An active checkpoint recorder wraps the memory system; the reply
    log needs the strict per-reference stream, so no windows may open —
    and the checkpointed result matches both the speculate-off
    checkpointed run and the plain speculate-on run."""
    build = FAULT_OFF_WORKLOADS["oltp"]
    path = str(tmp_path / "ck.pkl")

    def run(speculate):
        SimProcess._next_pid[0] = 1
        eng = build(lambda **kw: complex_backend(
            checkpoint_path=path, checkpoint_interval=2_000,
            speculate=speculate, **kw))
        stats = eng.run()
        return _snapshot(eng, stats), eng

    snap_on, eng_on = run(True)
    snap_off, _ = run(False)
    assert snap_on == snap_off
    assert eng_on._ckpt.saves > 0
    assert eng_on.batch_stats["sp_windows"] == 0
    plain, _ = _run(build, speculate=True)
    assert plain == snap_on


def test_checkpoint_resume_with_speculation_on(tmp_path):
    """Crash + resume with speculation enabled reproduces the
    uninterrupted strict run: replayed and recorded stretches deny
    windows, and speculation is timing-neutral anyway."""
    build = FAULT_OFF_WORKLOADS["dss"]
    baseline, _ = _run(build, **STRICT)
    path = str(tmp_path / "ck.pkl")

    def factory(**kw):
        return complex_backend(checkpoint_path=path,
                               checkpoint_interval=1_500,
                               speculate=True, **kw)

    SimProcess._next_pid[0] = 1
    eng = build(factory)
    eng._ckpt.crash_after_saves = 2
    with pytest.raises(SimulatedCrash):
        eng.run()
    assert checkpoint_exists(path)
    eng2, stats2 = resume(path, lambda: build(factory))
    assert _snapshot(eng2, stats2) == baseline


# ---------------------------------------------------------------------------
# ParallelEngine: the knob is inline-only
# ---------------------------------------------------------------------------

def _run_parallel(nworkers=1, prog=HOT_PROG, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=max(nworkers, 1),
                                         **cfg_kw))
    with eng:
        for i in range(nworkers):
            eng.spawn_worker(WorkerSpec(f"w{i}", prog))
        stats = eng.run()
    return _snapshot(eng, stats), eng


def test_worker_speculation_multi_worker_identity(monkeypatch):
    """Leases on/off x speculate on/off: workers only ever take the
    conservative lease, so all four arms agree and none speculates."""
    monkeypatch.setattr(parallel, "LEASE_EVERY", 2)
    runs = [_run_parallel(3, lookahead=la, speculate=spec)
            for la in (True, False) for spec in (True, False)]
    assert all(snap == runs[0][0] for snap, _ in runs)
    assert all(eng.batch_stats["sp_windows"] == 0 for _, eng in runs)


def test_parallel_checkpoint_denies_speculation(tmp_path):
    path = str(tmp_path / "ck.pkl")
    snap_ck, eng_ck = _run_parallel(1, speculate=True,
                                    checkpoint_path=path,
                                    checkpoint_interval=2_000)
    snap_off, _ = _run_parallel(1, lookahead=False, speculate=False)
    assert eng_ck.batch_stats["sp_windows"] == 0
    assert eng_ck.batch_stats["leases"] == 0
    assert snap_ck == snap_off


def test_speculation_denied_under_bounded_stepping(monkeypatch):
    """run(max_events=...) needs the strict stream; leases (and with
    them tails) must be denied."""
    monkeypatch.setattr(parallel, "LEASE_EVERY", 1)
    monkeypatch.setattr(parallel, "BATCH", 8)
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=1, speculate=True))
    with eng:
        eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
        while eng._live > 0:
            eng.run(max_events=500)
        stats = eng.stats
    assert eng.batch_stats["sp_windows"] == 0
    assert eng.batch_stats["leases"] == 0
    snap_strict, _ = _run_parallel(1, lookahead=False, speculate=False)
    assert _snapshot(eng, stats) == snap_strict
