"""ParallelEngine edge cases: tiny programs, mixed workloads, many workers,
mixed inline + parallel frontends, and worker supervision (crash, kill,
restart-with-replay, forensic reports)."""

import os
import signal
import time

import pytest

from repro import SamplingConfig, complex_backend, simple_backend
from repro.core.errors import HostError
from repro.core.frontend import ProcState, SimProcess
from repro.host import ParallelEngine, WorkerSpec, parallel

from tests.test_lookahead_equivalence import HOT_PROG, _snapshot
from tests.test_translate_equivalence import ISA_KERNEL

TRIVIAL = """
    li r3, 7
    halt
"""

ONE_REF = """
    li r10, 0x100000
    li r1, 1
    storex r1, r10, r1, 4
    li r3, 0
    halt
"""

SLEEPY = """
    li r3, 50000
    syscall nanosleep, 1
    li r3, 0
    halt
"""


def test_trivial_program_exits_with_status():
    eng = ParallelEngine(simple_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("t", TRIVIAL))
        eng.run()
    assert p.exit_status == 7


def test_single_reference_program():
    eng = ParallelEngine(simple_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("t", ONE_REF))
        eng.run()
    assert p.exit_status == 0
    assert eng.events_processed >= 1


def test_blocking_syscall_from_worker():
    eng = ParallelEngine(complex_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("t", SLEEPY))
        stats = eng.run()
    assert p.exit_status == 0
    assert stats.end_cycle >= 50_000


def test_more_workers_than_cpus():
    eng = ParallelEngine(simple_backend(num_cpus=2))
    with eng:
        procs = [eng.spawn_worker(WorkerSpec(f"w{i}", ONE_REF))
                 for i in range(5)]
        eng.run()
    assert all(p.exit_status == 0 for p in procs)


def test_mixed_inline_and_parallel_frontends():
    """Parallel workers and ordinary coroutine frontends coexist."""
    eng = ParallelEngine(complex_backend(num_cpus=2))
    done = []

    def inline_app(proc):
        for _ in range(20):
            proc.compute(500)
            yield from proc.store(0x30_000)
        done.append("inline")
        yield from proc.exit(0)

    with eng:
        w = eng.spawn_worker(WorkerSpec("w", ONE_REF))
        eng.spawn("inline", inline_app)
        eng.run()
    assert w.exit_status == 0
    assert done == ["inline"]


def _kill_worker_child(w, timeout=5.0):
    """Wait until the worker has sent something, then SIGKILL it."""
    deadline = time.time() + timeout
    while not w.conn.poll() and time.time() < deadline:
        time.sleep(0.01)
    os.kill(w.process.pid, signal.SIGKILL)
    w.process.join()


def test_worker_killed_mid_run_is_restarted():
    """SIGKILL a worker blocked in a syscall: the supervisor relaunches it,
    replays the consumed prefix, and the run completes bit-normally."""
    eng = ParallelEngine(complex_backend(num_cpus=1))
    eng.worker_backoff = 0.01
    with eng:
        p = eng.spawn_worker(WorkerSpec("victim", SLEEPY))
        w = eng._workers[p.pid]
        _kill_worker_child(w)
        stats = eng.run()
    assert p.exit_status == 0
    assert stats.end_cycle >= 50_000
    assert w.restarts >= 1
    assert stats.get("worker_restarts") >= 1


def test_worker_death_with_no_restarts_is_forensic():
    eng = ParallelEngine(complex_backend(num_cpus=1))
    eng.max_worker_restarts = 0
    with eng:
        p = eng.spawn_worker(WorkerSpec("victim", SLEEPY))
        w = eng._workers[p.pid]
        _kill_worker_child(w)
        with pytest.raises(HostError) as ei:
            eng.run()
    assert "forensic" in str(ei.value)
    assert "victim" in str(ei.value)
    report = ei.value.report
    assert report is not None
    assert report["worker"] == "victim"
    assert report["restarts"] == 0
    assert report["max_restarts"] == 0


def test_worker_crash_message_exhausts_restarts():
    """A deterministic in-worker failure crashes every relaunch; the final
    HostError carries the worker's own crash reason."""
    eng = ParallelEngine(simple_backend(num_cpus=1))
    eng.max_worker_restarts = 1
    eng.worker_backoff = 0.01
    with eng:
        eng.spawn_worker(WorkerSpec("crasher", "not a real instruction"))
        with pytest.raises(HostError) as ei:
            eng.run()
    msg = str(ei.value)
    assert "forensic" in msg
    assert "crashed" in msg
    assert ei.value.report["restarts"] == 1


def test_shutdown_tolerates_dead_and_never_started_workers():
    """shutdown() must not raise for workers that already died or whose
    process object was never started (satellite: shutdown hardening)."""
    eng = ParallelEngine(simple_backend(num_cpus=1))
    p = eng.spawn_worker(WorkerSpec("t", TRIVIAL))
    w = eng._workers[p.pid]
    # already-dead child
    os.kill(w.process.pid, signal.SIGKILL)
    w.process.join()
    # never-started process object
    import multiprocessing as mp
    w2 = type(w)(WorkerSpec("ghost", TRIVIAL))
    w2.process = mp.get_context("fork").Process(target=lambda: None)
    eng._workers[-1] = w2
    eng.shutdown()
    eng.shutdown()   # idempotent


def test_custom_segments_and_registers():
    prog = """
        li r10, 0x400000
        load r3, r10, 0, 4
        add r3, r3, r7
        halt
    """
    eng = ParallelEngine(simple_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec(
            "t", prog, segments=[(0x400000, 4096)], regs={7: 35}))
        eng.run()
    assert p.exit_status == 35   # 0 (fresh memory) + 35


# ---------------------------------------------------------------------------
# run-loop exit race and sampled runs
# ---------------------------------------------------------------------------

def test_periodic_harvest_exit_ends_run(monkeypatch):
    """A periodic harvest that re-steps the last parked proxy into its
    exit must end the run there, not fall through to the next backend
    task (the first timer tick, one timer_interval later).

    The slowed harvest waits for every parked worker's pipe before
    draining, so the exit message is always there to be consumed by the
    periodic harvest — the host scheduling under which the race shows."""
    monkeypatch.setattr(parallel, "HARVEST_EVERY", 1)
    orig = ParallelEngine._harvest

    def slow_harvest(self, block_on=None):
        if not block_on:
            for w in self._workers.values():
                p = w.proc
                if (w.alive and w.conn is not None and p is not None
                        and not w.queue and p.port_event is None
                        and p.state == ProcState.RUNNING):
                    w.conn.poll(0.05)
        return orig(self, block_on)

    monkeypatch.setattr(ParallelEngine, "_harvest", slow_harvest)
    for _ in range(5):
        SimProcess._next_pid[0] = 1
        eng = ParallelEngine(complex_backend(num_cpus=2))
        with eng:
            for i in range(2):
                eng.spawn_worker(WorkerSpec(f"w{i}", ISA_KERNEL))
            stats = eng.run()
        assert stats.end_cycle == 15_936


def test_sampled_parallel_run_matches_without_leases():
    """Sampling on: detail windows lease up to the next window switch,
    fast-forward windows deny leases and the backend times the streamed
    references, so lease and no-lease runs agree, and a second run
    repeats the first."""
    def run(**kw):
        SimProcess._next_pid[0] = 1
        eng = ParallelEngine(complex_backend(
            num_cpus=1,
            sampling=SamplingConfig(detail_events=2_000, ff_events=6_000),
            **kw))
        with eng:
            eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
            stats = eng.run()
        kinds = {w["kind"] for w in eng._sampler.windows}
        return (_snapshot(eng, stats), kinds), eng.batch_stats["leases"]

    first, leases = run()
    assert first[1] == {"detail", "ff"}
    assert leases > 0
    assert run()[0] == first
    assert run(lookahead=False)[0] == first
