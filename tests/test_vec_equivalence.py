"""Bit-identity of the vectorized batch memory path.

The vec path (``SimConfig.vectorized``) mirrors the L1 tag/state arrays
and page tables in numpy, classifies whole EventBatch runs in one
vectorized membership test, and retires 100%-private-hit runs in bulk
array ops. Like the scalar fast path it is a pure host-side optimisation:
simulated cycle counts, cache statistics, CPU time buckets and the memory
trace must be *exactly* those of the scalar loop on every workload class
the paper studies (OLTP, DSS, webserver, SPLASH kernel) — tapped and
untapped, composed with conservative lookahead windows and with
ParallelEngine worker leases.
"""

from __future__ import annotations

import pytest

from repro import Engine, complex_backend
from repro.core.frontend import SimProcess
from repro.host import ParallelEngine, WorkerSpec

from tests.test_fastpath_equivalence import (BATCHING_WORKLOADS, WORKLOADS,
                                             _run, _snapshot)
from tests.test_lookahead_equivalence import (HOT_PROG, _private_heavy,
                                              _run_inline)
from tests.test_lookahead_equivalence import _snapshot as _la_snapshot


#: batching workloads whose steady state is hit-dominated enough for the
#: accept-based backoff to admit vec runs; OLTP's small-pool miss stream
#: stays in cooldown (by design — misses are scalar-path work)
VEC_ENGAGING_WORKLOADS = frozenset({"dss", "webserver"})


# ---------------------------------------------------------------------------
# tapped runs: the memtrace tap forces the per-reference loop, so the vec
# path must stand down and change nothing (trace included in the compare)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_tapped_bit_identical(name):
    build = WORKLOADS[name]
    snap_on, eng_on = _run(build, fastpath=True, vectorized=True)
    snap_off, eng_off = _run(build, fastpath=True, vectorized=False)
    assert snap_on == snap_off
    # the scalar arm must never construct the mirror
    assert eng_off.memsys._vec is None
    assert eng_off.memsys.vec_refs == 0


# ---------------------------------------------------------------------------
# untapped runs: the inlined hot loop, where the vec path actually engages
# ---------------------------------------------------------------------------

def _run_untapped(build, **cfg):
    SimProcess._next_pid[0] = 1
    eng, finish = build(**cfg)
    stats = finish()
    snap = _snapshot(eng, stats, rec=None)
    del snap["trace"]
    return snap, eng


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_untapped_bit_identical(name):
    build = WORKLOADS[name]
    snap_on, eng_on = _run_untapped(build, fastpath=True, vectorized=True)
    snap_off, eng_off = _run_untapped(build, fastpath=True, vectorized=False)
    assert snap_on == snap_off
    assert eng_off.memsys.vec_refs == 0
    if name in VEC_ENGAGING_WORKLOADS:
        # the vec arm must have retired real work through the mirror
        assert eng_on.memsys.vec_refs > 0
        assert eng_on.memsys.vec_batches > 0
    elif name in BATCHING_WORKLOADS:
        # miss-heavy tiny runs keep the classifier in accept-based
        # backoff; the vec arm must still have *considered* the batches
        assert eng_on.memsys._vec.declines["cool"] > 0


def test_vec_off_in_config_disables_mirror():
    eng = Engine(complex_backend(num_cpus=1, vectorized=False))
    assert eng.memsys._vec is None
    eng2 = Engine(complex_backend(num_cpus=1, fastpath=False))
    # the vec path rides on the batched fast path; without it there is
    # nothing to vectorize
    assert eng2.memsys._vec is None


# ---------------------------------------------------------------------------
# composition with conservative lookahead windows
# ---------------------------------------------------------------------------

def test_vec_under_lookahead_bit_identical():
    snap_on, eng_on = _run_inline(_private_heavy, lookahead=True,
                                  vectorized=True)
    snap_off, eng_off = _run_inline(_private_heavy, lookahead=True,
                                    vectorized=False)
    assert snap_on == snap_off
    # both mechanisms engaged in the vec arm
    assert eng_on.memsys.vec_refs > 0
    assert eng_on.batch_stats["la_refs"] > 0


# ---------------------------------------------------------------------------
# composition with ParallelEngine worker leases
# ---------------------------------------------------------------------------

def _run_parallel(vectorized, nworkers=1, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=max(nworkers, 1),
                                         vectorized=vectorized, **cfg_kw))
    with eng:
        for i in range(nworkers):
            eng.spawn_worker(WorkerSpec(f"w{i}", HOT_PROG))
        stats = eng.run()
    return _la_snapshot(eng, stats), eng


def test_vec_under_worker_leases_bit_identical():
    snap_on, eng_on = _run_parallel(True)
    snap_off, _ = _run_parallel(False)
    assert snap_on == snap_off
    assert eng_on.batch_stats["lease_refs"] > 0
