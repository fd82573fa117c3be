"""The four registry workload classes at bench scale, built from a seed.

Each builder returns a :class:`Sim`: the engine ready for ``run()`` plus a
``check`` that validates the workload's own output after the run. Builders
take the accelerator knobs as keyword overrides of ``complex_backend``, so
the same inputs can be run at the default config and with accelerators off.
See README.md for why each workload is here and what it must keep.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import Engine, complex_backend
from repro.apps.minidb import (MiniDb, TpccDriver, TpcdDriver, tpcc_catalog,
                               tpcd_catalog)
from repro.apps.minidb.dss import q1_scan_raw
from repro.apps.webserver import (TracePlayer, generate_fileset, make_trace,
                                  prefork_web_server)
from repro.core.frontend import SimProcess
from repro.service.workloads import build_splash

#: accelerator arms of the record-only audit: knob overrides per arm
ARMS: Dict[str, dict] = {
    "default": {},
    "vec_off": {"vectorized": False},
    "spec_off": {"speculate": False},
    "lookahead_off": {"lookahead": False},
    "all_off": {"fastpath": False, "vectorized": False, "lookahead": False,
                "speculate": False},
}

#: paper Table 1 (OS %, interrupt %) per workload; splash has no row
PAPER_TABLE1 = {"oltp": (21.0, 14.6), "dss": (19.0, 8.6),
                "webserver": (85.1, 37.8)}

#: trace seed ``build_web_run`` uses; see README.md "Known defect"
WEB_TRACE_SEED = 3


@dataclass
class Sim:
    eng: Engine
    #: returns None when the workload's output is right, else a reason
    check: Callable[[], Optional[str]]
    #: the native answer the check compares against (dss only)
    answer: object = None


def _cfg(knobs: dict, **arch):
    return complex_backend(**arch, **knobs)


def build_oltp(seed: int, knobs: dict) -> Sim:
    """``build_tpcc_run`` with the MiniDb/TpccDriver seed routed through."""
    nagents, tx = 4, 6
    eng = Engine(_cfg(knobs, num_cpus=4))
    db = MiniDb(eng, tpcc_catalog(warehouses=1, scale=0.01), pool_frames=48,
                seed=seed)
    db.setup()
    drv = TpccDriver(db, nagents=nagents, tx_per_agent=tx, seed=seed,
                     think_cycles=10_000)
    drv.spawn_agents(eng)

    def check():
        if drv.committed != nagents * tx:
            return f"committed {drv.committed} of {nagents * tx}"
        return None

    return Sim(eng, check)


def build_dss(seed: int, knobs: dict, expect: Optional[dict] = None) -> Sim:
    """``build_tpcd_run`` with the catalog load seed routed through.

    ``expect`` is the native Q1 answer for this seed; when None it is
    computed from this build's file system before the run."""
    eng = Engine(_cfg(knobs, num_cpus=4))
    cat = tpcd_catalog(scale=0.0003)
    db = MiniDb(eng, cat, pool_frames=64, seed=seed)
    db.setup()
    drv = TpcdDriver(db, nagents=4, io="read")
    drv.spawn_q1(eng)
    answer = expect if expect is not None else q1_scan_raw(
        eng.os_server.fs, cat)

    def check():
        if drv.result != answer:
            return "Q1 aggregate differs from the native scan"
        return None

    return Sim(eng, check, answer)


def build_webserver(seed: int, knobs: dict) -> Sim:
    """``build_web_run``, assembled from its parts. The trace seed stays at
    the registry's value whatever ``seed`` is (README.md "Known defect")."""
    nrequests, nworkers = 20, 3
    eng = Engine(_cfg(knobs, num_cpus=4, coherence="mesi", num_nodes=1))
    fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.25)
    trace = make_trace(fset, nrequests=nrequests, seed=WEB_TRACE_SEED)
    prefork_web_server(eng, nworkers=nworkers)
    player = TracePlayer(eng, trace, fset, nclients=4,
                         nworkers_to_quit=nworkers)
    player.start()

    def check():
        if player.completed != nrequests:
            return f"completed {player.completed} of {nrequests} requests"
        return None

    return Sim(eng, check)


def build_splash_radix(seed: int, knobs: dict) -> Sim:
    """``build_splash`` radix, 4 procs, 4096 keys. Radix has no random
    input, so the workload is seedless."""
    eng = build_splash(lambda **arch: _cfg(knobs, **arch), kernel="radix",
                       nprocs=4, nkeys=4096)
    procs = list(eng.comm.processes.values())

    def check():
        bad = [p.name for p in procs if p.exit_status != 0]
        return f"non-zero exit: {bad}" if bad else None

    return Sim(eng, check)


BUILDERS = {
    "oltp": build_oltp,
    "dss": build_dss,
    "webserver": build_webserver,
    "splash": build_splash_radix,
}


#: inputs one ``--seed`` expands to. One TPC-C input's host cost depends on
#: its transaction mix (how many speculation windows it opens), so an oltp
#: run times sixteen inputs and reports their mean; the other workloads do the
#: same work for every seed.
INPUTS_PER_SEED = {"oltp": 16, "dss": 1, "webserver": 1, "splash": 1}


def input_seeds(workload: str, seed: int) -> List[int]:
    """The input seeds ``seed`` expands to, in the order they are run."""
    k = INPUTS_PER_SEED[workload]
    if k == 1:
        return [seed]
    return [zlib.crc32(f"{seed}:{j}".encode()) for j in range(k)]


def build(workload: str, seed: int, knobs: dict, **kw) -> Sim:
    """Build one simulation with the pid sequence reset, so repeated builds
    in one process are identical."""
    SimProcess.set_pid_counter(1)
    return BUILDERS[workload](seed, knobs, **kw)
