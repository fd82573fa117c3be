"""End-to-end and per-layer benchmark over the four registry workloads.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. One client, closed loop: one
simulation at a time on the inline ``Engine`` at the default
``complex_backend`` config, each build starting when the previous run has
finished. ``--trace 0`` is the timed pass and reports the end-to-end
metrics; ``--trace 1`` is the traced pass and reports the per-layer metrics
plus the record-only accelerator audit. Every simulation is checked: the
workload's own output, and ``full_fingerprint`` against an
all-accelerators-off reference run of the same workload and seed. The last
line of standard output is one JSON object. README.md explains the choices.

The timed pass measures in ``CHILDREN`` child processes, one after the
other, each for an equal share of ``--seconds``; each scales its times to a
nominal host speed with ``calibrate.Yardstick``. ``run.py --child`` is that
child: it reads its job from standard input and writes its samples to
standard output, both pickled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"no simulator source under {SRC}: run from a checkout root")
sys.path[:0] = [SRC, HERE]

from repro.harness import profile_row  # noqa: E402
from repro.service.workloads import full_fingerprint  # noqa: E402

from calibrate import Yardstick  # noqa: E402
from spans import LayerTracer  # noqa: E402
from workloads import (ARMS, BUILDERS, PAPER_TABLE1, build,  # noqa: E402
                       input_seeds)

#: wall seconds one simulation may take before it counts as hung; a
#: failure ends the pass, so a hang cannot push a run past its time limit
SIM_TIMEOUT_S = 40
#: child processes a timed pass measures in, one after the other. One
#: process's speed depends on where it lands in memory (README.md "Host
#: noise"), so the pass pools samples from several.
CHILDREN = 4
#: wall seconds a child may take beyond its share of ``--seconds``
CHILD_SLACK_S = 60


class SimTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise SimTimeout(f"simulation ran longer than {SIM_TIMEOUT_S} s")


class Runner:
    """Builds, runs and checks simulations of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: input seed -> (reference fingerprint, native answer)
        self.refs = {}
        self.last_wall_s = 0.0
        #: the CPU clock every host time is read from
        self.clock = process_time

    def simulate(self, seed: int, knobs: dict, tracer: LayerTracer = None):
        """One build-and-run. Returns ``(sim, stats, setup_s, run_s)``,
        times in process CPU seconds; ``stats`` is None when the run did
        not finish or its output is wrong. Times are CPU seconds read from
        ``self.clock``; the wall time of the last run is kept in
        ``last_wall_s``."""
        gc.collect()
        self.attempted += 1
        kw = {}
        if self.workload == "dss" and seed in self.refs:
            kw["expect"] = self.refs[seed][1]
        t0 = self.clock()
        sim = build(self.workload, seed, knobs, **kw)
        t1 = self.clock()
        if tracer is not None:
            tracer.reset()
        signal.setitimer(signal.ITIMER_REAL, SIM_TIMEOUT_S)
        w1 = perf_counter()
        try:
            stats = sim.eng.run()
        except SimTimeout as e:
            stats = None
            self.fail(str(e))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t2 = self.clock()
        self.last_wall_s = perf_counter() - w1
        if stats is not None:
            bad = sim.check()
            if bad is not None:
                self.fail(bad)
                stats = None
        return sim, stats, t1 - t0, t2 - t1

    def fail(self, reason: str) -> None:
        self.failed += 1
        if reason not in self.errors:
            self.errors.append(reason)

    def reference(self, seed: int):
        """All-accelerators-off run of one input: the fingerprint every run
        of that input must match and, for dss, the native answer. Returns
        the run's stats, or None when it failed."""
        sim, stats, _s, _r = self.simulate(seed, ARMS["all_off"])
        if stats is not None:
            self.refs[seed] = (full_fingerprint(sim.eng, stats), sim.answer)
        return stats

    def matches_reference(self, seed: int, sim, stats) -> bool:
        if stats is None:
            return False
        ref = self.refs.get(seed)
        if ref is None or full_fingerprint(sim.eng, stats) != ref[0]:
            self.fail("fingerprint differs from the all-off reference")
            return False
        return True


def _tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it,
    as ``(percentile, value)``; None when it would not be above the
    median."""
    n = len(values)
    if n <= 21:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def _share_lines(workload: str, stats_list, lines: list) -> None:
    """Simulated Table 1 shares and their distance from the paper row."""
    rows = [profile_row(workload, st) for st in stats_list]
    os_pct = statistics.fmean(row.os_pct for row in rows)
    intr_pct = statistics.fmean(row.interrupt_pct for row in rows)
    lines.append(f"simulated OS share {os_pct:.2f} %, interrupt share "
                 f"{intr_pct:.2f} %")
    paper = PAPER_TABLE1.get(workload)
    if paper is None:
        lines.append("os_share_err_pp n/a pp (no paper Table 1 row)")
        lines.append("intr_share_err_pp n/a pp (no paper Table 1 row)")
    else:
        lines.append(f"os_share_err_pp {abs(os_pct - paper[0]):.2f} pp")
        lines.append(f"intr_share_err_pp {abs(intr_pct - paper[1]):.2f} pp")


def timed_child(job: dict) -> dict:
    """One child of the timed pass: a warm-up build-and-run, then timed
    build-and-runs for ``job["seconds"]``, cycling through the inputs from
    ``job["first"]``, and at least ``job["min_runs"]`` of them. Times are
    nominal CPU seconds (calibrate.py)."""
    r = Runner(job["workload"])
    r.refs = job["refs"]
    seeds = job["seeds"]
    out = {"runs": {seed: [] for seed in seeds},
           "setups": {seed: [] for seed in seeds}, "walls": [],
           "events": {}}

    def finish():
        out.update(attempted=r.attempted, failed=r.failed, errors=r.errors)
        return out

    # the first build-and-run in the process sets the memory high-water mark
    sim, stats, _s, _r = r.simulate(seeds[job["first"]], ARMS["default"])
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    if not r.matches_reference(seeds[job["first"]], sim, stats):
        return finish()
    yard = Yardstick()
    r.clock = yard.clock
    n = 0
    start = perf_counter()
    with yard:
        while (n < job["min_runs"]
               or perf_counter() - start < job["seconds"]):
            seed = seeds[(job["first"] + n) % len(seeds)]
            n += 1
            sim, stats, setup_s, run_s = r.simulate(seed, ARMS["default"])
            if not r.matches_reference(seed, sim, stats):
                return finish()
            out["setups"][seed].append(setup_s)
            out["runs"][seed].append(run_s)
            out["walls"].append(r.last_wall_s)
            out["events"][seed] = sim.eng.events_processed
    out["speed"] = yard.speed()
    scale = out["scale"] = yard.scale()
    for samples in (out["runs"], out["setups"]):
        for v in samples.values():
            v[:] = [x * scale for x in v]
    return finish()


def _spawn_child(job: dict, r: Runner):
    """Run one timed child to completion; its result, or None when it
    failed to give one."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            input=pickle.dumps(job), capture_output=True,
            timeout=job["seconds"] + CHILD_SLACK_S, check=False)
    except subprocess.TimeoutExpired:
        r.fail(f"timed child ran longer than {CHILD_SLACK_S} s past its "
               "share of --seconds")
        return None
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    if proc.returncode != 0 or not proc.stdout:
        last = proc.stderr.decode(errors="replace").strip().splitlines()
        r.fail(f"timed child exited with code {proc.returncode}"
               + (f": {last[-1]}" if last else ""))
        return None
    return pickle.loads(proc.stdout)


def timed_pass(r: Runner, seeds: list, seconds: float, lines: list) -> dict:
    """Tracing off: the end-to-end metrics. Makes the reference runs, then
    measures in ``CHILDREN`` child processes one after the other. Samples
    are pooled over the children; each metric is taken per input (median)
    and then averaged over the inputs."""
    ref_stats = []
    for seed in seeds:
        ref_stats.append(r.reference(seed))
        if ref_stats[-1] is None:
            return {}
    runs = {seed: [] for seed in seeds}
    setups = {seed: [] for seed in seeds}
    walls, rss, speeds, child_p50, unscaled = [], [], [], [], []
    events = {}
    for k in range(CHILDREN):
        job = {"workload": r.workload, "seeds": seeds, "refs": r.refs,
               "seconds": seconds / CHILDREN,
               "first": k * len(seeds) // CHILDREN,
               "min_runs": -(-len(seeds) // CHILDREN)}
        res = _spawn_child(job, r)
        if res is None:
            return {}
        r.attempted += res["attempted"]
        r.failed += res["failed"]
        r.errors.extend(e for e in res["errors"] if e not in r.errors)
        if res["failed"]:
            return {}
        for seed in seeds:
            runs[seed] += res["runs"][seed]
            setups[seed] += res["setups"][seed]
        walls += res["walls"]
        rss.append(res["peak_rss_mb"])
        speeds.append(res["speed"])
        child_p50.append(statistics.median(
            x for v in res["runs"].values() for x in v))
        unscaled.append(child_p50[-1] / res["scale"])
        events.update(res["events"])
    run_med = {seed: statistics.median(v) for seed, v in runs.items()}
    pooled = [x for v in runs.values() for x in v]
    tail = _tail(pooled)
    lines.append(f"samples: {len(pooled)} timed build-and-runs over "
                 f"{len(seeds)} input(s) in {CHILDREN} child processes")
    lines.append("host speed relative to nominal, per child: "
                 + " ".join(f"{x:.3f}" for x in speeds))
    lines.append("run_s p50 per child: "
                 + " ".join(f"{x:.4f}" for x in child_p50) + " s; unscaled "
                 + " ".join(f"{x:.4f}" for x in unscaled) + " s")
    lines.append(f"run_s pooled p50 {statistics.median(pooled):.4f} s" + (
        f", p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
        ", no percentile above p50 has 10 samples beyond it"))
    lines.append(f"run wall-clock pooled p50 {statistics.median(walls):.4f}"
                 " s (not a metric: unscaled, and includes yardstick slices"
                 " and time the host gave to others)")
    _share_lines(r.workload, ref_stats, lines)
    return {
        "run_s": (statistics.fmean(run_med.values()), "s"),
        "events_per_s": (sum(events.values()) / sum(run_med.values()),
                         "1/s"),
        "setup_s": (statistics.fmean(statistics.median(v)
                                     for v in setups.values()), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def _accel_counters(sim) -> tuple:
    ms = sim.eng.memsys
    return (tuple(sorted(sim.eng.batch_stats.items())), ms.fast_hits,
            ms.vec_batches, ms.vec_refs, ms.vec_fallbacks, ms.vec_rebuilds)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def traced_pass(r: Runner, seeds: list, seconds: float, lines: list) -> dict:
    """Tracing on: the per-layer metrics and the accelerator audit, on the
    seed's first input. Each round runs every audit arm untraced, then the
    default arm traced; host times are medians over the rounds."""
    seed = seeds[0]
    if r.reference(seed) is None:
        return {}
    tracer = LayerTracer()
    arm_s = {arm: [] for arm in ARMS}
    layer_s = []
    traced_s = []
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        for arm, knobs in ARMS.items():
            sim, stats, _s, run_s = r.simulate(seed, knobs)
            if not r.matches_reference(seed, sim, stats):
                return {}
            arm_s[arm].append(run_s)
            if arm == "default":
                untraced = _accel_counters(sim)
        with tracer:
            sim, stats, _s, run_s = r.simulate(seed, ARMS["default"], tracer)
        if not r.matches_reference(seed, sim, stats):
            return {}
        if _accel_counters(sim) != untraced:
            r.fail("traced run's accelerator counters differ from the "
                    "untraced run's")
            return {}
        traced_s.append(run_s)
        layer_s.append(dict(tracer.self_s))
    calls = tracer.calls
    eng = sim.eng
    ms = eng.memsys
    bs = eng.batch_stats

    def host_s(layer):
        return statistics.median(d.get(layer, 0.0) for d in layer_s)

    def ncalls(layer):
        return sum(v for k, v in calls.items()
                   if k.partition(":")[0] == layer)

    summary = ms.cache_summary()
    l1 = [sum(x) for x in zip(*summary["l1"].values())]
    l2 = [sum(x) for x in zip(*summary["l2"].values())]
    row = profile_row(r.workload, stats)
    default_s = statistics.median(arm_s["default"])
    traced_med = statistics.median(traced_s)
    m = {
        "core.engine.self_s": (host_s("core.engine"), "s"),
        "core.engine.refs_per_batch": (_ratio(bs["refs"], bs["batches"]),
                                       "refs"),
        "core.engine.horizon_cut_ratio": (
            _ratio(bs["cut_horizon"], bs["batches"]), "ratio"),
        "core.engine.la_windows": (bs["la_windows"], "count"),
        "core.communicator.host_s": (host_s("core.communicator"), "s"),
        "core.communicator.calls": (ncalls("core.communicator"), "count"),
        "core.scheduler.host_s": (host_s("core.scheduler"), "s"),
        "core.scheduler.tasks": (ncalls("core.scheduler"), "count"),
        "mem.hierarchy.host_s": (host_s("mem.hierarchy"), "s"),
        "mem.hierarchy.access_calls": (calls["mem.hierarchy:access"],
                                       "count"),
        "mem.hierarchy.fast_hit_ratio": (
            _ratio(ms.fast_hits, ms.fast_hits + ms.fast_fallbacks), "ratio"),
        "mem.vec.host_s": (host_s("mem.vec"), "s"),
        "mem.vec.refs_per_batch": (_ratio(ms.vec_refs, ms.vec_batches),
                                   "refs"),
        "mem.vec.fallback_ratio": (
            _ratio(ms.vec_fallbacks, ms.vec_batches + ms.vec_fallbacks),
            "ratio"),
        "mem.vec.rebuilds": (ms.vec_rebuilds, "count"),
        "mem.coherence.host_s": (host_s("mem.coherence"), "s"),
        "mem.coherence.misses": (calls["mem.coherence:read_miss"]
                                 + calls["mem.coherence:write_miss"],
                                 "count"),
        "checkpoint.micro.host_s": (host_s("checkpoint.micro"), "s"),
        "checkpoint.micro.windows": (bs["sp_windows"], "count"),
        "checkpoint.micro.commits": (bs["sp_commits"], "count"),
        "checkpoint.micro.rollbacks": (bs["sp_rollbacks"], "count"),
        "checkpoint.micro.commit_ratio": (
            _ratio(bs["sp_commits"], bs["sp_windows"]), "ratio"),
        "osim.host_s": (host_s("osim"), "s"),
        "osim.syscalls": (calls["osim:syscalls"], "count"),
        "osim.kernel_cycles": (stats.total_cpu().kernel, "cycles"),
        "devices.host_s": (host_s("devices"), "s"),
        "devices.interrupts": (sum(stats.interrupt_counts.values()),
                               "count"),
        "frontend.host_s": (host_s("frontend"), "s"),
        "sim.cycles": (stats.end_cycle, "cycles"),
        "sim.events": (eng.events_processed, "count"),
        "sim.l1_miss_rate": (_ratio(l1[1], l1[0] + l1[1]), "ratio"),
        "sim.l2_miss_rate": (_ratio(l2[1], l2[0] + l2[1]), "ratio"),
        "sim.os_share_pct": (row.os_pct, "%"),
        "sim.intr_share_pct": (row.interrupt_pct, "%"),
        "trace.run_s": (traced_med, "s"),
        "trace.overhead_ratio": (traced_med / default_s, "ratio"),
    }
    for arm, vals in arm_s.items():
        m[f"audit.{arm}.run_s"] = (statistics.median(vals), "s")
    m["audit.default_over_all_off"] = (
        default_s / statistics.median(arm_s["all_off"]), "ratio")
    last_total = sum(layer_s[-1].values())
    lines.append(f"rounds: {len(traced_s)}; the last traced run's layer self "
                 f"times sum to {last_total:.4f} s of its {traced_s[-1]:.4f}"
                 " s run_s")
    _share_lines(r.workload, [stats], lines)
    return m


def child_main() -> int:
    """``run.py --child``: one timed child (see ``timed_child``)."""
    signal.signal(signal.SIGALRM, _alarm)
    job = pickle.load(sys.stdin.buffer)
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the result
    out.write(pickle.dumps(timed_child(job)))
    out.flush()
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--child"]:
        return child_main()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    r = Runner(args.workload)
    seeds = input_seeds(args.workload, args.seed)
    lines = []
    run_pass = traced_pass if args.trace else timed_pass
    metrics = run_pass(r, seeds, args.seconds, lines)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} pass")
    for line in lines:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  failed/attempted: {r.failed}/{r.attempted}")
    for e in r.errors:
        print(f"  FAILED: {e}")
    print(json.dumps({
        "correct": r.failed == 0 and bool(metrics),
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
