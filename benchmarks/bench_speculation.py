"""Optimistic speculation speedup — Time Warp windows past the rival horizon.

``SimConfig.speculate`` lets the batched hot loop run *past* the
conservative rival horizon behind a micro-checkpoint, validating after
the fact and rolling back the (rare) violations. Unlike the conservative
lookahead scan it does not pay a per-reference invisibility proof on the
hot path — the window runs first and one memoized frontier walk settles
it afterwards. Bit-identity with the strict schedule is pinned by
tests/test_speculation_equivalence.py; this bench measures what the
optimism buys on the configuration both layers target: a 4-CPU run where
every CPU streams over a private, L1-resident buffer, so the strict
path's tiny alternating batch windows are pure scheduling overhead.

Writes ``BENCH_speculation.json`` at the repo root with wall-clock
seconds and speedups for the three arms (strict serial interleaving,
conservative lookahead, optimistic speculation) and the speculation
arm's commit/rollback counts. Asserts speculation is at least 3x faster than the strict interleaving (1.5x under
``COMPASS_BENCH_QUICK=1``) and no slower than the lookahead arm.

Also runs standalone for CI::

    python benchmarks/bench_speculation.py --smoke

Smoke mode does a single small round, hard-fails if any arm is not
bit-identical or if speculation falls measurably behind lookahead, and
does not overwrite the JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Engine, complex_backend                     # noqa: E402
from repro.core.frontend import SimProcess                    # noqa: E402
from repro.harness import render_table                        # noqa: E402

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))
NCPUS = 4
NBYTES = 8192           # per-CPU buffer: L1-resident, so warm passes stay hits
PASSES = 40 if QUICK else 150
MIN_SPEEDUP = 1.5 if QUICK else 3.0
#: host noise guard for the "no slower than lookahead" gate
LA_TOLERANCE = 0.90
OUT_PATH = REPO_ROOT / "BENCH_speculation.json"

ARMS = {
    "serial":    dict(speculate=False, lookahead=False),
    "lookahead": dict(speculate=False, lookahead=True),
    "speculate": dict(speculate=True),
}

def _run_once(cfg_kw, passes=PASSES):
    """One 4-CPU private-heavy run; returns (host seconds, engine, stats).
    """
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=NCPUS, coherence="mesi",
                                 num_nodes=1, **cfg_kw))

    def make_private(base):
        def app(p):
            yield from p.touch(base, NBYTES, write=True, stride=32)
            for _ in range(passes):
                yield from p.touch(base, NBYTES, write=True, stride=32)
            yield from p.exit(0)
        return app

    for c in range(NCPUS):
        eng.spawn(f"w{c}", make_private(0x1_0000 + c * 0x10_000))
    t0 = time.perf_counter()
    stats = eng.run()
    return time.perf_counter() - t0, eng, stats


def _fingerprint(eng, stats):
    return (stats.end_cycle, eng.events_processed,
            tuple(sorted(eng.memsys.cache_summary()["l1"].items())),
            dict(eng.memsys.cache_summary()["protocol"]))


def _measure(rounds, passes=PASSES):
    """Interleaved best-of-N for each arm so a host hiccup in any arm
    cannot fake (or hide) a speedup. Returns {arm: (secs, eng, stats)}."""
    best = {}
    for _ in range(rounds):
        for name, kw in ARMS.items():
            secs, eng, stats = _run_once(kw, passes)
            prev = best.get(name)
            if prev is None or secs < prev[0]:
                best[name] = (secs, eng, stats)
    return best


def _report(best, write=True):
    fps = {name: _fingerprint(eng, stats)
           for name, (_, eng, stats) in best.items()}
    ref = fps["serial"]
    bit_identical = all(fp == ref for fp in fps.values())
    assert bit_identical, \
        "speculation changed the simulation:\n" + \
        "\n".join(f"  {n}: {fp}" for n, fp in fps.items())

    serial_s = best["serial"][0]
    speedups = {n: serial_s / s for n, (s, _, _) in best.items()}
    bs = best["speculate"][1].batch_stats
    settled = bs["sp_commits"] + bs["sp_rollbacks"]
    rollback_rate = bs["sp_rollbacks"] / settled if settled else 0.0

    print(render_table(
        ("configuration", "host seconds", "events/s", "speedup"),
        [(n, f"{s:.3f}", f"{eng.events_processed / s:,.0f}",
          f"{speedups[n]:.2f}x")
         for n, (s, eng, _) in best.items()],
        title="\nOptimistic-speculation speedup (4-CPU private-heavy):"))
    print(f"  windows: {bs['sp_windows']}   commits: {bs['sp_commits']}   "
          f"rollbacks: {bs['sp_rollbacks']}   "
          f"rollback rate: {rollback_rate:.1%}   "
          f"speculated refs: {bs['sp_refs']}")

    payload = {
        "workload": f"private_heavy {NCPUS}cpu {NBYTES}B x{PASSES}",
        "quick": QUICK,
        "bit_identical": bit_identical,
        "end_cycle": best["speculate"][2].end_cycle,
        "events": best["speculate"][1].events_processed,
        "seconds": {n: s for n, (s, _, _) in best.items()},
        "speedup": speedups["speculate"],
        "speedup_lookahead": speedups["lookahead"],
        "sp_windows": bs["sp_windows"],
        "sp_commits": bs["sp_commits"],
        "sp_rollbacks": bs["sp_rollbacks"],
        "rollback_rate": rollback_rate,
        "sp_refs": bs["sp_refs"],
    }
    if write:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return speedups, payload


def test_speculation_speedup(benchmark):
    best = benchmark.pedantic(
        lambda: _measure(2 if QUICK else 3), rounds=1, iterations=1)
    speedups, payload = _report(best)
    benchmark.extra_info.update(speedup=speedups["speculate"],
                                rollback_rate=payload["rollback_rate"])
    assert speedups["speculate"] >= MIN_SPEEDUP, \
        f"speculation must be >= {MIN_SPEEDUP}x over serial " \
        f"(got {speedups['speculate']:.2f}x)"
    assert speedups["speculate"] >= speedups["lookahead"] * LA_TOLERANCE, \
        f"speculation fell behind lookahead: " \
        f"{speedups['speculate']:.2f}x vs {speedups['lookahead']:.2f}x"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="single small round: verify bit-identity across "
                         "all three arms, report the speedups, skip the "
                         "JSON artifact")
    args = ap.parse_args(argv)
    if args.smoke:
        # best-of-2 at 40 passes: a single 20-pass round is dominated by
        # fixed per-window setup and too noisy for the relative gate
        best = _measure(rounds=2, passes=40)
        speedups, _ = _report(best, write=False)
        # smoke gates correctness (the _report identity assert) plus the
        # relative gate — speculation must not fall measurably behind the
        # conservative scan it replaces; the absolute floor needs the
        # full-size run (fixed setup costs dominate a tiny one)
        if speedups["speculate"] < speedups["lookahead"] * LA_TOLERANCE:
            print(f"FAIL: speculation {speedups['speculate']:.2f}x fell "
                  f"behind lookahead {speedups['lookahead']:.2f}x",
                  file=sys.stderr)
            return 1
        print(f"smoke ok: bit-identical, speculate "
              f"{speedups['speculate']:.2f}x vs lookahead "
              f"{speedups['lookahead']:.2f}x")
        return 0
    best = _measure(rounds=3)
    speedups, _ = _report(best)
    if speedups["speculate"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedups['speculate']:.2f}x < "
              f"{MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    if speedups["speculate"] < speedups["lookahead"] * LA_TOLERANCE:
        print(f"FAIL: speculation fell behind lookahead", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
