"""Selection-index speedup, measured end to end through the simulator.

Not a paper figure -- this benchmark holds the O(log N) selection index
of the WFQ-family baselines (``repro.core.selection``) to its bars.
Each run is the shape of a figure run: ``Simulation`` +
``ThreadPoolServer`` + ``attach_specs``, on Figure 8c's n = 0 point
scaled to 1000 tenants (every tenant small and backlogged, 16 threads
at 1000 units/s, seed 0).  Every indexed policy runs as shipped and on
its reference linear scans (``make_linear_reference``) in interleaved
pairs, with the cyclic GC quiesced around each timed ``sim.run``.

Acceptance bars:

* the shipped and reference dispatch sequences are identical (the
  tier-1 differential tests stop at 100 tenants; this is N = 1000);
* the median paired indexed/linear wall-clock ratio is >= 7x for every
  policy and >= 2x for WF2Q, the paper's closest baseline;
* index churn is conserved and live: ``0 < pushes`` and
  ``stale_pops <= pushes`` on every indexed run, and lazy invalidation
  actually discards entries (``stale_pops > 0``) on at least one.

The table lands in ``benchmarks/results/`` and the numbers in the
``selection_index`` section of ``BENCH_manifest.json``.
"""

import gc
import statistics

from repro.core import make_linear_reference, make_scheduler
from repro.obs import Timer
from repro.simulator.clock import Simulation
from repro.simulator.server import ThreadPoolServer
from repro.workloads.build import attach_specs
from repro.workloads.synthetic import expensive_requests_population

from conftest import emit, merge_bench_manifest, once

#: Every policy that ships a selection index (plus the EMA-estimated
#: WF2Q of §6.2); 2DFQ ships the linear scan only.
POLICIES = ("wfq", "sfq", "wf2q", "wf2q+", "msf2q", "wf2q-e")
TENANTS = 1000
THREADS = 16
RATE = 1000.0
DURATION = 0.2
SEED = 0
PAIRS = 3

MIN_SPEEDUP = 7.0
MIN_WF2Q_SPEEDUP = 2.0


def _timed_run(name, linear):
    """One run; returns (seconds in ``sim.run``, dispatches, scheduler)."""
    build = make_linear_reference if linear else make_scheduler
    scheduler = build(name, THREADS, RATE)
    sim = Simulation()
    server = ThreadPoolServer(
        sim, scheduler, num_threads=THREADS, rate=RATE, refresh_interval=None
    )
    dispatches = []
    server.on_dispatch(
        lambda r: dispatches.append((r.tenant_id, r.cost, r.thread_id))
    )
    specs = expensive_requests_population(num_small=TENANTS, total=TENANTS)
    attach_specs(server, specs, seed=SEED, duration=DURATION)
    timer = Timer(f"selection-index.{name}")
    gc.collect()
    gc.disable()
    try:
        with timer:
            sim.run(until=DURATION)
    finally:
        gc.enable()
    return timer.last, dispatches, scheduler


def _measure(name):
    """Interleaved shipped/reference pairs of one policy, checked for
    identical dispatches and conserved index churn on every pair."""
    ratios, indexed_s, linear_s = [], [], []
    for _ in range(PAIRS):
        fast, shipped, scheduler = _timed_run(name, linear=False)
        slow, linear, _ = _timed_run(name, linear=True)
        stats = scheduler.selection_index.stats()
        assert shipped == linear, f"{name}: indexed dispatches diverge from linear"
        assert 0 < stats["pushes"], f"{name}: index churn counters dead: {stats}"
        assert stats["stale_pops"] <= stats["pushes"], f"{name}: {stats}"
        ratios.append(slow / fast)
        indexed_s.append(fast)
        linear_s.append(slow)
    return {
        "dispatches": len(shipped),
        "indexed_s": round(statistics.median(indexed_s), 4),
        "linear_s": round(statistics.median(linear_s), 4),
        "speedup": round(statistics.median(ratios), 2),
        "ratios": [round(r, 2) for r in ratios],
        "index_stats": stats,
    }


def _format(rows):
    lines = [
        f"{'scheduler':<8} {'dispatches':>10} {'linear s':>9} "
        f"{'indexed s':>10} {'speedup':>8} {'pushes':>7} {'stale pops':>11}"
    ]
    for name, row in rows.items():
        stats = row["index_stats"]
        lines.append(
            f"{name:<8} {row['dispatches']:>10} {row['linear_s']:>9.3f} "
            f"{row['indexed_s']:>10.4f} {row['speedup']:>7.2f}x "
            f"{stats['pushes']:>7} {stats['stale_pops']:>11}"
        )
    return "\n".join(lines)


def test_bench_selection_index(benchmark, capsys):
    rows = once(benchmark, lambda: {name: _measure(name) for name in POLICIES})
    emit(
        capsys,
        "BENCH: selection index vs linear scan at 1000 tenants",
        _format(rows)
        + f"\n\nspeedup = median of {PAIRS} interleaved paired linear/indexed "
        f"sim.run wall-clock ratios; {THREADS} threads at {RATE:g} units/s, "
        f"{DURATION:g} s simulated, seed {SEED}",
    )
    merge_bench_manifest(
        selection_index={
            "workload": {
                "population": f"expensive_requests_population("
                f"num_small={TENANTS}, total={TENANTS})",
                "threads": THREADS,
                "rate": RATE,
                "duration": DURATION,
                "seed": SEED,
                "pairs": PAIRS,
            },
            "results": rows,
        }
    )
    for name, row in rows.items():
        assert row["dispatches"] > 0, f"{name} dispatched nothing"
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name} index below {MIN_SPEEDUP}x linear: {row}"
        )
    assert rows["wf2q"]["speedup"] >= MIN_WF2Q_SPEEDUP, rows["wf2q"]
    assert any(
        row["index_stats"]["stale_pops"] > 0 for row in rows.values()
    ), "no run discarded a stale index entry"
