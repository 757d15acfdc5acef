"""End-to-end benchmark of the 2DFQ reproduction: figure-regeneration time
and simulated requests per host second on four paper workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig08-backlogged --seed 0 --seconds 20 --trace 0

Each repetition regenerates one workload's figure in a fresh process
(``rep.py``): set-up, every scheduler run through ``run_comparison``
(serial, no run cache), and the figure's reductions.  With ``--trace 0``
repetitions run back to back until ``--seconds`` have passed and the
end-to-end metrics are their medians.  With ``--trace 1`` one untraced
and one span-traced repetition run, and the per-layer split of the
traced one is reported.  Every repetition checks the simulator's
invariants and the workload's paper shape, and hashes each run's
dispatch log and latencies; the same seed must give the same hashes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Whole-invocation budget; a repetition still running at the deadline
#: is killed and counted as failed.
DEADLINE_S = 170.0

WORKLOAD_NAMES = (
    "fig08-backlogged",
    "production-replay",
    "unpredictable-estimated",
    "production-audited",
)

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_rps", "req/s"),
    ("sim_rps_2dfq", "req/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("event_loop.self_s", "s"),
    ("event_loop.events", "count"),
    ("event_loop.purges", "count"),
    ("sources.self_s", "s"),
    ("sources.submits", "count"),
    ("server.self_s", "s"),
    ("server.dispatches", "count"),
    ("server.refresh_ticks", "count"),
    ("server.busy_checks", "count"),
    ("server.busy_checks_per_dispatch", "ratio"),
    ("scheduler.self_s", "s"),
    ("scheduler.enqueue_calls", "count"),
    ("scheduler.dequeue_calls", "count"),
    ("scheduler.dequeue_batch_calls", "count"),
    ("scheduler.refresh_calls", "count"),
    ("scheduler.complete_calls", "count"),
    ("scheduler.dequeue_us_p50", "us"),
    ("scheduler.dequeue_us_p99", "us"),
    ("scheduler.empty_dequeues", "count"),
    ("scheduler.index_pushes", "count"),
    ("scheduler.index_stale_pops", "count"),
    ("scheduler.index_pushes_per_dispatch", "ratio"),
    ("estimator.self_s", "s"),
    ("estimator.estimate_calls", "count"),
    ("estimator.observe_calls", "count"),
    ("gps.self_s", "s"),
    ("gps.arrive_calls", "count"),
    ("gps.advance_calls", "count"),
    ("gps.purges", "count"),
    ("gps.peak_heap", "count"),
    ("collector.self_s", "s"),
    ("collector.samples", "count"),
    ("collector.reduce_s", "s"),
    ("workloads.self_s", "s"),
    ("workloads.records_generated", "count"),
    ("workloads.records_kept", "count"),
    ("workloads.keep_ratio", "ratio"),
    ("workloads.sampler_calls", "count"),
    ("obs.self_s", "s"),
    ("obs.events", "count"),
    ("obs.export_s", "s"),
    ("obs.bytes_written", "bytes"),
    ("obs.traced_slowdown", "x"),
    ("harness.self_s", "s"),
    ("bench.span_overhead", "x"),
    ("bench.unattributed_s", "s"),
)


class Tally:
    """Operations attempted and failed: one per scheduler run and one per
    correctness check; a repetition that dies counts as one failed run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}")

    def add_rep(self, rep: Dict[str, Any]) -> None:
        self.attempted += len(rep["runs"])
        for c in rep["checks"]:
            self.check(f"{rep['mode']} {c['name']}", c["ok"], c["detail"])


def run_rep(workload: str, seed: int, mode: str, deadline: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; raises on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        # A fixed string-hash layout keeps set and dict layouts, and with
        # them the host time, the same from one repetition to the next.
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(trace: int, seconds: float) -> Iterator[str]:
    """Modes of the repetitions to run: one untraced and one traced, or
    untraced ones until ``seconds`` have passed."""
    if trace:
        yield from ("untraced", "traced")
        return
    start = time.monotonic()
    yield "untraced"
    while time.monotonic() - start < seconds:
        yield "untraced"


def digest_checks(tally: Tally, reps: List[Dict[str, Any]], what: str) -> None:
    """Every repetition of one seed must simulate the same outputs."""
    first = reps[0]["digests"]
    for rep in reps[1:]:
        for key, digest in first.items():
            tally.check(f"{what}[{key}]", rep["digests"].get(key) == digest,
                        f"{digest} vs {rep['digests'].get(key)}")


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    return {name: statistics.median(r[name] for r in reps) for name, _ in END_TO_END}


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    layers = dict(traced["layers"])
    layers["bench.span_overhead"] = traced["wall_s"] / untraced["wall_s"]
    passes = untraced["pass_s"]
    # Traced / untraced pass time; 1.0 where the workload runs no obs pass.
    layers["obs.traced_slowdown"] = (
        passes["audited"] / passes["untraced"] if "audited" in passes else 1.0
    )
    return layers


def print_shares(workload: str, traced: Dict[str, Any]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import LAYERS
    from workloads import WORKLOADS

    predicted = WORKLOADS[workload].predicted_shares
    wall = traced["wall_s"]
    print(f"layer shares of the traced run ({wall:.3f} s):")
    print(f"  {'layer':<11} {'self_s':>9} {'measured':>9} {'predicted':>9}")
    for layer in LAYERS:
        own = traced["layers"][f"{layer}.self_s"]
        share = own / wall
        note = ""
        if layer in predicted:
            p = predicted[layer]
            miss = abs(share - p) > 0.10 or (p >= 0.05 and not 0.5 <= share / p <= 2.0)
            note = f" {p:>9.3f}" + ("  MISMATCH (recorded, not tuned)" if miss else "")
        print(f"  {layer:<11} {own:>9.4f} {share:>9.3f}{note}")


def report(reps: List[Dict[str, Any]], metrics: Dict[str, float],
           units: Dict[str, str], tally: Tally) -> None:
    last = reps[-1]
    print(f"workload {last['workload']}  seed {last['seed']}  "
          f"repetitions {len(reps)} ({', '.join(r['mode'] for r in reps)})")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    print("simulated output digests (dispatch log + latencies):")
    for key, digest in last["digests"].items():
        print(f"  {key:<30} {digest}")
    for run in last["runs"]:
        print(f"  run {run['pass']}/{run['scheduler']}: {run['host_s']:.3f} s, "
              f"{run['completed']} completed of {run['submitted']} submitted")
    for finding in last["findings"]:
        print(f"finding: {finding}")
    print(f"correctness: {tally.attempted - len(tally.failed)}/{tally.attempted} "
          f"operations passed, {len(tally.failed)} failed")
    for failure in tally.failed:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tally = Tally()
    reps: List[Dict[str, Any]] = []
    for mode in repetitions(args.trace, args.seconds):
        try:
            rep = run_rep(args.workload, args.seed, mode, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            tally.check(f"{mode} repetition", False, str(exc))
            break
        reps.append(rep)
        tally.add_rep(rep)

    metrics: Dict[str, float] = {}
    if args.trace:
        units = dict(PER_LAYER)
        if len(reps) == 2:
            untraced, traced = reps
            # Spans must not change what the simulator computes.
            digest_checks(tally, reps, "spans.additive")
            metrics = per_layer(untraced, traced)
            metrics = {name: metrics[name] for name, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
        if reps:
            digest_checks(tally, reps, "determinism.same_seed_same_output")
            metrics = end_to_end(reps)
    if reps:
        report(reps, metrics, units, tally)
        if args.trace and len(reps) == 2:
            print_shares(args.workload, reps[1])
    else:
        for failure in tally.failed:
            print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
