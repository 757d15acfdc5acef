"""One repetition of one workload, in a fresh process.

``python3 perfbench/rep.py --workload NAME --seed N --mode untraced|traced``
regenerates the workload's figure once and prints one JSON object: host
timings, the simulated work done, peak memory, the correctness checks
and a digest of the simulated output per scheduler run.  ``--mode
traced`` installs the span wrappers of :mod:`spans` for the run and adds
the per-layer split.  ``run.py`` drives this; it is not meant to be run
by hand except to debug one repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import runner  # noqa: E402
from repro.experiments.runner import run_comparison  # noqa: E402
from repro.obs import trace_session  # noqa: E402
from repro.obs.audit import AuditConfig  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    AUDITED,
    SIZING_SEED,
    UNTRACED,
    WORKLOADS,
    Check,
    Setup,
)

#: Set-up is repeated after the measured figure until this much host
#: time has gone into it, so a set-up of a millisecond still gets a
#: steady median.
SETUP_BUDGET_S = 0.25
#: Scratch space for the audited session's artifacts, inside the checkout.
TMP_DIR = ROOT / ".perfbench_tmp"

clock = time.perf_counter


def output_digest(metrics: Any) -> str:
    """Hash of a run's dispatch log and per-tenant latency vectors."""
    h = hashlib.sha256()
    for r in metrics.dispatch_log:
        h.update(
            f"{r.thread_id},{r.tenant_id},{r.api},{r.cost!r},{r.start!r},"
            f"{r.end!r};".encode()
        )
    for tenant in sorted(metrics.latencies):
        h.update(tenant.encode())
        h.update(array("d", metrics.latencies[tenant]).tobytes())
    return h.hexdigest()[:16]


class RunProbe:
    """Once-per-run hooks on the harness: times every ``run_single`` and
    reads the run's server and sources after it returns, for sim_rps and
    the simulator invariants.  No per-event code is touched."""

    def __init__(self) -> None:
        self.runs: List[Dict[str, Any]] = []
        self.pass_name = UNTRACED
        self._attached: List[Any] = []

    @contextmanager
    def installed(self) -> Iterator["RunProbe"]:
        run_single, attach_specs = runner.run_single, runner.attach_specs

        def capture(server: Any, *args: Any, **kwargs: Any) -> Any:
            sources = attach_specs(server, *args, **kwargs)
            self._attached.append((server, sources))
            return sources

        def timed(name: str, specs: Any, config: Any, *args: Any, **kwargs: Any) -> Any:
            self._attached.clear()
            start = clock()
            metrics = run_single(name, specs, config, *args, **kwargs)
            host_s = clock() - start
            server, sources = self._attached[-1]
            scheduler = server.scheduler
            self.runs.append({
                "pass": self.pass_name,
                "scheduler": name,
                "host_s": host_s,
                "horizon": config.duration,
                "clock": server.sim.now,
                "submitted": sum(source.submitted for source in sources),
                "dispatched": scheduler.dispatched_count,
                "completed": server.completed_requests,
                "delivered": sum(
                    server.service_received(t) for t in scheduler.tenants()
                ),
                "capacity_x_duration": config.capacity * config.duration,
                "metrics": metrics,
            })
            self._attached.clear()
            return metrics

        runner.run_single, runner.attach_specs = timed, capture
        try:
            yield self
        finally:
            runner.run_single, runner.attach_specs = run_single, attach_specs


def invariant_checks(run: Dict[str, Any]) -> List[Check]:
    label = f"{run['pass']}/{run['scheduler']}"
    latencies = run["metrics"].latencies.values()
    low = min((min(v) for v in latencies if v), default=0.0)
    return [
        Check(f"invariant.horizon[{label}]", run["clock"] == run["horizon"],
              f"clock {run['clock']} vs horizon {run['horizon']}"),
        Check(f"invariant.completed<=dispatched<=submitted[{label}]",
              run["completed"] <= run["dispatched"] <= run["submitted"],
              f"{run['completed']} <= {run['dispatched']} <= {run['submitted']}"),
        Check(f"invariant.latency>=0[{label}]", low >= 0.0,
              f"min latency {low}"),
        Check(f"invariant.service<=capacity*duration[{label}]",
              run["delivered"] <= run["capacity_x_duration"] * (1 + 1e-9),
              f"{run['delivered']:.6g} <= {run['capacity_x_duration']:.6g}"),
    ]


def audit_outputs(directory: Path, session: Any) -> Dict[str, Any]:
    """Per-run artifact presence and bursty/lag flags of the audited pass."""
    exported: Dict[str, bool] = {}
    flags: Dict[str, Dict[str, List[str]]] = {}
    for run_name in session.runs:
        run_dir = directory / run_name
        exported[run_name] = all(
            (run_dir / f).is_file()
            for f in ("manifest.json", "events.jsonl", "audit_report.json")
        )
        report_path = run_dir / "audit_report.json"
        if report_path.is_file():
            monitors = json.loads(report_path.read_text())["monitors"]
            scheduler = run_name.rsplit("--", 1)[-1]
            flags[scheduler] = {
                "bursty": monitors["bursty"]["ever_tripped"],
                "lag": monitors["lag"]["ever_tripped"],
            }
    written = sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
    return {"exported": exported, "flags": flags, "bytes": written}


def _measure(workload: Any, seed: int, recorder: Optional[spans.SpanRecorder],
             probe: RunProbe, audit_dir: Path) -> Dict[str, Any]:
    """Regenerate the figure once: set-up, every pass, the reductions."""
    span = recorder.span if recorder is not None else (lambda layer: nullcontext())
    out: Dict[str, Any] = {"pass_s": {}, "session": None}
    results: Dict[str, Any] = {}
    start = clock()
    with span("workloads"):
        out["setup"] = workload.setup(seed)
    out["setup_s"] = clock() - start
    setup = out["setup"]
    for pass_name in workload.passes:
        probe.pass_name = pass_name
        session = (
            trace_session(audit_dir, audit=AuditConfig())
            if pass_name == AUDITED
            else nullcontext()
        )
        pass_start = clock()
        with session as active, span("harness"):
            results[pass_name] = run_comparison(
                setup.specs, setup.config, trace=setup.trace, jobs=1, cache=None
            )
        out["pass_s"][pass_name] = clock() - pass_start
        out["session"] = active or out["session"]
    reduce_start = clock()
    with span("collector"):
        out["reductions"] = workload.reduce(results[UNTRACED])
    out["reduce_s"] = clock() - reduce_start
    out["wall_s"] = clock() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_rep(name: str, seed: int, traced: bool) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    recorder = spans.SpanRecorder(clock) if traced else None
    probe = RunProbe()
    TMP_DIR.mkdir(exist_ok=True)
    audit_dir = Path(tempfile.mkdtemp(prefix="audit-", dir=TMP_DIR))
    try:
        with ExitStack() as stack:
            stack.enter_context(probe.installed())
            inst = (
                stack.enter_context(spans.instrumented(recorder))
                if recorder is not None
                else None
            )
            m = _measure(workload, seed, recorder, probe, audit_dir)
        setup, reductions = m["setup"], m["reductions"]
        layers = (
            layer_metrics(recorder, inst, setup, m["wall_s"], m["reduce_s"])
            if recorder is not None
            else None
        )
        checks = [c for run in probe.runs for c in invariant_checks(run)]
        findings = []
        for c in workload.shape(reductions):
            if seed == SIZING_SEED:
                checks.append(c)
            else:
                findings.append(
                    f"{c.name} {'holds' if c.ok else 'FAILS'} at seed {seed} "
                    f"({c.detail}); gated only at seed {SIZING_SEED}"
                )
        digests = {
            f"{run['pass']}/{run['scheduler']}": output_digest(run["metrics"])
            for run in probe.runs
        }
        if m["session"] is not None:
            audit = audit_outputs(audit_dir, m["session"])
            reductions["audit_flags"] = audit["flags"]
            checks += audited_checks(digests, audit, setup.config.schedulers)
            if layers is not None:
                layers["obs.bytes_written"] = audit["bytes"]
        setup_times = [m["setup_s"]]
        if recorder is None:
            more, same = repeat_setup(
                workload.setup, seed, setup, budget=SETUP_BUDGET_S - m["setup_s"]
            )
            setup_times += more
            checks.append(Check("setup.deterministic", same,
                                f"{len(setup_times)} set-ups of seed {seed}"))
        else:
            checks += span_checks(recorder, m["wall_s"])
    finally:
        shutil.rmtree(audit_dir, ignore_errors=True)
    paper = [r for r in probe.runs if r["scheduler"] == workload.paper_scheduler]
    return {
        "workload": name,
        "seed": seed,
        "mode": "untraced" if recorder is None else "traced",
        "wall_s": m["wall_s"],
        "setup_s": statistics.median(setup_times),
        "setup_samples": len(setup_times),
        "sim_rps": _rate(probe.runs),
        "sim_rps_2dfq": _rate(paper),
        "peak_rss_mb": m["peak_rss_mb"],
        "pass_s": m["pass_s"],
        "runs": [{k: v for k, v in r.items() if k != "metrics"} for r in probe.runs],
        "checks": [c.__dict__ for c in checks],
        "digests": digests,
        "reductions": reductions,
        "findings": workload.findings(reductions) + findings,
        "layers": layers,
    }


def _rate(runs: List[Dict[str, Any]]) -> float:
    """Simulated requests completed per host second of simulation."""
    return sum(r["completed"] for r in runs) / sum(r["host_s"] for r in runs)


def audited_checks(
    digests: Dict[str, str], audit: Dict[str, Any], schedulers: Tuple[str, ...]
) -> List[Check]:
    """obs is strictly additive, and every audited run exported its files."""
    checks = []
    for scheduler in schedulers:
        same = digests[f"{UNTRACED}/{scheduler}"] == digests[f"{AUDITED}/{scheduler}"]
        checks.append(Check(
            f"audited.dispatch_log_identical[{scheduler}]", same,
            "traced and untraced digests equal" if same else "digests differ",
        ))
    checks += [
        Check(f"audited.exported[{run}]", ok, "manifest, events, audit report")
        for run, ok in audit["exported"].items()
    ]
    checks.append(Check(
        "audited.one_run_dir_per_scheduler",
        len(audit["exported"]) == len(schedulers),
        f"{len(audit['exported'])} run dirs",
    ))
    return checks


def repeat_setup(
    build: Any, seed: int, first: Setup, budget: float
) -> Tuple[List[float], bool]:
    """Time further set-ups until ``budget`` seconds are spent; returns
    their times and whether each rebuilt the same inputs."""
    times: List[float] = []
    same = True
    while budget > 0:
        start = clock()
        again = build(seed)
        elapsed = clock() - start
        times.append(elapsed)
        budget -= elapsed
        same = same and again.trace == first.trace and [
            s.tenant_id for s in again.specs
        ] == [s.tenant_id for s in first.specs]
    return times, same


def layer_metrics(
    rec: spans.SpanRecorder,
    inst: Any,
    setup: Setup,
    wall_s: float,
    reduce_s: float,
) -> Dict[str, float]:
    c = rec.counts
    out: Dict[str, float] = {f"{layer}.self_s": rec.self_s[layer] for layer in spans.LAYERS}
    sims = inst.instances["simulations"]
    out["event_loop.events"] = sum(s.events_processed for s in sims)
    out["event_loop.purges"] = sum(s.event_purges for s in sims)
    out["sources.submits"] = c["sources.submits"]
    dispatches = c["server.dispatches"]
    out["server.dispatches"] = dispatches
    out["server.refresh_ticks"] = c["server.refresh_ticks"]
    out["server.busy_checks"] = c["server.busy_checks"]
    out["server.busy_checks_per_dispatch"] = c["server.busy_checks"] / max(1, dispatches)
    for call in ("enqueue", "dequeue", "dequeue_batch", "refresh", "complete"):
        out[f"scheduler.{call}_calls"] = c[f"scheduler.{call}_calls"]
    deq = sorted(rec.dequeue_s)
    out["scheduler.dequeue_us_p50"] = 1e6 * _quantile(deq, 0.50)
    out["scheduler.dequeue_us_p99"] = 1e6 * _quantile(deq, 0.99)
    out["scheduler.empty_dequeues"] = c["scheduler.empty_dequeues"]
    stats = [index.stats() for index in inst.instances["selection_indexes"]]
    out["scheduler.index_pushes"] = sum(s["pushes"] for s in stats)
    out["scheduler.index_stale_pops"] = sum(s["stale_pops"] for s in stats)
    out["scheduler.index_pushes_per_dispatch"] = out["scheduler.index_pushes"] / max(1, dispatches)
    out["estimator.estimate_calls"] = c["estimator.estimate_calls"]
    out["estimator.observe_calls"] = c["estimator.observe_calls"]
    out["gps.arrive_calls"] = c["gps.arrive_calls"]
    out["gps.advance_calls"] = c["gps.advance_calls"]
    out["gps.purges"] = sum(g.purges for g in inst.instances["gps_references"])
    out["gps.peak_heap"] = inst.gps_peak_heap
    out["collector.samples"] = c["collector.samples"]
    out["collector.reduce_s"] = reduce_s
    generated = c["workloads.records_generated"]
    kept = len(setup.trace or ())
    out["workloads.records_generated"] = generated
    out["workloads.records_kept"] = kept
    # Nothing generated means nothing thinned away.
    out["workloads.keep_ratio"] = kept / generated if generated else 1.0
    out["workloads.sampler_calls"] = c["workloads.sampler_calls"]
    out["obs.events"] = c["obs.events"]
    out["obs.export_s"] = rec.timers["obs.export_s"]
    out["obs.bytes_written"] = 0
    out["bench.unattributed_s"] = wall_s - sum(rec.self_s[layer] for layer in spans.LAYERS)
    return out


def span_checks(rec: spans.SpanRecorder, wall_s: float) -> List[Check]:
    total_self = sum(rec.self_s.values())
    unknown = sorted(set(rec.self_s) - set(spans.LAYERS))
    return [
        Check("spans.self_s_nonnegative",
              rec.negative_self == 0 and all(v >= 0 for v in rec.self_s.values()),
              f"{rec.negative_self} negative of {rec.spans} spans"),
        Check("spans.children_inside_parent", rec.escaped_children == 0,
              f"{rec.escaped_children} escaped"),
        Check("spans.all_closed", rec.open_spans == 0, f"{rec.open_spans} open"),
        Check("spans.known_layers", not unknown, f"unknown {unknown}"),
        Check("spans.self_sum_is_covered_time",
              abs(total_self - rec.covered_s) <= 1e-9 * max(1.0, wall_s),
              f"sum(self) {total_self:.9f} vs covered {rec.covered_s:.9f}"),
        Check("spans.covered_within_wall", rec.covered_s <= wall_s,
              f"covered {rec.covered_s:.6f} vs wall {wall_s:.6f}"),
    ]


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("untraced", "traced"), default="untraced")
    args = parser.parse_args(argv)
    print(json.dumps(run_rep(args.workload, args.seed, args.mode == "traced")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
