"""Tests of the benchmark's own span accounting.

    python3 -m pytest perfbench/test_spans.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, rotate  # noqa: E402


class StepClock:
    """Advances by one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_times_telescope_to_covered_time():
    rec = spans.SpanRecorder(StepClock())
    leaf = rec.wrap(lambda: None, "gps")
    inner = rec.wrap(lambda: leaf(), "scheduler")
    outer = rec.wrap(lambda: (inner(), inner()), "server")
    with rec.span("harness"):
        outer()
    assert rec.open_spans == 0
    assert rec.negative_self == 0 and rec.escaped_children == 0
    assert all(v >= 0 for v in rec.self_s.values())
    assert sum(rec.self_s.values()) == pytest.approx(rec.covered_s)
    assert rec.span_s["harness"] == rec.covered_s
    assert rec.span_s["server"] < rec.span_s["harness"]
    assert rec.span_s["scheduler"] < rec.span_s["server"]


def test_exact_self_times_with_a_step_clock():
    rec = spans.SpanRecorder(StepClock())
    child = rec.wrap(lambda: None, "gps")
    with rec.span("collector"):  # reads 1 ... 4
        child()                  # reads 2, 3
    assert rec.span_s == {"gps": 1.0, "collector": 3.0}
    assert rec.self_s == {"gps": 1.0, "collector": 2.0}
    assert rec.covered_s == 3.0


def test_same_layer_calls_open_no_span_and_count_once_through_super():
    rec = spans.SpanRecorder(StepClock())
    base = rec.wrap(lambda: "base", "scheduler", count="scheduler.complete_calls")
    derived = rec.wrap(lambda: base(), "scheduler", count="scheduler.complete_calls")
    other = rec.wrap(lambda: base(), "scheduler", count="scheduler.refresh_calls")
    derived()
    other()
    assert rec.counts["scheduler.complete_calls"] == 2  # derived once, base via other
    assert rec.counts["scheduler.refresh_calls"] == 1
    assert rec.spans == 2


def test_accounting_violations_are_detected():
    readings = iter([10.0, 5.0])  # a child that ends before it starts
    rec = spans.SpanRecorder(lambda: next(readings))
    with rec.span("server"):
        pass
    assert rec.negative_self == 1 and rec.escaped_children == 1


def test_exceptions_close_their_spans():
    rec = spans.SpanRecorder(StepClock())

    def boom():
        raise ValueError("x")

    wrapped = rec.wrap(boom, "server")
    with pytest.raises(ValueError):
        wrapped()
    assert rec.open_spans == 0 and rec.self_s["server"] == 1.0


def test_rotation_keeps_the_work_and_seed_zero_is_identity():
    setup = WORKLOADS["production-audited"].setup(0)
    trace, horizon = setup.trace, setup.config.duration
    assert rotate(trace, 0, horizon) is trace
    rotated = WORKLOADS["production-audited"].setup(3).trace
    assert rotated != trace and len(rotated) == len(trace)
    assert sorted((r.tenant, r.api, r.cost) for r in rotated) == sorted(
        (r.tenant, r.api, r.cost) for r in trace
    )
    assert all(0.0 <= r.time < horizon for r in rotated)
    assert rotated == sorted(rotated, key=lambda r: (r.time, r.tenant))


def _small_comparison(traced: bool):
    """A 0.3 s, 20-tenant Figure 8 comparison, optionally span-traced."""
    from repro.experiments.expensive_requests import expensive_requests_config
    from repro.experiments.runner import run_comparison
    from repro.workloads.synthetic import expensive_requests_population

    specs = expensive_requests_population(num_small=10, total=20)
    config = expensive_requests_config(duration=0.3, num_threads=4)
    rec = spans.SpanRecorder()
    if not traced:
        result = run_comparison(specs, config, jobs=1, cache=None)
        return result, rec, None
    with spans.instrumented(rec) as inst, rec.span("harness"):
        result = run_comparison(specs, config, jobs=1, cache=None)
    return result, rec, inst


def test_spans_are_additive_repeatable_and_removed_afterwards():
    from repro.simulator.clock import Simulation
    from repro.simulator.server import Worker

    original_run, original_busy = Simulation.run, Worker.__dict__["busy"]
    plain, _, _ = _small_comparison(traced=False)
    first, rec1, inst1 = _small_comparison(traced=True)
    second, rec2, _ = _small_comparison(traced=True)
    assert Simulation.run is original_run and Worker.__dict__["busy"] is original_busy
    for name in plain.runs:
        assert rep.output_digest(first[name]) == rep.output_digest(plain[name])
        assert rep.output_digest(second[name]) == rep.output_digest(plain[name])
    assert rec1.counts == rec2.counts
    assert rec1.counts["server.dispatches"] > 0
    assert rec1.counts["scheduler.dequeue_calls"] > 0
    assert rec1.counts["server.busy_checks"] > 0
    assert len(inst1.instances["simulations"]) == len(plain.runs)
    assert rec1.negative_self == 0 and rec1.escaped_children == 0
    assert set(rec1.self_s) <= set(spans.LAYERS)
    assert {"event_loop", "server", "scheduler", "collector"} <= set(rec1.self_s)
    assert sum(rec1.self_s.values()) == pytest.approx(rec1.covered_s, rel=1e-9)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    layers = {name.split(".")[0] for name, _ in run.PER_LAYER} - {"bench"}
    assert layers == set(spans.LAYERS)
