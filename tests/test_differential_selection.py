"""Differential tests: indexed selection == linear-scan selection.

Every policy that ships a selection index (repro.core.selection) must be
*dispatch-for-dispatch identical* to its reference linear scans -- same
tenants, same order, under every estimator family.  The reference is
``make_linear_reference``: the same class with ``_index_spec`` returning
``None``, the route external subclasses take.  These tests run the two
side by side:

* on seeded Azure-like workloads through the real simulator (server,
  refresh charging, open-loop arrival traces), also under estimator
  outage and bias windows;
* on seeded random workloads (random weights, arrival times, APIs and
  costs) through a direct scheduler driver with interleaved refreshes --
  a property-style loop over seeds, backlog sizes and pool shapes.

2DFQ and 2DFQ^E ship the linear scan only; they are pinned to build no
index and run through the same drivers as a consistency check.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core import make_linear_reference, make_scheduler
from repro.core.request import Request
from repro.faults import EstimatorFault, FaultInjector, FaultPlan
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.workloads.azure import random_tenants
from repro.workloads.build import attach_specs

#: Every virtual-time scheduler, covering all three estimator families:
#: oracle (plain names), pessimistic (2dfq-e), and EMA (wf2q-e).
ALL_EIGHT = ["wfq", "sfq", "wf2q", "wf2q+", "msf2q", "2dfq", "2dfq-e", "wf2q-e"]

#: Every policy that ships a selection index, plus its EMA-estimated
#: ``-e`` variant where the registry has one.
INDEXED = [
    "wfq", "wfq-e", "sfq", "sfq-e", "wf2q", "wf2q-e", "wf2q+", "msf2q", "msf2q-e",
]


def shipped_and_reference(name, num_threads, thread_rate=10.0):
    """The registered scheduler and its linear-scan reference."""
    return (
        make_scheduler(name, num_threads=num_threads, thread_rate=thread_rate),
        make_linear_reference(name, num_threads, thread_rate),
    )


# ---------------------------------------------------------------------------
# Direct driver: deterministic quantized event loop with refresh charging
# ---------------------------------------------------------------------------


def drive_trace(scheduler, requests, num_threads, rate=10.0, refresh_every=3):
    """Run a list of timed requests to completion, returning the dispatch
    order as trace indices.  Completions are reported in (end-time,
    seqno) order; every ``refresh_every`` steps the running requests
    report interim usage, exercising refresh charging."""
    arrivals = deque(requests)
    busy = {}  # thread -> [end, last_report, request]
    order = []
    index_of = {id(request): i for i, (_, request) in enumerate(requests)}
    now, step, steps = 0.0, 0.05, 0
    while arrivals or scheduler.backlog > 0 or busy:
        done = sorted(
            (entry[0], entry[2].seqno, thread)
            for thread, entry in busy.items()
            if entry[0] <= now
        )
        for end, _, thread in done:
            request = busy.pop(thread)[2]
            scheduler.complete(request, (end - now) * rate + 0.0, end)
        while arrivals and arrivals[0][0] <= now:
            _, request = arrivals.popleft()
            scheduler.enqueue(request, now)
        if steps % refresh_every == 0:
            for thread in sorted(busy):
                entry = busy[thread]
                usage = (now - entry[1]) * rate
                if usage > 0.0:
                    scheduler.refresh(entry[2], usage, now)
                    entry[1] = now
        for thread in range(num_threads):
            if thread not in busy and scheduler.backlog > 0:
                request = scheduler.dequeue(thread, now)
                busy[thread] = [now + request.cost / rate, now, request]
                order.append(index_of[id(request)])
        now += step
        steps += 1
        assert steps < 500_000, "driver failed to converge"
    return order


def random_timed_requests(seed, num_tenants=6, count=150, gap=0.08):
    """Seeded (arrival_time, Request) list with random weights, APIs,
    costs, and bursty arrival times."""
    rng = make_rng(seed, "differential")
    weights = {
        f"T{i}": float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        for i in range(num_tenants)
    }
    requests = []
    now = 0.0
    for _ in range(count):
        now += float(rng.exponential(gap))
        tenant = f"T{int(rng.integers(num_tenants))}"
        requests.append(
            (
                now,
                Request(
                    tenant_id=tenant,
                    cost=float(10.0 ** rng.uniform(-0.5, 2.0)),
                    api=str(rng.choice(["A", "B", "G"])),
                    weight=weights[tenant],
                ),
            )
        )
    return requests


def rebuild(requests):
    """Fresh Request objects for the second run (requests are mutated
    in place by the scheduler, and seqnos must be re-issued in the same
    relative order)."""
    return [
        (
            t,
            Request(
                tenant_id=r.tenant_id, cost=r.cost, api=r.api, weight=r.weight
            ),
        )
        for t, r in requests
    ]


class TestDifferentialDirect:
    @pytest.mark.parametrize("name", ALL_EIGHT)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_indexed_matches_linear_scan(self, name, seed):
        trace = random_timed_requests(seed)
        shipped, linear = shipped_and_reference(name, num_threads=3)
        assert linear.selection_index is None
        order_shipped = drive_trace(shipped, rebuild(trace), num_threads=3)
        order_linear = drive_trace(linear, rebuild(trace), num_threads=3)
        assert order_linear == order_shipped
        assert len(order_linear) == len(trace)

    @pytest.mark.parametrize("num_threads", [1, 3, 16])
    @pytest.mark.parametrize("num_tenants", [2, 10, 100])
    @pytest.mark.parametrize("name", INDEXED)
    def test_indexed_matches_linear_across_backlogs(
        self, name, num_tenants, num_threads
    ):
        """Small backlogs included: every indexed policy runs its index
        at any backlog size, so N = 2 and 10 are as load-bearing as the
        large cells."""
        # Arrivals outpace the pool, so every tenant ends up backlogged.
        trace = random_timed_requests(
            num_tenants + num_threads,
            num_tenants=num_tenants,
            count=max(60, 4 * num_tenants),
            gap=0.5 / num_threads,
        )
        shipped, linear = shipped_and_reference(name, num_threads)
        assert shipped.selection_index is not None
        order_shipped = drive_trace(shipped, rebuild(trace), num_threads=num_threads)
        order_linear = drive_trace(linear, rebuild(trace), num_threads=num_threads)
        assert order_linear == order_shipped
        assert len(order_linear) == len(trace)

    @pytest.mark.parametrize("name", ["2dfq", "wf2q", "sfq-e", "msf2q-e"])
    def test_single_thread_and_many_threads(self, name):
        """Edge pool shapes: one thread (stagger degenerate) and more
        threads than tenants."""
        for num_threads in (1, 8):
            trace = random_timed_requests(11, num_tenants=4, count=80)
            runs = [
                drive_trace(s, rebuild(trace), num_threads=num_threads)
                for s in shipped_and_reference(name, num_threads)
            ]
            assert runs[0] == runs[1]


def run_azure(scheduler_name, linear, seed, plan=None):
    """Seeded Azure-like open-loop run through the real simulator (4
    threads, refresh charging on), optionally under a fault plan.
    Returns the dispatch sequence and the scheduler."""
    sim = Simulation()
    num_threads, rate = 4, 2.0e5
    build = make_linear_reference if linear else make_scheduler
    scheduler = build(scheduler_name, num_threads, rate)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=num_threads, rate=rate, refresh_interval=0.01
    )
    if plan is not None:
        injector = FaultInjector(server, plan)
        injector.install()
        injector.wire_estimator(scheduler)
    dispatches = []
    server.on_dispatch(
        lambda r: dispatches.append(
            (r.tenant_id, r.api, r.cost, r.arrival_time, r.thread_id)
        )
    )
    specs = random_tenants(6, seed=seed)
    attach_specs(server, specs, seed=seed, duration=4.0)
    sim.run(until=4.0)
    return dispatches, scheduler


class TestDifferentialAzureSimulator:
    """Side-by-side runs through the real simulator on seeded Azure-like
    open-loop workloads (refresh charging on, trace arrivals)."""

    @pytest.mark.parametrize(
        "name", ["wf2q", "wfq", "wf2q-e", "sfq", "msf2q", "wf2q+"]
    )
    def test_identical_dispatch_sequences(self, name):
        linear = run_azure(name, linear=True, seed=42)[0]
        indexed = run_azure(name, linear=False, seed=42)[0]
        assert len(linear) > 100, "workload too small to be meaningful"
        assert linear == indexed

    @pytest.mark.parametrize("name", ["wfq-e", "wf2q-e"])
    def test_identical_under_estimator_faults(self, name):
        """An outage and a bias window swap every head estimate at once;
        the index re-snapshots through ``set_estimator`` and
        ``reindex_backlogged`` and must still match the linear scans."""
        plan = FaultPlan(
            estimator_faults=(
                EstimatorFault(start=1.0, end=2.0, mode="outage"),
                EstimatorFault(start=2.5, end=3.5, mode="bias", bias=3.0),
            )
        )
        linear = run_azure(name, linear=True, seed=42, plan=plan)[0]
        indexed = run_azure(name, linear=False, seed=42, plan=plan)[0]
        assert linear != run_azure(name, linear=True, seed=42)[0]
        assert linear == indexed


class TestIndexMechanics:
    def test_heap_sizes_stay_bounded(self):
        """Lazy invalidation must not leak: after many dispatch cycles
        the heaps stay O(backlogged tenants), not O(total dispatches)."""
        s = make_scheduler("wf2q", num_threads=4, thread_rate=1.0)
        num_tenants = 50
        for i in range(num_tenants):
            for _ in range(2):
                s.enqueue(Request(tenant_id=f"t{i}", cost=1.0), 0.0)
        now = 0.0
        for i in range(5000):
            now += 1e-3
            out = s.dequeue(i % 4, now)
            s.complete(out, out.cost, now)
            s.enqueue(Request(tenant_id=out.tenant_id, cost=1.0), now)
        sizes = s.selection_index.heap_sizes()
        for heap_name, size in sizes.items():
            assert size <= 8 * num_tenants + 256, (heap_name, sizes)

    def test_one_push_per_touch_into_wfq_heap(self):
        """WFQ keeps one heap, and every touch pushes into it at once."""
        dispatches, scheduler = run_azure("wfq", linear=False, seed=42)
        assert len(dispatches) > 100
        stats = scheduler.selection_index.stats()
        assert stats["touches"] > 0
        assert stats["pushes"] == stats["touches"]
        assert stats["stale_pops"] <= stats["pushes"]

    def test_linear_only_subclass_still_works(self):
        """External subclasses that only override _select get the linear
        path -- no index is built, and behaviour is unchanged."""
        from repro.core import TenantState, VirtualTimeScheduler

        class MySched(VirtualTimeScheduler):
            name = "my-sched"

            def _select(self, thread_id, vnow):
                return self._min_finish(self._backlogged.values())

        s = MySched(num_threads=1)
        assert s.selection_index is None
        s.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        s.enqueue(Request(tenant_id="B", cost=2.0), 0.0)
        assert s.dequeue(0, 0.0).tenant_id == "A"
        assert s.dequeue(0, 0.0).tenant_id == "B"

    def test_index_built_at_construction(self):
        """One selection path per policy: the indexed policies build
        their index up front, 2DFQ and 2DFQ^E never build one."""
        for name in INDEXED:
            assert make_scheduler(name, num_threads=2).selection_index is not None
        for name in ("2dfq", "2dfq-e"):
            assert make_scheduler(name, num_threads=2).selection_index is None
