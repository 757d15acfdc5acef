"""Span-builder tests: exact wait decomposition and HoL attribution.

The acceptance property (ISSUE 7): for every completed request, the sum
of its attributed blocking intervals equals its queueing delay, and
wait + service equals latency -- across all 8 registered schedulers on
the same driven workload.
"""

import heapq
import json

import pytest

from repro.core import make_scheduler
from repro.core.request import Request
from repro.obs import Tracer, build_spans, spans_from_jsonl
from repro.obs.spans import SpanSet
from repro.simulator.rng import make_rng

#: Every virtual-time scheduler, across the three estimator families.
VT_SCHEDULERS = ("wfq", "sfq", "wf2q", "wf2q+", "msf2q", "2dfq", "2dfq-e", "wf2q-e")


def drive_scheduler(scheduler_name, num_threads=3, horizon=40.0, seed=0):
    """Closed-loop sequencer over a mixed-cost tenant population.

    Mirrors the golden-trace driver: threads pick up work the moment
    they free, every dispatched request is replaced so tenants stay
    backlogged, completions are delivered in time order.  Costs are
    drawn per-request from a seeded per-tenant range so ties and
    orderings vary across schedulers.
    """
    scheduler = make_scheduler(scheduler_name, num_threads=num_threads)
    tracer = Tracer(f"spans-{scheduler_name}")
    scheduler.attach_tracer(tracer)
    rng = make_rng(seed, "spans", scheduler_name)
    cost_ranges = {"A": (0.5, 1.5), "B": (3.0, 5.0), "C": (0.2, 0.6), "D": (1.0, 2.5)}

    def enqueue(tenant, now):
        low, high = cost_ranges[tenant]
        cost = float(rng.uniform(low, high))
        scheduler.enqueue(Request(tenant_id=tenant, cost=cost, api="op"), now)

    for tenant in sorted(cost_ranges):
        enqueue(tenant, 0.0)
    free_heap = [(0.0, t) for t in range(num_threads)]
    heapq.heapify(free_heap)
    completions = []
    while free_heap:
        now, thread_id = heapq.heappop(free_heap)
        if now >= horizon:
            continue
        while completions and completions[0][0] <= now:
            end, _, done = heapq.heappop(completions)
            scheduler.complete(done, done.cost, end)
        request = scheduler.dequeue(thread_id, now)
        end = now + request.cost
        enqueue(request.tenant_id, now)
        heapq.heappush(completions, (end, request.seqno, request))
        heapq.heappush(free_heap, (end, thread_id))
    return tracer


class TestWaitDecompositionProperty:
    @pytest.mark.parametrize("scheduler_name", VT_SCHEDULERS)
    def test_decomposition_is_exact(self, scheduler_name):
        tracer = drive_scheduler(scheduler_name)
        spans = build_spans(tracer.events)
        completed = spans.completed()
        assert len(completed) > 20, "driver must complete a real workload"
        waited = 0
        for span in completed:
            # latency == wait + service, exactly.
            assert span.latency == pytest.approx(
                span.wait + span.service, abs=1e-9
            )
            # wait == sum of attributed blocking intervals, exactly.
            attributed = sum(b.duration for b in span.blocking)
            assert attributed == pytest.approx(span.wait, abs=1e-9)
            if span.blocking:
                waited += 1
                # The partition telescopes: contiguous, ordered, and
                # clipped to [enqueue, dispatch).
                intervals = span.blocking
                dispatch_t = span.attempts[-1].dispatch_t
                assert intervals[0].start == pytest.approx(span.enqueue_t)
                assert intervals[-1].end == pytest.approx(dispatch_t)
                for left, right in zip(intervals, intervals[1:]):
                    assert left.end == pytest.approx(right.start)
        assert waited > 0, "workload must include actual queueing"

    def test_blockers_ran_on_the_victims_thread(self):
        tracer = drive_scheduler("wfq")
        spans = build_spans(tracer.events)
        by_seqno = spans.by_seqno
        for span in spans.completed():
            thread = span.attempts[-1].thread
            for interval in span.blocking:
                assert interval.thread == thread
                if interval.kind == "running":
                    blocker = by_seqno[interval.blocker_seqno]
                    assert interval.blocker_tenant == blocker.tenant


class TestHeadOfLineAttribution:
    def test_small_request_waits_behind_expensive_one(self):
        """The paper's headline scenario, reconstructed from events: on
        one WFQ thread, A's small request arrives while B's expensive
        request occupies the worker and is blamed for the whole wait."""
        scheduler = make_scheduler("wfq", num_threads=1)
        tracer = Tracer("hol")
        scheduler.attach_tracer(tracer)
        big = Request(tenant_id="B", cost=10.0, api="op")
        scheduler.enqueue(big, 0.0)
        served = scheduler.dequeue(0, 0.0)
        assert served is big
        small = Request(tenant_id="A", cost=1.0, api="op")
        scheduler.enqueue(small, 0.5)
        scheduler.complete(big, big.cost, 10.0)
        assert scheduler.dequeue(0, 10.0) is small
        scheduler.complete(small, small.cost, 11.0)

        spans = build_spans(tracer.events)
        small_span = spans.by_seqno[small.seqno]
        assert small_span.wait == pytest.approx(9.5)
        (interval,) = small_span.blocking
        assert interval.kind == "running"
        assert interval.blocker_tenant == "B"
        assert interval.blocker_seqno == big.seqno
        assert interval.duration == pytest.approx(9.5)
        assert small_span.blocked_by_tenant() == {"B": pytest.approx(9.5)}
        (row,) = spans.hol_report()
        assert row["tenant"] == "B"
        assert row["blocked_seconds"] == pytest.approx(9.5)
        assert row["victim_requests"] == 1

    def test_hol_report_ignores_self_blocking(self):
        events = [
            {"kind": "enqueue", "t": 0.0, "tenant": "A", "seqno": 0, "cost": 2.0, "api": "x"},
            {"kind": "enqueue", "t": 0.0, "tenant": "A", "seqno": 1, "cost": 2.0, "api": "x"},
            {"kind": "dispatch", "t": 0.0, "tenant": "A", "seqno": 0, "thread": 0},
            {"kind": "complete", "t": 2.0, "tenant": "A", "seqno": 0},
            {"kind": "dispatch", "t": 2.0, "tenant": "A", "seqno": 1, "thread": 0},
            {"kind": "complete", "t": 4.0, "tenant": "A", "seqno": 1},
        ]
        spans = build_spans(events)
        # Request 1 did wait behind request 0 (attribution is recorded)...
        assert spans.by_seqno[1].blocked_by_tenant() == {"A": pytest.approx(2.0)}
        # ...but a tenant queueing behind itself is not cross-tenant HoL.
        assert spans.hol_report() == []


class TestLifecycleEdges:
    def test_idle_gap_becomes_idle_interval(self):
        events = [
            {"kind": "enqueue", "t": 0.0, "tenant": "A", "seqno": 0, "cost": 1.0, "api": "x"},
            # Thread 0 sits idle until 3.0 (a stall window), then runs it.
            {"kind": "dispatch", "t": 3.0, "tenant": "A", "seqno": 0, "thread": 0},
            {"kind": "complete", "t": 4.0, "tenant": "A", "seqno": 0},
        ]
        span = build_spans(events).by_seqno[0]
        (interval,) = span.blocking
        assert interval.kind == "idle"
        assert interval.duration == pytest.approx(3.0)
        assert span.wait == pytest.approx(3.0)
        assert span.latency == pytest.approx(4.0)

    def test_cancelled_while_queued(self):
        events = [
            {"kind": "enqueue", "t": 0.0, "tenant": "A", "seqno": 0, "cost": 1.0, "api": "x"},
            {"kind": "cancel", "t": 2.5, "tenant": "A", "seqno": 0, "was_running": False},
        ]
        span = build_spans(events).by_seqno[0]
        assert span.outcome == "cancelled"
        assert span.latency is None
        assert span.wait == pytest.approx(2.5)
        assert span.service == 0.0

    def test_crash_redispatch_builds_two_attempts(self):
        events = [
            {"kind": "enqueue", "t": 0.0, "tenant": "A", "seqno": 0, "cost": 2.0, "api": "x"},
            {"kind": "dispatch", "t": 0.0, "tenant": "A", "seqno": 0, "thread": 0},
            # Worker crash: the running attempt is cancelled and the
            # request re-enqueued (same seqno).
            {"kind": "cancel", "t": 1.0, "tenant": "A", "seqno": 0, "was_running": True},
            {"kind": "enqueue", "t": 1.0, "tenant": "A", "seqno": 0, "cost": 2.0, "api": "x"},
            {"kind": "dispatch", "t": 1.5, "tenant": "A", "seqno": 0, "thread": 1},
            {"kind": "complete", "t": 3.5, "tenant": "A", "seqno": 0},
        ]
        spans = build_spans(events)
        assert len(spans) == 1
        span = spans.by_seqno[0]
        assert len(span.attempts) == 2
        assert span.outcome == "completed"
        # Lost work counts as service; wait spans both attempts.
        assert span.service == pytest.approx(1.0 + 2.0)
        assert span.wait == pytest.approx(0.0 + 0.5)
        assert spans.summary()["redispatched"] == 1

    def test_mid_stream_events_for_unknown_seqnos_are_ignored(self):
        events = [
            {"kind": "dispatch", "t": 1.0, "tenant": "A", "seqno": 9, "thread": 0},
            {"kind": "complete", "t": 2.0, "tenant": "A", "seqno": 9},
        ]
        assert len(build_spans(events)) == 0


class TestSpanSetSurface:
    def test_summary_and_dict_shapes(self):
        tracer = drive_scheduler("2dfq", horizon=15.0)
        spans = build_spans(tracer.events)
        summary = spans.summary()
        assert summary["requests"] == len(spans)
        assert summary["completed"] == len(spans.completed())
        assert summary["total_service"] > 0
        record = spans.completed()[0].as_dict()
        assert {"tenant", "seqno", "outcome", "wait", "service", "latency",
                "blocking"} <= set(record)
        json.dumps(record)  # JSON-ready end to end

    def test_spans_from_jsonl_round_trip(self, tmp_path):
        from repro.obs import write_events_jsonl

        tracer = drive_scheduler("wf2q", horizon=10.0)
        path = write_events_jsonl(tracer.events, tmp_path / "events.jsonl")
        direct = build_spans(tracer.events)
        loaded = spans_from_jsonl(path)
        assert isinstance(loaded, SpanSet)
        assert len(loaded) == len(direct)
        for a, b in zip(direct, loaded):
            assert a.seqno == b.seqno
            assert a.wait == pytest.approx(b.wait)
            assert len(a.blocking) == len(b.blocking)
