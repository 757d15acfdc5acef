"""Unit tests for the thread-pool server."""

import pytest

from repro.core import FIFOScheduler, make_scheduler
from repro.core.request import Request
from repro.errors import ConfigurationError
from repro.simulator import Simulation, ThreadPoolServer


def build(num_threads=2, rate=1.0, scheduler_name="fifo", refresh=None, **kw):
    sim = Simulation()
    scheduler = make_scheduler(scheduler_name, num_threads=num_threads,
                               thread_rate=rate, **kw)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=num_threads, rate=rate,
        refresh_interval=refresh,
    )
    return sim, server


def req(tenant="A", cost=1.0, api="x"):
    return Request(tenant_id=tenant, cost=cost, api=api)


class TestExecution:
    def test_request_runs_for_cost_over_rate(self):
        sim, server = build(num_threads=1, rate=2.0)
        done = []
        server.on_complete(lambda r: done.append((r.tenant_id, sim.now)))
        sim.at(0.0, server.submit, req(cost=10.0))
        sim.run()
        assert done == [("A", 5.0)]

    def test_parallel_execution_across_threads(self):
        sim, server = build(num_threads=2)
        done = []
        server.on_complete(lambda r: done.append(sim.now))
        sim.at(0.0, server.submit, req(cost=3.0))
        sim.at(0.0, server.submit, req(tenant="B", cost=3.0))
        sim.run()
        assert done == [3.0, 3.0]

    def test_queueing_when_all_threads_busy(self):
        sim, server = build(num_threads=1)
        done = []
        server.on_complete(lambda r: done.append((r.tenant_id, sim.now)))
        sim.at(0.0, server.submit, req("A", 2.0))
        sim.at(0.0, server.submit, req("B", 1.0))
        sim.run()
        assert done == [("A", 2.0), ("B", 3.0)]

    def test_timestamps_recorded(self):
        sim, server = build(num_threads=1)
        sim.at(1.0, server.submit, req("A", 2.0))
        sim.at(1.0, server.submit, req("B", 1.0))
        completed = []
        server.on_complete(completed.append)
        sim.run()
        a, b = completed
        assert a.arrival_time == 1.0 and a.dispatch_time == 1.0
        assert a.completion_time == 3.0
        assert b.arrival_time == 1.0 and b.dispatch_time == 3.0
        assert b.latency == pytest.approx(3.0)

    def test_dispatch_order_descending_by_default(self):
        sim, server = build(num_threads=4)
        threads = []
        server.on_dispatch(lambda r: threads.append(r.thread_id))
        sim.at(0.0, server.submit, req("A", 1.0))
        sim.at(0.0, server.submit, req("B", 1.0))
        sim.run(until=0.5)
        assert threads == [3, 2]

    def test_completed_cost_tracking(self):
        sim, server = build(num_threads=1)
        sim.at(0.0, server.submit, req("A", 2.0))
        sim.at(0.0, server.submit, req("A", 3.0))
        sim.run()
        assert server.completed_cost("A") == pytest.approx(5.0)
        assert server.completed_requests == 2

    def test_service_received_counts_partial_progress(self):
        sim, server = build(num_threads=1, rate=1.0)
        sim.at(0.0, server.submit, req("A", 10.0))
        sim.run(until=4.0)
        assert server.service_received("A") == pytest.approx(4.0)


class TestRefreshCharging:
    def test_refresh_reports_incremental_usage(self):
        sim, server = build(num_threads=1, scheduler_name="wfq-e",
                            refresh=1.0, initial_estimate=1.0)
        scheduler = server.scheduler
        sim.at(0.0, server.submit, req("A", 5.0))
        sim.run(until=3.5)
        # After 3 refresh ticks the tenant has been charged ~3 units
        # beyond the initial estimate's credit.
        state = scheduler.tenant_state("A")
        assert state.start_tag == pytest.approx(3.0, abs=0.01)

    def test_no_refresh_when_disabled(self):
        sim, server = build(num_threads=1, scheduler_name="wfq-e",
                            refresh=None, initial_estimate=1.0)
        scheduler = server.scheduler
        sim.at(0.0, server.submit, req("A", 5.0))
        sim.run(until=3.5)
        assert scheduler.tenant_state("A").start_tag == pytest.approx(1.0)

    def test_total_reported_usage_equals_cost(self):
        sim, server = build(num_threads=1, scheduler_name="wfq-e",
                            refresh=0.3, initial_estimate=1.0)
        done = []
        server.on_complete(done.append)
        sim.at(0.0, server.submit, req("A", 5.0))
        sim.run()
        assert done[0].reported_usage == pytest.approx(5.0)


class TestValidation:
    def test_scheduler_thread_mismatch(self):
        sim = Simulation()
        scheduler = FIFOScheduler(num_threads=2)
        with pytest.raises(ConfigurationError):
            ThreadPoolServer(sim, scheduler, num_threads=4)

    def test_invalid_rate(self):
        sim = Simulation()
        scheduler = FIFOScheduler(num_threads=1)
        with pytest.raises(ConfigurationError):
            ThreadPoolServer(sim, scheduler, num_threads=1, rate=0.0)

    def test_invalid_refresh_interval(self):
        sim = Simulation()
        scheduler = FIFOScheduler(num_threads=1)
        with pytest.raises(ConfigurationError):
            ThreadPoolServer(
                sim, scheduler, num_threads=1, refresh_interval=-0.1
            )
