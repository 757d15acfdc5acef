"""Unit tests for metrics: service series, latency, summaries, collector."""

import numpy as np
import pytest

from repro.core import make_scheduler
from repro.metrics import (
    MetricsCollector,
    ServiceSeries,
    ServiceTracker,
    cost_summary,
    latency_stats,
    speedup,
)
from repro.metrics.latency import percentile_table
from repro.metrics.summary import cdf_points, coefficient_of_variation
from repro.simulator import BackloggedSource, Simulation, ThreadPoolServer


class TestServiceSeries:
    def _series(self):
        times = np.array([0.1, 0.2, 0.3, 0.4])
        actual = np.array([1.0, 2.0, 2.0, 4.0])
        gps = np.array([1.0, 2.0, 3.0, 4.0])
        return ServiceSeries("T", times, actual, gps)

    def test_service_rate(self):
        series = self._series()
        assert series.service_rate() == pytest.approx([1.0, 1.0, 0.0, 2.0])

    def test_lag_units_sign_convention(self):
        # Positive = ahead of GPS.
        series = self._series()
        assert series.lag_units() == pytest.approx([0.0, 0.0, -1.0, 0.0])

    def test_lag_seconds(self):
        series = self._series()
        assert series.lag_seconds(10.0) == pytest.approx([0.0, 0.0, -0.1, 0.0])
        with pytest.raises(ValueError):
            series.lag_seconds(0.0)

    def test_lag_sigma(self):
        series = self._series()
        expected = np.std([0.0, 0.0, -1.0, 0.0])
        assert series.lag_sigma() == pytest.approx(expected)
        assert series.lag_sigma(2.0) == pytest.approx(expected / 2.0)


class TestServiceTracker:
    def test_backfills_late_tenants(self):
        tracker = ServiceTracker()
        tracker.observe(0.1, {"A": 1.0}, {"A": 1.0})
        tracker.observe(0.2, {"A": 2.0, "B": 5.0}, {"A": 2.0, "B": 4.0})
        series_b = tracker.series("B")
        assert series_b.actual == pytest.approx([0.0, 5.0])
        assert series_b.gps == pytest.approx([0.0, 4.0])

    def test_pads_missing_trailing_samples(self):
        tracker = ServiceTracker()
        tracker.observe(0.1, {"A": 1.0, "B": 2.0}, {})
        tracker.observe(0.2, {"A": 2.0}, {})
        series_b = tracker.series("B")
        assert series_b.actual == pytest.approx([2.0, 2.0])

    def test_tenants_sorted(self):
        tracker = ServiceTracker()
        tracker.observe(0.1, {"B": 1.0, "A": 1.0}, {})
        assert tracker.tenants() == ["A", "B"]


class TestLatencyStats:
    def test_empty(self):
        stats = latency_stats([])
        assert stats.empty
        assert np.isnan(stats.p99)

    def test_percentiles(self):
        samples = list(np.linspace(0.0, 1.0, 101))
        stats = latency_stats(samples)
        assert stats.count == 101
        assert stats.p50 == pytest.approx(0.5)
        assert stats.p99 == pytest.approx(0.99)
        assert stats.maximum == 1.0

    def test_percentile_table(self):
        table = percentile_table({"A": [1.0, 2.0], "B": []}, percentile=50)
        assert table["A"] == pytest.approx(1.5)
        assert np.isnan(table["B"])


class TestSpeedup:
    def test_paper_convention(self):
        # §6.2.2 example: 4.5ms baseline vs 3.3ms improved -> ~1.4x.
        assert speedup(0.0045, 0.0033) == pytest.approx(1.36, abs=0.01)

    def test_slowdown_is_negative(self):
        assert speedup(1.0, 2.0) == pytest.approx(-2.0)

    def test_parity(self):
        assert speedup(1.0, 1.0) == pytest.approx(1.0)

    def test_nan_inputs(self):
        assert np.isnan(speedup(float("nan"), 1.0))
        assert np.isnan(speedup(1.0, 0.0))


class TestSummaries:
    def test_cost_summary_decades(self):
        samples = [100.0] * 50 + [1.0e6] * 50
        summary = cost_summary(samples)
        assert summary.decades_of_spread() == pytest.approx(4.0, abs=0.1)

    def test_cov(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0
        assert np.isnan(coefficient_of_variation([]))

    def test_cdf_points(self):
        values, freq = cdf_points({"a": 3.0, "b": 1.0, "c": float("nan")})
        assert values == pytest.approx([1.0, 3.0])
        assert freq == pytest.approx([0.5, 1.0])


class TestCollector:
    def _run(self, scheduler_name="wfq", duration=2.0):
        sim = Simulation()
        scheduler = make_scheduler(scheduler_name, num_threads=2, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=2, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=2).start()
        BackloggedSource(server, "B", lambda: ("y", 5.0), window=2).start()
        sim.run(until=duration)
        return collector.result()

    def test_service_sampling(self):
        result = self._run()
        assert set(result.tenants()) == {"A", "B"}
        series = result.service_series("A")
        assert series.times.size == 20
        assert series.actual[-1] > 0
        # Total service is capacity-bounded.
        total = result.service_series("A").actual[-1] + result.service_series(
            "B"
        ).actual[-1]
        assert total <= 2 * 10.0 * 2.0 + 1e-6

    def test_gps_tracks_equal_share(self):
        result = self._run()
        a = result.service_series("A")
        # Two equal backlogged tenants: GPS gives each half of capacity.
        assert a.gps[-1] == pytest.approx(2.0 * 10.0 * 2.0 / 2, rel=0.05)

    def test_latencies_recorded(self):
        result = self._run()
        assert result.latency_stats("A").count > 0
        assert result.latency_p99("A") > 0

    def test_dispatch_log_and_occupancy(self):
        result = self._run()
        assert result.dispatch_log
        grid = result.occupancy_matrix(0.0, 2.0, 0.1, 2)
        assert grid.shape == (2, 20)
        assert (grid > 0).any()

    def test_partition_measure_under_2dfq(self):
        result = self._run("2dfq")
        means = result.thread_cost_partition(2)
        # Thread 0 runs the expensive requests under 2DFQ.
        assert means[0] > means[1]

    def test_gini_sampled(self):
        result = self._run()
        assert result.gini_values.size > 0
        assert (result.gini_values >= 0).all()
        assert (result.gini_values <= 1).all()

    def test_warmup_excludes_early_samples(self):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1, warmup=1.0)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        sim.run(until=2.0)
        result = collector.result()
        assert result.service_series("A").times.min() >= 1.0

    def _warmup_run(self, warmup):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(
            server, sample_interval=0.1, warmup=warmup
        )
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        BackloggedSource(server, "B", lambda: ("y", 1.0), window=1).start()
        sim.run(until=2.0)
        return collector.result()

    def test_warmup_excludes_latency_samples(self):
        full = self._warmup_run(warmup=0.0)
        trimmed = self._warmup_run(warmup=1.0)
        # Only completions at t >= warmup count; roughly half survive.
        assert 0 < trimmed.latency_stats("A").count < full.latency_stats("A").count
        # Warmup spanning the whole run leaves no latency samples.
        assert self._warmup_run(warmup=2.5).latency_stats("A").empty

    def test_warmup_excludes_gini_samples(self):
        full = self._warmup_run(warmup=0.0)
        trimmed = self._warmup_run(warmup=1.0)
        assert 0 < trimmed.gini_values.size < full.gini_values.size
        assert trimmed.gini_times.min() >= 1.0

    def test_record_dispatches_off_yields_empty_log(self):
        # Regression: the log must actually stay empty (and not merely
        # start empty) when dispatch recording is disabled.
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(
            server, sample_interval=0.1, record_dispatches=False
        )
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        sim.run(until=1.0)
        result = collector.result()
        assert result.dispatch_log == []
        # The rest of the metrics are unaffected.
        assert result.latency_stats("A").count > 0

    def test_invalid_interval(self):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, refresh_interval=None
        )
        with pytest.raises(ValueError):
            MetricsCollector(server, sample_interval=0.0)

    def test_service_rate_has_no_warmup_spike(self):
        # Regression: with a warmup, the first post-warmup sample used to
        # difference against 0, so the first service_rate entry was the
        # entire pre-warmup cumulative service.  The retained pre-warmup
        # baseline keeps every entry a one-interval quantity.
        result = self._warmup_run(warmup=1.0)
        rate = result.service_series("A").service_rate()
        # One 0.1 s interval at a 10 units/s thread can deliver at most
        # ~1 unit of service (plus boundary slop); the old bug produced
        # a first entry near the ~5 units accumulated during warmup.
        assert rate[0] <= 10.0 * 0.1 + 0.5
        assert np.max(rate) <= 10.0 * 0.1 + 0.5

    def test_tracer_counts_samples_and_skipped_warmup_samples(self):
        from repro.obs.tracer import Tracer

        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1, warmup=0.45)
        tracer = Tracer("collector-counters")
        collector.attach_tracer(tracer)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        sim.run(until=1.0)
        snapshot = tracer.registry.snapshot()
        # Samples at t = 0.1 .. 1.0: the four before t = 0.45 are skipped
        # by the statistics but still counted as taken.
        assert snapshot["collector.samples"] == 10
        assert snapshot["collector.warmup_samples_skipped"] == 4
        observed = collector.result().service_series("A").times
        assert len(observed) == 10 - 4

    def test_warmup_on_sample_boundary_keeps_boundary_sample(self):
        # warmup exactly on the sampling grid: the t == warmup sample is
        # post-warmup (t >= warmup), and the sample just before it
        # becomes the baseline.
        result = self._warmup_run(warmup=0.5)
        times = result.service_series("A").times
        assert times.min() == pytest.approx(0.5)
        result_past = self._warmup_run(warmup=0.55)
        assert result_past.service_series("A").times.min() == pytest.approx(0.6)


class TestOccupancyBoundaryBins:
    def _metrics(self, dispatch_log):
        from repro.metrics.collector import RunMetrics

        return RunMetrics(
            tracker=ServiceTracker(),
            latencies={},
            dispatch_log=dispatch_log,
            gini_times=np.asarray([]),
            gini_values=np.asarray([]),
            sample_interval=0.1,
        )

    def test_shared_bin_goes_to_larger_overlap(self):
        # Regression: the record iterated later used to overwrite shared
        # boundary bins unconditionally.  Bin [1, 2): the first record
        # covers 0.6 of it, the second only 0.4 -- the first must win.
        from repro.metrics.collector import DispatchRecord

        log = [
            DispatchRecord(0, "A", "x", 5.0, start=0.0, end=1.6),
            DispatchRecord(0, "B", "y", 7.0, start=1.6, end=3.0),
        ]
        grid = self._metrics(log).occupancy_matrix(0.0, 3.0, 1.0, 1)
        assert grid[0].tolist() == [5.0, 5.0, 7.0]

    def test_shared_bin_tie_goes_to_later_start(self):
        from repro.metrics.collector import DispatchRecord

        log = [
            DispatchRecord(0, "A", "x", 5.0, start=0.0, end=1.5),
            DispatchRecord(0, "B", "y", 7.0, start=1.5, end=3.0),
        ]
        grid = self._metrics(log).occupancy_matrix(0.0, 3.0, 1.0, 1)
        assert grid[0].tolist() == [5.0, 7.0, 7.0]

    def test_full_bins_unaffected(self):
        from repro.metrics.collector import DispatchRecord

        log = [
            DispatchRecord(0, "A", "x", 2.0, start=0.0, end=2.0),
            DispatchRecord(1, "B", "y", 3.0, start=0.0, end=1.0),
        ]
        grid = self._metrics(log).occupancy_matrix(0.0, 2.0, 1.0, 2)
        assert grid[0].tolist() == [2.0, 2.0]
        assert grid[1].tolist() == [3.0, 0.0]
