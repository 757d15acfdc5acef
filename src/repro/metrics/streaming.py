"""Bounded-memory streaming metric sketches (DESIGN.md §13).

The exact :class:`~repro.metrics.collector.MetricsCollector` path keeps a
Python list entry per completed request and per dispatch, which caps run
length far short of the ROADMAP's 10M-request goal.  This module provides
the constant-memory accumulators behind
``MetricsCollector(mode="streaming")``:

* :class:`StreamingMoments` -- Welford mean/variance (exact, mergeable
  via the Chan et al. parallel-update formula); powers ``lag_sigma``.
* :class:`QuantileDigest` -- a t-digest-style mergeable quantile sketch
  (buffered merging-compaction with a tail-tight weight limit); powers
  per-tenant latency percentiles.
* :class:`ReservoirSample` -- seeded Algorithm-R reservoir; exact while
  the stream fits, uniform subsample beyond; powers the Gini samples.
* :class:`RingBuffer` -- capped dispatch log keeping the most recent
  records.
* :class:`BoundedServiceSeries` -- a decimating service-curve recorder:
  when full it drops every other stored sample and doubles its stride,
  so the curve keeps its shape at a bounded point count.

:class:`MetricsPartial` packages one run's (or one time shard's) sketch
state into a picklable object with ``merge(other)``, which is what lets
:mod:`repro.parallel` fan one long run out as time shards and merge the
windowed partials back together.

Every structure here is differential-tested against the exact collector
(``tests/test_metrics_streaming.py``); the benchmark gate holds p50/p99
latency error under 1% vs exact (``benchmarks/test_bench_metrics_streaming.py``).
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..simulator.rng import make_rng
from ..units import Cost, Duration, Scalar, SimTime

__all__ = [
    "StreamingMoments",
    "QuantileDigest",
    "ReservoirSample",
    "RingBuffer",
    "BoundedServiceSeries",
    "MetricsPartial",
    "merge_partials",
]


class StreamingMoments:
    """Welford streaming mean/variance with exact parallel merge.

    Matches ``np.mean`` / ``np.std`` (population, ``ddof=0``) up to
    float round-off for any insertion order; ``merge`` uses the Chan et
    al. pairwise-update formula, so merging per-window partials is exact
    too (the property the time-sharded runner relies on).
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_zeros(self, count: int) -> None:
        """Account ``count`` zero observations in O(1) (late-tenant
        backfill: the exact tracker prepends zeros for samples taken
        before the tenant was first seen)."""
        if count <= 0:
            return
        other = StreamingMoments()
        other.count = count
        other.minimum = 0.0
        other.maximum = 0.0
        other.merge_into(self)

    def merge_into(self, target: "StreamingMoments") -> None:
        """Fold this accumulator into ``target`` (Chan et al.)."""
        if self.count == 0:
            return
        if target.count == 0:
            target.count = self.count
            target.mean = self.mean
            target.m2 = self.m2
            target.minimum = self.minimum
            target.maximum = self.maximum
            return
        total = target.count + self.count
        delta = self.mean - target.mean
        target.m2 = (
            target.m2
            + self.m2
            + delta * delta * target.count * self.count / total
        )
        target.mean += delta * self.count / total
        target.count = total
        target.minimum = min(target.minimum, self.minimum)
        target.maximum = max(target.maximum, self.maximum)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """New accumulator equal to the union of both streams."""
        merged = StreamingMoments()
        self.merge_into(merged)
        other.merge_into(merged)
        return merged

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``, matching ``np.std``)."""
        if self.count == 0:
            return 0.0
        return self.m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    def __repr__(self) -> str:
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class QuantileDigest:
    """Mergeable t-digest-style quantile sketch.

    Incoming values buffer until ``buffer_size``, then a compaction pass
    sorts centroids + buffer together and greedily re-clusters under the
    classic t-digest weight limit ``4 * total * q(1-q) / compression``.
    The limit vanishes at ``q -> 0, 1``, so tail centroids stay near
    singletons -- which is why p99 error stays well under the 1% budget
    while the centroid count stays O(compression).

    ``merge(other)`` feeds the other digest's centroids through the same
    compaction (weighted), making windowed partials combinable with the
    same error bound.
    """

    __slots__ = (
        "compression", "_means", "_weights", "_buffer",
        "_buffer_weights", "count", "minimum", "maximum",
    )

    def __init__(self, compression: int = 200) -> None:
        if compression < 20:
            raise ConfigurationError(
                f"compression must be >= 20, got {compression}"
            )
        self.compression = int(compression)
        self._means: List[float] = []
        self._weights: List[float] = []
        self._buffer: List[float] = []
        self._buffer_weights: List[float] = []
        self.count = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- ingestion -----------------------------------------------------------

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        self._buffer.append(float(value))
        self._buffer_weights.append(float(weight))
        self.count += weight
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._buffer) >= 4 * self.compression:
            self._compress()

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """New digest summarizing the union of both streams."""
        merged = QuantileDigest(max(self.compression, other.compression))
        for source in (self, other):
            source._compress()
            for mean, weight in zip(source._means, source._weights):
                merged._buffer.append(mean)
                merged._buffer_weights.append(weight)
            merged.count += source.count
            merged.minimum = min(merged.minimum, source.minimum)
            merged.maximum = max(merged.maximum, source.maximum)
        merged._compress()
        return merged

    def _compress(self) -> None:
        if not self._buffer and len(self._means) <= self.compression:
            return
        means = np.asarray(self._means + self._buffer)
        weights = np.asarray(self._weights + self._buffer_weights)
        self._buffer = []
        self._buffer_weights = []
        order = np.argsort(means, kind="stable")
        means = means[order]
        weights = weights[order]
        total = float(weights.sum())
        if total <= 0:
            self._means, self._weights = [], []
            return
        new_means: List[float] = []
        new_weights: List[float] = []
        acc_mean = float(means[0])
        acc_weight = float(weights[0])
        consumed = 0.0
        for mean, weight in zip(means[1:], weights[1:]):
            # Quantile midpoint of the candidate merged centroid.
            q = (consumed + (acc_weight + weight) / 2.0) / total
            limit = 4.0 * total * q * (1.0 - q) / self.compression
            if acc_weight + weight <= limit:
                acc_weight += weight
                acc_mean += (mean - acc_mean) * weight / acc_weight
            else:
                new_means.append(acc_mean)
                new_weights.append(acc_weight)
                consumed += acc_weight
                acc_mean = float(mean)
                acc_weight = float(weight)
        new_means.append(acc_mean)
        new_weights.append(acc_weight)
        self._means = new_means
        self._weights = new_weights

    # -- queries -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Stored points (centroids + unbuffered), the memory gauge."""
        return len(self._means) + len(self._buffer)

    @property
    def empty(self) -> bool:
        return self.count == 0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        self._compress()
        means = self._means
        weights = self._weights
        if len(means) == 1:
            return means[0]
        # Rank convention: q * (n - 1) + 0.5 in 1-based midpoint space
        # matches np.percentile's linear interpolation exactly when every
        # centroid is a singleton (small streams never compress, so the
        # differential tests agree bit-for-bit there); for weighted
        # centroids the half-sample shift is O(1/n).
        target = q * (self.count - 1.0) + 0.5
        # Centroid midpoints in cumulative-weight space, with the true
        # min/max anchoring the extremes.
        cumulative = 0.0
        previous_value = self.minimum
        previous_position = 0.0
        for mean, weight in zip(means, weights):
            position = cumulative + weight / 2.0
            if target <= position:
                span = position - previous_position
                if span <= 0:
                    return mean
                fraction = (target - previous_position) / span
                return previous_value + (mean - previous_value) * fraction
            cumulative += weight
            previous_value = mean
            previous_position = position
        span = self.count - previous_position
        if span <= 0:
            return previous_value
        fraction = (target - previous_position) / span
        return previous_value + (self.maximum - previous_value) * fraction

    def __repr__(self) -> str:
        return (
            f"QuantileDigest(count={self.count:g}, centroids={self.size}, "
            f"compression={self.compression})"
        )


class ReservoirSample:
    """Seeded Algorithm-R reservoir of (time, value) samples.

    Exact (every sample kept, in arrival order) while the stream fits in
    ``capacity``; a uniform random subsample beyond.  All randomness
    flows through :func:`repro.simulator.rng.make_rng`, so reservoirs
    are reproducible and cell-deterministic.
    """

    __slots__ = ("capacity", "seen", "_items", "_rng")

    def __init__(self, capacity: int, seed: int, *key: str) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        self._items: List[Tuple[float, float]] = []
        self._rng = make_rng(seed, "reservoir", *key)

    def add(self, time: float, value: float) -> None:
        self.seen += 1
        if len(self._items) < self.capacity:
            self._items.append((time, value))
            return
        slot = int(self._rng.integers(0, self.seen))
        if slot < self.capacity:
            self._items[slot] = (time, value)

    @property
    def exact(self) -> bool:
        """True while no sample has been evicted."""
        return self.seen <= self.capacity

    @property
    def size(self) -> int:
        return len(self._items)

    def items(self) -> List[Tuple[float, float]]:
        """Samples sorted by time."""
        return sorted(self._items)

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Union reservoir; draws from each side proportionally to its
        stream length (exact concatenation while everything fits)."""
        merged = ReservoirSample(max(self.capacity, other.capacity), 0)
        # The merged reservoir's own rng continues from a copy of self's
        # stream: deterministic across repeated merges, and the inputs
        # stay untouched.
        merged._rng = copy.deepcopy(self._rng)
        merged.seen = self.seen + other.seen
        combined = self._items + other._items
        if len(combined) <= merged.capacity:
            merged._items = list(combined)
            return merged
        weight_self = self.seen / merged.seen
        take_self = int(round(merged.capacity * weight_self))
        take_self = min(max(take_self, merged.capacity - len(other._items)),
                        len(self._items))
        take_other = merged.capacity - take_self
        pick_self = merged._rng.choice(
            len(self._items), size=take_self, replace=False
        )
        pick_other = merged._rng.choice(
            len(other._items), size=take_other, replace=False
        )
        merged._items = [self._items[i] for i in sorted(pick_self)] + [
            other._items[i] for i in sorted(pick_other)
        ]
        return merged

    def __repr__(self) -> str:
        return (
            f"ReservoirSample(size={self.size}/{self.capacity}, "
            f"seen={self.seen})"
        )


class RingBuffer:
    """Capped append-only log keeping the most recent ``capacity`` items."""

    __slots__ = ("capacity", "total", "_items", "_next")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.total = 0
        self._items: List[Any] = []
        self._next = 0

    def append(self, item: Any) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._next] = item
            self._next = (self._next + 1) % self.capacity
        self.total += 1

    @property
    def dropped(self) -> int:
        return self.total - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> List[Any]:
        """Retained items, oldest first."""
        if len(self._items) < self.capacity:
            return list(self._items)
        return self._items[self._next:] + self._items[: self._next]

    def merge(self, other: "RingBuffer") -> "RingBuffer":
        """Union keeping the most recent items (``other`` is the later
        window)."""
        merged = RingBuffer(max(self.capacity, other.capacity))
        for item in self.items():
            merged.append(item)
        for item in other.items():
            merged.append(item)
        merged.total = self.total + other.total
        return merged


class BoundedServiceSeries:
    """Decimating recorder of per-tenant cumulative service curves.

    Stores at most ``capacity`` sample instants: when full, every other
    stored sample is dropped and the recording stride doubles, so the
    curve's shape survives at half resolution.  Late tenants are
    backfilled with zeros, mirroring the exact
    :class:`~repro.metrics.service.ServiceTracker` semantics.
    """

    __slots__ = ("capacity", "stride", "_counter", "times", "actual", "gps")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 8:
            raise ConfigurationError(f"capacity must be >= 8, got {capacity}")
        self.capacity = int(capacity)
        self.stride = 1
        self._counter = 0
        self.times: List[SimTime] = []
        self.actual: Dict[str, List[Cost]] = {}
        self.gps: Dict[str, List[Cost]] = {}

    def observe(
        self, time: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        self._counter += 1
        if (self._counter - 1) % self.stride != 0:
            return
        index = len(self.times)
        self.times.append(time)
        for store, values in ((self.actual, actual), (self.gps, gps)):
            for tenant, value in values.items():
                column = store.setdefault(tenant, [0.0] * index)
                if len(column) < index:
                    pad = column[-1] if column else 0.0
                    column.extend([pad] * (index - len(column)))
                column.append(value)
        if len(self.times) >= self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        # Keep odd indices: the most recent sample always survives.
        self.times = self.times[1::2]
        for store in (self.actual, self.gps):
            for tenant in store:
                store[tenant] = store[tenant][1::2]
        self.stride *= 2

    @property
    def size(self) -> int:
        return len(self.times)

    def tenants(self) -> List[str]:
        return sorted(self.actual)

    def columns(self, tenant_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, actual, gps) arrays for one tenant, padded like the
        exact tracker (trailing gaps carry the last value)."""
        n = len(self.times)

        def column(store: Dict[str, List[Cost]]) -> np.ndarray:
            values = store.get(tenant_id, [])
            if len(values) < n:
                pad = values[-1] if values else 0.0
                values = values + [pad] * (n - len(values))
            return np.asarray(values)

        return np.asarray(self.times), column(self.actual), column(self.gps)

    def shift_times(self, offset: Duration) -> None:
        self.times = [t + offset for t in self.times]

    def final_values(self) -> Tuple[Dict[str, Cost], Dict[str, Cost]]:
        """Last recorded cumulative (actual, gps) per tenant."""
        actual = {t: (c[-1] if c else 0.0) for t, c in self.actual.items()}
        gps = {t: (c[-1] if c else 0.0) for t, c in self.gps.items()}
        return actual, gps

    def merge(self, other: "BoundedServiceSeries") -> "BoundedServiceSeries":
        """Concatenate a later window, re-basing its cumulative curves on
        this window's final values, then re-decimate to capacity."""
        merged = BoundedServiceSeries(max(self.capacity, other.capacity))
        merged.stride = max(self.stride, other.stride)
        final_actual, final_gps = self.final_values()
        times = list(self.times)
        n_self = len(times)
        merged.times = times + list(other.times)
        for store, own, finals in (
            (merged.actual, self.actual, final_actual),
            (merged.gps, self.gps, final_gps),
        ):
            source = other.actual if store is merged.actual else other.gps
            tenants = set(own) | set(source)
            for tenant in tenants:
                head = list(own.get(tenant, []))
                if len(head) < n_self:
                    pad = head[-1] if head else 0.0
                    head.extend([pad] * (n_self - len(head)))
                offset = finals.get(tenant, 0.0)
                tail = [offset + v for v in source.get(tenant, [])]
                if len(tail) < len(other.times):
                    pad = tail[-1] if tail else offset
                    tail.extend([pad] * (len(other.times) - len(tail)))
                store[tenant] = head + tail
        merged._counter = len(merged.times)
        while len(merged.times) >= merged.capacity:
            merged._decimate()
        return merged


class MetricsPartial:
    """Picklable sketch state of one run (or one time shard) in
    streaming mode.

    ``merge(other)`` combines two consecutive windows: latency digests
    and moments merge exactly (digest: within the sketch error bound),
    service curves re-base on the earlier window's final cumulative
    values, the Gini reservoir subsamples proportionally, and the
    dispatch ring keeps the most recent records.  This is the unit the
    time-sharded parallel runner fans out and folds back together.
    """

    def __init__(
        self,
        sample_interval: Duration,
        seed: int = 0,
        compression: int = 200,
        series_capacity: int = 1024,
        reservoir_capacity: int = 4096,
        dispatch_capacity: int = 65536,
    ) -> None:
        self.sample_interval: Duration = float(sample_interval)
        self.seed = int(seed)
        self.compression = int(compression)
        self.latency_digests: Dict[str, QuantileDigest] = {}
        self.latency_moments: Dict[str, StreamingMoments] = {}
        self.lag_moments: Dict[str, StreamingMoments] = {}
        self.series = BoundedServiceSeries(series_capacity)
        self.gini = ReservoirSample(reservoir_capacity, seed, "gini")
        self.gini_moments = StreamingMoments()
        self.dispatches = RingBuffer(dispatch_capacity)
        self.baselines: Dict[str, Cost] = {}
        self.lag_samples = 0

    # -- ingestion (collector-facing) ---------------------------------------

    def observe_latency(self, tenant_id: str, latency: Duration) -> None:
        digest = self.latency_digests.get(tenant_id)
        if digest is None:
            digest = self.latency_digests[tenant_id] = QuantileDigest(
                self.compression
            )
            self.latency_moments[tenant_id] = StreamingMoments()
        digest.add(latency)
        self.latency_moments[tenant_id].add(latency)

    def observe_sample(
        self, now: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        for tenant, value in actual.items():
            moments = self.lag_moments.get(tenant)
            if moments is None:
                moments = self.lag_moments[tenant] = StreamingMoments()
                # Late tenant: the exact series backfills zeros for the
                # samples recorded before it was first seen.
                moments.add_zeros(self.lag_samples)
            moments.add(value - gps.get(tenant, 0.0))
        self.lag_samples += 1
        self.series.observe(now, actual, gps)

    def observe_gini(self, now: SimTime, value: Scalar) -> None:
        self.gini.add(now, value)
        self.gini_moments.add(value)

    def observe_dispatch(self, record: Any) -> None:
        self.dispatches.append(record)

    # -- windowed composition ------------------------------------------------

    def shift_times(self, offset: Duration) -> None:
        """Move every recorded timestamp by ``offset`` (shard -> global
        clock): sample times, Gini sample times, and dispatch-record
        start/end times."""
        self.series.shift_times(offset)
        self.gini._items = [(t + offset, v) for t, v in self.gini._items]
        shifted = RingBuffer(self.dispatches.capacity)
        shifted.total = self.dispatches.dropped
        for record in self.dispatches.items():
            shifted.append(
                dataclasses.replace(
                    record,
                    start=record.start + offset,
                    end=record.end + offset,
                )
            )
        self.dispatches = shifted

    def merge(self, other: "MetricsPartial") -> "MetricsPartial":
        """Combine with a *later* window's partial."""
        merged = MetricsPartial(
            sample_interval=self.sample_interval,
            seed=self.seed,
            compression=max(self.compression, other.compression),
            series_capacity=self.series.capacity,
            reservoir_capacity=self.gini.capacity,
            dispatch_capacity=self.dispatches.capacity,
        )
        tenants = set(self.latency_digests) | set(other.latency_digests)
        for tenant in tenants:
            mine = self.latency_digests.get(tenant)
            theirs = other.latency_digests.get(tenant)
            if mine is not None and theirs is not None:
                merged.latency_digests[tenant] = mine.merge(theirs)
                merged.latency_moments[tenant] = self.latency_moments[
                    tenant
                ].merge(other.latency_moments[tenant])
            else:
                source = self if mine is not None else other
                merged.latency_digests[tenant] = source.latency_digests[tenant]
                merged.latency_moments[tenant] = source.latency_moments[tenant]
        for tenant in set(self.lag_moments) | set(other.lag_moments):
            left = self.lag_moments.get(tenant)
            right = other.lag_moments.get(tenant)
            if left is None:
                left = StreamingMoments()
                left.add_zeros(self.lag_samples)
            if right is None:
                right = StreamingMoments()
                right.add_zeros(other.lag_samples)
            merged.lag_moments[tenant] = left.merge(right)
        merged.lag_samples = self.lag_samples + other.lag_samples
        merged.series = self.series.merge(other.series)
        merged.gini = self.gini.merge(other.gini)
        merged.gini_moments = self.gini_moments.merge(other.gini_moments)
        merged.dispatches = self.dispatches.merge(other.dispatches)
        merged.baselines = dict(self.baselines)
        return merged

    # -- gauges ---------------------------------------------------------------

    def sketch_sizes(self) -> Dict[str, int]:
        """Current stored-point counts, exported as obs gauges."""
        return {
            "latency_centroids": sum(
                d.size for d in self.latency_digests.values()
            ),
            "series_points": self.series.size,
            "gini_reservoir": self.gini.size,
            "dispatch_ring": len(self.dispatches),
            "tenants": len(self.lag_moments),
        }


def merge_partials(partials: Sequence[MetricsPartial]) -> MetricsPartial:
    """Fold consecutive windowed partials (earliest first) into one."""
    if not partials:
        raise ConfigurationError("merge_partials needs at least one partial")
    merged: Optional[MetricsPartial] = None
    for partial in partials:
        merged = partial if merged is None else merged.merge(partial)
    return merged  # type: ignore[return-value]  -- loop ran at least once
