"""Metrics used in the paper's evaluation (§6):

* service rate and **service lag** against a fluid GPS reference;
* **service lag variation** sigma(lag) -- the burstiness headline;
* request **latency** percentiles (focus on the 99th);
* the **Gini index** of instantaneous fairness.

Two collection modes: ``exact`` (every sample kept, the default) and
``streaming`` (bounded-memory sketches from :mod:`repro.metrics.streaming`
for 10M-request-scale runs) -- DESIGN.md §13.
"""

from .collector import (
    COLLECTOR_MODES,
    DispatchRecord,
    MetricsCollector,
    RunMetrics,
    StreamingRunMetrics,
)
from .gini import gini_index
from .latency import LatencyStats, latency_stats, percentile_table, speedup
from .service import ServiceSeries, ServiceTracker
from .streaming import (
    BoundedServiceSeries,
    MetricsPartial,
    QuantileDigest,
    ReservoirSample,
    RingBuffer,
    StreamingMoments,
    merge_partials,
)
from .summary import (
    CostSummary,
    cdf_points,
    coefficient_of_variation,
    cost_summary,
)

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "StreamingRunMetrics",
    "COLLECTOR_MODES",
    "DispatchRecord",
    "MetricsPartial",
    "merge_partials",
    "StreamingMoments",
    "QuantileDigest",
    "ReservoirSample",
    "RingBuffer",
    "BoundedServiceSeries",
    "ServiceSeries",
    "ServiceTracker",
    "gini_index",
    "LatencyStats",
    "latency_stats",
    "percentile_table",
    "speedup",
    "CostSummary",
    "cost_summary",
    "coefficient_of_variation",
    "cdf_points",
]
