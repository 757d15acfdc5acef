"""Metrics used in the paper's evaluation (§6):

* service rate and **service lag** against a fluid GPS reference;
* **service lag variation** sigma(lag) -- the burstiness headline;
* request **latency** percentiles (focus on the 99th);
* the **Gini index** of instantaneous fairness.

One exact collector computes all of them from every sample
(DESIGN.md §13).
"""

from .collector import DispatchRecord, MetricsCollector, RunMetrics
from .gini import gini_index
from .latency import LatencyStats, latency_stats, percentile_table, speedup
from .service import ServiceSeries, ServiceTracker
from .summary import (
    CostSummary,
    cdf_points,
    coefficient_of_variation,
    cost_summary,
)

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "DispatchRecord",
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
