"""Performance measurement helpers.

The scheduler hot-path harness (:mod:`repro.perf.hotpath`) times
``dequeue`` throughput per indexed policy and backlog size, as shipped
and on the policy's linear-scan reference; it is persisted to
``BENCH_schedulers.json`` so regressions are visible from change to
change.  End-to-end numbers (figure wall-clock, simulated requests per
second, per-layer split) live in ``perfbench/``.
"""

from .hotpath import (
    DEFAULT_SCHEDULERS,
    DEFAULT_TENANT_COUNTS,
    format_results,
    make_linear_reference,
    measure_dequeue_throughput,
    measure_observability_overhead,
    measure_paired_cell,
    quiesced_gc,
    run_hotpath_suite,
    write_results,
)

__all__ = [
    "DEFAULT_SCHEDULERS",
    "DEFAULT_TENANT_COUNTS",
    "format_results",
    "make_linear_reference",
    "measure_dequeue_throughput",
    "measure_observability_overhead",
    "measure_paired_cell",
    "quiesced_gc",
    "run_hotpath_suite",
    "write_results",
]
