"""Scheduler hot-path timing harness.

Measures sustained ``dequeue`` throughput (dispatches per second of
wallclock) with N tenants held continuously backlogged -- the regime
where selection cost dominates simulator runtime.  Each measurement
drives the full dispatch cycle a real simulation performs per request:

    dequeue -> complete (retroactive charge + estimator observe)
            -> enqueue a replacement for the same tenant

so the numbers reflect the whole bookkeeping path, not just the
selection scan.  Every indexed policy is measured twice -- as shipped
(its selection index, built at construction) and as its linear-scan
reference (:func:`make_linear_reference`: the same class with
``_index_spec`` returning ``None``, the route external subclasses
take) -- with repetitions interleaved and paired per repetition
(:func:`measure_paired_cell`), so the reported speedup is robust to
allocator-layout session drift; the ratio is what the index buys at
that backlog size.  2DFQ ships the linear scan only, so it has no
pair to compare and is measured end to end instead (``perfbench/``).

Results are persisted as ``BENCH_schedulers.json`` (see
``benchmarks/test_bench_perf_hotpath.py``) so the performance
trajectory is tracked from PR to PR.  Wallclock timings vary with the
host, so treat absolute requests/sec as indicative; the indexed/linear
ratio is the stable signal.

Each indexed cell also reports the :class:`SelectionIndex`'s
lazy-invalidation churn (stale pops, heap rebuilds, pushes, touches),
so the index's bookkeeping cost is tracked alongside the throughput it
buys.  Every touch pushes one entry into each heap the policy keeps, so
pushes/touches is that heap count plus the pending->ready migrations of
the eligibility-gated policies.
The schedulers run with no tracer attached -- the shipped default -- so
these numbers double as the disabled-tracer overhead measurement the
observability contract is held to (DESIGN.md §9).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import platform
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    cast,
)

from ..core import make_scheduler
from ..core.scheduler import Scheduler
from ..core.vt_base import VirtualTimeScheduler
from ..core.request import Request
from ..obs.audit import AuditConfig, FairnessAuditor
from ..obs.flight import FlightRecorder
from ..obs.registry import Timer
from ..obs.tracer import Tracer
from ..simulator.rng import make_rng

__all__ = [
    "DEFAULT_SCHEDULERS",
    "DEFAULT_TENANT_COUNTS",
    "make_linear_reference",
    "measure_dequeue_throughput",
    "measure_paired_cell",
    "measure_observability_overhead",
    "quiesced_gc",
    "run_hotpath_suite",
    "format_results",
    "write_results",
]


@contextlib.contextmanager
def quiesced_gc() -> Iterator[None]:
    """Collect, then disable the cyclic GC for a timed region.

    Benchmarks that build hundreds of thousands of objects (a
    million-entry event queue, a 10k-tenant backlog) otherwise spend
    more wallclock in generational collections triggered by *earlier*
    measurements than in the code under test -- the classic
    order-dependent bench distortion.  Timed regions here allocate and
    release acyclic objects only, so disabling the collector is safe.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

#: Virtual-time schedulers that ship a selection index; FIFO/RR/DRR are
#: O(1) by construction and 2DFQ ships the linear scan only.
DEFAULT_SCHEDULERS: Tuple[str, ...] = (
    "wfq",
    "sfq",
    "wf2q",
    "wf2q+",
    "msf2q",
    "wf2q-e",
)

DEFAULT_TENANT_COUNTS: Tuple[int, ...] = (2, 10, 100, 1000, 10000)

#: APIs drawn for the synthetic backlog; a small set keeps estimator
#: state realistic (a few keys per tenant) without unbounded growth.
_APIS = ("A", "C", "G")


@functools.lru_cache(maxsize=None)
def _linear_class(cls: Type[VirtualTimeScheduler]) -> Type[VirtualTimeScheduler]:
    def no_index(self: VirtualTimeScheduler) -> None:
        return None

    return cast(
        Type[VirtualTimeScheduler],
        type(cls.__name__, (cls,), {"_index_spec": no_index}),
    )


def make_linear_reference(
    scheduler_name: str, num_threads: int, thread_rate: float = 1.0
) -> Scheduler:
    """Build ``scheduler_name`` on its reference linear scans.

    The result is the registered scheduler's class with ``_index_spec``
    returning ``None`` -- exactly what an external subclass that only
    overrides ``_select`` gets -- driven by a fresh copy of the same
    estimator.  Used as the differential and throughput baseline for
    the indexed policies.
    """
    shipped = make_scheduler(scheduler_name, num_threads, thread_rate)
    if not isinstance(shipped, VirtualTimeScheduler):
        raise TypeError(f"{scheduler_name!r} is not a virtual-time scheduler")
    return _linear_class(type(shipped))(
        num_threads, thread_rate, estimator=shipped.estimator
    )


def _default_ops(num_tenants: int) -> int:
    """Dispatches per timing repetition: enough samples to be stable,
    capped so the O(N) linear reference stays affordable at N=1000."""
    return max(500, min(3000, 300_000 // num_tenants))


def _build_backlog(
    scheduler_name: str, num_tenants: int, seed: int
) -> List[Request]:
    """Seeded initial backlog: two queued requests per tenant, so no
    tenant drains mid-measurement."""
    rng = make_rng(seed, "hotpath", scheduler_name, str(num_tenants))
    initial: List[Request] = []
    for i in range(num_tenants):
        for _ in range(2):
            initial.append(
                Request(
                    tenant_id=f"t{i:05d}",
                    cost=float(10.0 ** rng.uniform(0.0, 4.0)),
                    api=str(rng.choice(_APIS)),
                )
            )
    return initial


def measure_dequeue_throughput(
    scheduler_name: str,
    num_tenants: int,
    num_threads: int = 4,
    thread_rate: float = 1.0,
    ops: Optional[int] = None,
    seed: int = 0,
    linear: bool = False,
    repeats: int = 2,
    tracer_factory: Optional[Callable[[], Tracer]] = None,
) -> Dict[str, Union[str, int, float, bool]]:
    """Time ``ops`` full dispatch cycles with ``num_tenants`` backlogged.

    Returns a record with ``rps`` (dispatches per wallclock second, best
    of ``repeats`` runs on freshly built schedulers).  ``linear`` times
    the :func:`make_linear_reference` build instead of the shipped
    scheduler.  ``tracer_factory`` (one fresh tracer per repetition)
    turns on event emission for the timed region; the default ``None``
    measures the shipped disabled path.
    """
    if ops is None:
        ops = _default_ops(num_tenants)
    rng = make_rng(seed, "hotpath-costs", scheduler_name, str(num_tenants))
    replacement_costs = 10.0 ** rng.uniform(0.0, 4.0, ops)
    best = float("inf")
    timer = Timer(f"hotpath.{scheduler_name}.{num_tenants}")
    scheduler = None
    build: Callable[[str, int, float], Scheduler] = (
        make_linear_reference if linear else make_scheduler
    )
    for _ in range(max(1, repeats)):
        scheduler = build(scheduler_name, num_threads, thread_rate)
        if tracer_factory is not None:
            scheduler.attach_tracer(tracer_factory())
        initial = _build_backlog(scheduler_name, num_tenants, seed)
        for request in initial:
            scheduler.enqueue(request, 0.0)
        # Pre-build replacement requests outside the timed region; the
        # loop only rebinds their tenant to whoever was just served, so
        # the backlog stays at exactly ``num_tenants`` tenants.
        replacements = [
            Request(tenant_id="", cost=float(cost)) for cost in replacement_costs
        ]
        dequeue = scheduler.dequeue
        complete = scheduler.complete
        enqueue = scheduler.enqueue
        dt = 1e-4
        now = 0.0
        with quiesced_gc(), timer:
            for i, replacement in enumerate(replacements):
                now += dt
                out = dequeue(i % num_threads, now)
                complete(out, out.cost, now)
                replacement.tenant_id = out.tenant_id
                replacement.api = out.api
                enqueue(replacement, now)
        best = min(best, timer.last)
    record: Dict[str, Union[str, int, float, bool, Dict[str, int]]] = {
        "scheduler": scheduler_name,
        "tenants": num_tenants,
        "threads": num_threads,
        "linear": linear,
        "ops": ops,
        "seconds": best,
        "rps": ops / best if best > 0 else float("inf"),
    }
    index = getattr(scheduler, "selection_index", None)
    if index is not None:
        # Churn of the final repetition; the workload is deterministic,
        # so every repetition churns identically.
        record["index_stats"] = index.stats()
    return record


#: Allocator-perturbation pad bounds for paired measurements (list
#: lengths, i.e. up to 64 KiB of backing store per pad).
_JITTER_PAD_RANGE = (16, 8192)


def measure_paired_cell(
    scheduler_name: str,
    num_tenants: int,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 2,
) -> Tuple[Dict[str, Dict], List[float]]:
    """Measure one (scheduler, backlog) cell as shipped and on its linear
    reference, with repetitions interleaved between the two and the
    allocator perturbed between builds.

    Timing each build in its own best-of-k session is biased: the
    identical build sequence lands the hot dicts at the same arena
    offsets every repetition, so two sessions running byte-identical
    code can differ by 10-20% *consistently* -- drift that best-of-k
    cannot average away.  Interleaving the builds and holding a
    pseudorandom-length pad alive across each measurement decorrelates
    the layouts, and per-repetition *paired* ratios cancel whatever
    session drift remains.

    Returns ``(cells, ratios)``: ``cells["indexed"]`` and
    ``cells["linear"]`` as produced by :func:`measure_dequeue_throughput`
    (``rps`` = best of ``repeats``), and the per-repetition rps ratio of
    the shipped index against the linear reference.
    """
    rng = make_rng(seed, "hotpath-layout", scheduler_name, str(num_tenants))
    samples: Dict[str, List[float]] = {"indexed": [], "linear": []}
    cells: Dict[str, Dict] = {}
    for _ in range(max(1, repeats)):
        for mode in ("indexed", "linear"):
            pad = [0] * int(rng.integers(*_JITTER_PAD_RANGE))
            record = measure_dequeue_throughput(
                scheduler_name,
                num_tenants,
                num_threads=num_threads,
                ops=ops,
                seed=seed,
                linear=mode == "linear",
                repeats=1,
            )
            del pad
            samples[mode].append(float(record["rps"]))
            prev = cells.get(mode)
            if prev is None or record["rps"] > prev["rps"]:
                cells[mode] = record
    ratios = [
        rps / ref if ref else float("inf")
        for rps, ref in zip(samples["indexed"], samples["linear"])
    ]
    return cells, ratios


def _audited_tracer(scheduler_name: str, num_threads: int) -> Tracer:
    """The ``--audit`` sink stack on a bounded tracer: auditor + flight
    recorder fed by every event, event retention capped (streaming
    shape)."""
    tracer = Tracer(f"hotpath-audited-{scheduler_name}", max_events=2048)
    auditor = FairnessAuditor(AuditConfig(capacity=float(num_threads)), tracer)
    tracer.add_sink(auditor.on_event)
    recorder = FlightRecorder(capacity=512)
    tracer.add_sink(recorder.on_event)
    return tracer


def measure_observability_overhead(
    scheduler_name: str = "2dfq",
    num_tenants: int = 100,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 3,
) -> Dict:
    """Relative hot-path cost of each observability layer.

    Times the identical dispatch-cycle workload three ways:

    * ``disabled`` -- no tracer attached (the shipped default; every
      instrumentation site is one ``is not None`` check);
    * ``traced`` -- a bounded tracer attached (event emission into the
      tracer's ring);
    * ``audited`` -- the tracer additionally feeding the fairness
      auditor and the flight recorder as sinks (the CLI ``--audit``
      configuration).

    Returns per-mode ``rps`` and throughput relative to ``disabled``
    (1.0 = free, 0.5 = half speed).  Enabled-mode cost is recorded for
    the trajectory, not gated: only the disabled path carries a perf
    contract (DESIGN.md §9).
    """
    modes: List[Tuple[str, Optional[Callable[[], Tracer]]]] = [
        ("disabled", None),
        (
            "traced",
            lambda: Tracer(f"hotpath-traced-{scheduler_name}", max_events=2048),
        ),
        ("audited", lambda: _audited_tracer(scheduler_name, num_threads)),
    ]
    measured: Dict[str, Dict] = {}
    for mode, factory in modes:
        record = measure_dequeue_throughput(
            scheduler_name,
            num_tenants,
            num_threads=num_threads,
            ops=ops,
            seed=seed,
            repeats=repeats,
            tracer_factory=factory,
        )
        measured[mode] = {"rps": round(float(record["rps"]), 1)}
    disabled_rps = measured["disabled"]["rps"]
    for mode in measured:
        measured[mode]["relative"] = (
            round(measured[mode]["rps"] / disabled_rps, 3) if disabled_rps else 0.0
        )
    return {
        "scheduler": scheduler_name,
        "tenants": num_tenants,
        "threads": num_threads,
        "ops": ops if ops is not None else _default_ops(num_tenants),
        "modes": measured,
    }


def run_hotpath_suite(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    tenant_counts: Sequence[int] = DEFAULT_TENANT_COUNTS,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 2,
) -> Dict:
    """Measure every (scheduler, backlog size) cell as shipped and on
    its linear reference and return the comparison table as a
    JSON-ready dict."""
    rows: List[Dict] = []
    for num_tenants in tenant_counts:
        for name in schedulers:
            # Small-N cells are cheap (tens of ms each) and their ratio
            # sits near 1, so they get extra interleaved repetitions for
            # the paired estimate to converge.
            cell_repeats = repeats if num_tenants > 10 else max(4 * repeats, 12)
            cells, ratios = measure_paired_cell(
                name,
                num_tenants,
                num_threads=num_threads,
                ops=ops,
                seed=seed,
                repeats=cell_repeats,
            )
            indexed, linear = cells["indexed"], cells["linear"]
            stats = indexed.get("index_stats", {})
            rows.append(
                {
                    "scheduler": name,
                    "tenants": num_tenants,
                    "threads": num_threads,
                    "ops": indexed["ops"],
                    "indexed_rps": round(indexed["rps"], 1),
                    "linear_rps": round(linear["rps"], 1),
                    # Best paired per-repetition ratio -- pairing cancels
                    # the arena-layout session drift that biases a ratio
                    # of independent best-of runs (see
                    # measure_paired_cell).
                    "speedup": round(max(ratios), 2),
                    # SelectionIndex lazy-invalidation churn of the
                    # shipped run (absolute counts over ``ops`` cycles).
                    "stale_pops": stats.get("stale_pops", 0),
                    "heap_rebuilds": stats.get("rebuilds", 0),
                    "heap_pushes": stats.get("pushes", 0),
                    "index_touches": stats.get("touches", 0),
                }
            )
    return {
        "meta": {
            "benchmark": "scheduler-hotpath-dequeue-throughput",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "num_threads": num_threads,
            "seed": seed,
            "repeats": repeats,
            "note": (
                "rps = full dispatch cycles (dequeue+complete+enqueue) per "
                "wallclock second with N tenants continuously backlogged, "
                "for each indexed policy as shipped (indexed_rps) and on "
                "its linear-scan reference (linear_rps); repetitions are "
                "interleaved between the two with the allocator "
                "perturbed between builds, and speedup is the best "
                "paired per-repetition indexed/linear rps ratio "
                "(pairing cancels arena-layout session drift; small-N "
                "cells run extra repetitions); stale_pops/heap_rebuilds/"
                "heap_pushes/index_touches = SelectionIndex "
                "lazy-invalidation churn of the shipped run; no tracer "
                "attached (disabled-tracing default)"
            ),
        },
        "results": rows,
    }


def format_results(payload: Dict) -> str:
    """Render the suite results as an aligned text table."""
    lines = [
        f"{'scheduler':<10} {'tenants':>7} {'linear rps':>12} "
        f"{'indexed rps':>12} {'speedup':>8} {'stale pops':>11} "
        f"{'rebuilds':>9}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['scheduler']:<10} {row['tenants']:>7} "
            f"{row['linear_rps']:>12.1f} {row['indexed_rps']:>12.1f} "
            f"{row['speedup']:>7.2f}x {row.get('stale_pops', 0):>11} "
            f"{row.get('heap_rebuilds', 0):>9}"
        )
    return "\n".join(lines)


def write_results(payload: Dict, path: Union[str, Path]) -> Path:
    """Persist suite results as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
