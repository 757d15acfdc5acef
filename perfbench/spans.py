"""Span accounting for the traced benchmark run.

The benchmark splits a run's host time across the simulator's layers
without touching the program: for the duration of one traced run it
replaces the public methods at each layer boundary with wrappers that
open a *span* when control crosses into another layer, and restores
the originals afterwards.

A span records its layer, its start and its end on one stack.  A
layer's *self time* is the span's duration minus the time covered by
its child spans, so the self times of all layers telescope to the
total time covered by the outermost spans.  Calls that stay inside a
layer (a scheduler method calling another scheduler method) open no
new span; their counters still tick.

Only aggregates are kept (per-layer self time, counters, and the
individual dequeue durations for the latency percentiles), so memory
stays flat however many events a run processes.
"""

from __future__ import annotations

import inspect
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in the order the report prints them (repo modules in brackets):
#: workload/trace generation [workloads], harness [experiments, parallel],
#: event loop [simulator.clock/events], sources [simulator.sources],
#: server [simulator.server], scheduler [core], estimator [estimation],
#: GPS reference [simulator.gps], collector [metrics], obs [obs].
LAYERS: Tuple[str, ...] = (
    "workloads",
    "harness",
    "event_loop",
    "sources",
    "server",
    "scheduler",
    "estimator",
    "gps",
    "collector",
    "obs",
)


class SpanRecorder:
    """Stack of open spans plus per-layer aggregates.

    ``clock`` is injectable so the accounting can be tested against a
    deterministic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of each layer's spans that were entered from
        #: another layer (the outermost span of a same-layer call chain).
        self.span_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._depth: Dict[str, List[int]] = defaultdict(lambda: [0])
        #: Inclusive time of spans opened by wrappers given a ``timer`` key.
        self.timers: Dict[str, float] = defaultdict(float)
        self.spans = 0
        #: Accounting violations; both stay 0 unless the bookkeeping is
        #: broken: a span whose children cover more than its duration,
        #: and a child that starts before or ends after its parent.
        self.negative_self = 0
        self.escaped_children = 0
        #: Durations of dequeue spans entered from outside the scheduler.
        self.dequeue_s: List[float] = []
        # Bottom frame: the benchmark itself.  Frame layout is
        # [layer, start, covered-by-children, last-child-end].
        self._stack: List[list] = [[None, float("-inf"), 0.0, float("-inf")]]

    # -- spans ----------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        start = self.clock()
        parent = self._stack[-1]
        if start < parent[1]:
            self.escaped_children += 1
        frame = [layer, start, 0.0, start]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if own < 0.0:
            self.negative_self += 1
        if end < frame[3]:
            self.escaped_children += 1
        layer = frame[0]
        self.self_s[layer] += own
        self.span_s[layer] += duration
        self.spans += 1
        parent = self._stack[-1]
        parent[2] += duration
        parent[3] = end
        return duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Open a span around a block (used around the benchmark's own
        calls into the program: setup, each comparison, reductions)."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        count: Optional[str] = None,
        timer: Optional[str] = None,
    ) -> Callable[..., Any]:
        """``fn`` behind a span of ``layer``.

        ``count`` ticks once per call from outside every wrapper sharing
        that counter, so a method reached again through ``super()`` is one
        call; ``timer`` sums the duration of the spans this wrapper opens.
        """
        stack = self._stack
        timers = self.timers
        enter = self._enter
        exit_ = self._exit

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = exit_(frame)
                if timer is not None:
                    timers[timer] += duration

        if count is None:
            return spanned
        counts = self.counts
        depth = self._depth[count]

        def counted(*args: Any, **kwargs: Any) -> Any:
            if not depth[0]:
                counts[count] += 1
            depth[0] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    def wrap_dequeue(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Scheduler ``dequeue`` span that also records its duration and
        whether the scheduler had nothing to hand out."""
        stack = self._stack
        counts = self.counts
        enter = self._enter
        exit_ = self._exit
        durations = self.dequeue_s

        def dequeue(*args: Any, **kwargs: Any) -> Any:
            counts["scheduler.dequeue_calls"] += 1
            if stack[-1][0] == "scheduler":
                request = fn(*args, **kwargs)
            else:
                frame = enter("scheduler")
                try:
                    request = fn(*args, **kwargs)
                finally:
                    durations.append(exit_(frame))
            if request is None:
                counts["scheduler.empty_dequeues"] += 1
            return request

        return dequeue

    # -- totals -----------------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Time covered by outermost spans (what the self times sum to)."""
        return self._stack[0][2]

    @property
    def open_spans(self) -> int:
        return len(self._stack) - 1


class Instrumentation:
    """Installs span wrappers on the program's classes; undone on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []
        #: Objects created while installed, for counters they keep.
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self.gps_peak_heap = 0
        self._busy_ticks: Optional[Iterator[int]] = None

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _span(self, owner: Any, name: str, layer: str,
              count: Optional[str] = None, timer: Optional[str] = None) -> None:
        """Put ``owner.name`` (a class or module attribute) behind a span."""
        fn = owner.__dict__[name]
        self._replace(owner, name, self.recorder.wrap(fn, layer, count, timer))

    def _methods(self, owner: Any, names: Tuple[str, ...], layer: str,
                 prefix: Optional[str] = None,
                 timer: Optional[str] = None) -> None:
        """Span every function ``owner`` itself defines under ``names``;
        ``prefix`` adds a ``<prefix>.<name>_calls`` counter."""
        for name in names:
            raw = owner.__dict__.get(name)
            if inspect.isfunction(raw) and not getattr(
                raw, "__isabstractmethod__", False
            ):
                count = f"{prefix}.{name}_calls" if prefix else None
                self._span(owner, name, layer, count, timer)

    def _public_methods(self, cls: type, layer: str,
                        timer: Optional[str] = None) -> None:
        """Span every public function ``cls`` defines and that is not
        wrapped yet."""
        done = {name for owner, name, _ in self._saved if owner is cls}
        names = tuple(
            name for name in cls.__dict__
            if not name.startswith("_") and name not in done
        )
        self._methods(cls, names, layer, timer=timer)

    def _track(self, cls: type, key: str) -> None:
        """Remember every instance of ``cls`` built while installed."""
        init = cls.__dict__["__init__"]
        instances = self.instances[key]

        def tracked_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            instances.append(obj)

        self._replace(cls, "__init__", tracked_init)

    def _count_calls(self, owner: Any, name: str, key: str) -> None:
        fn = owner.__dict__[name]
        counts = self.recorder.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        self._replace(owner, name, counted)

    def install(self) -> None:
        from repro.core.scheduler import Scheduler
        from repro.core.selection import SelectionIndex
        from repro.estimation.base import CostEstimator
        from repro.experiments import production, runner
        from repro.metrics.collector import MetricsCollector
        from repro.obs.audit import FairnessAuditor
        from repro.obs.flight import FlightRecorder
        from repro.obs.registry import Counter as ObsCounter
        from repro.obs.registry import Gauge, MetricsRegistry, Timer
        from repro.obs.session import TraceSession
        from repro.obs.tracer import Tracer
        from repro.parallel import engine
        from repro.simulator.clock import Simulation
        from repro.simulator.gps import GPSReference
        from repro.simulator.server import ThreadPoolServer, Worker
        from repro.simulator.sources import (
            ArrivalProcessSource,
            BackloggedSource,
            Source,
            TraceSource,
        )
        from repro.workloads.spec import TenantSpec

        rec = self.recorder
        counts = rec.counts

        # Event loop: the run loop itself, plus every event push/cancel
        # the other layers make into it.
        self._methods(Simulation, ("run", "at", "after", "cancel"), "event_loop")
        self._track(Simulation, "simulations")

        # Sources: every event callback and the closed-loop completion hook.
        for cls in (Source, TraceSource, BackloggedSource, ArrivalProcessSource):
            self._methods(
                cls, ("start", "_fire", "_prime", "on_request_complete"), "sources"
            )
        self._count_calls(Source, "_submit", "sources.submits")

        # Server: ingress, completion and refresh events; dispatches and
        # idle-scan visits are counted without spans.
        self._methods(ThreadPoolServer, ("submit", "_finish"), "server")
        self._span(ThreadPoolServer, "_refresh_tick", "server", "server.refresh_ticks")
        self._count_calls(ThreadPoolServer, "_start", "server.dispatches")
        # Idle-scan visits run to millions per run, so they tick a C-level
        # counter; it is read into ``counts`` on uninstall.
        busy = Worker.__dict__["busy"].fget
        self._busy_ticks = itertools.count()
        tick = self._busy_ticks.__next__

        def counted_busy(worker: Any) -> bool:
            tick()
            return busy(worker)

        self._replace(Worker, "busy", property(counted_busy))

        # Scheduler: the four-call contract (plus batching) on every class
        # that defines it.
        for cls in _subclasses(Scheduler):
            self._methods(
                cls, ("enqueue", "dequeue_batch", "refresh", "complete", "cancel"),
                "scheduler", prefix="scheduler",
            )
            raw = cls.__dict__.get("dequeue")
            if inspect.isfunction(raw) and not getattr(
                raw, "__isabstractmethod__", False
            ):
                self._replace(cls, "dequeue", rec.wrap_dequeue(raw))
        self._track(SelectionIndex, "selection_indexes")

        for cls in _subclasses(CostEstimator):
            self._methods(cls, ("estimate", "observe"), "estimator",
                          prefix="estimator")

        # GPS reference: the peak heap is read after every arrival.
        arrive = GPSReference.__dict__["arrive"]

        def arrive_and_measure(gps: Any, *args: Any, **kwargs: Any) -> None:
            arrive(gps, *args, **kwargs)
            if gps.heap_size > self.gps_peak_heap:
                self.gps_peak_heap = gps.heap_size

        self._replace(GPSReference, "arrive",
                      rec.wrap(arrive_and_measure, "gps", "gps.arrive_calls"))
        self._methods(GPSReference, ("advance",), "gps", prefix="gps")
        self._methods(GPSReference, ("service",), "gps")
        self._track(GPSReference, "gps_references")

        self._methods(
            MetricsCollector,
            ("_on_submit", "_on_dispatch", "_on_complete", "result"),
            "collector",
        )
        self._span(MetricsCollector, "_sample", "collector", "collector.samples")

        # Workload generation: trace materialization and every per-request
        # cost draw (closed-loop sources draw while the simulation runs).
        generate = production.__dict__["generate_trace"]

        def generate_and_count(*args: Any, **kwargs: Any) -> Any:
            trace = generate(*args, **kwargs)
            counts["workloads.records_generated"] += len(trace)
            return trace

        self._replace(production, "generate_trace",
                      rec.wrap(generate_and_count, "workloads"))
        self._methods(production, ("thin_trace",), "workloads")
        request_sampler = TenantSpec.__dict__["request_sampler"]

        def spanned_sampler(spec: Any, rng: Any) -> Callable[[], Any]:
            return rec.wrap(request_sampler(spec, rng), "workloads",
                            "workloads.sampler_calls")

        self._replace(TenantSpec, "request_sampler", spanned_sampler)

        # Obs: the session API (looked up on every run, traced or not; its
        # time is ``obs.export_s``), the tracer's emitters, the auditor,
        # the flight recorder and the metric registry.
        for module in (runner, engine):
            self._methods(module, ("current_session",), "obs",
                          timer="obs.export_s")
        self._public_methods(TraceSession, "obs", timer="obs.export_s")
        self._span(Tracer, "emit", "obs", "obs.events")
        for cls in (Tracer, FairnessAuditor, FlightRecorder, MetricsRegistry,
                    Timer, ObsCounter, Gauge):
            self._public_methods(cls, "obs")

    def uninstall(self) -> None:
        if self._busy_ticks is not None:
            self.recorder.counts["server.busy_checks"] = next(self._busy_ticks)
            self._busy_ticks = None
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = [cls]
    for sub in cls.__subclasses__():
        for found in _subclasses(sub):
            if found not in seen:
                seen.append(found)
    return seen


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[Instrumentation]:
    """Span wrappers installed for the duration of the block."""
    inst = Instrumentation(recorder)
    try:
        inst.install()
        yield inst
    finally:
        inst.uninstall()
