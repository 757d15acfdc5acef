"""Scheduler-decision tracer.

One :class:`Tracer` collects the typed events of one run (see
:mod:`repro.obs.events` for the taxonomy) plus a
:class:`~repro.obs.registry.MetricsRegistry` of named counters shared by
every instrumented component of that run.

Overhead contract
-----------------
Tracing must cost (close to) nothing when off.  Instrumented components
hold a ``_trace`` attribute that is either ``None`` or an *enabled*
tracer, and every instrumentation site is guarded by a single attribute
check::

    trace = self._trace
    if trace is not None:
        trace.select(...)

``attach_tracer`` enforces the invariant: attaching ``None`` or a
disabled tracer stores ``None``, so the disabled mode is exactly one
``is not None`` test per instrumented operation, and an untraced run
builds no event and calls no ``_trace_*`` hook
(``tests/test_obs_tracer.py::TestDisabledTracerContract``).

When enabled, emission is one dataclass construction and a list append;
``max_events`` bounds memory for long runs (overflow is counted, not
silently ignored).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional

from .events import (
    AUDIT,
    CANCEL,
    COMPLETE,
    DISPATCH,
    ENQUEUE,
    ESTIMATE,
    FAULT,
    INVARIANT,
    ROUTE,
    SELECT,
    VT_UPDATE,
    TraceEvent,
)
from .registry import MetricsRegistry

__all__ = ["Tracer"]


class Tracer:
    """Collects the decision events and counters of one traced run.

    Parameters
    ----------
    name:
        Label for the run (used by exporters and manifests).
    enabled:
        A disabled tracer refuses attachment (components keep their
        ``None`` fast path) and drops any direct ``emit`` call.
    max_events:
        Hard cap on retained events; further emissions only increment
        ``dropped_events``.  ``None`` (default) keeps everything.

    Streaming consumers -- the online fairness auditor and the flight
    recorder -- register as *sinks* (:meth:`add_sink`) and see every
    emitted event, including those dropped from the retained list once
    ``max_events`` overflows: bounded consumers must keep working
    precisely on the runs too long to retain in full.
    """

    __slots__ = (
        "name",
        "enabled",
        "events",
        "registry",
        "dropped_events",
        "_max",
        "_sinks",
    )

    def __init__(
        self,
        name: str = "trace",
        enabled: bool = True,
        max_events: Optional[int] = None,
    ) -> None:
        self.name = name
        self.enabled = bool(enabled)
        self.events: List[TraceEvent] = []
        self.registry = MetricsRegistry()
        self.dropped_events = 0
        self._max = max_events
        self._sinks: List[Callable[[TraceEvent], None]] = []

    # -- emission --------------------------------------------------------------

    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register a streaming consumer called with every emitted event.

        Sinks run synchronously at emission, before the retained-list
        append, and are *not* subject to ``max_events``.  A sink that
        emits events of its own (the auditor does) re-enters ``emit``;
        sinks must therefore ignore the kinds they produce.
        """
        self._sinks.append(sink)

    def emit(self, event: TraceEvent) -> None:
        """Append one event (respects ``enabled`` and ``max_events``)."""
        if not self.enabled:
            return
        for sink in self._sinks:
            sink(event)
        if self._max is not None and len(self.events) >= self._max:
            self.dropped_events += 1
            return
        self.events.append(event)

    # Typed emitters: thin wrappers that fix the ``kind`` and name the
    # payload fields, so instrumentation sites read like the taxonomy.

    def enqueue(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        seqno: int,
        api: str,
        cost: float,
        start_tag: float,
        queue_depth: int,
        backlog: int,
    ) -> None:
        self.emit(
            TraceEvent(
                ENQUEUE,
                t,
                vt,
                tenant,
                {
                    "seqno": seqno,
                    "api": api,
                    "cost": cost,
                    "start_tag": start_tag,
                    "queue_depth": queue_depth,
                    "backlog": backlog,
                },
            )
        )

    def select(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        thread: int,
        policy: str,
        start_tag: float,
        finish_tag: float,
        eligible: int,
        backlogged: int,
        fallback: bool,
        stagger: float,
        indexed: bool,
    ) -> None:
        self.emit(
            TraceEvent(
                SELECT,
                t,
                vt,
                tenant,
                {
                    "thread": thread,
                    "policy": policy,
                    "start_tag": start_tag,
                    "finish_tag": finish_tag,
                    "eligible": eligible,
                    "backlogged": backlogged,
                    "fallback": fallback,
                    "stagger": stagger,
                    "indexed": indexed,
                },
            )
        )

    def dispatch(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        seqno: int,
        api: str,
        thread: int,
        estimate: float,
        start_tag_after: float,
        backlog: int,
    ) -> None:
        self.registry.counter("scheduler.dispatches").inc()
        self.emit(
            TraceEvent(
                DISPATCH,
                t,
                vt,
                tenant,
                {
                    "seqno": seqno,
                    "api": api,
                    "thread": thread,
                    "estimate": estimate,
                    "start_tag_after": start_tag_after,
                    "backlog": backlog,
                },
            )
        )

    def complete(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        seqno: int,
        api: str,
        actual: float,
        charged: float,
        start_tag_after: float,
        running: int,
    ) -> None:
        self.registry.counter("scheduler.completions").inc()
        self.emit(
            TraceEvent(
                COMPLETE,
                t,
                vt,
                tenant,
                {
                    "seqno": seqno,
                    "api": api,
                    "actual": actual,
                    "charged": charged,
                    "error": charged - actual,
                    "start_tag_after": start_tag_after,
                    "running": running,
                },
            )
        )

    def vt_update(
        self,
        t: float,
        vt: float,
        tenant: Optional[str],
        *,
        reason: str,
        **fields: Any,
    ) -> None:
        data = {"reason": reason}
        data.update(fields)
        self.emit(TraceEvent(VT_UPDATE, t, vt, tenant, data))

    def cancel(
        self,
        t: float,
        vt: Optional[float],
        tenant: str,
        *,
        seqno: int,
        api: str,
        was_running: bool,
        backlog: int,
    ) -> None:
        self.registry.counter("scheduler.cancellations").inc()
        self.emit(
            TraceEvent(
                CANCEL,
                t,
                vt,
                tenant,
                {
                    "seqno": seqno,
                    "api": api,
                    "was_running": was_running,
                    "backlog": backlog,
                },
            )
        )

    def fault(
        self,
        t: float,
        fault: str,
        *,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> None:
        self.registry.counter(f"faults.{fault}").inc()
        data = {"fault": fault}
        data.update(fields)
        self.emit(TraceEvent(FAULT, t, None, tenant, data))

    def invariant(
        self,
        t: float,
        code: str,
        *,
        vt: Optional[float] = None,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> None:
        self.registry.counter("validate.violations").inc()
        data = {"code": code}
        data.update(fields)
        self.emit(TraceEvent(INVARIANT, t, vt, tenant, data))

    def estimate(
        self,
        t: float,
        tenant: str,
        *,
        api: str,
        old: Optional[float],
        new: float,
        actual: float,
    ) -> None:
        self.registry.counter("estimator.refreshes").inc()
        self.emit(
            TraceEvent(
                ESTIMATE,
                t,
                None,
                tenant,
                {"api": api, "old": old, "new": new, "actual": actual},
            )
        )

    def route(
        self,
        t: float,
        tenant: str,
        *,
        seqno: int,
        server: Optional[int],
        policy: str,
        healthy: int,
        backlog: int,
        accepted: bool,
        reason: Optional[str] = None,
    ) -> None:
        """One fleet routing decision: request ``seqno`` placed on
        ``server`` (or refused -- ``accepted=False`` with a ``reason``
        and ``server=None``) by router ``policy`` choosing among
        ``healthy`` routable servers with ``backlog`` requests queued
        fleet-wide at decision time."""
        self.registry.counter("fleet.route_decisions").inc()
        if not accepted:
            self.registry.counter("fleet.rejections").inc()
        data = {
            "seqno": seqno,
            "server": server,
            "policy": policy,
            "healthy": healthy,
            "backlog": backlog,
            "accepted": accepted,
        }
        if reason is not None:
            data["reason"] = reason
        self.emit(TraceEvent(ROUTE, t, None, tenant, data))

    def audit(
        self,
        t: float,
        monitor: str,
        *,
        vt: Optional[float] = None,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> None:
        self.registry.counter(f"audit.{monitor}").inc()
        data = {"monitor": monitor}
        data.update(fields)
        self.emit(TraceEvent(AUDIT, t, vt, tenant, data))

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def __repr__(self) -> str:
        return (
            f"Tracer({self.name!r}, enabled={self.enabled}, "
            f"events={len(self.events)})"
        )
