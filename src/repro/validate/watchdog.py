"""The scheduler invariant watchdog.

A :class:`ValidatingScheduler` is a transparent proxy around a real
scheduler: every call of the five-method contract (enqueue / dequeue /
refresh / complete / cancel) is forwarded unchanged, and before/after
each call the watchdog re-checks the invariant catalogue below.  The
wrapped scheduler's behaviour is never altered -- with ``strict=False``
a violating run produces the same results as an unwatched one, plus the
violation report; with ``strict=True`` (the default) the first
violation raises :class:`~repro.errors.InvariantViolation` with full
event context.

Invariant catalogue (DESIGN.md §11):

``vt-monotonic``
    System virtual time never decreases (checked after every call, for
    virtual-time schedulers).  ``cancel`` is a reset point: a refund may
    retract WF2Q+ jump elevation the surviving backlog no longer
    supports, so monotonicity is re-based at the post-cancel value.
``work-conservation``
    ``dequeue`` never returns ``None`` while requests are queued
    (paper §2, "Desirable Properties").
``no-lost-requests`` / ``no-duplicate-requests``
    Every enqueued request is dispatched, completed, or cancelled
    exactly once: the watchdog mirrors the request lifecycle in its own
    seqno maps and flags a request the scheduler forgot (lost) or
    handed out twice / re-admitted while live (duplicated).
``backlog-consistency``
    The scheduler's ``backlog`` counter equals the number of requests
    the lifecycle mirror believes are queued (checked after every call)
    and, on the periodic full audit, equals the sum of per-tenant queue
    lengths, with each queued request tracked and each active flag
    consistent with queue + running occupancy.
``phase-consistency``
    Requests returned by ``dequeue`` are RUNNING, acknowledged cancels
    are CANCELLED, completions are DONE.
``charge-reconciliation``
    After ``complete()`` on a virtual-time scheduler the request has
    been charged exactly its measured cost
    (``reported_usage == cost``; paper §5 retroactive charging).

The watchdog costs two dict operations plus a handful of comparisons
per contract call and an O(N) structural audit every ``audit_interval``
calls; it is strictly opt-in and never on the benchmarked hot path.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.request import Request, RequestPhase
from ..core.scheduler import Scheduler
from ..core.vt_base import VirtualTimeScheduler
from ..errors import InvariantViolation

if TYPE_CHECKING:  # import cycle: repro.obs instruments core schedulers
    from ..obs.tracer import Tracer

__all__ = ["ValidatingScheduler", "env_validate"]

#: Relative slack for float comparisons (virtual-time round-off).
_EPS = 1e-9


def env_validate() -> bool:
    """True when the ``REPRO_VALIDATE`` environment variable requests
    validation for every run in this process (the CI chaos job sets it;
    pool workers inherit the environment, so it applies under any
    ``jobs`` setting)."""
    return os.environ.get("REPRO_VALIDATE", "").strip().lower() not in (
        "", "0", "false", "no",
    )


class ValidatingScheduler:
    """Invariant-checking proxy around any :class:`Scheduler`.

    Parameters
    ----------
    inner:
        The scheduler to wrap.  All attributes not shadowed here
        (``backlog``, ``tenants()``, policy internals, ...) delegate to
        it, so the proxy drops into every place a scheduler fits.
    strict:
        Raise :class:`InvariantViolation` on the first violation
        (default).  ``strict=False`` records and reports only.
    audit_interval:
        Contract calls between full O(N) structural audits (per-call
        checks are O(1) and always on).
    """

    def __init__(
        self,
        inner: Scheduler,
        strict: bool = True,
        audit_interval: int = 64,
    ) -> None:
        self._inner = inner
        self._strict = strict
        self._audit_interval = max(1, int(audit_interval))
        self._is_vt = isinstance(inner, VirtualTimeScheduler)
        self._queued: Dict[int, Request] = {}
        self._running: Dict[int, Request] = {}
        self._last_vt = float("-inf")
        self._ops = 0
        self.violations: List[Dict[str, Any]] = []
        self._trace: Optional["Tracer"] = None

    # -- proxy plumbing ---------------------------------------------------------

    @property
    def inner(self) -> Scheduler:
        return self._inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def attach_tracer(self, tracer: Optional["Tracer"]) -> None:
        self._inner.attach_tracer(tracer)
        self._trace = tracer if tracer is not None and tracer.enabled else None

    def summary(self) -> Dict[str, Any]:
        """Violation summary for the run manifest."""
        return {
            "strict": self._strict,
            "checked_ops": self._ops,
            "violations": len(self.violations),
            "codes": sorted({v["code"] for v in self.violations}),
        }

    def __repr__(self) -> str:
        return f"ValidatingScheduler({self._inner!r}, violations={len(self.violations)})"

    # -- contract ---------------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        seqno = request.seqno
        if seqno in self._queued or seqno in self._running:
            self._violate(
                "no-duplicate-requests",
                f"request #{seqno} enqueued while already live",
                now,
                op="enqueue",
                tenant=request.tenant_id,
                seqno=seqno,
            )
        self._inner.enqueue(request, now)
        self._queued[seqno] = request
        if request.phase != RequestPhase.QUEUED:
            self._violate(
                "phase-consistency",
                f"request #{seqno} is {request.phase} after enqueue",
                now,
                op="enqueue",
                tenant=request.tenant_id,
                seqno=seqno,
            )
        self._after("enqueue", now, request.tenant_id)

    def dequeue(self, thread_id: int, now: float) -> Optional[Request]:
        queued_before = len(self._queued)
        request = self._inner.dequeue(thread_id, now)
        if request is None:
            if queued_before > 0 and self._inner.backlog > 0:
                self._violate(
                    "work-conservation",
                    f"dequeue(thread={thread_id}) returned None with "
                    f"{self._inner.backlog} queued requests",
                    now,
                    op="dequeue",
                    thread=thread_id,
                )
            self._after("dequeue", now, None)
            return None
        seqno = request.seqno
        if self._queued.pop(seqno, None) is None:
            self._violate(
                "no-duplicate-requests",
                f"dequeue returned untracked request #{seqno} "
                "(dispatched twice or never enqueued)",
                now,
                op="dequeue",
                tenant=request.tenant_id,
                seqno=seqno,
                thread=thread_id,
            )
        self._running[seqno] = request
        if request.phase != RequestPhase.RUNNING:
            self._violate(
                "phase-consistency",
                f"request #{seqno} is {request.phase} after dequeue",
                now,
                op="dequeue",
                tenant=request.tenant_id,
                seqno=seqno,
            )
        self._after("dequeue", now, request.tenant_id)
        return request

    def refresh(self, request: Request, usage: float, now: float) -> None:
        if request.seqno not in self._running:
            self._violate(
                "no-lost-requests",
                f"refresh for request #{request.seqno} that is not running",
                now,
                op="refresh",
                tenant=request.tenant_id,
                seqno=request.seqno,
            )
        self._inner.refresh(request, usage, now)
        if request.credit < -_EPS:
            self._violate(
                "charge-reconciliation",
                f"request #{request.seqno} has negative credit {request.credit}",
                now,
                op="refresh",
                tenant=request.tenant_id,
                seqno=request.seqno,
            )
        self._after("refresh", now, request.tenant_id)

    def complete(self, request: Request, usage: float, now: float) -> None:
        seqno = request.seqno
        tracked = seqno in self._running
        stale = request.phase == RequestPhase.CANCELLED
        if not tracked and not stale:
            self._violate(
                "no-lost-requests",
                f"complete for request #{seqno} that is not running",
                now,
                op="complete",
                tenant=request.tenant_id,
                seqno=seqno,
            )
        self._inner.complete(request, usage, now)
        if request.phase == RequestPhase.DONE:
            self._running.pop(seqno, None)
            if self._is_vt and abs(request.reported_usage - request.cost) > _EPS * max(
                1.0, request.cost
            ):
                self._violate(
                    "charge-reconciliation",
                    f"request #{seqno} completed with reported usage "
                    f"{request.reported_usage} != cost {request.cost}",
                    now,
                    op="complete",
                    tenant=request.tenant_id,
                    seqno=seqno,
                )
        self._after("complete", now, request.tenant_id)

    def cancel(self, request: Request, now: float) -> bool:
        cancelled = self._inner.cancel(request, now)
        seqno = request.seqno
        if cancelled:
            if self._queued.pop(seqno, None) is None and self._running.pop(
                seqno, None
            ) is None:
                self._violate(
                    "no-lost-requests",
                    f"cancel acknowledged untracked request #{seqno}",
                    now,
                    op="cancel",
                    tenant=request.tenant_id,
                    seqno=seqno,
                )
            if request.phase != RequestPhase.CANCELLED:
                self._violate(
                    "phase-consistency",
                    f"request #{seqno} is {request.phase} after acknowledged cancel",
                    now,
                    op="cancel",
                    tenant=request.tenant_id,
                    seqno=seqno,
                )
        self._after("cancel", now, request.tenant_id)
        return cancelled

    # -- checks -----------------------------------------------------------------

    def _after(self, op: str, now: float, tenant: Optional[str]) -> None:
        self._ops += 1
        inner = self._inner
        if inner.backlog != len(self._queued):
            self._violate(
                "backlog-consistency",
                f"scheduler backlog {inner.backlog} != {len(self._queued)} "
                "tracked queued requests",
                now,
                op=op,
                tenant=tenant,
            )
        if self._is_vt:
            vt = inner.virtual_clock.value
            if op == "cancel":
                # A cancel refund may retract WF2Q+ jump elevation the
                # surviving backlog no longer supports; re-base here.
                self._last_vt = vt
            elif vt < self._last_vt - _EPS * max(1.0, abs(self._last_vt)):
                self._violate(
                    "vt-monotonic",
                    f"virtual time moved backwards: {vt} < {self._last_vt}",
                    now,
                    op=op,
                    tenant=tenant,
                    vt=vt,
                )
            self._last_vt = max(self._last_vt, vt)
        if self._ops % self._audit_interval == 0:
            self._audit(op, now)

    def _audit(self, op: str, now: float) -> None:
        """Full structural audit: per-tenant queues vs the lifecycle
        mirror, active flags vs occupancy (O(N + backlog))."""
        inner = self._inner
        total = 0
        for state in inner.tenants().values():
            total += len(state.queue)
            for queued in state.queue:
                if queued.seqno not in self._queued:
                    self._violate(
                        "no-lost-requests",
                        f"request #{queued.seqno} sits in {state.tenant_id}'s "
                        "queue but is not tracked as queued",
                        now,
                        op=op,
                        tenant=state.tenant_id,
                        seqno=queued.seqno,
                    )
            if self._is_vt and state.active != bool(state.queue or state.running):
                self._violate(
                    "backlog-consistency",
                    f"tenant {state.tenant_id} active={state.active} with "
                    f"{len(state.queue)} queued / {state.running} running",
                    now,
                    op=op,
                    tenant=state.tenant_id,
                )
        # FIFO keeps its backlog in one global queue, not the per-tenant
        # queues; its own backlog counter was already checked per call.
        if total and total != inner.backlog:
            self._violate(
                "backlog-consistency",
                f"sum of tenant queues {total} != scheduler backlog "
                f"{inner.backlog}",
                now,
                op=op,
            )

    def _violate(self, code: str, message: str, now: float, **context: Any) -> None:
        record = {"code": code, "message": message, "t": now, **context}
        self.violations.append(record)
        trace = self._trace
        if trace is not None:
            vt = context.get("vt")
            trace.invariant(
                now,
                code,
                vt=vt,
                tenant=context.get("tenant"),
                message=message,
                op=context.get("op"),
                seqno=context.get("seqno"),
            )
        if self._strict:
            raise InvariantViolation(code, message, context={**context, "t": now})
