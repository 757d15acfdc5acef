"""Virtual-time scheduler framework.

Every tag-based fair queue scheduler in this library -- WFQ, WF2Q, MSF2Q,
SFQ, WF2Q+, 2DFQ and their estimated variants -- is a policy on top of
the same bookkeeping machinery, which this module implements once:

* per-tenant virtual start tags ``S_f`` (Figure 7 keeps tags per tenant
  rather than per request; for FIFO per-tenant queues the two
  formulations are equivalent, and the per-tenant form is what makes
  estimated costs and retroactive charging workable);
* a system :class:`~repro.core.virtual_time.VirtualClock` advancing at
  ``capacity / active_weight``;
* cost estimation at dispatch: the tenant is charged the *estimate*
  ``l_r`` up front (``S_f += l_r / phi_f``) and the request remembers the
  remaining credit ``c_f^j``;
* **refresh charging** (paper §5): interim usage measurements consume the
  credit first, then push ``S_f`` forward immediately;
* **retroactive charging** (paper §5): at completion the final increment
  is reconciled against the remaining credit -- overcharged tenants are
  refunded (``S_f`` moves backwards), undercharged tenants pay up -- so
  every tenant is eventually charged exactly what it consumed.

Subclasses implement a single hook, :meth:`VirtualTimeScheduler._select`,
choosing a backlogged tenant given the thread index and current virtual
time, plus optionally :meth:`_fallback` for the work-conserving choice
when no tenant is *eligible* under the policy.

Each policy has exactly one selection path.  Policies whose decision
is a single ordering over the backlog -- WFQ, SFQ, WF2Q, MSF2Q, WF2Q+
and their ^E variants -- declare an :meth:`_index_spec`; they always
build a :class:`~repro.core.selection.SelectionIndex` (heaps with lazy
invalidation) at construction, and ``dequeue`` routes through
:meth:`_select_indexed` / :meth:`_fallback_indexed`, O(log N) amortized
per decision.  2DFQ, whose per-thread stagger is cheapest as one fused
pass, and external subclasses that only override :meth:`_select` keep
the linear scans (`_select` / `_fallback`), which also serve as the
reference semantics: the differential tests pin every indexed policy
dispatch-for-dispatch to its linear scan (DESIGN.md §8, §15).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

if TYPE_CHECKING:
    from ..obs.registry import Timer

from ..errors import SchedulerError
from ..estimation.base import CostEstimator
from ..units import Cost, Rate, SimTime, VirtualTime
from ..estimation.oracle import OracleEstimator
from .request import Request, RequestPhase
from .scheduler import MIN_COST, Scheduler, TenantState
from .selection import SelectionIndex
from .virtual_time import VirtualClock

__all__ = ["VirtualTimeScheduler"]

#: Slack applied to eligibility comparisons to absorb floating-point
#: round-off in virtual-time arithmetic.
_ELIGIBILITY_EPS = 1e-9


class VirtualTimeScheduler(Scheduler):
    """Base class for tag-based fair schedulers over a thread pool.

    Parameters
    ----------
    num_threads, thread_rate:
        Shape of the worker pool; aggregate capacity is their product.
    estimator:
        Cost estimator consulted at dispatch time.  Defaults to the
        oracle (true costs), which yields the paper's "known request
        costs" algorithms; pass an
        :class:`~repro.estimation.ema.EMAEstimator` or
        :class:`~repro.estimation.pessimistic.PessimisticEstimator` for
        the ^E variants.
    """

    def __init__(
        self,
        num_threads: int,
        thread_rate: Rate = 1.0,
        estimator: Optional[CostEstimator] = None,
    ) -> None:
        super().__init__(num_threads, thread_rate)
        self._estimator = estimator if estimator is not None else OracleEstimator()
        self._clock = VirtualClock(self.capacity)
        # Tenants with at least one queued request, i.e. the candidates
        # for dequeue.  dict preserves insertion order, giving stable
        # iteration for deterministic tie-breaking.
        self._backlogged: dict[str, TenantState] = {}
        spec = self._index_spec()
        self._index: Optional[SelectionIndex] = (
            SelectionIndex(self._estimator, **spec) if spec is not None else None
        )

    # -- introspection ---------------------------------------------------------

    @property
    def estimator(self) -> CostEstimator:
        return self._estimator

    @property
    def selection_index(self) -> Optional[SelectionIndex]:
        return self._index

    @property
    def virtual_clock(self) -> VirtualClock:
        return self._clock

    def virtual_time(self, now: SimTime) -> VirtualTime:
        """Current system virtual time ``v(now)`` (advances the clock)."""
        return self._clock.advance(now)

    def backlogged_tenants(self) -> Iterable[TenantState]:
        return self._backlogged.values()

    def set_estimator(self, estimator: CostEstimator) -> None:
        """Swap the cost estimator at runtime (fault injection).

        The selection index caches finish/start tags computed from head
        estimates, so every backlogged tenant is re-touched to keep the
        index coherent with the new estimator's view.
        """
        self._estimator = estimator
        if self._index is not None:
            self._index.set_estimator(estimator)
            for state in self._backlogged.values():
                self._index.touch(state)

    def reindex_backlogged(self) -> None:
        """Re-touch every backlogged tenant in the selection index.

        Needed when head estimates change outside the ``observe()`` path
        -- e.g. a :class:`~repro.faults.FaultyEstimator` entering or
        leaving an outage/bias window shifts *all* estimates at once.
        """
        if self._index is not None:
            for state in self._backlogged.values():
                self._index.touch(state)

    # -- scheduler contract ------------------------------------------------------

    def enqueue(self, request: Request, now: SimTime) -> None:
        state = self._state_for(request)
        trace = self._trace
        if not state.active:
            # Newly active tenant: join the virtual clock and fast-forward
            # the start tag (Figure 7, lines 2-5).  ``add_weight`` advances
            # the clock internally so the slope change is exact.
            self._clock.add_weight(state.weight, now)
            state.start_tag = max(state.start_tag, self._clock.value)
            state.active = True
            if trace is not None:
                trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="tenant_active",
                    active_weight=self._clock.active_weight,
                    start_tag=state.start_tag,
                )
        else:
            self._clock.advance(now)
        state.queue.append(request)
        self._backlogged[state.tenant_id] = state
        self._note_enqueued(request)
        if len(state.queue) == 1:
            # A new head request (and possibly a fast-forwarded start
            # tag); deeper enqueues change neither the head nor the tag.
            if self._index is not None:
                self._index.touch(state)
        if trace is not None:
            trace.enqueue(
                now,
                self._clock.value,
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                cost=request.cost,
                start_tag=state.start_tag,
                queue_depth=len(state.queue),
                backlog=self._size,
            )

    def dequeue(self, thread_id: int, now: SimTime) -> Optional[Request]:
        self._check_thread(thread_id)
        if not self._backlogged:
            return None
        index = self._index
        # Per-phase profiling timers (ISSUE spans tentpole): only fetched
        # while a tracer is attached, so the disabled hot path stays one
        # ``is not None`` check per phase.  The clock behind the timers
        # is injectable -- the runner attaches the sim clock for traced
        # runs, the perf harness keeps the host clock.
        trace = self._trace
        phase_timer: Optional["Timer"] = None
        if trace is not None:
            phase_timer = trace.registry.timer("scheduler.phase.vt_update").start()
        vnow = self._clock.advance(now)
        vnow = self._adjust_virtual_time(vnow)
        if phase_timer is not None and trace is not None:
            phase_timer.stop()
            phase_timer = trace.registry.timer("scheduler.phase.select").start()
        if index is not None:
            state = self._select_indexed(thread_id, vnow)
            if state is None:
                # Work conservation: requests are queued, so pick something.
                fallback = True
                state = self._fallback_indexed(thread_id, vnow)
            else:
                fallback = False
        else:
            state = self._select(thread_id, vnow)
            if state is None:
                fallback = True
                state = self._fallback(thread_id, vnow)
            else:
                fallback = False
        if phase_timer is not None:
            phase_timer.stop()
        if state is None:
            raise SchedulerError(
                f"{type(self).__name__} violated work conservation with "
                f"{self._size} queued requests"
            )
        if trace is not None:
            trace.select(
                now,
                vnow,
                state.tenant_id,
                thread=thread_id,
                policy=self.name,
                start_tag=state.start_tag,
                finish_tag=self._finish_tag(state),
                eligible=self._trace_eligible_count(thread_id, vnow),
                backlogged=len(self._backlogged),
                fallback=fallback,
                stagger=self._trace_stagger(thread_id),
                indexed=index is not None,
            )
        request = state.queue.popleft()
        if not state.queue:
            del self._backlogged[state.tenant_id]
        # Charge the estimate up front (Figure 7, lines 22-24).
        estimate = max(self._estimator.estimate(request), MIN_COST)
        request.charged_cost = estimate
        request.credit = estimate
        state.start_tag += estimate / state.weight
        state.running += 1
        if index is not None:
            if trace is not None:
                phase_timer = trace.registry.timer("scheduler.phase.index").start()
            if state.queue:
                index.touch(state)
            else:
                index.drop(state)
            if phase_timer is not None:
                phase_timer.stop()
        self._note_dispatched(request, thread_id, now)
        if trace is not None:
            trace.dispatch(
                now,
                vnow,
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                thread=thread_id,
                estimate=estimate,
                start_tag_after=state.start_tag,
                backlog=self._size,
            )
        return request

    def refresh(self, request: Request, usage: Cost, now: SimTime) -> None:
        """Refresh charging (Figure 7, Refresh): consume pre-paid credit,
        then charge any excess to the tenant's clock immediately."""
        request.reported_usage += usage
        if usage < request.credit:
            request.credit -= usage
        else:
            state = self._tenants[request.tenant_id]
            state.start_tag += (usage - request.credit) / state.weight
            request.credit = 0.0
            if self._index is not None and state.queue:
                self._index.touch(state)
            if self._trace is not None:
                self._trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="refresh_charge",
                    seqno=request.seqno,
                    usage=usage,
                    start_tag=state.start_tag,
                )

    def complete(self, request: Request, usage: Cost, now: SimTime) -> None:
        """Retroactive charging (Figure 7, Complete): reconcile the final
        usage increment against the remaining credit.  If the request was
        overcharged the adjustment is negative -- a refund.

        The final increment is reconciled against the request's true
        cost rather than taken at face value: interim refresh
        measurements are wallclock-delta products whose float round-off
        would otherwise leave a permanent residual in ``start_tag``.
        After completion the tenant has been charged exactly
        ``cost / weight`` virtual time for the request (up to one
        rounding per charge increment), and the estimator observes the
        exact cost.
        """
        if request.phase == RequestPhase.CANCELLED:
            return  # stale completion racing a cancel: already refunded
        state = self._tenants.get(request.tenant_id)
        if state is None or state.running <= 0:
            raise SchedulerError(
                f"complete() for request of unknown/idle tenant {request.tenant_id}"
            )
        self._clock.advance(now)
        final = request.cost - request.reported_usage
        request.reported_usage = request.cost
        state.start_tag += (final - request.credit) / state.weight
        request.credit = 0.0
        state.running -= 1
        self._estimator.observe(request, request.reported_usage)
        if self._index is not None and state.queue:
            # Both the start tag and (via observe) the tenant's head
            # estimate may have moved.
            self._index.touch(state)
        trace = self._trace
        if trace is not None:
            trace.complete(
                now,
                self._clock.value,
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                actual=request.cost,
                charged=request.charged_cost,
                start_tag_after=state.start_tag,
                running=state.running,
            )
        if not state.queue and state.running == 0 and state.active:
            # The tenant goes idle.  Figure 7 removes it from the active
            # set as soon as its queue drains; we additionally wait for
            # running requests to finish so that in-flight work keeps
            # receiving (and paying for) virtual-clock share.
            state.active = False
            self._clock.remove_weight(state.weight, now)
            if trace is not None:
                trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="tenant_idle",
                    active_weight=self._clock.active_weight,
                )
        super().complete(request, 0.0, now)

    # -- cancellation ---------------------------------------------------------------

    def _cancel_queued(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        """Remove a queued request.  Nothing has been charged for a
        queued request (charges happen at dispatch), so only the backlog
        structures need repair: the tenant queue, the backlogged set,
        the selection index, and -- when the tenant has no other work --
        its active-weight contribution to the virtual clock."""
        try:
            state.queue.remove(request)
        except ValueError:
            return False
        self._clock.advance(now)
        if not state.queue:
            self._backlogged.pop(state.tenant_id, None)
            if self._index is not None:
                self._index.drop(state)
            if state.running == 0 and state.active:
                state.active = False
                self._clock.remove_weight(state.weight, now)
                if self._trace is not None:
                    self._trace.vt_update(
                        now,
                        self._clock.value,
                        state.tenant_id,
                        reason="tenant_idle",
                        active_weight=self._clock.active_weight,
                    )
        elif self._index is not None:
            # The head request may have changed.
            self._index.touch(state)
        return True

    def _cancel_running(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        """Refund the virtual-time charge of an in-flight request.

        The cumulative charge applied to ``start_tag`` for a running
        request is ``(reported_usage + credit) / weight``: the dispatch
        charged ``estimate / weight`` (leaving ``credit = estimate``),
        and each refresh either consumed credit (net charge unchanged)
        or pushed the tag by the overage (growing ``reported_usage``
        past the exhausted credit).  Subtracting it restores the tag to
        its pre-dispatch value, mirroring the ``complete()``
        reconciliation with a final usage of zero.
        """
        if state.running <= 0:
            return False
        self._clock.advance(now)
        state.start_tag -= (request.reported_usage + request.credit) / state.weight
        state.running -= 1
        if self._index is not None and state.queue:
            self._index.touch(state)
        if self._trace is not None:
            self._trace.vt_update(
                now,
                self._clock.value,
                state.tenant_id,
                reason="cancel_refund",
                seqno=request.seqno,
                refund=request.reported_usage + request.credit,
                start_tag=state.start_tag,
            )
        if not state.queue and state.running == 0 and state.active:
            state.active = False
            self._clock.remove_weight(state.weight, now)
            if self._trace is not None:
                self._trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="tenant_idle",
                    active_weight=self._clock.active_weight,
                )
        return True

    def _trace_virtual_time(self) -> Optional[VirtualTime]:
        return self._clock.value

    # -- policy hooks ---------------------------------------------------------------

    def _adjust_virtual_time(self, vnow: VirtualTime) -> VirtualTime:
        """Hook for policies that reshape virtual time (WF2Q+)."""
        return vnow

    def _select(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Choose a backlogged tenant for ``thread_id`` at virtual time
        ``vnow``; return ``None`` if no tenant is eligible under the
        policy (the framework then calls :meth:`_fallback`).

        This is the *reference* linear-scan hook; it stays O(N) and
        readable.  Policies that also provide :meth:`_index_spec` and
        :meth:`_select_indexed` dispatch through the O(log N) path
        instead; this hook then only serves as the differential
        reference.
        """
        raise NotImplementedError

    def _fallback(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Work-conserving choice when nothing is eligible.  Default:
        smallest finish tag, i.e. the WFQ decision."""
        return self._min_finish(self._backlogged.values())

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        """Describe the ordered structures this policy's indexed
        selection needs, as keyword arguments for
        :class:`~repro.core.selection.SelectionIndex` (``finish``,
        ``start``, ``eligible``); the index is built at construction.
        Return ``None`` (the default) to run on the linear scans only --
        which is what external subclasses that merely override
        :meth:`_select` get, unchanged.
        """
        return None

    def _select_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Indexed counterpart of :meth:`_select`; must make the exact
        same decision.  Only called when :meth:`_index_spec` returned a
        spec."""
        raise NotImplementedError

    def _fallback_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Indexed counterpart of :meth:`_fallback` (default: smallest
        finish tag from the index)."""
        index = self._index
        if index is None:  # only reachable if dequeue's routing is broken
            raise SchedulerError("indexed fallback invoked without an index")
        return index.min_finish()

    # -- tracing hooks (only called while a tracer is attached) -----------------

    def _trace_eligible_count(self, thread_id: int, vnow: VirtualTime) -> int:
        """Size of this policy's eligibility set at ``vnow`` -- the
        ``E_now`` of Figure 7, recorded in ``select`` trace events.

        The default (no eligibility gate: WFQ, SFQ) is the whole
        backlogged set; gated policies override.  Runs only under an
        attached tracer, so an O(N) scan is acceptable here even for
        indexed policies.
        """
        return len(self._backlogged)

    def _trace_stagger(self, thread_id: int) -> float:
        """Per-thread eligibility stagger offset recorded in ``select``
        trace events (2DFQ: ``thread_id / n``; everything else: 0)."""
        return 0.0

    # -- selection primitives shared by the policies -----------------------------------

    def _head_estimate(self, state: TenantState) -> Cost:
        """Estimated cost of the tenant's head request."""
        return max(self._estimator.estimate(state.queue[0]), MIN_COST)

    def _finish_tag(self, state: TenantState) -> VirtualTime:
        """Virtual finish time of the head request:
        ``F_f = S_f + l_head / phi_f`` (Figure 7, line 21)."""
        return state.start_tag + self._head_estimate(state) / state.weight

    def _min_finish(
        self, candidates: Iterable[TenantState]
    ) -> Optional[TenantState]:
        """Tenant with the smallest head finish tag.

        Ties are broken toward the *smaller* estimated cost, then by the
        head request's global sequence number.  The size tie-break
        matches the paper's worked example (Figure 5c: at t=3 the F=4
        tie between a4/b4 and c1/d1 resolves to the small requests, so
        WFQ runs four A/B rounds before the C/D block) and is the choice
        that minimizes potential blocking when tags are equal.
        """
        best: Optional[TenantState] = None
        best_key: tuple[float, float, int] = (float("inf"), float("inf"), 0)
        for state in candidates:
            estimate = self._head_estimate(state)
            key = (
                state.start_tag + estimate / state.weight,
                estimate,
                state.queue[0].seqno,
            )
            if key < best_key:
                best, best_key = state, key
        return best

    def _min_start(self, candidates: Iterable[TenantState]) -> Optional[TenantState]:
        """Tenant with the smallest start tag (SFQ decision); same
        size-then-seqno tie-breaking as :meth:`_min_finish`."""
        best: Optional[TenantState] = None
        best_key: tuple[float, float, int] = (float("inf"), float("inf"), 0)
        for state in candidates:
            key = (
                state.start_tag,
                self._head_estimate(state),
                state.queue[0].seqno,
            )
            if key < best_key:
                best, best_key = state, key
        return best

    @staticmethod
    def _eligibility_threshold(vnow: VirtualTime) -> VirtualTime:
        """Upper bound on (staggered) start tags counted as eligible at
        virtual time ``vnow``: the slack absorbs float round-off in
        virtual-time arithmetic.  Shared by the linear scans and the
        selection index so both paths gate on identical values."""
        return vnow + _ELIGIBILITY_EPS * max(1.0, abs(vnow))

    @classmethod
    def _eligible(cls, start_tag: VirtualTime, vnow: VirtualTime) -> bool:
        """Eligibility test with float slack: ``S_f <= v(now)``."""
        return start_tag <= cls._eligibility_threshold(vnow)
