"""Indexed tenant selection: O(log N) amortized scheduling decisions.

The selection primitives in :mod:`repro.core.vt_base` -- smallest finish
tag, smallest start tag, and the eligibility-gated variants -- are
written as linear scans over the backlogged set.  They are simple and
serve as the reference semantics, but every ``dequeue`` pays O(N) in the
number of backlogged tenants, which caps simulator throughput exactly
where the paper's production regime needs it (hundreds to thousands of
concurrently backlogged tenants; §4 notes tag-based schedulers admit
O(log N) implementations with ordered structures).

:class:`SelectionIndex` maintains the same orderings in binary heaps
with *lazy invalidation* and *deferred maintenance*:

* every heap entry snapshots a tenant's selection key -- ``(finish tag,
  head estimate, head seqno)`` or ``(start tag, head estimate, head
  seqno)`` -- together with the tenant's ``sel_version`` at push time;
* whenever a tenant's key may have changed (new head request, start-tag
  movement, estimator update) the scheduler calls :meth:`touch`.  A
  touch is O(1): it bumps ``sel_version`` and appends the tenant to a
  shared *dirty log* -- no heap is pushed yet.  Each maintained
  structure keeps a cursor into that log and syncs lazily, at its next
  query; log records superseded by a newer touch of the same tenant are
  skipped entirely, so back-to-back touches in one dispatch cycle
  (dequeue charge + completion reconciliation) coalesce into a single
  heap push per structure;
* superseded entries already in a heap stay there and are discarded
  when they surface at the top (classic lazy invalidation);
* when a tenant leaves the backlog the scheduler calls :meth:`drop`,
  which only bumps the version -- O(1), no heap surgery.

Eligibility-gated policies (WF2Q, MSF2Q, WF2Q+) get one pending/ready
heap pair: a touched tenant is pushed into the *pending* heap keyed by
start tag; a query drains every pending entry whose start tag is within
the eligibility threshold into the *ready* heap, keyed by finish tag.
Because system virtual time never moves backwards, the threshold passed
to :meth:`min_eligible_finish` is non-decreasing, so each entry crosses
the gate exactly once per version.

2DFQ has no index: its per-thread stagger ``S_f - (i/n) * l_head``
would need one gate per thread, and the fused linear scan in
:mod:`repro.core.twodfq` is cheaper on every shipped workload
(DESIGN.md §15).

Contract with cost estimators
-----------------------------
Keys are snapshotted when a dirty-log record is first synced, so the
index is only coherent if a queued request's estimate can change
*solely* through ``observe()`` calls for the same tenant (estimators
key their state on ``(tenant_id, api)``; see
:mod:`repro.estimation.base`) -- every such change site in
:mod:`repro.core.vt_base` pairs with a :meth:`touch`, which supersedes
the memoized snapshot.  Every estimator in this library satisfies
that; a custom estimator whose estimates drift spontaneously needs a
:meth:`~repro.core.vt_base.VirtualTimeScheduler.reindex_backlogged`
call after each drift.

The per-record snapshot is also a *head-estimate cache*: the estimate
is computed once per effective touch and reused by every structure
that syncs the record, instead of once per candidate per dequeue as in
the linear scans.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SchedulerError
from ..estimation.base import CostEstimator
from ..units import Cost, VirtualTime
from .scheduler import MIN_COST, TenantState

__all__ = ["SelectionIndex"]

#: One lazy-invalidation heap entry.  The *prefix* is the policy's sort
#: key -- ``(finish, estimate, seqno)`` for the finish and ready heaps,
#: ``(start, estimate, seqno)`` for the start heap, ``(start, finish,
#: estimate, seqno)`` for the pending heap -- and every entry ends with
#: the fixed ``(..., sel_version, state)`` suffix the invalidation
#: machinery reads via ``entry[-2]`` / ``entry[-1]``.  Entries are plain
#: tuples (not objects) because heapq compares them lexicographically on
#: the hot path; ``seqno`` (unique per head request) and the version
#: break every tie before the non-comparable ``state`` is reached.  The
#: element type is ``Any`` so reads need no runtime ``cast``.
_HeapEntry = Tuple[Any, ...]

#: One dirty-log record: ``[state, version, snapshot]`` where
#: ``snapshot`` is ``None`` until the first structure to sync the record
#: memoizes ``(start, finish, estimate, seqno)``.
_LogRecord = List[Any]

#: The memoized ``(start, finish, estimate, seqno)`` of a log record.
_Snapshot = Tuple[VirtualTime, VirtualTime, Cost, int]

#: Heaps are compacted (stale entries filtered out, then re-heapified)
#: once they grow past ``max(_COMPACT_MIN, 2 * live_entries)``; amortized
#: O(1) per push, and it bounds memory at O(backlogged tenants) per heap.
_COMPACT_MIN = 128

#: The dirty log is flushed into every structure (and cleared) once it
#: grows past ``max(_LOG_COMPACT_MIN, 4 * records flushed last time)``,
#: bounding its memory at O(backlogged tenants) between rarely-queried
#: structures' syncs.
_LOG_COMPACT_MIN = 256


class SelectionIndex:
    """Lazy-invalidation heap index over the backlogged tenant set.

    Parameters
    ----------
    estimator:
        The scheduler's cost estimator; consulted once per effective
        :meth:`touch` to snapshot the head estimate.
    finish:
        Maintain a global min-finish-tag heap (WFQ selection and the
        default work-conserving fallback).
    start:
        Maintain a global min-start-tag heap (SFQ selection, MSF2Q
        fallback, and the WF2Q+ virtual-time lower bound).
    eligible:
        Maintain the eligibility pending/ready heap pair behind
        :meth:`min_eligible_finish` (WF2Q-style ``S_f <= v(now)``).
    """

    __slots__ = (
        "_estimator",
        "_heaps",
        "_limits",
        "_finish_heap",
        "_start_heap",
        "_pending_heap",
        "_ready_heap",
        "_log",
        "_log_limit",
        "_cursor_finish",
        "_cursor_start",
        "_cursor_pending",
        "stale_pops",
        "rebuilds",
        "pushes",
        "touches",
    )

    def __init__(
        self,
        estimator: CostEstimator,
        finish: bool = False,
        start: bool = False,
        eligible: bool = False,
    ) -> None:
        self._estimator = estimator
        self._heaps: List[List[_HeapEntry]] = []
        self._limits: List[int] = []
        self._finish_heap = self._new_heap() if finish else -1
        self._start_heap = self._new_heap() if start else -1
        self._pending_heap = self._new_heap() if eligible else -1
        self._ready_heap = self._new_heap() if eligible else -1
        #: Shared dirty log of deferred touches plus one cursor per
        #: structure fed from it (the ready heap is fed from pending).
        self._log: List[_LogRecord] = []
        self._log_limit = _LOG_COMPACT_MIN
        self._cursor_finish = 0
        self._cursor_start = 0
        self._cursor_pending = 0
        # Churn counters (always on): superseded entries discarded at a
        # heap top, compaction rebuilds, entries pushed, and touches
        # received.  pushes/touches is the coalescing ratio the perf
        # benches pin.
        self.stale_pops = 0
        self.rebuilds = 0
        self.pushes = 0
        self.touches = 0

    # -- maintenance ---------------------------------------------------------

    def set_estimator(self, estimator: CostEstimator) -> None:
        """Swap the estimator consulted for head estimates (fault
        injection).  Entries and memoized snapshots created under the old
        estimator carry stale tags, so the owning scheduler must
        re-``touch`` every backlogged tenant immediately after (see
        :meth:`~repro.core.vt_base.VirtualTimeScheduler.set_estimator`)."""
        self._estimator = estimator

    def _new_heap(self) -> int:
        self._heaps.append([])
        self._limits.append(_COMPACT_MIN)
        return len(self._heaps) - 1

    def touch(self, state: TenantState) -> None:
        """Mark a backlogged tenant dirty after its head request, start
        tag, or head estimate may have changed.

        O(1): bumps the tenant's ``sel_version`` (invalidating every
        entry pushed earlier *and* every unsynced log record) and
        appends a dirty-log record.  Heap pushes happen at the next
        query of each structure, where consecutive touches of the same
        tenant coalesce into one push.
        """
        state.sel_version += 1
        self._log.append([state, state.sel_version, None])
        self.touches += 1
        if len(self._log) >= self._log_limit:
            self._flush_log()

    def drop(self, state: TenantState) -> None:
        """Invalidate every entry of a tenant that left the backlog."""
        state.sel_version += 1

    def _snapshot(self, record: _LogRecord) -> _Snapshot:
        """Memoized ``(start, finish, estimate, seqno)`` for a still-fresh
        log record.  Safe to compute at any later sync: every mutation of
        the underlying state pairs with a new touch, which supersedes
        this record before the stale snapshot could be reused."""
        snap: Optional[_Snapshot] = record[2]
        if snap is None:
            state: TenantState = record[0]
            head = state.queue[0]
            estimate = self._estimator.estimate(head)
            if estimate < MIN_COST:
                estimate = MIN_COST
            start = state.start_tag
            snap = (start, start + estimate / state.weight, estimate, head.seqno)
            record[2] = snap
        return snap

    def _sync_finish(self) -> None:
        log = self._log
        end = len(log)
        i = self._cursor_finish
        if i == end:
            return
        self._cursor_finish = end
        heap_id = self._finish_heap
        while i < end:
            record = log[i]
            i += 1
            state: TenantState = record[0]
            if record[1] != state.sel_version:
                continue  # superseded by a later touch (or dropped)
            start, finish, estimate, seqno = self._snapshot(record)
            self._push(heap_id, (finish, estimate, seqno, record[1], state))

    def _sync_start(self) -> None:
        log = self._log
        end = len(log)
        i = self._cursor_start
        if i == end:
            return
        self._cursor_start = end
        heap_id = self._start_heap
        while i < end:
            record = log[i]
            i += 1
            state: TenantState = record[0]
            if record[1] != state.sel_version:
                continue
            start, finish, estimate, seqno = self._snapshot(record)
            self._push(heap_id, (start, estimate, seqno, record[1], state))

    def _sync_pending(self) -> None:
        log = self._log
        end = len(log)
        i = self._cursor_pending
        if i == end:
            return
        self._cursor_pending = end
        heap_id = self._pending_heap
        while i < end:
            record = log[i]
            i += 1
            state: TenantState = record[0]
            if record[1] != state.sel_version:
                continue
            start, finish, estimate, seqno = self._snapshot(record)
            self._push(
                heap_id, (start, finish, estimate, seqno, record[1], state)
            )

    def _flush_log(self) -> None:
        """Sync every structure to the end of the log, then clear it.

        Bounds log memory; rarely-queried structures (e.g. the finish
        heap of a policy whose fallback never fires) would otherwise pin
        the log forever.  The next limit adapts to the number of records
        a flush interval accumulates."""
        if self._finish_heap >= 0:
            self._sync_finish()
        if self._start_heap >= 0:
            self._sync_start()
        if self._pending_heap >= 0:
            self._sync_pending()
        live = sum(1 for rec in self._log if rec[1] == rec[0].sel_version)
        self._log_limit = max(_LOG_COMPACT_MIN, 4 * live)
        self._log.clear()
        self._cursor_finish = 0
        self._cursor_start = 0
        self._cursor_pending = 0

    def _push(self, heap_id: int, entry: _HeapEntry) -> None:
        heap = self._heaps[heap_id]
        heapq.heappush(heap, entry)
        self.pushes += 1
        if len(heap) >= self._limits[heap_id]:
            # The suffix layout is fixed: entry[-2] is the sel_version
            # snapshot, entry[-1] the TenantState (see _HeapEntry).
            live = [e for e in heap if e[-2] == e[-1].sel_version]
            heapq.heapify(live)
            self._heaps[heap_id] = live
            self._limits[heap_id] = max(_COMPACT_MIN, 2 * len(live))
            self.rebuilds += 1

    # -- queries -------------------------------------------------------------

    def _peek(self, heap_id: int) -> Optional[_HeapEntry]:
        """Top fresh entry of a heap, discarding superseded ones."""
        heap = self._heaps[heap_id]
        top: Optional[_HeapEntry] = None
        stale = 0
        while heap:
            entry = heap[0]
            # Hot path: the (version, state) suffix is read positionally
            # rather than through typed accessors to keep this loop free
            # of extra function calls.
            if entry[-2] == entry[-1].sel_version:
                top = entry
                break
            heapq.heappop(heap)
            stale += 1
        if stale:
            self.stale_pops += stale
        return top

    def _peek_state(self, heap_id: int) -> Optional[TenantState]:
        entry = self._peek(heap_id)
        if entry is None:
            return None
        state: TenantState = entry[-1]
        return state

    def min_finish(self) -> Optional[TenantState]:
        """Backlogged tenant with the smallest ``(finish tag, head
        estimate, head seqno)`` key -- the WFQ decision."""
        if self._finish_heap < 0:
            raise SchedulerError("selection index was built without a finish heap")
        self._sync_finish()
        return self._peek_state(self._finish_heap)

    def min_start(self) -> Optional[TenantState]:
        """Backlogged tenant with the smallest ``(start tag, head
        estimate, head seqno)`` key -- the SFQ decision."""
        if self._start_heap < 0:
            raise SchedulerError("selection index was built without a start heap")
        self._sync_start()
        return self._peek_state(self._start_heap)

    def min_start_tag(self) -> Optional[VirtualTime]:
        """Smallest start tag over backlogged tenants (WF2Q+ virtual-time
        lower bound), or ``None`` when the backlog is empty."""
        if self._start_heap < 0:
            raise SchedulerError("selection index was built without a start heap")
        self._sync_start()
        entry = self._peek(self._start_heap)
        if entry is None:
            return None
        start: VirtualTime = entry[0]
        return start

    def min_eligible_finish(self, threshold: VirtualTime) -> Optional[TenantState]:
        """Smallest-finish-tag tenant whose start tag is within
        ``threshold``.

        ``threshold`` must be non-decreasing across calls (system virtual
        time never moves backwards), which is what lets entries cross the
        gate exactly once: every pending entry at or below the threshold
        moves to the ready heap, re-keyed from start to finish tag.
        """
        if self._pending_heap < 0:
            raise SchedulerError(
                "selection index was built without an eligibility gate"
            )
        self._sync_pending()
        pending = self._heaps[self._pending_heap]
        ready_id = self._ready_heap
        stale = 0
        while pending:
            entry = pending[0]
            # Key check first: when the top key is beyond the threshold
            # nothing can migrate, fresh or stale (a stale top parked out
            # there is swept up by compaction or once the threshold
            # reaches it).  Hot path: positional suffix reads, as in
            # _peek.
            if entry[0] > threshold:
                break
            heapq.heappop(pending)
            if entry[-2] != entry[-1].sel_version:
                stale += 1
                continue
            # The ready entry drops the start-tag prefix.
            self._push(ready_id, entry[1:])
        if stale:
            self.stale_pops += stale
        return self._peek_state(ready_id)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Churn counters plus current live occupancy.

        ``stale_pops`` counts superseded entries discarded at a heap top,
        ``rebuilds`` the compaction passes, ``pushes`` the entries ever
        pushed, ``touches`` the touch calls received (pushes/touches is
        the deferred-maintenance coalescing ratio); ``entries`` is the
        summed current heap occupancy (live plus not-yet-surfaced stale).
        Surfaced per benchmark cell in
        ``benchmarks/results/BENCH_schedulers.json`` and in traced-run
        manifests.
        """
        return {
            "stale_pops": self.stale_pops,
            "rebuilds": self.rebuilds,
            "pushes": self.pushes,
            "touches": self.touches,
            "entries": sum(len(heap) for heap in self._heaps),
        }

    def heap_sizes(self) -> Dict[str, int]:
        """Current heap occupancy (monitoring and tests); includes the
        dirty log, which is bounded by the flush limit."""
        sizes: Dict[str, int] = {}
        if self._finish_heap >= 0:
            sizes["finish"] = len(self._heaps[self._finish_heap])
        if self._start_heap >= 0:
            sizes["start"] = len(self._heaps[self._start_heap])
        if self._pending_heap >= 0:
            sizes["pending"] = len(self._heaps[self._pending_heap])
            sizes["ready"] = len(self._heaps[self._ready_heap])
        sizes["log"] = len(self._log)
        return sizes

    def __repr__(self) -> str:
        return (
            f"SelectionIndex(finish={self._finish_heap >= 0}, "
            f"start={self._start_heap >= 0}, "
            f"eligible={self._pending_heap >= 0})"
        )
