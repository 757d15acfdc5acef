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
with *lazy invalidation*:

* every heap entry snapshots a tenant's selection key -- ``(finish tag,
  head estimate, head seqno)`` or ``(start tag, head estimate, head
  seqno)`` -- together with the tenant's ``sel_version`` at push time;
* whenever a tenant's key may have changed (new head request, start-tag
  movement, estimator update) the scheduler calls :meth:`touch`, which
  bumps ``sel_version``, reads the head estimate once and pushes the
  fresh entry into every heap the index maintains -- O(log N);
* superseded entries stay in their heap and are discarded when they
  surface at the top (classic lazy invalidation);
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
Keys are snapshotted at :meth:`touch` time, so the index is only
coherent if a queued request's estimate can change *solely* through
``observe()`` calls for the same tenant (estimators key their state on
``(tenant_id, api)``; see :mod:`repro.estimation.base`) -- every such
change site in :mod:`repro.core.vt_base` is followed by a
:meth:`touch`, which supersedes the earlier snapshot.  Every estimator
in this library satisfies that; a custom estimator whose estimates
drift spontaneously needs a
:meth:`~repro.core.vt_base.VirtualTimeScheduler.reindex_backlogged`
call after each drift, and an estimator swap goes through
:meth:`set_estimator` *before* the re-touch, so the fresh snapshots are
taken under the new estimator.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SchedulerError
from ..estimation.base import CostEstimator
from ..units import VirtualTime
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

#: Heaps are compacted (stale entries filtered out, then re-heapified)
#: once they grow past ``max(_COMPACT_MIN, 2 * live_entries)``; amortized
#: O(1) per push, and it bounds memory at O(backlogged tenants) per heap.
_COMPACT_MIN = 128


class SelectionIndex:
    """Lazy-invalidation heap index over the backlogged tenant set.

    Parameters
    ----------
    estimator:
        The scheduler's cost estimator; consulted once per
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
        # Churn counters (always on): superseded entries discarded at a
        # heap top, compaction rebuilds, entries pushed, and touches
        # received.  Every touch pushes into every heap fed at touch
        # time, so pushes/touches is that heap count (plus the
        # pending->ready migrations of eligibility-gated policies).
        self.stale_pops = 0
        self.rebuilds = 0
        self.pushes = 0
        self.touches = 0

    # -- maintenance ---------------------------------------------------------

    def set_estimator(self, estimator: CostEstimator) -> None:
        """Swap the estimator consulted for head estimates (fault
        injection).  Entries pushed under the old estimator carry stale
        tags, so the owning scheduler must re-``touch`` every backlogged
        tenant immediately after (see
        :meth:`~repro.core.vt_base.VirtualTimeScheduler.set_estimator`)."""
        self._estimator = estimator

    def _new_heap(self) -> int:
        self._heaps.append([])
        self._limits.append(_COMPACT_MIN)
        return len(self._heaps) - 1

    def touch(self, state: TenantState) -> None:
        """Re-snapshot a backlogged tenant after its head request, start
        tag, or head estimate may have changed.

        Bumps the tenant's ``sel_version`` (invalidating every entry
        pushed earlier), reads the head estimate once, and pushes the
        fresh entry into every heap fed at touch time -- O(log N).
        """
        state.sel_version += 1
        self.touches += 1
        version = state.sel_version
        head = state.queue[0]
        estimate = self._estimator.estimate(head)
        if estimate < MIN_COST:
            estimate = MIN_COST
        start = state.start_tag
        finish = start + estimate / state.weight
        seqno = head.seqno
        if self._finish_heap >= 0:
            self._push(self._finish_heap, (finish, estimate, seqno, version, state))
        if self._start_heap >= 0:
            self._push(self._start_heap, (start, estimate, seqno, version, state))
        if self._pending_heap >= 0:
            self._push(
                self._pending_heap, (start, finish, estimate, seqno, version, state)
            )

    def drop(self, state: TenantState) -> None:
        """Invalidate every entry of a tenant that left the backlog."""
        state.sel_version += 1

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
        return self._peek_state(self._finish_heap)

    def min_start(self) -> Optional[TenantState]:
        """Backlogged tenant with the smallest ``(start tag, head
        estimate, head seqno)`` key -- the SFQ decision."""
        if self._start_heap < 0:
            raise SchedulerError("selection index was built without a start heap")
        return self._peek_state(self._start_heap)

    def min_start_tag(self) -> Optional[VirtualTime]:
        """Smallest start tag over backlogged tenants (WF2Q+ virtual-time
        lower bound), or ``None`` when the backlog is empty."""
        if self._start_heap < 0:
            raise SchedulerError("selection index was built without a start heap")
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
        pushed, ``touches`` the touch calls received (each touch pushes once
        into every heap fed at touch time); ``entries`` is the
        summed current heap occupancy (live plus not-yet-surfaced stale).
        Surfaced by ``benchmarks/test_bench_selection_index.py``, by
        perfbench's per-layer split and in traced-run manifests.
        """
        return {
            "stale_pops": self.stale_pops,
            "rebuilds": self.rebuilds,
            "pushes": self.pushes,
            "touches": self.touches,
            "entries": sum(len(heap) for heap in self._heaps),
        }

    def heap_sizes(self) -> Dict[str, int]:
        """Current heap occupancy (monitoring and tests)."""
        sizes: Dict[str, int] = {}
        if self._finish_heap >= 0:
            sizes["finish"] = len(self._heaps[self._finish_heap])
        if self._start_heap >= 0:
            sizes["start"] = len(self._heaps[self._start_heap])
        if self._pending_heap >= 0:
            sizes["pending"] = len(self._heaps[self._pending_heap])
            sizes["ready"] = len(self._heaps[self._ready_heap])
        return sizes

    def __repr__(self) -> str:
        return (
            f"SelectionIndex(finish={self._finish_heap >= 0}, "
            f"start={self._start_heap >= 0}, "
            f"eligible={self._pending_heap >= 0})"
        )
