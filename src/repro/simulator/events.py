"""The event queue of the discrete-event simulator.

Events are ``(time, sequence)``-ordered callbacks.  The sequence number
guarantees FIFO ordering among events scheduled for the same instant,
which keeps every simulation fully deterministic.  Cancellation is lazy:
cancelled events stay in the queue and are skipped on pop, the standard
O(1)-cancel technique for simulation queues.

:class:`EventQueue` is a binary heap keyed on ``(time, seq)``, the
textbook pending-event set.  The shipped workloads keep at most a few
hundred events pending, where a heap is O(log n) with an excellent
constant; DESIGN.md §15 records the measurements behind keeping it the
only event queue.

Lazy cancellation trades memory for speed, so the backlog of cancelled
entries is (a) observable -- :attr:`EventQueue.cancelled_backlog` feeds
the ``events.cancelled_backlog`` obs gauge -- and (b) bounded by a
purge heuristic: when the dead entries outnumber the live ones *and*
exceed ``purge_threshold``, the queue is compacted in one O(n) pass.
Compaction preserves the exact ``(time, seq)`` keys, so the pop order
(and therefore every simulation result) is unchanged; the heuristic's
two conditions together guarantee amortized O(1) cost per cancel while
capping stored entries at twice the live size (plus the threshold
floor).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..units import SimTime

__all__ = ["EventHandle", "EventQueue", "DEFAULT_PURGE_THRESHOLD"]

#: Minimum cancelled backlog before compaction is considered; keeps tiny
#: queues from compacting constantly when a few timers churn.
DEFAULT_PURGE_THRESHOLD = 64


class EventHandle:
    """Opaque handle to a scheduled event; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(
        self, time: SimTime, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        self.time: SimTime = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it; idempotent."""
        self.cancelled = True
        self.fn = None  # free references early
        self.args = ()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:g}, seq={self.seq}, {state})"


class EventQueue:
    """Min-heap of timed callbacks with lazy cancellation."""

    __slots__ = ("_heap", "_seq", "_live", "_purge_threshold", "_purges")

    def __init__(self, purge_threshold: int = DEFAULT_PURGE_THRESHOLD) -> None:
        if purge_threshold < 1:
            raise SimulationError(
                f"purge_threshold must be >= 1, got {purge_threshold}"
            )
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._live = 0
        self._purge_threshold = purge_threshold
        self._purges = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled entries still occupying heap slots (the memory cost
        of lazy cancellation; exported as an obs gauge)."""
        return len(self._heap) - self._live

    @property
    def purges(self) -> int:
        """Number of compaction passes performed so far."""
        return self._purges

    @property
    def purge_threshold(self) -> int:
        return self._purge_threshold

    def push(self, time: SimTime, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time`` and return a handle."""
        handle = EventHandle(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        self._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously pushed event (no-op if already fired)."""
        if not handle.cancelled:
            handle.cancel()
            self._live -= 1
            # Purge heuristic: compact when dead entries both exceed the
            # threshold and outnumber live ones.  Each compaction removes
            # >= backlog/2 entries that each paid O(1) at cancel time, so
            # the amortized cost stays O(1) per cancellation.
            backlog = len(self._heap) - self._live
            if backlog > self._purge_threshold and backlog > self._live:
                self._compact()

    def peek_time(self) -> Optional[SimTime]:
        """Time of the earliest pending event, or ``None`` when empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> EventHandle:
        """Remove and return the earliest pending event."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        _, _, handle = heapq.heappop(self._heap)
        self._live -= 1
        return handle

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def _compact(self) -> None:
        """Drop every cancelled entry in one pass.

        Entries keep their original ``(time, seq)`` keys, so heap pops
        after compaction yield the identical sequence a non-compacted
        queue would -- compaction can never perturb simulation results.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._purges += 1

