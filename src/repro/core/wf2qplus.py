"""WF2Q+ over an aggregated thread pool.

WF2Q+ (Bennett & Zhang [5]) keeps WF2Q's eligibility rule but replaces
the GPS-tracking virtual time with the cheaper function

    V(t2) = max(V(t1) + C * (t2 - t1) / Phi,  min_f S_f)

which never lets virtual time fall behind the smallest start tag of a
backlogged flow.  The paper notes such algorithms "improve algorithmic
complexity but do not improve fairness bounds" and behave like WF2Q in
practice (§6); we include it to verify that claim.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..units import SimTime, VirtualTime
from .request import Request
from .scheduler import TenantState
from .wf2q import WF2QScheduler

__all__ = ["WF2QPlusScheduler"]


class WF2QPlusScheduler(WF2QScheduler):
    """WF2Q with the WF2Q+ lower-bounded virtual time function."""

    name = "wf2q+"

    def _min_backlogged_start(self) -> Optional[VirtualTime]:
        if self._index is not None:
            return self._index.min_start_tag()
        if self._backlogged:
            return min(state.start_tag for state in self._backlogged.values())
        return None

    def _adjust_virtual_time(self, vnow: VirtualTime) -> VirtualTime:
        min_start = self._min_backlogged_start()
        if min_start is not None and min_start > vnow:
            self._clock.jump_to(min_start)
            return min_start
        return vnow

    def _cancel_running(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        if not super()._cancel_running(state, request, now):
            return False
        # The cancelled request's start tag may have driven a jump of the
        # lower-bounded virtual-time function; retract any elevation the
        # surviving backlog no longer supports (the next ``jump_to``
        # restores ``V >= min_f S_f``, so this is self-healing).
        min_start = self._min_backlogged_start()
        self._clock.rewind_jump(
            min_start if min_start is not None else float("-inf")
        )
        return True

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        # WF2Q's eligibility gate and fallback, plus the start heap that
        # backs the ``min_f S_f`` term of the virtual-time function.
        return {"finish": True, "start": True, "eligible": True}
