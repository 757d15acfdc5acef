"""Weighted Fair Queuing over an aggregated thread pool.

WFQ (Demers et al.; Parekh & Gallager [46]) schedules the pending request
with the lowest *virtual finish time*.  On multiple aggregated links this
is the MSFQ algorithm of Blanquer & Özden [8]; following the paper we
"retain the name WFQ in the interest of familiarity" (§2).

Known weakness reproduced here (paper §4, Figure 5c): because small
requests always carry the earliest finish tags, WFQ services all small
tenants in a burst, then all large tenants together, occupying the whole
pool with expensive requests -- a bursty schedule.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SchedulerError
from ..units import VirtualTime
from .scheduler import TenantState
from .vt_base import VirtualTimeScheduler

__all__ = ["WFQScheduler"]


class WFQScheduler(VirtualTimeScheduler):
    """Smallest-finish-tag-first across all backlogged tenants."""

    name = "wfq"

    def _select(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        # No eligibility criterion: every backlogged tenant is a candidate.
        return self._min_finish(self._backlogged.values())

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        return {"finish": True}

    def _select_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        index = self._index
        if index is None:  # built at construction by _index_spec
            raise SchedulerError("indexed selection invoked without an index")
        return index.min_finish()
