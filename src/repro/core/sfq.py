"""Start-time Fair Queuing over an aggregated thread pool.

SFQ (Goyal et al. [23]) schedules the request with the smallest *start*
tag.  Its classic appeal is that the size of a packet is not needed
before transmitting it -- the start tag only depends on previously
observed sizes.  In our framework the charge applied at dispatch still
uses the estimator (with oracle costs this matches classic SFQ exactly,
since the size is folded into the *next* start tag).

The paper implemented SFQ and found its schedules "nearly identical" to
WFQ in this setting because the simulated server is not variable-rate
(§6); we keep it for completeness and verify that observation in tests.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SchedulerError
from ..units import VirtualTime
from .scheduler import TenantState
from .vt_base import VirtualTimeScheduler

__all__ = ["SFQScheduler"]


class SFQScheduler(VirtualTimeScheduler):
    """Smallest-start-tag-first across all backlogged tenants."""

    name = "sfq"

    def _select(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        return self._min_start(self._backlogged.values())

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        return {"start": True}

    def _select_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        # Always finds a tenant while anything is backlogged, so the
        # fallback path never fires for SFQ.
        index = self._index
        if index is None:  # built at construction by _index_spec
            raise SchedulerError("indexed selection invoked without an index")
        return index.min_start()
