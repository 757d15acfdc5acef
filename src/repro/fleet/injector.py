"""Fleet-granularity fault injection: executes the ``server_crashes`` /
``server_slowdowns`` of a :class:`~repro.faults.plan.FaultPlan` against
a :class:`~repro.fleet.fleet.Fleet`.

The split mirrors the plan vocabulary: worker-granularity faults
(``slowdowns``, ``crashes``, ``estimator_faults``) name a worker index
inside *one* process and are executed by the single-server
:class:`~repro.faults.FaultInjector`; a fleet plan names whole servers.
Mixing the two granularities in one plan is rejected here for the same
reason the single-server injector rejects fleet faults -- a plan must be
executable by exactly one injector, or "same plan, same seed, same run"
stops meaning anything.

Client ``deadlines`` are a single-server fault too: a fleet plan that
carries them is rejected here, and the fleet's only recovery path is
crash failover (:class:`~repro.fleet.fleet.FailoverPolicy`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import ConfigurationError
from ..faults.plan import FaultPlan, ServerCrash, ServerSlowdown
from .fleet import Fleet

__all__ = ["FleetInjector"]


class FleetInjector:
    """Schedules a plan's server-granularity faults into a fleet's loop.

    Usage (``repro.experiments.fleet.run_fleet`` does this when given a
    plan)::

        injector = FleetInjector(fleet, plan)
        injector.install()
        sim.run(...)
        injector.counts
    """

    def __init__(self, fleet: Fleet, plan: FaultPlan) -> None:
        self.fleet = fleet
        self.plan = plan
        self.counts: Dict[str, int] = {
            "server_crashes": 0,
            "server_restarts": 0,
            "server_slowdowns": 0,
        }

    def install(self) -> None:
        """Validate the plan against this fleet and schedule every fault."""
        plan = self.plan
        if (
            plan.slowdowns
            or plan.crashes
            or plan.estimator_faults
            or plan.deadlines
        ):
            raise ConfigurationError(
                "fault plan contains worker-granularity faults or client "
                "deadlines (slowdowns/crashes/estimator_faults/deadlines); "
                "those act inside one process -- run them through the "
                "single-server FaultInjector"
            )
        size = len(self.fleet.servers)
        for crash in plan.server_crashes:
            if crash.server >= size:
                raise ConfigurationError(
                    f"server crash names server {crash.server}, but the "
                    f"fleet has {size} servers"
                )
        for slowdown in plan.server_slowdowns:
            if slowdown.server >= size:
                raise ConfigurationError(
                    f"server slowdown names server {slowdown.server}, but "
                    f"the fleet has {size} servers"
                )
        sim = self.fleet.sim
        for crash in plan.server_crashes:
            sim.at(crash.at, self._crash, crash)
            if crash.restart_at is not None:
                sim.at(crash.restart_at, self._restore, crash)
        for slowdown in plan.server_slowdowns:
            sim.at(slowdown.start, self._begin_slowdown, slowdown)
            sim.at(slowdown.end, self._end_slowdown, slowdown)

    # -- server faults -----------------------------------------------------

    def _crash(self, crash: ServerCrash) -> None:
        self.fleet.crash_server(crash.server)
        self.counts["server_crashes"] += 1

    def _restore(self, crash: ServerCrash) -> None:
        self.fleet.restore_server(crash.server)
        self.counts["server_restarts"] += 1

    def _begin_slowdown(self, slowdown: ServerSlowdown) -> None:
        self.fleet.set_server_speed(slowdown.server, slowdown.factor)
        self.counts["server_slowdowns"] += 1
        self._trace_fault(
            "server_slowdown_begin",
            server=slowdown.server,
            factor=slowdown.factor,
        )

    def _end_slowdown(self, slowdown: ServerSlowdown) -> None:
        self.fleet.set_server_speed(slowdown.server, 1.0)
        self._trace_fault("server_slowdown_end", server=slowdown.server)

    # -- tracing -----------------------------------------------------------

    def _trace_fault(
        self, fault: str, tenant: Optional[str] = None, **fields: Any
    ) -> None:
        trace = self.fleet._trace
        if trace is not None:
            trace.fault(self.fleet.sim.now, fault, tenant=tenant, **fields)
