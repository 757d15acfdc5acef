"""Fleet-granularity fault injection: executes the ``server_crashes`` of
a :class:`~repro.faults.plan.FaultPlan` against a
:class:`~repro.fleet.fleet.Fleet`.

The split mirrors the plan vocabulary: worker-granularity faults
(``slowdowns``, ``crashes``, ``estimator_faults``) name a worker index
inside *one* process and are executed by the single-server
:class:`~repro.faults.FaultInjector`; a fleet plan names whole servers.
Mixing the two granularities in one plan is rejected here for the same
reason the single-server injector rejects fleet faults -- a plan must be
executable by exactly one injector, or "same plan, same seed, same run"
stops meaning anything.  The fleet's only recovery path is crash
failover (:class:`~repro.fleet.fleet.FailoverPolicy`).
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigurationError
from ..faults.plan import FaultPlan, ServerCrash
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
        }

    def install(self) -> None:
        """Validate the plan against this fleet and schedule every fault."""
        plan = self.plan
        if plan.slowdowns or plan.crashes or plan.estimator_faults:
            raise ConfigurationError(
                "fault plan contains worker-granularity faults "
                "(slowdowns/crashes/estimator_faults); those act inside "
                "one process -- run them through the single-server "
                "FaultInjector"
            )
        size = len(self.fleet.servers)
        for crash in plan.server_crashes:
            if crash.server >= size:
                raise ConfigurationError(
                    f"server crash names server {crash.server}, but the "
                    f"fleet has {size} servers"
                )
        sim = self.fleet.sim
        for crash in plan.server_crashes:
            sim.at(crash.at, self._crash, crash)
            if crash.restart_at is not None:
                sim.at(crash.restart_at, self._restore, crash)

    # -- server faults -----------------------------------------------------

    def _crash(self, crash: ServerCrash) -> None:
        self.fleet.crash_server(crash.server)
        self.counts["server_crashes"] += 1

    def _restore(self, crash: ServerCrash) -> None:
        self.fleet.restore_server(crash.server)
        self.counts["server_restarts"] += 1
