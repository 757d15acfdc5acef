"""Deterministic fault injection (DESIGN.md §11).

The paper argues 2DFQ's fairness matters most when the system degrades;
this package makes degradation a reproducible experiment input:

* :class:`FaultPlan` (:mod:`repro.faults.plan`) -- a frozen, JSON
  round-trippable description of worker slowdowns/stalls, crashes (with
  in-flight re-dispatch), estimator outage/bias windows and fleet
  server crashes;
* :class:`FaultInjector` (:mod:`repro.faults.injector`) -- schedules the
  plan's worker and estimator faults as ordinary events in the run's
  simulation loop;
* :class:`FaultyEstimator` (:mod:`repro.faults.estimator`) -- the
  time-windowed estimator perturbation.

Quickstart::

    from repro.faults import FaultPlan, WorkerCrash

    plan = FaultPlan(crashes=(WorkerCrash(worker=0, at=2.0, restart_at=4.0),))
    config = dataclasses.replace(config, fault_plan=plan)
    result = run_comparison(specs, config)

or end to end: ``python -m repro.figures figfault --faults plan.json``.
"""

from .estimator import FaultyEstimator
from .injector import FaultInjector
from .plan import (
    EstimatorFault,
    FaultPlan,
    ServerCrash,
    WorkerCrash,
    WorkerSlowdown,
)

__all__ = [
    "FaultPlan",
    "WorkerSlowdown",
    "WorkerCrash",
    "EstimatorFault",
    "ServerCrash",
    "FaultInjector",
    "FaultyEstimator",
]
