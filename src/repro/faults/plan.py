"""The fault-plan DSL: a declarative description of every fault injected
into one run.

The paper's thesis is that 2DFQ/2DFQ^E preserve fairness exactly when
the real world misbehaves (PAPER.md §3, §5.3); a :class:`FaultPlan`
makes "the real world misbehaves" a first-class, reproducible input.
Plans are plain frozen dataclasses -- picklable, JSON round-trippable,
and canonicalizable -- so a plan embedded in an
:class:`~repro.experiments.config.ExperimentConfig` participates in the
content-addressed run-cache key exactly like every other parameter
(DESIGN.md §10 purity contract: faulted and fault-free runs can never
collide in the cache).

Determinism contract (DESIGN.md §11): every fault fires at a plan-fixed
simulated time through the discrete-event loop and a plan draws no
random numbers.  Same plan + same workload seed = same run, event for
event.

Fault vocabulary:

* :class:`WorkerSlowdown` -- a worker runs at ``factor`` times its rate
  during ``[start, end)``; ``factor=0`` is a full stall.
* :class:`WorkerCrash` -- a worker dies at ``at`` (its in-flight request
  loses all progress and is re-dispatched) and optionally restarts.
* :class:`EstimatorFault` -- during ``[start, end)`` the cost estimator
  suffers an outage (estimates pinned to a pessimistic fallback,
  observations lost) or a multiplicative bias.
* :class:`ServerCrash` -- the fleet-granularity fault: an entire
  :class:`~repro.simulator.server.ThreadPoolServer` in a
  :class:`~repro.fleet.Fleet` dies, optionally restarting.  Only the
  fleet-level injector (:class:`~repro.fleet.FleetInjector`) can
  execute it; the single-server
  :class:`~repro.faults.injector.FaultInjector` rejects plans
  containing it instead of silently ignoring a whole fault tier.

A worker's slowdown windows and crash down-times (``[at, restart_at)``,
open-ended without a restart) must not overlap: each window sets the
worker's speed outright, so overlapping windows would not compose.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError

__all__ = [
    "WorkerSlowdown",
    "WorkerCrash",
    "EstimatorFault",
    "ServerCrash",
    "FaultPlan",
]


def _check_window(start: float, end: float, what: str) -> None:
    if start < 0:
        raise ConfigurationError(f"{what} start must be >= 0, got {start}")
    if end <= start:
        raise ConfigurationError(
            f"{what} window must have end > start, got [{start}, {end})"
        )


@dataclass(frozen=True)
class WorkerSlowdown:
    """Worker ``worker`` runs at ``factor`` x nominal rate in ``[start, end)``.

    ``factor = 0.0`` stalls the worker completely: its current request
    freezes (resuming where it left off when the window closes) and any
    request dispatched to it meanwhile freezes too -- modelling a
    degraded-but-alive thread, not a dead one (that is
    :class:`WorkerCrash`).
    """

    worker: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ConfigurationError(f"worker index must be >= 0, got {self.worker}")
        _check_window(self.start, self.end, "slowdown")
        if self.factor < 0:
            raise ConfigurationError(
                f"slowdown factor must be >= 0, got {self.factor}"
            )


@dataclass(frozen=True)
class WorkerCrash:
    """Worker ``worker`` crashes at ``at``; optionally restarts.

    The in-flight request (if any) loses all progress; with
    ``redispatch`` (default) it immediately re-enters the scheduler with
    its identity intact -- the charge already applied for it is refunded
    through the :meth:`~repro.core.scheduler.Scheduler.cancel` path, so
    the tenant is eventually charged only for the work it receives.
    """

    worker: int
    at: float
    restart_at: Optional[float] = None
    redispatch: bool = True

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ConfigurationError(f"worker index must be >= 0, got {self.worker}")
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigurationError(
                f"restart_at must be after the crash, got {self.restart_at} <= {self.at}"
            )


@dataclass(frozen=True)
class EstimatorFault:
    """Estimator misbehaviour during ``[start, end)``.

    ``mode = "outage"``: estimates are pinned to ``fallback`` (or, when
    ``fallback`` is ``None``, to the largest cost observed before the
    window opened -- the pessimistic fallback of paper §5.3's spirit:
    when in doubt, assume expensive) and observations inside the window
    are lost.

    ``mode = "bias"``: estimates are multiplied by ``bias``;
    observations still flow, so the estimator keeps learning while its
    output is skewed (systematic mis-estimation).
    """

    start: float
    end: float
    mode: str = "outage"
    bias: float = 1.0
    fallback: Optional[float] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "estimator fault")
        if self.mode not in ("outage", "bias"):
            raise ConfigurationError(
                f"estimator fault mode must be 'outage' or 'bias', got {self.mode!r}"
            )
        if self.bias <= 0:
            raise ConfigurationError(f"bias must be positive, got {self.bias}")
        if self.fallback is not None and self.fallback <= 0:
            raise ConfigurationError(
                f"fallback must be positive, got {self.fallback}"
            )

    def active_at(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class ServerCrash:
    """Server ``server`` of a fleet dies at ``at``; optionally restarts.

    A crashed server freezes: every worker stops (in-flight requests
    hold their progress but never advance) and dispatch halts.  What
    happens next is the fleet's failover policy's business -- with
    failover enabled the health monitor detects the death and drains
    the dead server's queued + in-flight requests through the
    exact-refund ``cancel()`` path, re-routing them to survivors; with
    failover disabled the requests stay stuck (the degradation the
    ``figfleet`` figure contrasts).  ``restart_at`` brings the server
    back; a drained server restarts empty, an undrained one resumes
    its frozen requests.
    """

    server: int
    at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigurationError(
                f"server index must be >= 0, got {self.server}"
            )
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigurationError(
                f"restart_at must be after the crash, "
                f"got {self.restart_at} <= {self.at}"
            )


_KIND_CLASSES = {
    "slowdowns": WorkerSlowdown,
    "crashes": WorkerCrash,
    "estimator_faults": EstimatorFault,
    "server_crashes": ServerCrash,
}


def _check_worker_windows(
    slowdowns: Tuple[WorkerSlowdown, ...], crashes: Tuple[WorkerCrash, ...]
) -> None:
    """Reject overlapping slowdown windows / crash down-times on one worker."""
    windows: Dict[int, List[Tuple[float, float, str]]] = {}
    for slowdown in slowdowns:
        windows.setdefault(slowdown.worker, []).append(
            (slowdown.start, slowdown.end, "slowdown")
        )
    for crash in crashes:
        end = float("inf") if crash.restart_at is None else crash.restart_at
        windows.setdefault(crash.worker, []).append((crash.at, end, "crash"))
    for worker, spans in windows.items():
        spans.sort()
        for (s1, e1, k1), (s2, e2, k2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ConfigurationError(
                    f"worker {worker}: {k1} window [{s1}, {e1}) overlaps "
                    f"{k2} window [{s2}, {e2})"
                )


@dataclass(frozen=True)
class FaultPlan:
    """Every fault injected into one run.

    An empty plan (the default) is inert: the injector installs nothing
    and the run is bit-identical to an unfaulted one (the differential
    tests pin this).
    """

    slowdowns: Tuple[WorkerSlowdown, ...] = ()
    crashes: Tuple[WorkerCrash, ...] = ()
    estimator_faults: Tuple[EstimatorFault, ...] = ()
    server_crashes: Tuple[ServerCrash, ...] = ()

    def __post_init__(self) -> None:
        for name, cls in _KIND_CLASSES.items():
            items = tuple(
                cls(**item) if isinstance(item, dict) else item
                for item in getattr(self, name)
            )
            for item in items:
                if not isinstance(item, cls):
                    raise ConfigurationError(
                        f"{name} entries must be {cls.__name__}, got {type(item).__name__}"
                    )
            object.__setattr__(self, name, items)
        _check_worker_windows(self.slowdowns, self.crashes)

    @property
    def is_empty(self) -> bool:
        return not (
            self.slowdowns
            or self.crashes
            or self.estimator_faults
            or self.server_crashes
        )

    @property
    def has_fleet_faults(self) -> bool:
        """True when the plan contains fleet-granularity faults, which
        only :class:`repro.fleet.FleetInjector` can execute."""
        return bool(self.server_crashes)

    # -- JSON round trip ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        unknown = set(data) - set(_KIND_CLASSES)
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        # __post_init__ coerces the item dicts to their fault classes.
        return cls(**{name: tuple(data.get(name, ())) for name in _KIND_CLASSES})

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--faults PLAN.json`` CLI path)."""
        try:
            return cls.from_json(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load fault plan {path}: {exc}") from exc

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")
