"""Typed units vocabulary for the numeric dimensions of the reproduction.

2DFQ's bookkeeping juggles several *distinct* numeric dimensions that
are all spelled ``float`` at runtime:

========== =========================================================
dimension  meaning
========== =========================================================
SimTime    simulated wallclock seconds (``Simulation.now``)
WallTime   *host* wallclock seconds (``time.time`` and friends --
           banned from simulation logic, present only in telemetry)
VirtualTime the fair-queuing virtual axis ``V(t)`` / tags ``S_f, F_f``
Duration   a length of seconds, valid on either wall axis
Cost       request work in abstract cost units (``Request.cost``)
Rate       service capacity in cost units per second
Weight     tenant share weight ``phi_f`` (its own axis: dividing a
           Cost by a Weight yields *virtual* time, Figure 7 line 23)
========== =========================================================

Mixing them (``sim_time + virtual_time``, comparing a start tag to a
wallclock) is exactly the class of silent fidelity bug the
reproducibility literature traces discrepancies to, so the aliases
below give every dimension a *name* that both humans and the
:mod:`repro.analysis.dataflow` checker can anchor on.

The aliases are :data:`typing.Annotated` wrappers around ``float``:
zero runtime cost (with ``from __future__ import annotations`` every
annotation is a string), and type checkers treat them as plain
``float`` so the strict-mypy configuration is unaffected.  The
dataflow analyzer, by contrast, resolves the annotation *names* and
enforces the dimension algebra of DESIGN.md §17.

This module is a leaf: it may import only from :mod:`typing`, so any
package (including :mod:`repro.core`) can use it without cycles.

Alongside the aliases lives the *seed registry*: the dimension facts
the dataflow analyzer cannot read off annotations alone -- well-known
attribute names, well-known callable signatures, the host-clock
sources, and the RNG construction points.  Keeping the registry here
(rather than inside the analyzer) makes it part of the public units
vocabulary: adding a new dimensioned API means adding its signature
next to the aliases it uses.
"""

from __future__ import annotations

from typing import Annotated, Dict, FrozenSet, Optional, Tuple

__all__ = [
    "SimTime",
    "WallTime",
    "VirtualTime",
    "Duration",
    "Cost",
    "Rate",
    "Weight",
    "Scalar",
    "UNIT_NAMES",
    "ATTRIBUTE_DIMS",
    "CALLABLE_DIMS",
    "CALLABLE_PARAM_DIMS",
    "WALL_CLOCK_CALLS",
    "RNG_FACTORY_CALLS",
    "ORDERING_SENSITIVE_ATTRS",
]


class _UnitTag:
    """Marker object carried inside the ``Annotated`` aliases."""

    __slots__ = ("dimension",)

    def __init__(self, dimension: str) -> None:
        self.dimension = dimension

    def __repr__(self) -> str:
        return f"Unit({self.dimension!r})"


#: Simulated wallclock seconds -- the ``now`` threaded through every
#: scheduler hook, produced by :attr:`repro.simulator.clock.Simulation.now`.
SimTime = Annotated[float, _UnitTag("sim_time")]

#: Host wallclock seconds.  Never valid inside simulation logic; typed
#: so telemetry code (obs timers, worker deadlines) can declare what it
#: holds and the analyzer can track where it flows.
WallTime = Annotated[float, _UnitTag("wall_time")]

#: The virtual-time axis: system virtual time ``V(t)`` and the virtual
#: start/finish tags ``S_f``/``F_f`` measured on it (Figure 7).
VirtualTime = Annotated[float, _UnitTag("virtual_time")]

#: A length of seconds (latency, delay, timeout) -- compatible with
#: either wall axis but never with the virtual axis.
Duration = Annotated[float, _UnitTag("duration")]

#: Request work in abstract cost units (``Request.cost``, charges,
#: credits, usage reports).
Cost = Annotated[float, _UnitTag("cost")]

#: Service capacity in cost units per second (``thread_rate``,
#: ``Scheduler.capacity``, GPS capacity).
Rate = Annotated[float, _UnitTag("rate")]

#: Tenant weight ``phi_f``.  Deliberately its own dimension:
#: ``Cost / Weight`` is a *virtual-time* increment, the central
#: conversion of the whole algorithm.
Weight = Annotated[float, _UnitTag("weight")]

#: A pure number: ratios, fractions, speed multipliers.  Multiplying by
#: a Scalar preserves the other operand's dimension exactly.
Scalar = Annotated[float, _UnitTag("dimensionless")]


#: Annotation name -> dimension string, for the analyzer's resolver.
#: Both the bare alias name (``SimTime``) and the qualified spelling
#: (``units.SimTime``) resolve through this table.
UNIT_NAMES: Dict[str, str] = {
    "SimTime": "sim_time",
    "WallTime": "wall_time",
    "VirtualTime": "virtual_time",
    "Duration": "duration",
    "Cost": "cost",
    "Rate": "rate",
    "Weight": "weight",
    "Scalar": "dimensionless",
}


#: Well-known attribute names whose dimension is unambiguous across the
#: codebase.  The dataflow analyzer consults this table for attribute
#: reads it cannot resolve through class annotations (``request.cost``
#: on an untyped local).  Only names that are *unambiguous in this
#: codebase* belong here -- generic names like ``value`` or ``rate`` of
#: mixed meanings stay out.
ATTRIBUTE_DIMS: Dict[str, str] = {
    # simulated clock and lifecycle timestamps
    "now": "sim_time",
    "arrival_time": "sim_time",
    "dispatch_time": "sim_time",
    "completion_time": "sim_time",
    # virtual-time tags
    "start_tag": "virtual_time",
    "finish_tag": "virtual_time",
    "empty_at": "virtual_time",
    # work accounting
    "cost": "cost",
    "charged_cost": "cost",
    "credit": "cost",
    "reported_usage": "cost",
    "deficit": "cost",
    # capacity and shares
    "capacity": "rate",
    "thread_rate": "rate",
    "weight": "weight",
    "active_weight": "weight",
}


#: Well-known callable names (matched on the final attribute/function
#: name after alias resolution) -> return dimension.  These seed the
#: call summaries for APIs whose definitions carry the authoritative
#: annotation but are invoked through receivers the intraprocedural
#: analysis cannot type (``self._clock.advance(now)``).
CALLABLE_DIMS: Dict[str, str] = {
    "virtual_time": "virtual_time",
    "_adjust_virtual_time": "virtual_time",
    "_finish_tag": "virtual_time",
    "_eligibility_threshold": "virtual_time",
    "_head_estimate": "cost",
    "estimate": "cost",
    "peek": "cost",
}

#: Well-known *method* signatures, keyed on the called name, for call
#: sites whose receiver the intraprocedural analysis cannot type
#: (``self._sim.at(...)``, ``scheduler.enqueue(...)``).  Each entry
#: lists the post-``self`` parameters in order as ``(name, dimension)``
#: pairs (``None`` for undimensioned parameters), so both positional
#: and keyword arguments can be checked at the boundary.  Only names
#: with one meaning across the codebase belong here.
CALLABLE_PARAM_DIMS: Dict[str, Tuple[Tuple[str, Optional[str]], ...]] = {
    # Simulation scheduling: the event-time boundary RPR111 guards.
    "at": (("time", "sim_time"), ("fn", None)),
    "after": (("delay", "duration"), ("fn", None)),
    # The scheduler contract hooks that do NOT collide with the
    # same-named Tracer event emitters (trace.enqueue/complete/cancel
    # take `now` first, so a name-keyed fallback would mis-map their
    # arguments; those hooks are checked through real method summaries
    # at self-call sites instead).
    "dequeue": (("thread_id", None), ("now", "sim_time")),
    "refresh": (("request", None), ("usage", "cost"), ("now", "sim_time")),
}

#: Fully qualified host-clock reads (the RPR001 set).  A value produced
#: by any of these carries the *wall-clock taint* RPR111 tracks, over
#: and above its ``wall_time`` dimension.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        # The injectable telemetry clock: repro.obs.registry.HOST_CLOCK
        # is the one sanctioned host-clock reference, and anything drawn
        # through it is still host time and must not reach sim state.
        "HOST_CLOCK",
    }
)

#: Calls that construct or derive a seeded RNG stream.  The *result* is
#: an RNG generator; every method call on it yields an RNG-tainted
#: value for the RPR110 ordering-sensitivity check.
RNG_FACTORY_CALLS: FrozenSet[str] = frozenset(
    {
        "make_rng",
        "repro.simulator.rng.make_rng",
        "numpy.random.default_rng",
        "numpy.random.Generator",
    }
)

#: Scheduler attributes whose *ordering* drives dispatch decisions.
#: RNG-tainted values must never be written into these (RPR110): a
#: seeded draw in a tie-break silently couples the schedule to RNG
#: stream consumption order, which component reordering then changes.
ORDERING_SENSITIVE_ATTRS: FrozenSet[str] = frozenset(
    {
        "start_tag",
        "finish_tag",
        "empty_at",
        "deficit",
        "seqno",
        "sel_version",
        "version",
    }
)


# The (dimension, dimension) -> dimension tables for the analyzer's
# transfer functions live in repro.analysis.dataflow.lattice; this
# module only names the vocabulary, so importing repro.units never
# pulls in the analysis machinery.
