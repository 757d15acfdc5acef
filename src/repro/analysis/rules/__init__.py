"""The RPR rule catalogue.

====== ===================== ==============================================
code   rule                  property protected
====== ===================== ==============================================
RPR000 unused-suppression    ``# repro: ignore`` hygiene (engine built-in)
RPR001 wall-clock            determinism: no wall-clock reads in sim logic
RPR002 unseeded-rng          determinism: RNG flows from ``make_rng`` only
RPR010 float-equality        virtual-time hygiene: no float ``==``/``!=``
                             in ``repro.core``
RPR011 frozen-request-field  virtual-time hygiene: request identity is
                             immutable after construction
RPR012 unordered-iteration   virtual-time hygiene: no set-order-dependent
                             scheduling decisions
RPR020 scheduler-surface     conformance: registered schedulers implement
                             the full enqueue/dequeue/refresh/complete/
                             cancel surface
RPR021 tracer-pairing        conformance: overridden state-mutating hooks
                             keep emitting their paired obs event
RPR022 index-surface         conformance: ``_index_spec`` overrides are
                             paired with a concrete ``_select_indexed``
RPR030 runtime-assert        sim-purity: no ``assert`` for runtime
                             invariants (stripped under ``python -O``)
RPR090 parse-error           file could not be parsed (engine built-in)
RPR101 dimension-arithmetic  units: no additive arithmetic across
                             incompatible time/cost dimensions
RPR102 dimension-comparison  units: no ordering comparisons across
                             incompatible dimensions
RPR103 dimension-boundary    units: call arguments, returns, and annotated
                             assignments match the declared dimension
RPR110 rng-ordering-taint    taint: seeded-RNG draws never reach
                             ordering-sensitive scheduler state
RPR111 wall-clock-taint      taint: host-clock-derived values never flow
                             into sim_time/virtual_time state
====== ===================== ==============================================

The RPR1xx block is powered by the flow-sensitive abstract interpreter
in :mod:`repro.analysis.dataflow`; see DESIGN.md §17.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..base import Rule
from .conformance import IndexSurfaceRule, SchedulerSurfaceRule, TracerPairingRule
from .dataflow import (
    DimensionArithmeticRule,
    DimensionBoundaryRule,
    DimensionComparisonRule,
    RngOrderingTaintRule,
    WallClockTaintRule,
)
from .determinism import UnseededRngRule, WallClockRule
from .hygiene import FloatEqualityRule, FrozenRequestFieldRule, UnorderedIterationRule
from .purity import RuntimeAssertRule

__all__ = [
    "ALL_RULES",
    "rule_catalogue",
    "WallClockRule",
    "UnseededRngRule",
    "FloatEqualityRule",
    "FrozenRequestFieldRule",
    "UnorderedIterationRule",
    "SchedulerSurfaceRule",
    "TracerPairingRule",
    "IndexSurfaceRule",
    "RuntimeAssertRule",
    "DimensionArithmeticRule",
    "DimensionComparisonRule",
    "DimensionBoundaryRule",
    "RngOrderingTaintRule",
    "WallClockTaintRule",
]

#: Every rule class, in catalogue (code) order.
ALL_RULES: List[Type[Rule]] = [
    WallClockRule,
    UnseededRngRule,
    FloatEqualityRule,
    FrozenRequestFieldRule,
    UnorderedIterationRule,
    SchedulerSurfaceRule,
    TracerPairingRule,
    IndexSurfaceRule,
    RuntimeAssertRule,
    DimensionArithmeticRule,
    DimensionComparisonRule,
    DimensionBoundaryRule,
    RngOrderingTaintRule,
    WallClockTaintRule,
]


def rule_catalogue() -> Dict[str, str]:
    """Mapping of rule code to one-line description (``--list-rules``)."""
    return {cls.code: f"{cls.name}: {cls.description}" for cls in ALL_RULES}
