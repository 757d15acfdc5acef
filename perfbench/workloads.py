"""The benchmark's four fixed-shape paper workloads.

Each workload is built from the public experiment API exactly as the
figure code builds it -- config, tenant specs, materialized trace --
and then run through ``run_comparison`` (serially, no run cache).  The
set-up half is kept separate from the runs so its cost is its own
metric.  The seed is the only input that varies: it drives every cost
draw of the closed-loop Figure 8 workload, and the time alignment of
the production-derived traces.  Why each workload is in the set is
recorded beside its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.expensive_requests import (
    SMALL_PROBE,
    expensive_requests_config,
)
from repro.experiments.production import (
    lag_sigma_cdfs,
    production_config,
    production_specs,
    production_trace,
)
from repro.experiments.runner import ComparisonResult
from repro.experiments.unpredictable import _scrambled_trace, unpredictable_config
from repro.workloads.synthetic import expensive_requests_population
from repro.workloads.trace import TraceRecord

#: The production-derived workloads materialize their trace once, with
#: the repo's own generator at this seed (the 250 or 300 tenants, their
#: arrivals, costs, thinning and scrambling).  Drawn afresh per
#: benchmark seed, the cost-budget thinning would swing the work per
#: figure by a third (12.9k to 21.9k replayed requests at paper scale)
#: and peak memory with it, so the benchmark seed instead rotates the
#: trace in time (see ``rotate``): every interleaving the schedulers see
#: changes, the work does not.
TRACE_SEED = 0
#: The seed the paper-shape checks were sized on.  They gate there; at
#: any other seed their outcome is printed as a finding.
SIZING_SEED = 0

#: A pass runs every scheduler of the workload once; the audited
#: workload runs a second pass inside an audited trace session.
UNTRACED = "untraced"
AUDITED = "audited"


@dataclass
class Setup:
    """Everything the runs need: the specs, the config and the trace."""

    specs: List[Any]
    config: ExperimentConfig
    trace: Optional[List[Any]]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Setup]
    #: The paper's scheduler, whose runs alone give ``sim_rps_2dfq``.
    paper_scheduler: str
    passes: Tuple[str, ...]
    reduce: Callable[[ComparisonResult], Dict[str, Any]]
    shape: Callable[[Dict[str, Any]], List[Check]]
    findings: Callable[[Dict[str, Any]], List[str]]
    #: Layer shares of the traced run's wall-clock stated before
    #: measuring (from a cProfile sizing pass); printed beside the
    #: measured split, never used to gate.
    predicted_shares: Dict[str, float] = field(default_factory=dict)


# -- set-up --------------------------------------------------------------------


def _fig08_setup(seed: int) -> Setup:
    # 50 expensive N(1000,100) and 50 small N(1,0.1) closed-loop tenants.
    return Setup(
        specs=expensive_requests_population(num_small=50, total=100),
        config=expensive_requests_config(duration=3.0, seed=seed),
        trace=None,
    )


def rotate(trace: List[TraceRecord], seed: int, horizon: float) -> List[TraceRecord]:
    """Shift every arrival by a seed-dependent offset, modulo ``horizon``.

    Seed 0 is the identity, so it regenerates the repo's own figure.
    Each tenant keeps its requests, costs and inter-arrival gaps (one gap
    wraps around the horizon); only the alignment between tenants and
    against the closed-loop tenants changes.
    """
    offset = horizon * ((seed * 0.6180339887498949) % 1.0)
    if offset == 0.0:
        return trace
    shifted = [
        TraceRecord((r.time + offset) % horizon, r.tenant, r.api, r.cost)
        for r in trace
    ]
    shifted.sort(key=lambda r: (r.time, r.tenant))
    return shifted


def _production_setup(duration: float) -> Callable[[int], Setup]:
    def setup(seed: int) -> Setup:
        config = production_config(duration=duration, seed=TRACE_SEED)
        specs = production_specs(seed=TRACE_SEED)
        trace = production_trace(specs, config)
        return Setup(specs, config, rotate(trace, seed, config.duration))

    return setup


def _unpredictable_setup(seed: int) -> Setup:
    config = unpredictable_config(duration=8.0, seed=TRACE_SEED)
    specs = production_specs(num_random=300, seed=TRACE_SEED, named_mode="backlogged")
    # The set-up half of run_unpredictable: thin, then scramble 33%.
    trace = _scrambled_trace(
        specs, config, unpredictable_fraction=0.33, open_loop_utilization=1.2,
        speed=1.0,
    )
    return Setup(specs, config, rotate(trace, seed, config.duration))


# -- reductions ------------------------------------------------------------------


def _gini_means(result: ComparisonResult) -> Dict[str, float]:
    return {
        name: float(run.gini_values.mean()) for name, run in result.runs.items()
    }


def _lag_sigmas(result: ComparisonResult, tenant: str) -> Dict[str, float]:
    fair = result.fair_rate()
    return {
        name: run.lag_sigma(tenant, reference_rate=fair)
        for name, run in result.runs.items()
    }


def _fig08_reduce(result: ComparisonResult) -> Dict[str, Any]:
    return {
        "lag_sigma_S0": _lag_sigmas(result, SMALL_PROBE),
        "gini_mean": _gini_means(result),
    }


def _production_reduce(result: ComparisonResult) -> Dict[str, Any]:
    cdfs = lag_sigma_cdfs(result)
    return {
        "lag_sigma_T1": _lag_sigmas(result, "T1"),
        "gini_mean": _gini_means(result),
        "lag_sigma_median": {name: c.quantile(0.5) for name, c in cdfs.items()},
    }


# -- paper-shape checks -----------------------------------------------------------


def _fig08_shape(red: Dict[str, Any]) -> List[Check]:
    s = red["lag_sigma_S0"]
    return [
        Check(
            "shape.fig08.sigma_S0_2dfq_below_wfq/4",
            s["2dfq"] < s["wfq"] / 4,
            f"2dfq {s['2dfq']:.4f} s vs wfq/4 {s['wfq'] / 4:.4f} s",
        ),
        Check(
            "shape.fig08.sigma_S0_2dfq_below_wf2q/2",
            s["2dfq"] < s["wf2q"] / 2,
            f"2dfq {s['2dfq']:.4f} s vs wf2q/2 {s['wf2q'] / 2:.4f} s",
        ),
    ]


def _production_shape(red: Dict[str, Any]) -> List[Check]:
    g = red["gini_mean"]
    return [
        Check(
            "shape.fig09.gini_wfq_above_2dfq",
            g["wfq"] > g["2dfq"],
            f"wfq {g['wfq']:.4f} vs 2dfq {g['2dfq']:.4f}",
        )
    ]


def _unpredictable_shape(red: Dict[str, Any]) -> List[Check]:
    s = red["lag_sigma_T1"]
    return [
        Check(
            "shape.fig11.sigma_T1_2dfq-e_below_wfq-e/2",
            s["2dfq-e"] < s["wfq-e"] / 2,
            f"2dfq-e {s['2dfq-e']:.4f} s vs wfq-e/2 {s['wfq-e'] / 2:.4f} s",
        )
    ]


def _audited_shape(red: Dict[str, Any]) -> List[Check]:
    # The audited workload's checks (byte-identical dispatch logs,
    # exported artifacts) need both passes; rep.run_rep makes them.
    return []


# -- findings: measured divergences, printed, never gated --------------------------


def _fmt(values: Dict[str, float]) -> str:
    return ", ".join(f"{name} {value:.4f}" for name, value in values.items())


def _no_findings(red: Dict[str, Any]) -> List[str]:
    return []


def _production_findings(red: Dict[str, Any]) -> List[str]:
    s = red["lag_sigma_T1"]
    spread = max(s.values()) / min(s.values()) if min(s.values()) > 0 else math.inf
    return [
        "paper-scale open loop: sigma(T1 lag) [s] is "
        f"{_fmt(s)} (max/min {spread:.2f}x); fig09's 2DFQ separation "
        "does not appear at this scale"
    ]


def _unpredictable_findings(red: Dict[str, Any]) -> List[str]:
    s = red["lag_sigma_T1"]
    verdict = "beats" if s["wf2q-e"] < s["2dfq-e"] else "does not beat"
    return [
        f"WF2Q^E {verdict} 2DFQ^E on sigma(T1 lag): "
        f"{s['wf2q-e']:.4f} vs {s['2dfq-e']:.4f} s"
    ]


def _audited_findings(red: Dict[str, Any]) -> List[str]:
    flags = red.get("audit_flags")
    if not flags:
        return []
    text = "; ".join(
        f"{name}: bursty {v['bursty'] or '-'}, lag {len(v['lag'])} tenant(s)"
        for name, v in flags.items()
    )
    return [
        "default --audit monitors on this workload flag "
        f"{text} (TestFig9Acceptance expects wfq and wf2q bursty, 2dfq quiet)"
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig08-backlogged",
            setup=_fig08_setup,
            paper_scheduler="2dfq",
            passes=(UNTRACED,),
            reduce=_fig08_reduce,
            shape=_fig08_shape,
            findings=_no_findings,
            # core.selection + core.vt_base ~37% of cProfile self time.
            predicted_shares={"scheduler": 0.37, "workloads": 0.0},
        ),
        Workload(
            name="production-replay",
            setup=_production_setup(duration=15.0),
            paper_scheduler="2dfq",
            passes=(UNTRACED,),
            reduce=_production_reduce,
            shape=_production_shape,
            findings=_production_findings,
            # Set-up ~1.8 of ~6 s; simulator.server 22%; selection ~3%.
            predicted_shares={"workloads": 0.30, "server": 0.22, "scheduler": 0.03},
        ),
        Workload(
            name="unpredictable-estimated",
            setup=_unpredictable_setup,
            paper_scheduler="2dfq-e",
            passes=(UNTRACED,),
            reduce=_production_reduce,
            shape=_unpredictable_shape,
            findings=_unpredictable_findings,
        ),
        Workload(
            name="production-audited",
            setup=_production_setup(duration=5.0),
            paper_scheduler="2dfq",
            passes=(UNTRACED, AUDITED),
            reduce=_production_reduce,
            shape=_audited_shape,
            findings=_audited_findings,
            # (3.7 - 0.9) s of tracing in a ~5.2 s run.
            predicted_shares={"obs": 0.54},
        ),
    )
}

