"""Run the benchmark over several seeds and summarize its steadiness.

    python3 perfbench/ledger.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/BENCH_e2e.json

For every workload and seed it runs ``run.py --trace 0`` and reports,
per end-to-end metric, the median, the quartiles and the spread (the
interquartile distance as a share of the median) beside a third of the
metric's bound from ``BENCHMARK.json``.  ``--trace-repeats N`` also runs
``run.py --trace 1`` N times on the first seed and checks that every
per-layer count is identical across them.  ``--out`` writes the whole
summary as JSON (the end-to-end ledger, ``BENCH_e2e.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "n": len(values),
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-repeats", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ledger: Dict[str, Any] = {
        "host": {
            "machine": platform.machine(),
            "processor": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = invoke(workload, seed, args.seconds, trace=0)
            runs.append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} {values}",
                  flush=True)
        entry: Dict[str, Any] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {},
            "findings": sorted({line for r in runs for line in r["report"]
                                if line.startswith("finding:")}),
        }
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            summary["bound"] = bound
            entry["metrics"][name] = summary
            ok = name == "setup_s" or summary["spread"] < bound / 3
            steady = steady and ok
            print(f"  {name:<14} median {summary['median']:.6g} {summary['unit']}  "
                  f"spread {summary['spread']:.4f} (bound/3 {bound / 3:.4f})"
                  f"{'' if ok else '  TOO WIDE'}", flush=True)
        if args.trace_repeats:
            traced = [invoke(workload, args.seeds[0], args.seconds, trace=1)
                      for _ in range(args.trace_repeats)]
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] in ("count", "bytes")} for t in traced]
            same = all(c == counts[0] for c in counts[1:])
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            entry["per_layer_counts_repeat"] = same
            entry["traced_correct"] = all(t["correct"] for t in traced)
            print(f"  per-layer counts identical over {len(traced)} traced runs: {same}",
                  flush=True)
            report = traced[0]["report"]
            shares = next(i for i, line in enumerate(report)
                          if line.startswith("layer shares"))
            for line in report[shares:]:
                print(f"  | {line}")
        ledger["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"all end-to-end spreads within a third of their bounds: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
