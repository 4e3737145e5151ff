#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its spread.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --workloads paper-engine --seeds 5
    python3 perfbench/baseline.py --seeds 10 --write

This is the one command that runs every workload.  For each workload it
runs ``run.py --trace 0`` once per seed (seeds ``--first-seed``,
``--first-seed + 1``, ...), then ``--repeats`` times on ``run.py``'s
default seed, and prints, per end-to-end metric and unit, the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread -- the
quartile distance as a share of the median -- of both sets next to the
metric's bound from ``BENCHMARK.json``.  The spread across seeds mixes
run-to-run noise with how much work each seed makes; the spread of the
repeats is the noise alone.  It exits non-zero as soon as a run fails a
correctness check.  ``--write`` also makes one traced run per workload
and records everything, with the output digest of every (workload,
seed) and the map from each per-layer metric to the end-to-end metrics
it should move, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from metrics import LAYER_MAP, exercised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: Optional[int],
          trace: int) -> Dict[str, Any]:
    """One ``run.py`` invocation; its result line plus digest and host.

    ``seed=None`` leaves ``run.py`` on its default seed.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    text = "\n".join(lines)
    result["digest"] = re.search(r"digest (\w+)", text).group(1)
    result["host"] = json.loads(re.search(r"host (\{.*\})", text).group(1))
    return result


def spread_stats(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def summarise(label: str, runs: List[Dict[str, Any]],
              bounds: Dict[str, float]) -> Dict[str, Any]:
    """Print and return the spread of every end-to-end metric."""
    table: Dict[str, Any] = {}
    print(f"  -- {label}")
    for metric, bound in bounds.items():
        stats = spread_stats([r["metrics"][metric]["value"] for r in runs])
        stats["unit"] = runs[0]["metrics"][metric]["unit"]
        stats["bound"] = bound
        table[metric] = stats
        print(f"  {metric:18s} median {stats['median']:12.5g} "
              f"{stats['unit']:4s} q1 {stats['q1']:12.5g}  "
              f"q3 {stats['q3']:12.5g}  spread {stats['spread']:.4f}  "
              f"bound {bound}  ({stats['spread'] / bound:.2f} of bound)")
    return table


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs on run.py's default seed (0: none)")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    if sorted(LAYER_MAP) != sorted(m["name"] for m in spec["per_layer"]):
        raise SystemExit("perfbench/metrics.py LAYER_MAP does not cover "
                         "exactly the per_layer metrics of BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    doc: Dict[str, Any] = {"run_seconds": spec["run_seconds"],
                           "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        print(f"== {workload}")
        runs = {seed: bench(workload, seed, 0) for seed in seeds}
        entry: Dict[str, Any] = {
            "why": next(w["why"] for w in spec["workloads"]
                        if w["name"] == workload),
            "seeds": seeds,
            "digests": {str(s): r["digest"] for s, r in runs.items()},
            "end_to_end": summarise(f"seeds {seeds[0]}-{seeds[-1]}",
                                    list(runs.values()), bounds),
        }
        for metric, stats in entry["end_to_end"].items():
            if metric != "setup_s":
                worst = max(worst, stats["spread"] / bounds[metric])
        if args.repeats:
            repeats = [bench(workload, None, 0)
                       for _ in range(args.repeats)]
            if len({r["digest"] for r in repeats}) != 1:
                raise SystemExit(f"{workload}: the default seed gave "
                                 "different digests across runs")
            entry["same_seed"] = {
                "seed": repeats[0]["host"]["seed"],
                "runs": args.repeats,
                "digest": repeats[0]["digest"],
                "end_to_end": summarise(
                    f"{args.repeats} runs of the default seed",
                    repeats, bounds),
            }
        if args.write:
            traced = bench(workload, seeds[0], 1)
            entry["host"] = traced["host"]
            entry["per_layer_traced"] = {
                k: v for k, v in traced["metrics"].items()
                if exercised(workload, k)
            }
            if workload == "paper-engine":
                sys.path.insert(0, str(ROOT / "src"))
                from workloads import ENGINE_WEIGHTS
                entry["weights"] = dict(ENGINE_WEIGHTS)
        doc["workloads"][workload] = entry
    print(f"largest spread across seeds, as a share of its bound "
          f"(setup_s excluded): {worst:.2f}")
    if args.write:
        doc["python"] = platform.python_version()
        doc["per_layer_map"] = {
            name: [{"metric": m, "workloads": w} for m, w in targets]
            for name, targets in LAYER_MAP.items()
        }
        path = HERE / "baseline.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
