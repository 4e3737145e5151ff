#!/usr/bin/env python3
"""E19 churn benchmark: the dynamic-membership campaign end to end.

Runs the (n x detector x loss_rate x churn_rate x topology x seed) churn
grid with every finished cell committed to a sqlite ``campaign.db``,
then reports cells per second, status counts, and the agreement-quality
aggregates (decision rate, agreement violations, mean rejoins) that make
churn worth sweeping in the first place.  Usage::

    PYTHONPATH=src python benchmarks/bench_e19_churn.py --quick \
        --db churn.db --out BENCH_e19.json

CI's resume smoke follows the E18 protocol::

    # pass 1: interrupted by a --max-cells budget (exit 3)
    python benchmarks/bench_e19_churn.py --quick --db churn.db \
        --max-cells 4 || true
    # pass 2: resume to completion, dump the canonical report
    python benchmarks/bench_e19_churn.py --quick --db churn.db \
        --report-out resumed.json
    # clean in-process serial reference pass in a fresh store
    python benchmarks/bench_e19_churn.py --quick --db clean.db \
        --in-process --report-out clean.json
    cmp resumed.json clean.json        # byte-identical or CI fails

The report deliberately excludes wall-clock noise, so the comparison is
exact; ``--quick`` shrinks the grid for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from repro.experiments.campaign import CampaignRunner
from repro.experiments.churn import churn_sweep_cell


def grid_axes(quick: bool) -> dict:
    """The benchmark's sweep axes (trial indexes replicate seeds)."""
    if quick:
        return dict(
            n=[4], detector=["0-OAC"], loss_rate=[0.1],
            churn_rate=[0.0, 0.25], topology=["clique", "ring"],
            trial=[0, 1], values=[8], record_policy=["summary"],
        )
    return dict(
        n=[4, 6, 8], detector=["0-OAC", "maj-OAC"],
        loss_rate=[0.1, 0.3], churn_rate=[0.0, 0.15, 0.3],
        topology=["clique", "ring"], trial=list(range(3)), values=[8],
        record_policy=["summary"],
    )


def agreement_stats(outcomes) -> dict:
    """Aggregate agreement quality over the done cells."""
    done = [o for o in outcomes if o.status == "done"]
    rates = [
        o.payload["decision_rate"] for o in done
        if o.payload.get("decision_rate") is not None
    ]
    churned = [o for o in done if o.payload.get("churned")]
    return {
        "done_cells": len(done),
        "churned_cells": len(churned),
        "agreement_violations": sum(
            1 for o in done if not o.payload.get("agreement", True)
        ),
        "mean_decision_rate": (
            sum(rates) / len(rates) if rates else None
        ),
        "total_rejoins": sum(
            o.payload.get("rejoins", 0) for o in done
        ),
        "total_ghost_decisions": sum(
            o.payload.get("ghost_decisions", 0) for o in done
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid for CI smoke runs")
    parser.add_argument("--db", default="churn.db",
                        help="sqlite checkpoint store (default churn.db)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--processes", type=int, default=None,
                        help="dispatcher pool width (0/1 = a one-worker "
                             "pool; default: one per cpu)")
    parser.add_argument("--in-process", action="store_true",
                        help="run cells serially inside this process "
                             "(the serial reference; no workers)")
    parser.add_argument("--timeout-per-cell", type=float, default=None,
                        help="per-cell wall-clock budget in seconds")
    parser.add_argument("--max-cells", type=int, default=None,
                        help="run at most this many pending cells then "
                             "exit (deterministic interruption)")
    parser.add_argument("--out", default=None,
                        help="write the bench JSON artifact here")
    parser.add_argument("--report-out", default=None,
                        help="write the campaign's canonical JSON report "
                             "here (byte-stable across interrupt/resume)")
    args = parser.parse_args()

    axes = grid_axes(args.quick)
    runner = CampaignRunner(
        churn_sweep_cell,
        db_path=args.db,
        base_seed=args.base_seed,
        processes=args.processes,
        cell_timeout=args.timeout_per_cell,
        in_process=args.in_process,
    )
    total = len(runner.cells(**axes))
    already = sum(
        1 for o in runner.outcomes(**axes)
        if o.status in ("done", "timed_out")
    )
    pending = total - already
    ran = pending if args.max_cells is None else min(pending, args.max_cells)

    start = time.perf_counter()
    try:
        outcomes = runner.resume(max_cells=args.max_cells, **axes)
    finally:
        runner.close()
    elapsed = time.perf_counter() - start
    statuses = {}
    for outcome in outcomes:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
    quality = agreement_stats(outcomes)
    print(f"grid: {total} cells | checkpointed before this pass: {already} "
          f"| ran now: {ran} | store now holds: {len(outcomes)}")
    print(f"statuses: {statuses}")
    print(f"agreement: {quality['agreement_violations']} violations over "
          f"{quality['done_cells']} done cells "
          f"({quality['churned_cells']} churned, "
          f"{quality['total_rejoins']} rejoins, "
          f"{quality['total_ghost_decisions']} ghost decisions)")
    print(f"elapsed: {elapsed:.2f}s "
          f"({ran / elapsed if elapsed > 0 else float('inf'):.1f} cells/s "
          "this pass)")

    if args.out:
        artifact = {
            "benchmark": "e19_churn",
            "quick": args.quick,
            "python": platform.python_version(),
            "db": os.path.abspath(args.db),
            "grid_cells": total,
            "skipped_checkpointed": already,
            "ran_this_pass": ran,
            "statuses": statuses,
            "agreement": quality,
            "elapsed_seconds": elapsed,
            "cells_per_second": (ran / elapsed) if elapsed > 0 else None,
        }
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(runner.report(**axes))
            fh.write("\n")
        print(f"wrote {args.report_out}")

    incomplete = len(outcomes) < total
    if incomplete:
        print(f"campaign interrupted with {total - len(outcomes)} cells "
              "pending; rerun the same command to resume")
    return 3 if incomplete else 0


if __name__ == "__main__":
    raise SystemExit(main())
