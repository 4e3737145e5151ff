#!/usr/bin/env python3
"""E18 campaign benchmark: resumable matrix sweeps through the
checkpointing :class:`~repro.experiments.campaign.CampaignRunner`.

Runs the (n x detector x loss_rate x seed) consensus matrix with every
finished cell committed to a sqlite ``campaign.db``, then reports cells
per second and how much of the grid this pass actually had to run — a
resumed campaign skips checkpointed cells entirely.  Usage::

    PYTHONPATH=src python benchmarks/bench_e18_campaign.py --quick \
        --db campaign.db --out BENCH_e18.json

CI's resume smoke exercises the durability story end to end::

    # pass 1: interrupted (timeout kill and/or a --max-cells budget)
    timeout 60 python benchmarks/bench_e18_campaign.py --quick \
        --db campaign.db --max-cells 6 || true
    # pass 2: resume to completion, dump the canonical report
    python benchmarks/bench_e18_campaign.py --quick --db campaign.db \
        --report-out resumed.json
    # clean in-process serial reference pass in a fresh store
    python benchmarks/bench_e18_campaign.py --quick --db clean.db \
        --in-process --report-out clean.json
    cmp resumed.json clean.json        # byte-identical or CI fails

The report deliberately excludes wall-clock noise, so the comparison is
exact; ``--quick`` shrinks the grid for CI.  Every configuration runs
the unified :class:`~repro.experiments.dispatch.CampaignDispatcher`
pool (``--in-process`` is the serial escape hatch), and the artifact
publishes ``worker_reuse`` — distinct worker pids vs cells dispatched —
so a regression to spawn-per-cell is visible in the JSON.
``--compare-timeout-paths N`` additionally wall-clocks the loop at
width 1 against width N under deadlines and publishes the comparison;
``--fault-overhead`` measures the Faultline injection hooks'
installed-but-idle cost (CI gates the ratio below 3%).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time

from repro.experiments.campaign import CampaignRunner
from repro.experiments.harness import consensus_sweep_cell


def grid_axes(quick: bool) -> dict:
    """The benchmark's sweep axes (trial indexes replicate seeds)."""
    if quick:
        return dict(
            n=[3, 4], detector=["0-OAC"], loss_rate=[0.1, 0.3],
            trial=[0, 1, 2], values=[16], record_policy=["summary"],
        )
    return dict(
        n=[4, 8, 16], detector=["0-OAC", "maj-OAC"],
        loss_rate=[0.1, 0.3, 0.5], trial=list(range(5)), values=[64],
        record_policy=["summary"],
    )


#: Per-cell wall-clock beat for the width comparison.  The consensus
#: simulation itself runs in ~2ms, which no pool width can amortise
#: past its own dispatch cost; the comparison is about the *loop's*
#: concurrency under deadlines (the long-tailed cells deadline pools
#: exist for), so each cell carries a fixed beat.
PAD_SECONDS = 0.08


def _padded_cell(params, seed):
    """``consensus_sweep_cell`` plus a fixed wall-clock beat.

    ``pad_seconds`` arrives via ``extra_params`` — merged into
    ``params`` at execution time but excluded from cell identity and
    seeding — so both comparison legs produce byte-identical reports
    while each cell holds its worker long enough that the measurement
    is dispatch concurrency, not the ~2ms simulation.
    """
    output = consensus_sweep_cell(params, seed)
    time.sleep(float(params.get("pad_seconds", 0.0)))
    return output


def compare_timeout_paths(
    quick: bool, processes: int, cell_timeout: float, base_seed: int
) -> dict:
    """Wall-clock the unified loop at width 1 against width ``processes``.

    Runs the same grid twice in throwaway stores — once on a one-worker
    dispatcher pool and once at ``processes`` width — both under the
    same generous per-cell budget, and also byte-compares the two
    reports: pool width under deadlines must never change the merged
    outcomes, only the wall-clock.  Each leg publishes its
    ``worker_reuse`` accounting (distinct worker pids vs cells), so a
    regression to spawn-per-cell dispatch shows up in the artifact.
    """
    axes = grid_axes(quick)
    tmp = tempfile.mkdtemp(prefix="repro-e18-timing-")
    timings: dict = {"worker_reuse": {}}
    reports = {}
    try:
        for label, procs in (("width1", 1), ("pooled", processes)):
            db = os.path.join(tmp, f"{label}.db")
            with CampaignRunner(
                _padded_cell,
                db_path=db,
                base_seed=base_seed,
                processes=procs,
                cell_timeout=cell_timeout,
                extra_params={"pad_seconds": PAD_SECONDS},
            ) as runner:
                start = time.perf_counter()
                outcomes = runner.resume(**axes)
                timings[f"{label}_seconds"] = time.perf_counter() - start
                timings[f"{label}_cells"] = len(outcomes)
                timings["worker_reuse"][label] = runner.last_dispatch_stats
                reports[label] = runner.report(**axes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    timings["processes"] = processes
    timings["cell_timeout"] = cell_timeout
    timings["pad_seconds"] = PAD_SECONDS
    timings["speedup"] = (
        timings["width1_seconds"] / timings["pooled_seconds"]
        if timings["pooled_seconds"] > 0 else None
    )
    timings["reports_identical"] = reports["width1"] == reports["pooled"]
    return timings


#: The idle plan for ``--fault-overhead``: armed (so every hook runs
#: the full fire() path — clock tick, rule scan) but matching nothing
#: the campaign ever visits, so no fault actually fires.
_IDLE_PLAN_SPEC = {
    "name": "idle-overhead-probe",
    "seed": 0,
    "rules": [
        {"site": "merge", "match": "no-such-shard",
         "action": {"kind": "error"}},
    ],
}


def fault_overhead(quick: bool, base_seed: int, reps: int = 3) -> dict:
    """Measure the Faultline hooks' installed-but-idle overhead.

    Runs the grid in-process (no pool spawn noise) with no plan and
    with an armed-but-never-firing plan, in fresh throwaway stores.
    With no plan the hooks are a ``None``-check; with the idle plan
    every injection site pays the full clock-tick + rule-scan path.

    The true overhead (sub-microsecond per visit, a few hundred visits
    per quick grid) sits far below the wall-clock noise floor of a
    shared CI host, so the **gated** ratio is assembled from
    variance-controlled factors: the exact number of injection-point
    visits the idle leg performed (read off the plan's
    :class:`~repro.testing.faultline.FaultClock`) times the measured
    per-visit cost (a tight microbenchmark of the same ``fire()``
    path), over the campaign's min-of-reps wall clock.  The raw
    two-leg wall clocks are published alongside as
    ``wallclock_ratio`` for eyeballing; gating on that directly would
    only measure the host's scheduler.
    """
    import timeit

    from repro.testing.faultline import FaultPlan

    axes = dict(grid_axes(quick), trial=list(range(8)))
    tmp = tempfile.mkdtemp(prefix="repro-e18-faultline-")
    results: dict = {"reps": reps}
    best: dict = {}
    visits = None

    def one_pass(label: str, rep: str) -> float:
        nonlocal visits
        db = os.path.join(tmp, f"{label}-{rep}.db")
        plan = (
            FaultPlan.from_spec(_IDLE_PLAN_SPEC)
            if label == "idle" else None
        )
        with CampaignRunner(
            consensus_sweep_cell,
            db_path=db,
            base_seed=base_seed,
            in_process=True,
            fault_plan=plan,
        ) as runner:
            start = time.perf_counter()
            outcomes = runner.resume(**axes)
            elapsed = time.perf_counter() - start
        if plan is not None:
            if plan.log:
                raise RuntimeError(
                    f"idle overhead plan fired {plan.log!r}; the "
                    "measurement is void"
                )
            visits = plan.clock.total()
        results.setdefault(f"{label}_cells", len(outcomes))
        return elapsed

    try:
        for label in ("absent", "idle"):
            one_pass(label, "warmup")  # caches, imports, page-ins
        for rep in range(reps):
            # Alternate the legs so host drift hits both equally.
            for label in ("absent", "idle"):
                elapsed = one_pass(label, str(rep))
                best[label] = min(best.get(label, elapsed), elapsed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    probe = FaultPlan.from_spec(_IDLE_PLAN_SPEC)
    per_visit = min(timeit.repeat(
        lambda: probe.fire("sqlite", "record-cell"),
        number=20000, repeat=5,
    )) / 20000

    results["absent_seconds"] = best["absent"]
    results["idle_seconds"] = best["idle"]
    results["wallclock_ratio"] = (
        best["idle"] / best["absent"] - 1.0
        if best["absent"] > 0 else None
    )
    results["hook_visits"] = visits
    results["per_visit_seconds"] = per_visit
    results["overhead_ratio"] = (
        (visits * per_visit) / best["absent"]
        if best["absent"] > 0 else None
    )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid for CI smoke runs")
    parser.add_argument("--db", default="campaign.db",
                        help="sqlite checkpoint store (default campaign.db)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--processes", type=int, default=None,
                        help="dispatcher pool width (0/1 = a one-worker "
                             "pool; default: one per cpu)")
    parser.add_argument("--in-process", action="store_true",
                        help="run cells serially inside this process "
                             "(the serial reference; no workers, "
                             "timeouts unenforced)")
    parser.add_argument("--timeout-per-cell", type=float, default=None,
                        help="per-cell wall-clock budget in seconds")
    parser.add_argument("--max-cells", type=int, default=None,
                        help="run at most this many pending cells then "
                             "exit (deterministic interruption)")
    parser.add_argument("--compare-timeout-paths", type=int, default=None,
                        metavar="N",
                        help="also wall-clock the unified loop at width "
                             "1 against width N under deadlines (same "
                             "grid, throwaway stores) and publish the "
                             "comparison in the artifact")
    parser.add_argument("--compare-timeout", type=float, default=60.0,
                        help="per-cell budget for the comparison legs "
                             "(default 60s — generous, so the runs "
                             "measure dispatch, not timeouts)")
    parser.add_argument("--fault-overhead", action="store_true",
                        help="also measure the Faultline hooks' "
                             "installed-but-idle overhead (min-of-reps, "
                             "in-process legs with and without an armed "
                             "plan) and publish the ratio in the "
                             "artifact; CI gates it below 3%%")
    parser.add_argument("--out", default=None,
                        help="write the bench JSON artifact here")
    parser.add_argument("--report-out", default=None,
                        help="write the campaign's canonical JSON report "
                             "here (byte-stable across interrupt/resume)")
    args = parser.parse_args()

    axes = grid_axes(args.quick)
    runner = CampaignRunner(
        consensus_sweep_cell,
        db_path=args.db,
        base_seed=args.base_seed,
        processes=args.processes,
        cell_timeout=args.timeout_per_cell,
        in_process=args.in_process,
    )
    total = len(runner.cells(**axes))
    # Only done/timed_out cells are skipped on resume; failed cells are
    # retried, so they count toward the pending work this pass runs
    # (bounded by --max-cells).
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
    worker_reuse = runner.last_dispatch_stats  # None if nothing ran
    if worker_reuse is not None and not worker_reuse["in_process"]:
        print(f"worker reuse: {worker_reuse['distinct_worker_pids']} "
              f"distinct worker pids over {worker_reuse['cells']} cells")
    statuses = {}
    for outcome in outcomes:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
    print(f"grid: {total} cells | checkpointed before this pass: {already} "
          f"| ran now: {ran} | store now holds: {len(outcomes)}")
    print(f"statuses: {statuses}")
    print(f"elapsed: {elapsed:.2f}s "
          f"({ran / elapsed if elapsed > 0 else float('inf'):.1f} cells/s "
          "this pass)")

    comparison = None
    if args.compare_timeout_paths is not None:
        comparison = compare_timeout_paths(
            args.quick, args.compare_timeout_paths, args.compare_timeout,
            args.base_seed,
        )
        print(
            f"timeout paths: width1 {comparison['width1_seconds']:.2f}s vs "
            f"pooled({comparison['processes']}) "
            f"{comparison['pooled_seconds']:.2f}s "
            f"-> {comparison['speedup']:.2f}x, reports identical: "
            f"{comparison['reports_identical']}"
        )

    overhead = None
    if args.fault_overhead:
        overhead = fault_overhead(args.quick, args.base_seed)
        print(
            f"fault-overhead: {overhead['hook_visits']} hook visits x "
            f"{overhead['per_visit_seconds'] * 1e6:.2f}us over "
            f"{overhead['absent_seconds']:.3f}s -> "
            f"{overhead['overhead_ratio'] * 100.0:.3f}% "
            f"(wallclock legs: absent {overhead['absent_seconds']:.3f}s "
            f"vs idle {overhead['idle_seconds']:.3f}s, "
            f"{overhead['wallclock_ratio'] * 100.0:+.2f}% informational)"
        )

    if args.out:
        artifact = {
            "benchmark": "e18_campaign",
            "quick": args.quick,
            "python": platform.python_version(),
            "db": os.path.abspath(args.db),
            "grid_cells": total,
            "skipped_checkpointed": already,
            "ran_this_pass": ran,
            "statuses": statuses,
            "elapsed_seconds": elapsed,
            "cells_per_second": (ran / elapsed) if elapsed > 0 else None,
            "worker_reuse": worker_reuse,
        }
        if comparison is not None:
            artifact["timeout_paths"] = comparison
        if overhead is not None:
            artifact["fault_overhead"] = overhead
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
