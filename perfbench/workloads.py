"""The benchmark's workloads, their correctness checks and their metrics.

Each workload runs once per call of :func:`run`, inside a fresh
interpreter started by ``child.py``, through the program's public entry
points only: ``CampaignRunner`` with the E18/E19 cell functions, or the
scenario builders and ``run_consensus`` for the paper's algorithms.
Every input derives from the workload seed.  All workloads are closed
loop: the dispatcher hands out the next cell when a worker frees up,
and the engine loop starts the next execution when the last one is
checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from typing import Any, Callable, Dict, List, Optional

from repro.adversary.loss import IIDLoss
from repro.algorithms.alg1 import algorithm_1
from repro.algorithms.alg1 import termination_bound as alg1_bound
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.alg2 import termination_bound as alg2_bound
from repro.algorithms.alg3 import algorithm_3
from repro.algorithms.alg3 import termination_bound as alg3_bound
from repro.core.consensus import evaluate
from repro.core.execution import run_consensus
from repro.core.records import RecordPolicy
from repro.experiments.campaign import CampaignRunner
from repro.experiments.churn import churn_sweep_cell
from repro.experiments.harness import cell_seed, consensus_sweep_cell
from repro.experiments.scenarios import (
    maj_oac_environment,
    nocf_environment,
    zero_oac_environment,
)
from repro.experiments.verify import verify_campaign_store

from metrics import PHASES
from tracer import Tracer, merge_snapshots, traced_cell

# -- campaign workloads ------------------------------------------------------
CAMPAIGNS = {
    "e18-campaign": dict(
        cell=consensus_sweep_cell,
        cell_ref="repro.experiments.harness:consensus_sweep_cell",
        axes=dict(
            n=[4, 8, 16, 32], detector=["0-OAC", "maj-OAC"],
            loss_rate=[0.1, 0.3, 0.5], trial=list(range(20)),
            values=[64], record_policy=["summary"],
        ),
    ),
    "e19-churn": dict(
        cell=churn_sweep_cell,
        cell_ref="repro.experiments.churn:churn_sweep_cell",
        axes=dict(
            n=[4, 6, 8, 12], detector=["0-OAC", "maj-OAC"],
            loss_rate=[0.1, 0.3], churn_rate=[0.0, 0.15, 0.3],
            topology=["clique", "ring"], trial=list(range(5)),
            values=[8], record_policy=["summary"],
        ),
    ),
}

# -- the paper-engine mix ----------------------------------------------------
ENGINE_NS = (64, 256)
ENGINE_VALUES = list(range(1024))
ENGINE_CST = 40
ENGINE_LOSS = 0.3

#: Executions per n and workload run, chosen so that each algorithm
#: takes a similar share of run time (~1.5 s each on a 2-vCPU x86-64
#: VM) at the commit that added the benchmark, where one n=64 plus one
#: n=256 execution cost ~0.37 s for Algorithm 1, ~0.15 s for Algorithm 2
#: and ~0.019 s for Algorithm 3.  Algorithms 1 and 2 run the same number
#: of rounds on every seed (42 and 60 here); Algorithm 3's round count
#: varies with the seed (4 to 44 rounds per execution), so many
#: executions average it out.
ENGINE_WEIGHTS = {"alg1": 4, "alg2": 10, "alg3": 80}


def _engine_case(alg: str, n: int, seed: int):
    """Environment, algorithm and theorem bound for one execution."""
    if alg == "alg1":
        env = maj_oac_environment(n, cst=ENGINE_CST, seed=seed,
                                  loss_rate=ENGINE_LOSS)
        return env, algorithm_1(), alg1_bound(ENGINE_CST)
    if alg == "alg2":
        env = zero_oac_environment(n, cst=ENGINE_CST, seed=seed,
                                   loss_rate=ENGINE_LOSS)
        return (env, algorithm_2(ENGINE_VALUES),
                alg2_bound(ENGINE_CST, len(ENGINE_VALUES)))
    env = nocf_environment(n, loss=IIDLoss(ENGINE_LOSS, seed=seed))
    return env, algorithm_3(ENGINE_VALUES), alg3_bound(len(ENGINE_VALUES))


def engine_plan(seed: int) -> List[tuple]:
    """The seeded execution list: ``(alg, n, execution seed)``."""
    plan = []
    for alg, count in ENGINE_WEIGHTS.items():
        for n in ENGINE_NS:
            for k in range(count):
                plan.append((alg, n, cell_seed(seed, alg=alg, n=n, k=k)))
    return plan


# -- helpers -----------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Highest RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def engine_layers(snap: Dict[str, Any]) -> Dict[str, float]:
    """``core.execution``, ``core.records`` and phase-span metrics."""
    steps = snap["step_s"]
    spans = snap["spans"]
    in_step = sum(spans.get(p, [0.0, 0])[0] for p in PHASES[:-1])
    out = {
        "core.execution.rounds": snap["rounds"],
        "core.execution.kernel_rounds": snap["kernel_rounds"],
        "core.execution.kernel_share": (
            snap["kernel_rounds"] / snap["rounds"] if snap["rounds"] else 0.0
        ),
        "core.execution.step_us_p50": percentile(steps, 50) * 1e6,
        "core.execution.step_us_p99": percentile(steps, 99) * 1e6,
        "core.execution.self_s": sum(steps) - in_step,
        "core.records.round_write_s": snap["write_s"],
        "core.records.round_writes": snap["writes"],
    }
    for phase in PHASES:
        seconds, calls = spans.get(phase, [0.0, 0])
        out[phase + "_s"] = seconds
        out[phase + ".calls"] = calls
    return out


def check_cell(name: str, outcome) -> bool:
    """The per-cell correctness gate of a campaign workload.

    E18 cells run Algorithm 2 under ECF, so Theorem 2 requires every
    cell to be solved by its bound with agreement.  E19 cells are only
    covered by a theorem when membership is static and the channel is
    the single-hop ECF clique; ring cells never stabilise (non-neighbour
    messages are always lost), so disagreement there is a measured
    outcome, not a defect.
    """
    if outcome.status != "done":
        return False
    payload = outcome.payload
    if name == "e18-campaign":
        return bool(payload["solved"] and payload["agreement"])
    params = outcome.params
    if params["churn_rate"] == 0.0 and params["topology"] == "clique":
        return bool(payload["agreement"] and payload["decision_rate"] == 1.0)
    return True


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the campaign run --------------------------------------------------------
def run_campaign(name: str, seed: int, mode: str, work: str) -> Dict[str, Any]:
    """One campaign from a fresh store to its written report."""
    spec = CAMPAIGNS[name]
    axes = spec["axes"]
    db = os.path.join(work, "campaign.db")
    extra: Dict[str, Any] = {"sqlite_db": db}
    cell_fn: Callable = spec["cell"]
    trace_dir = os.path.join(work, "trace")
    if mode != "plain":
        os.makedirs(trace_dir)
        extra["perfbench.trace"] = {
            "cell": spec["cell_ref"], "mode": mode, "dir": trace_dir,
        }
        cell_fn = traced_cell
    stamps: Dict[str, float] = {}
    # (callback start, callback end, cell elapsed, worker pid)
    results: List[tuple] = []
    runner = CampaignRunner(cell_fn, db_path=db, base_seed=seed,
                            extra_params=extra)
    dispatch = runner.dispatcher.run

    def timed_dispatch(cells, on_result, pre_fork=None):
        stamps["dispatch"] = time.monotonic()

        def feed():
            for cell in cells:
                stamps.setdefault("first_pull", time.monotonic())
                yield cell

        def checkpoint(cell, result):
            start = time.monotonic()
            on_result(cell, result)
            results.append((start, time.monotonic(), result.elapsed,
                            result.worker_pid))

        return dispatch(feed(), checkpoint, pre_fork=pre_fork)

    runner.dispatcher.run = timed_dispatch
    try:
        stamps["resume"] = time.monotonic()
        outcomes = runner.resume(**axes)
        stamps["resumed"] = time.monotonic()
        text = runner.report(**axes) + "\n" + runner.report_table(**axes)
        with open(os.path.join(work, "report.txt"), "w") as fh:
            fh.write(text)
        stamps["reported"] = time.monotonic()
        width = runner.dispatcher.width
    finally:
        runner.close()
    rss = peak_rss_mb()

    # Correctness, after every timestamp is taken.
    expected = len(runner.cells(**axes))
    problems = []
    failed = max(0, expected - len(outcomes))
    for o in outcomes:
        if not check_cell(name, o):
            failed += 1
            problems.append(f"cell {o.params} failed its check: "
                            f"{o.status} {o.error or o.payload}")
    audit = verify_campaign_store(db)
    if not audit["ok"]:
        problems.append(f"campaign verify: {audit['findings'][:3]}")
        failed = expected

    done = [o for o in outcomes if o.status == "done"]
    first_start = min(r[0] - r[2] for r in results)
    last_ckpt = max(r[1] for r in results)
    span = last_ckpt - stamps["first_pull"]
    proc_rounds = sum(o.params["n"] * o.payload["rounds"] for o in done)
    out: Dict[str, Any] = {
        "attempted": expected,
        "failed": failed,
        "problems": problems,
        "digest": _digest(text),
        "width": width,
        "first_start": first_start,
        "end": stamps["reported"],
        "cells_per_s": len(done) / span,
        "proc_rounds_per_s": proc_rounds / span,
        "peak_rss_mb": rss,
        "layers": {},
    }
    if mode == "plain":
        return out

    records = []
    for fname in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, fname)) as fh:
            records.extend(json.loads(line) for line in fh)
    snap = merge_snapshots(records)
    out["kernel_rounds"] = snap["kernel_rounds"]
    if mode == "count":
        return out

    cell_ms = [r[2] * 1e3 for r in results]
    gaps = []
    by_pid: Dict[int, List[tuple]] = {}
    for rec in records:
        by_pid.setdefault(rec["pid"], []).append((rec["start"], rec["end"]))
    for spans in by_pid.values():
        spans.sort()
        gaps.extend((b[0] - a[1]) * 1e3 for a, b in zip(spans, spans[1:]))
    cell_s = sum(rec["end"] - rec["start"] for rec in records)
    layers = engine_layers(snap)
    layers.update({
        "experiments.campaign.plan_s": stamps["dispatch"] - stamps["resume"],
        "experiments.dispatch.spawn_s": (
            min(rec["start"] for rec in records) - stamps["dispatch"]
        ),
        "experiments.dispatch.workers": len({r[3] for r in results}),
        "experiments.dispatch.busy_frac": cell_s / (width * span),
        "experiments.dispatch.gap_ms_p50": percentile(gaps, 50),
        "experiments.dispatch.gap_ms_p95": percentile(gaps, 95),
        "experiments.cell.ms_p50": percentile(cell_ms, 50),
        "experiments.cell.ms_p95": percentile(cell_ms, 95),
        "experiments.cell.count": len(results),
        "experiments.campaign.checkpoint_s": sum(r[1] - r[0] for r in results),
        "experiments.campaign.checkpoints": len(results),
        "experiments.campaign.report_s": (
            stamps["reported"] - stamps["resumed"]
        ),
        "core.records.round_write_share": snap["write_s"] / cell_s,
    })
    out["layers"] = layers
    return out


# -- the paper-engine run ----------------------------------------------------
def run_engine(seed: int, mode: str) -> Dict[str, Any]:
    """Every execution of the seeded mix, each checked against its bound."""
    tracer: Optional[Tracer] = None
    if mode != "plain":
        tracer = Tracer(mode)
        tracer.install()
    first_start = None
    failed = 0
    entries = []
    # (alg, n) -> [Σ n·rounds, Σ seconds]
    groups: Dict[tuple, List[float]] = {}
    for alg, n, exec_seed in engine_plan(seed):
        start = time.monotonic()
        if first_start is None:
            first_start = start
        env, algorithm, bound = _engine_case(alg, n, exec_seed)
        values = {i: ENGINE_VALUES[(i * 7 + exec_seed) % len(ENGINE_VALUES)]
                  for i in env.indices}
        result = run_consensus(env, algorithm, values, max_rounds=bound + 20,
                               record_policy=RecordPolicy.SUMMARY)
        elapsed = time.monotonic() - start
        failed += not evaluate(result, by_round=bound).solved
        acc = groups.setdefault((alg, n), [0, 0.0])
        acc[0] += n * result.rounds
        acc[1] += elapsed
        entries.append([alg, n, exec_seed, result.rounds,
                        sorted(result.decisions.items()),
                        sorted(result.decision_rounds.items())])
    end = time.monotonic()
    span = end - first_start
    proc_rounds = sum(acc[0] for acc in groups.values())
    out: Dict[str, Any] = {
        "attempted": len(entries),
        "failed": failed,
        "problems": [],
        "digest": _digest(json.dumps(entries, sort_keys=True)),
        "width": 1,
        "first_start": first_start,
        "end": end,
        "cells_per_s": len(entries) / span,
        "proc_rounds_per_s": proc_rounds / span,
        "peak_rss_mb": peak_rss_mb(),
        "layers": {},
        "per_algorithm": {
            f"algorithms.{alg}.n{n}.proc_rounds_per_s": acc[0] / acc[1]
            for (alg, n), acc in groups.items()
        },
    }
    if tracer is not None:
        tracer.uninstall()
        snap = tracer.snapshot()
        out["kernel_rounds"] = snap["kernel_rounds"]
        if mode == "trace":
            out["layers"] = engine_layers(snap)
    return out


def run(workload: str, seed: int, mode: str, work: str) -> Dict[str, Any]:
    if workload == "paper-engine":
        return run_engine(seed, mode)
    return run_campaign(workload, seed, mode, work)
