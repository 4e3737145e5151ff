"""The engine phases and how the per-layer metrics relate to workloads.

Names and units of the workloads and metrics live in ``BENCHMARK.json``
only.  This module imports nothing from the program, so ``run.py`` can
fail cleanly where the program is missing.
"""

from typing import Dict, List, Tuple

#: Phase spans, in engine step order, then the post-step observer.
PHASES = (
    "adversary.churn.events",
    "adversary.crash.crashes",
    "contention.advise",
    "algorithms.message",
    "adversary.loss.resolve",
    "detectors.advise",
    "algorithms.transition",
    "contention.observe",
    "core.records.observer",
)

CAMPAIGNS = ["e18-campaign", "e19-churn"]
ENGINE = ["paper-engine"]
EVERY = CAMPAIGNS + ENGINE

#: Per-layer metrics a workload does not exercise, by name prefix: no
#: pool, store or report in ``paper-engine``, no churn in
#: ``e18-campaign``, per-algorithm rates only in ``paper-engine``.  They
#: read 0 by construction; the result line still carries them, because
#: a traced run reports every per-layer metric, but the printed table
#: and the baseline leave them out.
NOT_EXERCISED: Dict[str, Tuple[str, ...]] = {
    "e18-campaign": ("adversary.churn.", "algorithms.alg"),
    "e19-churn": ("algorithms.alg",),
    "paper-engine": ("experiments.", "core.records.", "adversary.churn."),
}


def exercised(workload: str, metric: str) -> bool:
    return not metric.startswith(NOT_EXERCISED[workload])

#: Which end-to-end metric, on which workloads, each per-layer metric
#: should move.
LAYER_MAP: Dict[str, List[tuple]] = {
    "import.repro_s": [("setup_s", EVERY)],
    "experiments.campaign.plan_s": [("setup_s", CAMPAIGNS)],
    "experiments.dispatch.spawn_s": [("setup_s", CAMPAIGNS)],
    "experiments.dispatch.workers": [("cells_per_s", ["e18-campaign"])],
    "experiments.dispatch.busy_frac": [("cells_per_s", ["e18-campaign"])],
    "experiments.dispatch.gap_ms_p50": [("cells_per_s", ["e18-campaign"])],
    "experiments.dispatch.gap_ms_p95": [("cells_per_s", ["e18-campaign"])],
    "experiments.cell.ms_p50": [("cells_per_s", CAMPAIGNS)],
    "experiments.cell.ms_p95": [("cells_per_s", CAMPAIGNS)],
    "experiments.cell.count": [("cells_per_s", CAMPAIGNS)],
    "experiments.campaign.checkpoint_s": [("cells_per_s", ["e18-campaign"])],
    "experiments.campaign.checkpoints": [("cells_per_s", ["e18-campaign"])],
    "experiments.campaign.report_s": [("wall_s", CAMPAIGNS)],
    "core.records.round_write_s": [("cells_per_s", CAMPAIGNS)],
    "core.records.round_writes": [("cells_per_s", CAMPAIGNS)],
    "core.records.round_write_share": [("cells_per_s", CAMPAIGNS)],
    "core.records.observer_s": [("cells_per_s", CAMPAIGNS)],
    "core.execution.self_s": [("proc_rounds_per_s", ENGINE)],
    "adversary.churn.events_s": [("proc_rounds_per_s", ["e19-churn"])],
    "adversary.loss.resolve_s": [
        ("proc_rounds_per_s", ["paper-engine", "e19-churn"])],
    "algorithms.transition_s": [("proc_rounds_per_s", ENGINE)],
}
for _name in ("rounds", "kernel_rounds", "kernel_share", "step_us_p50",
              "step_us_p99"):
    LAYER_MAP["core.execution." + _name] = [
        ("proc_rounds_per_s", ["paper-engine", "e19-churn"])]
for _name in ("adversary.crash.crashes_s", "contention.advise_s",
              "contention.observe_s", "algorithms.message_s",
              "detectors.advise_s"):
    LAYER_MAP[_name] = [("proc_rounds_per_s", ENGINE)]
for _alg in ("alg1", "alg2", "alg3"):
    for _n in (64, 256):
        LAYER_MAP[f"algorithms.{_alg}.n{_n}.proc_rounds_per_s"] = [
            ("proc_rounds_per_s", ENGINE)]
for _phase in PHASES:
    LAYER_MAP[_phase + ".calls"] = LAYER_MAP[_phase + "_s"]
#: The cost of tracing itself; no end-to-end metric depends on it.
LAYER_MAP["trace.overhead_frac"] = []
