"""E1: the Figure 1 / Section 1.5 solvability-and-complexity matrix.

One row per (detector class, channel regime) combination the paper
analyses, reporting:

* the paper's verdict (solvable + bound, or impossible),
* what our implementation *measured*: either the matching algorithm's
  decision round relative to CST, or the witness constructor's verdict
  that no decision happened / a hypothetical fast decider would violate
  agreement.

E18 (:func:`run_campaign_matrix`) is the matrix *at scale*: the upper
bound rows re-run as a full (n × detector × loss_rate × seed) grid
through the checkpointing :class:`~repro.experiments.campaign.
CampaignRunner`, so the sweep survives interruption and resumes from
its sqlite store.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from typing import Iterable, List, Optional

from ..algorithms.alg1 import algorithm_1
from ..algorithms.alg1 import termination_bound as alg1_bound
from ..algorithms.alg2 import algorithm_2
from ..algorithms.alg2 import termination_bound as alg2_bound
from ..algorithms.alg3 import algorithm_3
from ..algorithms.alg3 import termination_bound as alg3_bound
from ..algorithms.baselines import naive_min_consensus
from ..core.consensus import evaluate
from ..core.execution import run_consensus
from ..core.records import RecordPolicy
from ..detectors.classes import HALF_AC, MAJ_OAC, ZERO_OAC
from ..lowerbounds.theorems import (
    theorem4_witness,
    theorem5_witness,
    theorem6_witness,
    theorem8_witness,
    theorem9_witness,
)
from .campaign import CampaignRunner
from .harness import Table, consensus_sweep_cell
from .scenarios import ecf_environment, nocf_environment

_N = 4
_CST = 3
_VALUES = list(range(64))


def _measure_upper(algorithm_factory, detector_class, bound: int) -> str:
    env = ecf_environment(_N, detector_class, cst=_CST, seed=1)
    assignment = {i: _VALUES[(i * 5) % len(_VALUES)] for i in range(_N)}
    # Upper-bound rows only consult decisions and decision rounds, so the
    # streaming record policy suffices (identical outcomes, less memory).
    result = run_consensus(
        env, algorithm_factory(), assignment, max_rounds=bound + 20,
        record_policy=RecordPolicy.SUMMARY,
    )
    report = evaluate(result, by_round=bound)
    decided = result.last_decision_round()
    status = "ok" if report.solved else "FAILED"
    return f"decided CST+{decided - _CST} (bound CST+{bound - _CST}) {status}"


def run_matrix() -> List[Table]:
    """Build the solvability/complexity matrix (Figure 1 + Section 1.5)."""
    lgv = math.ceil(math.log2(len(_VALUES)))
    table = Table(
        title="E1  Solvability and round complexity per detector class",
        columns=["class", "cm", "channel", "paper", "measured"],
        note=f"|V|={len(_VALUES)} (lg|V|={lgv}), n={_N}, CST={_CST}",
    )

    # --- maj-OAC + WS + ECF: O(1) via Algorithm 1 (Theorem 1). ---------
    table.add(
        **{
            "class": "maj-OAC",
            "cm": "WS",
            "channel": "ECF",
            "paper": "solvable, CST + 2 (Thm 1)",
            "measured": _measure_upper(
                algorithm_1, MAJ_OAC, alg1_bound(_CST)
            ),
        }
    )

    # --- 0-OAC + WS + ECF: Θ(lg|V|) via Algorithm 2 (Theorem 2). -------
    table.add(
        **{
            "class": "0-OAC",
            "cm": "WS",
            "channel": "ECF",
            "paper": "solvable, CST + 2(⌈lg|V|⌉+1) (Thm 2)",
            "measured": _measure_upper(
                lambda: algorithm_2(_VALUES),
                ZERO_OAC,
                alg2_bound(_CST, len(_VALUES)),
            ),
        }
    )

    # --- half-AC + LS + ECF: Ω(lg|V|) lower bound (Theorem 6). ---------
    witness = theorem6_witness(algorithm_2(_VALUES), _VALUES, n=2)
    table.add(
        **{
            "class": "half-AC",
            "cm": "LS",
            "channel": "ECF",
            "paper": "no o(lg|V|)-round algorithm (Thm 6)",
            "measured": (
                f"Alg2 undecided at k={witness.k} after CST "
                f"(bound respected); half-AC compositions legal: "
                f"{witness.indistinguishability_ok}"
            ),
        }
    )
    fast = theorem6_witness(naive_min_consensus(1), _VALUES, n=2)
    table.add(
        **{
            "class": "half-AC",
            "cm": "LS",
            "channel": "ECF",
            "paper": "fast deciders violate agreement (Thm 6 proof)",
            "measured": (
                f"naive baseline: {fast.violation or 'no violation'} "
                f"at k={fast.k}"
            ),
        }
    )

    # --- NoCD + LS + ECF: impossible (Theorem 4). ----------------------
    w4 = theorem4_witness(algorithm_1(), "a", "b", n=3, horizon=40)
    w4_naive = theorem4_witness(naive_min_consensus(2), "a", "b", n=3)
    table.add(
        **{
            "class": "NoCD",
            "cm": "LS",
            "channel": "ECF",
            "paper": "impossible (Thm 4)",
            "measured": (
                f"Alg1 never decides; naive decider -> "
                f"{w4_naive.violation}"
                if not w4.decided
                else "UNEXPECTED: Alg1 decided under NoCD"
            ),
        }
    )

    # --- NoACC + LS + ECF: impossible (Theorem 5). ---------------------
    w5 = theorem5_witness(naive_min_consensus(2), "a", "b", n=3)
    table.add(
        **{
            "class": "NoACC",
            "cm": "LS",
            "channel": "ECF",
            "paper": "impossible (Thm 5, via Lemma 1)",
            "measured": f"naive decider -> {w5.violation}",
        }
    )

    # --- OAC + LS + NoCF: impossible (Theorem 8). ----------------------
    w8 = theorem8_witness(algorithm_1(), "a", "b", n=3, horizon=60)
    w8_naive = theorem8_witness(naive_min_consensus(2), "a", "b", n=3)
    table.add(
        **{
            "class": "OAC",
            "cm": "LS",
            "channel": "NoCF",
            "paper": "impossible (Thm 8)",
            "measured": (
                f"Alg1 never decides; naive decider -> "
                f"{w8_naive.violation}"
                if not w8.decided
                else "UNEXPECTED: Alg1 decided"
            ),
        }
    )

    # --- 0-AC + NoCM + NoCF: Θ(lg|V|) via Algorithm 3 (Thms 3, 9). -----
    env = nocf_environment(_N)
    assignment = {i: _VALUES[(i * 5) % len(_VALUES)] for i in range(_N)}
    bound = alg3_bound(len(_VALUES))
    result = run_consensus(
        env, algorithm_3(_VALUES), assignment, max_rounds=bound + 8,
        record_policy=RecordPolicy.SUMMARY,
    )
    report = evaluate(result, by_round=bound)
    w9 = theorem9_witness(algorithm_3(_VALUES), _VALUES, n=2)
    table.add(
        **{
            "class": "0-AC",
            "cm": "NoCM",
            "channel": "NoCF",
            "paper": "solvable, ≤8⌈lg|V|⌉ after failures; Ω(lg|V|) (Thms 3, 9)",
            "measured": (
                f"Alg3 decided r{result.last_decision_round()} "
                f"(bound {bound}) {'ok' if report.solved else 'FAILED'}; "
                f"undecided at lower-bound k={w9.k}"
            ),
        }
    )
    return [table]


# ----------------------------------------------------------------------
# E18: the matrix at campaign scale
# ----------------------------------------------------------------------
def run_campaign_matrix(
    db_path: Optional[str] = None,
    ns: Iterable[int] = (4, 8),
    detectors: Iterable[str] = ("0-OAC", "maj-OAC"),
    loss_rates: Iterable[float] = (0.1, 0.3),
    seeds: Iterable[int] = (0, 1, 2),
    base_seed: int = 0,
    values: int = 16,
    cell_timeout: Optional[float] = None,
    processes: Optional[int] = None,
    max_retries: int = 2,
    max_cells: Optional[int] = None,
    in_process: bool = False,
    shard_index: int = 0,
    shard_count: int = 1,
    stall_timeout: Optional[float] = None,
) -> List[Table]:
    """E18: the E1 upper-bound matrix at scale, through the campaign layer.

    Sweeps (n × detector × loss_rate × seed) cells of
    :func:`~repro.experiments.harness.consensus_sweep_cell` — Algorithm 2
    to decision under the ``SUMMARY`` record policy — via
    :class:`~repro.experiments.campaign.CampaignRunner`, which
    checkpoints every finished cell into ``db_path`` (``campaign.db``)
    and streams each cell's per-round summaries into the same store.
    Re-running with the same ``db_path`` resumes: completed cells are
    read back instead of re-simulated, and an interrupted grid finishes
    from where it stopped with byte-identical merged outcomes.
    Every configuration routes through the unified
    :class:`~repro.experiments.dispatch.CampaignDispatcher` pool —
    ``processes`` sets its width (``0``/``1`` = a one-worker pool) and
    ``cell_timeout`` arms per-cell deadlines at any width; ``failed``
    cells are retried on resume only within the ``max_retries`` budget.
    ``in_process=True`` is the serial debug escape hatch (CLI
    ``--in-process``): no workers, timeouts unenforced, byte-identical
    reports.

    One table row aggregates each (n, detector, loss_rate) combination
    over its seeds; ``db_path=None`` uses a throwaway store under the
    system temp directory — a fresh campaign every call, removed once
    the table is built (pass an explicit ``db_path`` to keep a store
    you can resume or interrupt).

    ``shard_index``/``shard_count`` run just one host's deterministic
    share of the grid (CLI ``campaign shard --index i --of k``) into
    its own store; ``merge_campaign_stores`` folds the K stores back
    into one whose report bytes equal this function run unsharded.
    """
    throwaway = None
    if db_path is None:
        throwaway = tempfile.mkdtemp(prefix="repro-e18-")
        db_path = os.path.join(throwaway, "campaign.db")
    try:
        return _campaign_matrix_tables(
            db_path, ns, detectors, loss_rates, seeds, base_seed, values,
            cell_timeout, processes, max_retries, max_cells,
            in_process=in_process,
            shard_index=shard_index, shard_count=shard_count,
            stall_timeout=stall_timeout,
            throwaway=throwaway is not None,
        )
    finally:
        if throwaway is not None:
            shutil.rmtree(throwaway, ignore_errors=True)


def _campaign_matrix_tables(
    db_path: str,
    ns: Iterable[int],
    detectors: Iterable[str],
    loss_rates: Iterable[float],
    seeds: Iterable[int],
    base_seed: int,
    values: int,
    cell_timeout: Optional[float],
    processes: Optional[int],
    max_retries: int,
    max_cells: Optional[int],
    in_process: bool = False,
    shard_index: int = 0,
    shard_count: int = 1,
    stall_timeout: Optional[float] = None,
    throwaway: bool = False,
) -> List[Table]:
    # The seed axis is swept as ``trial``: each trial folds into the
    # *derived* per-cell seed (via cell_seed) instead of overriding it.
    axes = dict(
        n=list(ns),
        detector=list(detectors),
        loss_rate=[float(r) for r in loss_rates],
        trial=list(seeds),
        values=[int(values)],
        record_policy=["summary"],
    )
    # Context-managed so the dispatcher pool is torn down before the
    # tables are returned — a one-shot matrix must not park workers.
    with CampaignRunner(
        consensus_sweep_cell,
        db_path=db_path,
        base_seed=base_seed,
        processes=processes,
        cell_timeout=cell_timeout,
        max_retries=max_retries,
        in_process=in_process,
        shard_index=shard_index,
        shard_count=shard_count,
        stall_timeout=stall_timeout,
    ) as runner:
        outcomes = runner.resume(max_cells=max_cells, **axes)

    sharded = shard_count > 1
    table = Table(
        title=(
            "E18  Campaign matrix: (n x detector x loss_rate x seed)"
            + (f" [shard {shard_index}/{shard_count}]" if sharded else "")
        ),
        columns=[
            "n", "detector", "loss_rate", "cells", "done", "timed_out",
            "failed", "solved", "mean_rounds", "mean_decision_round",
        ],
        note=(
            "checkpointed in a throwaway temp store (pass db_path to "
            "keep one)" if throwaway else
            f"checkpointed in {db_path}; rerun with the same db to "
            "resume — completed cells are read back, not re-simulated"
            + (f"; shard {shard_index}/{shard_count} — merge the shard "
               "stores with 'python -m repro campaign merge' for the "
               "full grid" if sharded else "")
        ),
    )
    groups = {}
    for outcome in outcomes:
        p = outcome.params
        groups.setdefault(
            (p["n"], p["detector"], p["loss_rate"]), []
        ).append(outcome)
    for (n, detector, loss_rate), cell_outcomes in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        done = [o for o in cell_outcomes if o.status == "done"]
        solved = sum(1 for o in done if o.payload["solved"])
        rounds = [o.payload["rounds"] for o in done]
        decision_rounds = [
            o.payload["decision_round"] for o in done
            if o.payload["decision_round"] is not None
        ]
        table.add(**{
            "n": n,
            "detector": detector,
            "loss_rate": loss_rate,
            "cells": len(cell_outcomes),
            "done": len(done),
            "timed_out": sum(
                1 for o in cell_outcomes if o.status == "timed_out"
            ),
            "failed": sum(
                1 for o in cell_outcomes if o.status == "failed"
            ),
            "solved": f"{solved}/{len(done)}" if done else "0/0",
            "mean_rounds": (
                sum(rounds) / len(rounds) if rounds else None
            ),
            "mean_decision_round": (
                sum(decision_rounds) / len(decision_rounds)
                if decision_rounds else None
            ),
        })
    return [table]
