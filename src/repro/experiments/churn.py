"""E19: consensus under dynamic membership (churn x loss x topology).

The paper's model fixes ``P`` for the whole execution; the churn engine
(:mod:`repro.adversary.churn` plus the execution engine's dynamic live
set) relaxes that.  E19 measures what the relaxation costs: agreement
quality — decision rate over the finally-present membership, system-level
agreement violations (ghost decisions included), and termination round —
as a function of churn rate x loss rate x detector class x topology.

Topologies:

* ``clique``  — the paper's own single-hop setting
  (:func:`~repro.experiments.scenarios.ecf_environment` with a churn
  adversary installed);
* ``ring``    — a Chord-style successor/finger overlay
  (:meth:`~repro.substrate.multihop.MultihopNetwork.ring`) behind a
  :class:`~repro.substrate.multihop.MultihopLayer`, the natural home of
  churn in the dynamic-network literature.

The sweep runs through :class:`~repro.experiments.campaign.
CampaignRunner` under the ``SUMMARY`` record policy, so E19 campaigns
checkpoint, resume, and report byte-identically like E18 — with
``churn_rate`` and ``topology`` folded into every cell's canonical
coordinate tag and derived seed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Dict, Iterable, List, Optional

from ..core.records import RoundRow
from .campaign import CampaignRunner
from .dispatch import CellOutput
from .harness import Table


def churn_sweep_cell(params: Dict[str, Any], seed: int) -> CellOutput:
    """One E19 cell: Algorithm 2 to decision under membership churn.

    Recognised ``params`` (all optional): ``n`` (default 4), ``values``
    (|V|, default 8), ``cst`` (default 2), ``detector`` (a Figure 1
    class name, default ``"0-OAC"``), ``loss_rate`` (default 0.1),
    ``churn_rate`` (per-round leave probability for
    :class:`~repro.adversary.churn.SeededChurn`; 0.0 = static
    membership, default 0.2), ``churn_deadline`` (last churn-active
    round, default ``cst + 6``), ``topology`` (``"clique"`` or
    ``"ring"``, default clique), ``successors`` (ring successor-list
    width, default 1), ``record_policy``, and ``seed`` (overrides the
    derived per-cell seed).

    Returns a :class:`~repro.experiments.dispatch.CellOutput` whose
    rounds are every round's :func:`~repro.core.records.round_row`,
    exactly like :func:`~repro.experiments.harness.consensus_sweep_cell`.
    The payload reports agreement quality over the *final* membership:
    ``decision_rate`` counts decided processes among
    :meth:`~repro.core.records.ExecutionResult.present_indices` (never
    the departed), while ``agreement`` checks
    :meth:`~repro.core.records.ExecutionResult.all_decided_values` —
    ghost decisions of churned-out processes included, so a rejoiner
    that re-decides differently is a violation even though only one
    incarnation is still present.
    """
    from ..adversary.churn import NoChurn, SeededChurn
    from ..adversary.loss import IIDLoss
    from ..algorithms.alg2 import algorithm_2, termination_bound
    from ..contention.services import WakeUpService
    from ..core.environment import Environment
    from ..core.errors import ConfigurationError
    from ..core.execution import run_consensus
    from ..core.records import RecordPolicy, round_row
    from ..detectors.classes import get_class
    from ..detectors.policy import SpuriousUntilPolicy
    from ..detectors.properties import AccuracyMode
    from ..substrate.multihop import MultihopLayer, MultihopNetwork
    from .scenarios import ecf_environment

    n = int(params.get("n", 4))
    vc = int(params.get("values", 8))
    cst = int(params.get("cst", 2))
    loss_rate = float(params.get("loss_rate", 0.1))
    churn_rate = float(params.get("churn_rate", 0.2))
    deadline = int(params.get("churn_deadline", cst + 6))
    topology = str(params.get("topology", "clique"))
    successors = int(params.get("successors", 1))
    detector_class = get_class(str(params.get("detector", "0-OAC")))
    policy = RecordPolicy(str(params.get("record_policy", "summary")))
    seed = int(params.get("seed", seed))

    if topology not in ("clique", "ring"):
        raise ConfigurationError(
            f"topology must be 'clique' or 'ring', got {topology!r}"
        )
    # The churn RNG stream is offset from the loss adversary's so the
    # two draw independent (but still seed-determined) coin sequences.
    if churn_rate > 0.0:
        churn = SeededChurn(
            leave_rate=churn_rate, join_rate=0.5, seed=seed + 101,
            deadline=deadline, min_live=2,
        )
    else:
        churn = NoChurn()

    if topology == "clique":
        env = ecf_environment(
            n, detector_class, cst=cst, loss_rate=loss_rate, seed=seed,
            churn=churn,
        )
    else:
        spurious = SpuriousUntilPolicy(cst) if cst > 1 else None
        layer = MultihopLayer(
            MultihopNetwork.ring(n, successors=successors, fingers=True),
            inner=IIDLoss(loss_rate, seed=seed),
            completeness=detector_class.completeness,
            accuracy=detector_class.accuracy,
            r_acc=(
                cst
                if detector_class.accuracy is AccuracyMode.EVENTUAL
                else None
            ),
            policy=spurious,
        )
        # One object, both roles: the detector needs the loss path's
        # per-round sender sets to compute neighbourhood counts.
        env = Environment(
            indices=tuple(range(n)),
            detector=layer,
            contention=WakeUpService(stabilization_round=cst),
            loss=layer,
            churn=churn,
        )

    values = list(range(vc))
    assignment = {i: values[(i * 7 + seed) % vc] for i in env.indices}
    # Churn erases progress until its deadline; the effective
    # stabilization point is whichever comes later.
    bound = termination_bound(max(cst, deadline), vc)
    rounds: List[RoundRow] = []
    result = run_consensus(
        env, algorithm_2(values), assignment,
        max_rounds=bound + 20, record_policy=policy,
        observer=lambda artifact: rounds.append(round_row(artifact)),
    )

    present = result.present_indices()
    # ``decisions`` maps *every* pid (None while undecided), so test the
    # value, not membership.
    decided_present = [
        p for p in present if result.decisions.get(p) is not None
    ]
    distinct = len(set(result.all_decided_values()))
    return CellOutput({
        "present": len(present),
        "decided": len(decided_present),
        "decision_rate": (
            len(decided_present) / len(present) if present else None
        ),
        "agreement": distinct <= 1,
        "distinct_values": distinct,
        "termination_round": result.last_present_decision_round(),
        "rounds": result.rounds,
        "churned": result.churned,
        "rejoins": sum(result.rejoin_counts.values()),
        "ghost_decisions": len(result.departed_decisions),
    }, rounds)


# ----------------------------------------------------------------------
# E19 at campaign scale
# ----------------------------------------------------------------------
def run_churn_campaign(
    db_path: Optional[str] = None,
    ns: Iterable[int] = (4, 6),
    detectors: Iterable[str] = ("0-OAC", "maj-OAC"),
    loss_rates: Iterable[float] = (0.1, 0.3),
    churn_rates: Iterable[float] = (0.0, 0.15, 0.3),
    topologies: Iterable[str] = ("clique", "ring"),
    seeds: Iterable[int] = (0, 1),
    base_seed: int = 0,
    values: int = 8,
    cell_timeout: Optional[float] = None,
    processes: Optional[int] = None,
    max_retries: int = 2,
    max_cells: Optional[int] = None,
    in_process: bool = False,
    shard_index: int = 0,
    shard_count: int = 1,
    stall_timeout: Optional[float] = None,
) -> List[Table]:
    """E19: agreement quality vs churn rate, at campaign scale.

    Sweeps (n x detector x loss_rate x churn_rate x topology x seed)
    cells of :func:`churn_sweep_cell` through the checkpointing
    :class:`~repro.experiments.campaign.CampaignRunner` — same
    resume/report semantics as E18's
    :func:`~repro.experiments.matrix.run_campaign_matrix`: re-running
    with the same ``db_path`` reads completed cells back instead of
    re-simulating, and interrupted grids finish with byte-identical
    merged outcomes.  ``db_path=None`` uses a throwaway store.

    ``shard_index``/``shard_count`` split the churn grid across hosts
    exactly like E18 (CLI ``campaign shard --family e19 --index i
    --of k``): each host runs its deterministic share into its own
    store, and ``merge_campaign_stores`` folds them back into a store
    reporting byte-identically to an unsharded run.

    One table row aggregates each (n, detector, loss_rate, churn_rate,
    topology) combination over its seed replicates.
    """
    throwaway = None
    if db_path is None:
        throwaway = tempfile.mkdtemp(prefix="repro-e19-")
        db_path = os.path.join(throwaway, "campaign.db")
    try:
        return _churn_campaign_tables(
            db_path, ns, detectors, loss_rates, churn_rates, topologies,
            seeds, base_seed, values, cell_timeout, processes,
            max_retries, max_cells, in_process=in_process,
            shard_index=shard_index, shard_count=shard_count,
            stall_timeout=stall_timeout,
            throwaway=throwaway is not None,
        )
    finally:
        if throwaway is not None:
            shutil.rmtree(throwaway, ignore_errors=True)


def _churn_campaign_tables(
    db_path: str,
    ns: Iterable[int],
    detectors: Iterable[str],
    loss_rates: Iterable[float],
    churn_rates: Iterable[float],
    topologies: Iterable[str],
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
    axes = dict(
        n=list(ns),
        detector=list(detectors),
        loss_rate=[float(r) for r in loss_rates],
        churn_rate=[float(r) for r in churn_rates],
        topology=list(topologies),
        trial=list(seeds),
        values=[int(values)],
        record_policy=["summary"],
    )
    with CampaignRunner(
        churn_sweep_cell,
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
            "E19  Churn campaign: agreement quality vs "
            "(churn_rate x loss_rate x detector x topology)"
            + (f" [shard {shard_index}/{shard_count}]" if sharded else "")
        ),
        columns=[
            "n", "detector", "loss_rate", "churn_rate", "topology",
            "cells", "done", "decision_rate", "agreement",
            "mean_term_round", "mean_rejoins",
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
    groups: Dict[tuple, list] = {}
    for outcome in outcomes:
        p = outcome.params
        key = (p["n"], p["detector"], p["loss_rate"], p["churn_rate"],
               p["topology"])
        groups.setdefault(key, []).append(outcome)
    for key, cell_outcomes in sorted(groups.items(), key=lambda kv: kv[0]):
        n, detector, loss_rate, churn_rate, topology = key
        done = [o for o in cell_outcomes if o.status == "done"]
        rates = [
            o.payload["decision_rate"] for o in done
            if o.payload["decision_rate"] is not None
        ]
        agree = sum(1 for o in done if o.payload["agreement"])
        terms = [
            o.payload["termination_round"] for o in done
            if o.payload["termination_round"] is not None
        ]
        rejoins = [o.payload["rejoins"] for o in done]
        table.add(**{
            "n": n,
            "detector": detector,
            "loss_rate": loss_rate,
            "churn_rate": churn_rate,
            "topology": topology,
            "cells": len(cell_outcomes),
            "done": len(done),
            "decision_rate": (
                sum(rates) / len(rates) if rates else None
            ),
            "agreement": f"{agree}/{len(done)}" if done else "0/0",
            "mean_term_round": (
                sum(terms) / len(terms) if terms else None
            ),
            "mean_rejoins": (
                sum(rejoins) / len(rejoins) if rejoins else None
            ),
        })
    return [table]
