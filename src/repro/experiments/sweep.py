"""E17: the engineering sweep — record policies × workers at a glance.

Not a paper artifact.  This experiment exercises the production-scaling
layer this repo grows toward: it fans a (trial × n × detector-class) grid
through :class:`~repro.experiments.harness.SweepRunner` under the
streaming ``SUMMARY`` record policy, then re-runs a sample cell under
``FULL`` to demonstrate the policies' observational equivalence (same
seeds, same decisions, same decision rounds — only the retained state
differs).
"""

from __future__ import annotations

from typing import List

from .harness import SweepRunner, Table, consensus_sweep_cell


def run_parallel_sweep(
    trials=(0, 1),
    ns=(4, 8),
    detector_names=("0-OAC", "maj-OAC"),
    processes=None,
    base_seed: int = 0,
) -> List[Table]:
    """Fan the grid across workers and verify FULL/SUMMARY equivalence."""
    runner = SweepRunner(
        consensus_sweep_cell, processes=processes, base_seed=base_seed
    )
    outcomes = runner.run_grid(
        trial=trials, n=ns, detector=detector_names,
        record_policy=["summary"],
    )

    table = Table(
        title="E17  Parallel sweep under streaming record policies",
        columns=[
            "trial", "n", "detector", "seed", "rounds", "decision_round",
            "solved", "full_equivalent",
        ],
        note=(
            "cells run under RecordPolicy.SUMMARY across multiprocessing "
            "workers; full_equivalent re-runs the first and last cell "
            "under FULL and compares decisions + decision rounds (blank "
            "= not sampled)"
        ),
    )
    # Observational-equivalence spot check on a sample (first and last
    # cell), not the whole grid — re-running everything under FULL would
    # double the experiment's work and defeat the fan-out it showcases.
    sampled = {outcomes[0].cell.index, outcomes[-1].cell.index}
    for outcome in outcomes:
        p = outcome.params
        payload = outcome.payload
        equivalent = None
        if outcome.cell.index in sampled:
            full_params = dict(p, record_policy="full")
            full_payload = consensus_sweep_cell(
                full_params, outcome.cell.seed
            ).payload
            equivalent = (
                full_payload["decisions"] == payload["decisions"]
                and full_payload["decision_rounds"]
                == payload["decision_rounds"]
                and full_payload["rounds"] == payload["rounds"]
            )
        table.add(**{
            "trial": p["trial"],
            "n": p["n"],
            "detector": p["detector"],
            "seed": outcome.cell.seed,
            "rounds": payload["rounds"],
            "decision_round": payload["decision_round"],
            "solved": payload["solved"],
            "full_equivalent": equivalent,
        })
    return [table]
