"""Tests for Algorithm 1 (anonymous, maj-OAC + WS + ECF, Theorem 1)."""

import pytest

from repro.adversary.crash import ScheduledCrashes
from repro.adversary.loss import EventualCollisionFreedom, IIDLoss
from repro.algorithms.alg1 import Alg1Process, algorithm_1, termination_bound
from repro.contention.services import LeaderElectionService, WakeUpService
from repro.core.consensus import evaluate, require_solved
from repro.core.execution import run_consensus
from repro.core.multiset import Multiset
from repro.core.types import ACTIVE, COLLISION, NULL, PASSIVE
from repro.detectors.classes import MAJ_AC, MAJ_OAC
from repro.detectors.policy import SpuriousUntilPolicy, TargetedSpuriousPolicy
from repro.experiments.scenarios import maj_oac_environment
from repro.lowerbounds.alpha import alpha_execution


def test_is_anonymous():
    assert algorithm_1().is_anonymous


def test_decides_by_cst_plus_2_clean_environment():
    env = maj_oac_environment(5, cst=1)
    result = run_consensus(
        env, algorithm_1(), {i: i + 10 for i in range(5)}, max_rounds=20
    )
    require_solved(result, by_round=termination_bound(1))


@pytest.mark.parametrize("cst", [1, 2, 5, 9])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_termination_bound_across_cst_and_n(cst, n):
    env = maj_oac_environment(n, cst=cst, seed=cst * 100 + n)
    result = run_consensus(
        env, algorithm_1(), {i: i % 3 for i in range(n)},
        max_rounds=termination_bound(cst) + 5,
    )
    require_solved(result, by_round=termination_bound(cst))


def test_decision_is_some_initial_value():
    env = maj_oac_environment(4, cst=3, seed=7)
    initials = {0: "w", 1: "q", 2: "m", 3: "c"}
    result = run_consensus(env, algorithm_1(), initials, max_rounds=30)
    decided = set(result.decided_values().values())
    assert len(decided) == 1
    assert decided <= set(initials.values())


def test_unanimous_input_decides_that_value():
    env = maj_oac_environment(4, cst=1)
    result = run_consensus(
        env, algorithm_1(), {i: "only" for i in range(4)}, max_rounds=10
    )
    assert set(result.decided_values().values()) == {"only"}


def test_tolerates_crashes_of_everyone_but_one():
    env = maj_oac_environment(
        4, cst=6,
        crash=ScheduledCrashes.at({1: [1], 3: [2], 5: [3]}),
    )
    result = run_consensus(
        env, algorithm_1(), {i: i for i in range(4)}, max_rounds=30
    )
    report = evaluate(result)
    assert report.agreement and report.strong_validity
    assert result.decisions[0] is not None


def test_leader_crash_delays_but_preserves_safety():
    # The wake-up service keeps rotating, so another process eventually
    # gets a clean round even after the first post-CST leader crashes.
    env = maj_oac_environment(
        3, cst=2, crash=ScheduledCrashes.at({3: [0]})
    )
    result = run_consensus(
        env, algorithm_1(), {0: "a", 1: "b", 2: "c"}, max_rounds=40
    )
    report = evaluate(result)
    assert report.safe
    assert report.termination


def test_spurious_collisions_delay_but_never_break_agreement():
    env = maj_oac_environment(
        4, cst=12,
        detector_policy=SpuriousUntilPolicy(12),
        seed=5,
    )
    result = run_consensus(
        env, algorithm_1(), {i: i for i in range(4)},
        max_rounds=termination_bound(12) + 5,
    )
    require_solved(result, by_round=termination_bound(12))


def test_targeted_false_positive_blocks_decision_that_round():
    """A spurious ± in a veto round must postpone every decision: the
    processes cannot tell it from a lost veto.  The spurious round must
    precede r_acc (after it, accuracy forbids the false positive)."""
    env = maj_oac_environment(
        3, cst=3, loss_rate=0.0,
        detector_policy=TargetedSpuriousPolicy(spurious_rounds=[2]),
    )
    result = run_consensus(
        env, algorithm_1(), {i: "v" for i in range(3)}, max_rounds=10
    )
    assert all(r > 2 for r in result.decision_rounds.values())
    assert evaluate(result).solved


def test_works_with_always_accurate_detector_too():
    # maj-AC ⊆ maj-OAC, so Algorithm 1 must also run under maj-AC.
    env = maj_oac_environment(3, cst=1)
    env.detector = MAJ_AC.make()
    result = run_consensus(
        env, algorithm_1(), {0: 1, 1: 2, 2: 3}, max_rounds=10
    )
    assert evaluate(result).solved


def test_lossy_prelude_never_decides_two_values():
    for seed in range(10):
        env = maj_oac_environment(5, cst=10, seed=seed, loss_rate=0.6)
        result = run_consensus(
            env, algorithm_1(), {i: i % 4 for i in range(5)},
            max_rounds=40,
        )
        report = evaluate(result)
        assert report.agreement, f"seed {seed}: {report.problems}"
        assert report.strong_validity


# ----------------------------------------------------------------------
# Unit-level behaviour of the process automaton
# ----------------------------------------------------------------------
def test_proposal_adopts_minimum_on_clean_reception():
    p = Alg1Process(9)
    p.message(PASSIVE)
    p.transition(Multiset([4, 7]), NULL, PASSIVE)
    assert p.estimate == 4


def test_proposal_keeps_estimate_on_collision():
    p = Alg1Process(9)
    p.message(PASSIVE)
    p.transition(Multiset([4]), COLLISION, PASSIVE)
    assert p.estimate == 9


def test_veto_sent_after_collision_or_multiple_values():
    p = Alg1Process(9)
    p.message(ACTIVE)
    p.transition(Multiset([1, 2]), NULL, ACTIVE)   # two distinct values
    assert p.message(PASSIVE) is not None          # vetoes despite passive

    q = Alg1Process(9)
    q.message(ACTIVE)
    q.transition(Multiset([1]), COLLISION, ACTIVE)
    assert q.message(PASSIVE) is not None


def test_no_veto_after_single_clean_value():
    p = Alg1Process(9)
    p.message(ACTIVE)
    p.transition(Multiset([3, 3]), NULL, ACTIVE)   # one unique value
    assert p.message(ACTIVE) is None


def test_decides_after_quiet_veto_round():
    p = Alg1Process(9)
    p.message(ACTIVE)
    p.transition(Multiset([3]), NULL, ACTIVE)
    p.message(ACTIVE)
    p.transition(Multiset([]), NULL, ACTIVE)
    assert p.has_decided and p.decision == 3 and not p.halted
    # A decided process still proposes its estimate when made active.
    assert p.message(ACTIVE) == 3


def test_does_not_decide_on_noisy_veto_round():
    p = Alg1Process(9)
    p.message(ACTIVE)
    p.transition(Multiset([3]), NULL, ACTIVE)
    p.message(ACTIVE)
    p.transition(Multiset([]), COLLISION, ACTIVE)
    assert not p.has_decided


def test_alpha_execution_of_alg1_decides_quickly():
    """In the canonical alpha execution Algorithm 1 decides in 2 rounds."""
    result = alpha_execution(algorithm_1(), (0, 1, 2), "v", rounds=4)
    assert all(r == 2 for r in result.decision_rounds.values())
