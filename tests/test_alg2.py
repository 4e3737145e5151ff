"""Tests for Algorithm 2 (anonymous, 0-OAC + WS + ECF, Theorem 2)."""

import pytest

from repro.adversary.crash import ScheduledCrashes
from repro.algorithms.alg2 import (
    Alg2Process,
    algorithm_2,
    cycle_length,
    termination_bound,
)
from repro.algorithms.encoding import BinaryEncoding
from repro.algorithms.markers import VETO, VOTE
from repro.core.consensus import evaluate, require_solved
from repro.core.errors import ConfigurationError
from repro.core.execution import run_consensus
from repro.core.multiset import Multiset
from repro.core.types import ACTIVE, COLLISION, NULL, PASSIVE
from repro.detectors.classes import AC, HALF_OAC, ZERO_AC
from repro.detectors.policy import SpuriousUntilPolicy
from repro.experiments.scenarios import zero_oac_environment
from repro.lowerbounds.compose import compose_alpha_executions
from repro.lowerbounds.alpha import alpha_execution


def test_is_anonymous():
    assert algorithm_2(["a", "b"]).is_anonymous


def test_bounds_take_the_encoding_width_without_encoding():
    """``cycle_length``/``termination_bound`` read the width from |V|.

    Exhaustive over 1..4096 against the longest code's length; an actual
    encoding of ``range(k)`` for every k <= 512 and around each power of
    two up to 4096 (encoding every k up to 4096 takes ~10 s).
    """
    sampled = set(range(1, 513)) | {
        2 ** j + d for j in range(10, 13) for d in (-1, 0, 1)
    }
    for k in range(1, 4097):
        width = max(1, len(format(k - 1, "b")))
        if k in sampled:
            assert width == BinaryEncoding(range(k)).width, k
        assert cycle_length(k) == width + 2, k
        assert termination_bound(5, k) == 5 + 2 * (width + 1), k
    for bad in (0, -3):
        with pytest.raises(ConfigurationError):
            cycle_length(bad)
        with pytest.raises(ConfigurationError):
            termination_bound(5, bad)


def test_cycle_length_formula():
    assert cycle_length(2) == 3      # 1 bit + prepare + accept
    assert cycle_length(4) == 4
    assert cycle_length(1024) == 12


@pytest.mark.parametrize("vc", [2, 4, 16, 64])
def test_terminates_within_theorem2_bound(vc):
    values = list(range(vc))
    cst = 3
    env = zero_oac_environment(4, cst=cst, seed=vc)
    assignment = {i: values[(i * 7) % vc] for i in range(4)}
    result = run_consensus(
        env, algorithm_2(values), assignment,
        max_rounds=termination_bound(cst, vc) + 10,
    )
    require_solved(result, by_round=termination_bound(cst, vc))


def test_round_complexity_scales_logarithmically():
    """The measured decision round grows with lg|V| — the E3 curve."""
    measured = []
    for vc in (2, 16, 256):
        env = zero_oac_environment(3, cst=1, seed=0)
        values = list(range(vc))
        result = run_consensus(
            env, algorithm_2(values),
            {0: values[0], 1: values[-1], 2: values[vc // 2]},
            max_rounds=termination_bound(1, vc) + 10,
        )
        measured.append(result.last_decision_round())
    assert measured[0] < measured[1] < measured[2]


def test_decision_is_some_initial_value():
    values = ["w", "x", "y", "z"]
    env = zero_oac_environment(4, cst=2, seed=9)
    initials = dict(zip(range(4), values))
    result = run_consensus(
        env, algorithm_2(values), initials, max_rounds=40
    )
    decided = set(result.decided_values().values())
    assert len(decided) == 1 and decided <= set(values)


def test_runs_under_any_stronger_detector_class():
    # AC, half-OAC, 0-AC are all inside 0-OAC: Algorithm 2 must work.
    for cls in (AC, HALF_OAC, ZERO_AC):
        env = zero_oac_environment(3, cst=1)
        env.detector = cls.make(r_acc=1) if "O" in cls.name else cls.make()
        result = run_consensus(
            env, algorithm_2(["a", "b"]), {0: "a", 1: "b", 2: "a"},
            max_rounds=20,
        )
        assert evaluate(result).solved, cls.name


def test_crash_tolerance():
    values = list(range(8))
    env = zero_oac_environment(
        5, cst=4,
        crash=ScheduledCrashes.at({2: [0], 5: [1]}),
    )
    result = run_consensus(
        env, algorithm_2(values), {i: values[i] for i in range(5)},
        max_rounds=60,
    )
    report = evaluate(result)
    assert report.safe and report.termination


def test_spurious_detector_noise_only_delays():
    cst = 15
    values = list(range(16))
    env = zero_oac_environment(
        4, cst=cst, detector_policy=SpuriousUntilPolicy(cst), seed=2
    )
    result = run_consensus(
        env, algorithm_2(values), {i: values[i * 3] for i in range(4)},
        max_rounds=termination_bound(cst, 16) + 10,
    )
    require_solved(result, by_round=termination_bound(cst, 16))


def test_safety_under_half_ac_composition():
    """Algorithm 2 stays safe inside the Lemma 23 half-AC composition —
    the setting where Algorithm 1 loses agreement (see the E8 ablation)."""
    values = ["a", "b", "c", "d"]
    algo = algorithm_2(values)
    alpha_a = alpha_execution(algo, (0, 1), "a", 2)
    alpha_b = alpha_execution(algo, (2, 3), "b", 2)
    composed = compose_alpha_executions(
        algo, alpha_a, alpha_b, "a", "b", k=2, extra_rounds=60
    )
    assert composed.indistinguishability_holds
    report = evaluate(composed.gamma)
    assert report.agreement and report.strong_validity


# ----------------------------------------------------------------------
# Unit-level behaviour
# ----------------------------------------------------------------------
def enc4():
    return BinaryEncoding(["a", "b", "c", "d"])


def test_prepare_broadcasts_only_when_active():
    p = Alg2Process("c", enc4())
    assert p.message(PASSIVE) is None
    assert p.message(ACTIVE) == enc4().encode("c")


def test_prepare_adopts_minimum_estimate():
    p = Alg2Process("d", enc4())
    p.message(PASSIVE)
    p.transition(Multiset([enc4().encode("b"), enc4().encode("c")]),
                 NULL, PASSIVE)
    assert p.estimate == enc4().encode("b")
    assert p.decide_flag is True and p.bit == 1


def test_propose_broadcasts_on_one_bits():
    p = Alg2Process("d", enc4())     # "d" encodes to "11"
    p.message(PASSIVE)
    p.transition(Multiset([]), COLLISION, PASSIVE)  # stay on own estimate
    assert p.phase == "propose"
    assert p.message(PASSIVE) is VOTE               # bit 1 of "11"
    p.transition(Multiset([VOTE]), NULL, PASSIVE)
    assert p.message(PASSIVE) is VOTE               # bit 2 of "11"


def test_zero_bit_listener_objects_on_noise():
    p = Alg2Process("a", enc4())     # "a" encodes to "00"
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)
    assert p.message(PASSIVE) is None               # bit 1 of "00": silent
    p.transition(Multiset([VOTE]), NULL, PASSIVE)   # heard someone: differ!
    assert p.decide_flag is False


def test_zero_bit_listener_objects_on_collision_advice():
    p = Alg2Process("a", enc4())
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)
    p.message(PASSIVE)
    p.transition(Multiset([]), COLLISION, PASSIVE)
    assert p.decide_flag is False


def test_accept_vetoes_when_flag_cleared():
    p = Alg2Process("a", enc4())
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)
    p.message(PASSIVE)
    p.transition(Multiset([VOTE]), NULL, PASSIVE)   # objection in bit 1
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)       # bit 2 quiet
    assert p.phase == "accept"
    assert p.message(PASSIVE) is VETO


def test_quiet_accept_round_decides_and_halts():
    p = Alg2Process("a", enc4())
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)       # prepare (keep "00")
    for _ in range(2):                               # two quiet bit rounds
        p.message(PASSIVE)
        p.transition(Multiset([]), NULL, PASSIVE)
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)       # quiet accept
    assert p.has_decided and p.decision == "a" and p.halted


def test_noisy_accept_round_recycles():
    p = Alg2Process("a", enc4())
    p.message(PASSIVE)
    p.transition(Multiset([]), NULL, PASSIVE)
    for _ in range(2):
        p.message(PASSIVE)
        p.transition(Multiset([]), NULL, PASSIVE)
    p.message(PASSIVE)
    p.transition(Multiset([VETO]), NULL, PASSIVE)   # heard a veto
    assert not p.has_decided
    assert p.phase == "prepare"
