"""The batched loss contract: ``losses_for_round`` across the stack.

Covers the PR-level guarantees:

* deterministic adversaries produce byte-identical executions whether the
  engine resolves losses through their batched overrides or through the
  per-receiver fallback;
* batched ``IIDLoss`` is seed-deterministic and matches the Bernoulli(p)
  per-pair marginal (on both the numpy and the pure-python evaluator);
* ``CaptureEffectLoss`` is independent of receiver enumeration order;
* ``ModelViolation`` still fires on self-delivery breaches (and other
  breaches of the round type's contract) through the batched path;
* ``JsonlSink`` streams round summaries without retaining them;
* the lower-bound searches accept ``SUMMARY`` results wherever they only
  consult broadcast-count sequences.
"""

import json

import pytest

import repro.adversary.loss as loss_mod
from repro.adversary.crash import NoCrashes, ScheduledCrashes
from repro.adversary.loss import (
    AlphaLoss,
    ArrayRoundLosses,
    CaptureEffectLoss,
    ComposedLoss,
    EventualCollisionFreedom,
    IIDLoss,
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    ScriptedLoss,
    SilenceLoss,
)
from repro.algorithms.alg2 import algorithm_2
from repro.contention.services import NoContentionManager, WakeUpService
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError, ModelViolation
from repro.core.execution import ExecutionEngine, run_algorithm, run_consensus
from repro.core.algorithm import Algorithm
from repro.core.process import ScriptedProcess
from repro.core.records import JsonlSink, RecordPolicy
from repro.detectors.detector import perfect_detector
from repro.lowerbounds.compose import compose_alpha_executions
from repro.lowerbounds.pigeonhole import lemma21_find_pair, theorem9_find_pair
from repro.lowerbounds.conjecture import max_composable_prefix


class PerReceiverOnly(LossAdversary):
    """Wrapper hiding an adversary's batched override from the engine."""

    def __init__(self, inner):
        self.inner = inner

    def losses(self, round_index, senders, receiver):
        return self.inner.losses(round_index, senders, receiver)

    def reset(self):
        self.inner.reset()

    @property
    def r_cf(self):
        return self.inner.r_cf


def varied_algorithm(n, rounds):
    """Scripted processes with distinct messages and silent rounds, so
    executions exercise both the single- and multi-message engine paths
    and rounds with partial sender sets."""

    def spawn(i):
        script = []
        for r in range(rounds):
            if (r + i) % 4 == 3:
                script.append(None)  # silent round for this index
            elif r % 3 == 0:
                script.append("m")  # single shared message round
            else:
                script.append(f"m{i % 3}")
            # (None entries vary the sender set per round)
        return ScriptedProcess(script)

    return Algorithm(spawn, anonymous=False)


def run_pair(loss_factory, n=6, rounds=12, crash=None):
    """One execution through the batched path, one through the fallback."""
    results = []
    for wrap in (lambda a: a, PerReceiverOnly):
        env = Environment(
            indices=tuple(range(n)),
            detector=perfect_detector(),
            contention=NoContentionManager(),
            loss=wrap(loss_factory()),
            crash=crash or NoCrashes(),
        )
        results.append(
            run_algorithm(
                env, varied_algorithm(n, rounds), max_rounds=rounds,
                until_all_decided=False,
            )
        )
    return results


DETERMINISTIC_ADVERSARIES = {
    "reliable": lambda: ReliableDelivery(),
    "silence": lambda: SilenceLoss(),
    "alpha": lambda: AlphaLoss(),
    "partition": lambda: PartitionLoss([(0, 1, 2), (3, 4, 5)]),
    "partition_silence_intra": lambda: PartitionLoss(
        [(0, 1, 2), (3, 4, 5)], intra=SilenceLoss(), until_round=8
    ),
    "scripted": lambda: ScriptedLoss(
        lambda r, s, recv: {x for x in s if (x + r) % 3 == 0}
    ),
    "composed": lambda: ComposedLoss([
        PartitionLoss([(0, 1, 2), (3, 4, 5)]),
        ScriptedLoss(lambda r, s, recv: {s[0]} if s and r % 2 else set()),
    ]),
    "ecf_silence": lambda: EventualCollisionFreedom(SilenceLoss(), r_cf=5),
    "capture": lambda: CaptureEffectLoss(capture_limit=2, seed=3),
}


@pytest.mark.parametrize("name", sorted(DETERMINISTIC_ADVERSARIES))
def test_batched_and_fallback_executions_are_identical(name):
    batched, legacy = run_pair(DETERMINISTIC_ADVERSARIES[name])
    assert batched.decisions == legacy.decisions
    assert batched.decision_rounds == legacy.decision_rounds
    assert batched.rounds == legacy.rounds
    assert batched.records == legacy.records  # full per-round equality


def test_batched_and_fallback_identical_under_crashes():
    batched, legacy = run_pair(
        DETERMINISTIC_ADVERSARIES["partition_silence_intra"],
        crash=ScheduledCrashes.at({3: [1], 5: [4]}, after_send=True),
    )
    assert batched.records == legacy.records


# ----------------------------------------------------------------------
# IIDLoss: batched law and determinism
# ----------------------------------------------------------------------
def _loss_rate_over_rounds(adv, n, rounds):
    senders = list(range(n))
    pairs = 0
    losses = 0
    for r in range(1, rounds + 1):
        lost_map = adv.losses_for_round(r, senders, senders)
        for pid in senders:
            pairs += n - 1
            losses += len(lost_map[pid])
    return pairs, losses


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_iid_batched_matches_bernoulli_marginal(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(loss_mod, "_np", None)
    p = 0.3
    adv = IIDLoss(p, seed=42)
    # 40 x 40 grid over 10 rounds: 15600 non-self pairs, std ~ 0.004.
    pairs, losses = _loss_rate_over_rounds(adv, 40, 10)
    assert pairs >= 10_000
    rate = losses / pairs
    assert abs(rate - p) < 0.02


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_iid_batched_is_seed_deterministic(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(loss_mod, "_np", None)
    senders = list(range(10))
    a = IIDLoss(0.4, seed=7)
    b = IIDLoss(0.4, seed=7)
    maps_a = [dict(a.losses_for_round(r, senders, senders)) for r in range(5)]
    maps_b = [dict(b.losses_for_round(r, senders, senders)) for r in range(5)]
    assert maps_a == maps_b
    a.reset()
    maps_again = [
        dict(a.losses_for_round(r, senders, senders)) for r in range(5)
    ]
    assert maps_again == maps_a


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("p", [0.0, 1e-300, 1.0])
def test_iid_batched_edge_probabilities(backend, p, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(loss_mod, "_np", None)
    senders = list(range(8))
    lost_map = IIDLoss(p, seed=0).losses_for_round(1, senders, senders)
    if p >= 1.0:
        for pid in senders:
            assert set(lost_map[pid]) >= set(senders) - {pid}
    else:
        assert all(not lost_map[pid] for pid in senders)


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_iid_batched_handles_empty_receivers(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(loss_mod, "_np", None)
    assert IIDLoss(0.3, seed=0).losses_for_round(1, [0, 1, 2], []) == {}


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_iid_draws_are_stateless_across_interfaces(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(loss_mod, "_np", None)
    senders = list(range(10))
    fresh = IIDLoss(0.5, seed=7)
    expected = fresh.losses(1, senders, 3)
    mixed = IIDLoss(0.5, seed=7)
    mixed.losses_for_round(1, senders, senders)  # draws nothing ahead
    mixed.losses_for_round(2, senders, senders)
    assert mixed.losses(1, senders, 3) == expected


def test_composed_component_omission_surfaces_as_model_violation():
    class Omitting(LossAdversary):
        def losses(self, round_index, senders, receiver):  # pragma: no cover
            return frozenset()

        def losses_for_round(self, round_index, senders, receivers):
            return {pid: frozenset() for pid in list(receivers)[:-1]}

    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=ComposedLoss([Omitting(), ReliableDelivery()]),
        crash=NoCrashes(),
    )
    env.reset()
    engine = ExecutionEngine(
        env,
        Algorithm(
            lambda i: ScriptedProcess(["a"]), anonymous=False
        ).spawn_all(env.indices),
    )
    with pytest.raises(ModelViolation, match="omitted receiver"):
        engine.step()


def test_iid_batched_never_drops_self():
    senders = list(range(30))
    lost_map = IIDLoss(0.9, seed=5).losses_for_round(1, senders, senders)
    # The counts-first round type on either backend.
    assert isinstance(lost_map, ArrayRoundLosses)
    for pid in senders:
        assert pid not in lost_map[pid]


# ----------------------------------------------------------------------
# CaptureEffectLoss: enumeration-order independence
# ----------------------------------------------------------------------
def test_capture_effect_is_receiver_order_independent():
    senders = [0, 1, 2, 3]
    fwd = CaptureEffectLoss(capture_limit=1, seed=9)
    rev = CaptureEffectLoss(capture_limit=1, seed=9)
    forward = {
        pid: set(fwd.losses(1, senders, pid)) for pid in [0, 1, 2, 3, 4]
    }
    backward = {
        pid: set(rev.losses(1, senders, pid)) for pid in [4, 3, 2, 1, 0]
    }
    assert forward == backward


def test_capture_effect_batched_equals_per_receiver():
    # The per-receiver answer is a view of the batched row.
    senders = [0, 1, 2, 3]
    receivers = [0, 1, 2, 3, 4, 5]
    adv = CaptureEffectLoss(capture_limit=2, seed=11)
    batched = adv.losses_for_round(7, senders, receivers)
    for pid in receivers:
        assert set(batched[pid]) == set(adv.losses(7, senders, pid))


# ----------------------------------------------------------------------
# ModelViolation through the batched path
# ----------------------------------------------------------------------
class BreachingAdversary(LossAdversary):
    """Builds the round type itself but breaks its contract on demand."""

    def __init__(self, breach):
        self.breach = breach  # "self" | "non_sender" | "omit"

    def losses(self, round_index, senders, receiver):  # pragma: no cover
        return frozenset()

    def losses_for_round(self, round_index, senders, receivers):
        out = {pid: frozenset() for pid in receivers}
        if self.breach == "self":
            # Drop a broadcaster's own message at itself.
            out[senders[0]] = frozenset({senders[0]})
        elif self.breach == "non_sender":
            non_senders = [r for r in receivers if r not in set(senders)]
            out[receivers[0]] = frozenset(non_senders[:1])
        elif self.breach == "omit":
            del out[receivers[-1]]
        return ArrayRoundLosses.from_sets(tuple(out), senders, out)


def breach_engine(breach, scripts):
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=BreachingAdversary(breach),
        crash=NoCrashes(),
    )
    env.reset()
    algo = Algorithm(
        lambda i: ScriptedProcess(scripts.get(i, [])), anonymous=False
    )
    return ExecutionEngine(env, algo.spawn_all(env.indices))


def test_self_delivery_breach_raises_through_batched_path():
    engine = breach_engine("self", {0: ["a"], 1: ["b"]})
    with pytest.raises(ModelViolation):
        engine.step()


def test_non_sender_in_normalized_drop_set_raises():
    # The drop set names a non-sender while its count stays in budget.
    # Two distinct messages force the multi-message decrement path.
    engine = breach_engine("non_sender", {0: ["a"], 1: ["b"]})
    with pytest.raises(ModelViolation):
        engine.step()


def test_omitted_receiver_raises_through_batched_path():
    engine = breach_engine("omit", {0: ["a"], 1: ["b"]})
    with pytest.raises(ModelViolation):
        engine.step()


def test_scripted_round_fn_constructor_validation():
    with pytest.raises(ConfigurationError):
        ScriptedLoss()
    with pytest.raises(ConfigurationError):
        ScriptedLoss(
            lambda r, s, recv: set(),
            round_fn=lambda r, s, recvs: {},
        )


def test_scripted_round_fn_drives_whole_round():
    def round_fn(r, senders, receivers):
        shared = frozenset(s for s in senders if s != 0)
        return {pid: (shared if pid == 0 else frozenset()) for pid in receivers}

    adv = ScriptedLoss(round_fn=round_fn)
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=adv,
        crash=NoCrashes(),
    )
    result = run_algorithm(
        env,
        Algorithm(lambda i: ScriptedProcess(["x"]), anonymous=False),
        max_rounds=1, until_all_decided=False,
    )
    rec = result.records[0]
    assert len(rec.received[0]) == 1  # only its own message
    assert len(rec.received[1]) == 3
    # Per-receiver view of the same script agrees.
    assert adv.losses(1, [0, 1, 2], 0) == {1, 2}


# ----------------------------------------------------------------------
# JsonlSink streaming
# ----------------------------------------------------------------------
def test_jsonl_sink_streams_summaries(tmp_path):
    path = tmp_path / "rounds.jsonl"
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=ReliableDelivery(),
        crash=ScheduledCrashes.at({2: [1]}, after_send=False),
    )
    with JsonlSink(str(path)) as sink:
        result = run_algorithm(
            env,
            Algorithm(lambda i: ScriptedProcess(["a"] * 4), anonymous=False),
            max_rounds=4, until_all_decided=False,
            record_policy=RecordPolicy.NONE,
            observer=sink,
        )
        assert sink.rounds_written == result.rounds == 4
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["round"] for l in lines] == [1, 2, 3, 4]
    assert lines[0]["broadcast_count"] == 3
    assert lines[1]["crashed_during"] == [1]
    assert lines[2]["broadcast_count"] == 2
    # Streaming retained nothing in the result itself.
    with pytest.raises(ConfigurationError):
        result.records


def test_jsonl_sink_rejects_writes_after_close(tmp_path):
    sink = JsonlSink(str(tmp_path / "s.jsonl"))
    sink.close()
    with pytest.raises(ConfigurationError):
        sink(None)


def test_sweep_cell_streams_to_sink_dir(tmp_path):
    from repro.experiments.harness import consensus_sweep_cell

    payload = consensus_sweep_cell(
        {"n": 3, "values": 4, "record_policy": "none",
         "sink_dir": str(tmp_path)},
        seed=123,
    ).payload
    # The payload records the basename only — never the absolute path —
    # so campaign reports stay byte-identical across machines.
    assert payload["sink_file"].startswith("cell-123-")
    assert payload["sink_file"].endswith(".jsonl")
    assert str(tmp_path) not in json.dumps(payload, default=str)
    lines = (tmp_path / payload["sink_file"]).read_text().splitlines()
    assert len(lines) == payload["rounds"]
    # Cells sharing an explicit seed but differing in coordinates must
    # stream to distinct files (parallel workers never clobber).
    other = consensus_sweep_cell(
        {"n": 4, "values": 4, "record_policy": "none",
         "sink_dir": str(tmp_path)},
        seed=123,
    ).payload
    assert other["sink_file"] != payload["sink_file"]


# ----------------------------------------------------------------------
# Lower bounds under SUMMARY retention
# ----------------------------------------------------------------------
def test_lemma21_search_accepts_summary_results():
    values = list(range(8))
    full = lemma21_find_pair(algorithm_2(values), (0, 1), values)
    summary = lemma21_find_pair(
        algorithm_2(values), (0, 1), values,
        record_policy=RecordPolicy.SUMMARY,
    )
    assert full is not None and summary is not None
    assert (full[0], full[1]) == (summary[0], summary[1])
    assert summary[2].record_policy is RecordPolicy.SUMMARY


def test_theorem9_search_accepts_summary_results():
    from repro.algorithms.alg3 import algorithm_3

    values = list(range(8))
    full = theorem9_find_pair(algorithm_3(values), (0, 1), values)
    summary = theorem9_find_pair(
        algorithm_3(values), (0, 1), values,
        record_policy=RecordPolicy.SUMMARY,
    )
    assert full is not None and summary is not None
    assert (full[0], full[1]) == (summary[0], summary[1])


def test_composition_rejects_summary_alphas_loudly():
    values = list(range(8))
    pair = lemma21_find_pair(
        algorithm_2(values), (0, 1), values,
        record_policy=RecordPolicy.SUMMARY,
    )
    assert pair is not None
    v_a, v_b, alpha_a, alpha_b = pair
    with pytest.raises(ConfigurationError, match="FULL"):
        compose_alpha_executions(
            algorithm_2(values), alpha_a, alpha_b, v_a, v_b, k=1
        )


def test_max_composable_prefix_defaults_to_summary_retention():
    from repro.algorithms.nonanonymous import non_anonymous_algorithm

    values = [0, 1]
    ids = list(range(4))
    algo = non_anonymous_algorithm(values, ids)
    k_summary = max_composable_prefix(
        algo, ids, 2, values, mode="disjoint", k_limit=4
    )
    k_full = max_composable_prefix(
        algo, ids, 2, values, mode="disjoint", k_limit=4,
        record_policy=RecordPolicy.FULL,
    )
    assert k_summary == k_full
