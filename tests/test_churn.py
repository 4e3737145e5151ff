"""The churn engine: adversaries, dynamic membership, and E19.

Covers the dynamic-membership extension end to end:

* churn adversary semantics — scripted schedules filter wrong-state
  events, seeded churn is a deterministic function of its seed and
  spares ``min_live``, burst churn fires on period multiples, and the
  informed-minority schedule targets exactly the decided minority;
* engine semantics — departures drop a process from the sender and
  receiver sets, rejoins re-enter with *fresh state* (decisions
  forgotten, ghost decisions recorded), initially-absent pids join
  late, a same-round crash beats a leave, and an execution with an
  empty live set but pending rejoiners keeps running;
* determinism — same seed and schedule replay byte-identical
  executions, and churned executions are byte-identical with the array
  kernel on and off (the fallback gate: churn-free prefixes still run
  the kernel, churned rounds take the scalar reference path);
* the ring overlay — successor/finger neighbourhood shapes, diameter,
  validation, and the flood helpers' hops/stabilization metrics;
* E19 — the churn sweep cell's payload and the campaign's
  interrupt/resume byte-equality over a miniature grid.
"""

from __future__ import annotations

import pytest

from repro.adversary.churn import (
    BurstChurn,
    ChurnEvent,
    InformedMinorityChurn,
    NoChurn,
    ScheduledChurn,
    SeededChurn,
)
from repro.adversary.crash import ScheduledCrashes
from repro.adversary.loss import IIDLoss, ReliableDelivery
from repro.algorithms.alg2 import algorithm_2
from repro.contention.services import NoContentionManager, WakeUpService
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment, array_kernel_module
from repro.core.errors import ConfigurationError
from repro.core.execution import ExecutionEngine, run_algorithm, run_consensus
from repro.core.process import ScriptedProcess
from repro.core.records import RecordPolicy
from repro.detectors.classes import ZERO_OAC
from repro.experiments.campaign import CampaignRunner
from repro.experiments.churn import churn_sweep_cell
from repro.substrate.multihop import MultihopNetwork, flood

_np = array_kernel_module()
needs_numpy = pytest.mark.skipif(
    _np is None, reason="array kernel requires numpy"
)

N = 6
ROUNDS = 14


# ----------------------------------------------------------------------
# Adversary unit tests
# ----------------------------------------------------------------------
def test_churn_event_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        ChurnEvent(0, kind="teleport")


def test_scheduled_churn_filters_wrong_state_events():
    churn = ScheduledChurn.at(leaves={2: [0, 3]}, joins={2: [1, 4]})
    live = [0, 1, 2]
    departed = {4: 1}
    # pid 3 is not live (leave filtered); pid 1 is not departed (join
    # filtered); pid 0's leave and pid 4's rejoin survive.
    events = churn.events(2, live, departed, frozenset())
    assert [(e.pid, e.kind) for e in events] == [(0, "leave"), (4, "rejoin")]
    assert churn.events(3, live, departed, frozenset()) == ()
    assert churn.last_churn_round == 2


def test_scheduled_churn_rejects_zero_round():
    with pytest.raises(ConfigurationError):
        ScheduledChurn({0: [ChurnEvent(0)]})


def test_seeded_churn_is_a_function_of_its_seed():
    def trace(churn):
        out = []
        live, departed = list(range(N)), {}
        for r in range(1, 8):
            events = churn.events(r, live, departed, frozenset())
            out.append(tuple((e.pid, e.kind) for e in events))
            for e in events:
                if e.kind == "leave":
                    live.remove(e.pid)
                    departed[e.pid] = r
                else:
                    live.append(e.pid)
                    del departed[e.pid]
        return out

    a = trace(SeededChurn(0.4, seed=9, deadline=6))
    churn = SeededChurn(0.4, seed=9, deadline=6)
    first = trace(churn)
    churn.reset()
    assert a == first == trace(churn)
    assert trace(SeededChurn(0.4, seed=10, deadline=6)) != a


def test_seeded_churn_spares_min_live_and_respects_deadline():
    churn = SeededChurn(1.0, join_rate=0.0, seed=0, deadline=3, min_live=2)
    live = list(range(N))
    events = churn.events(1, live, {}, frozenset())
    assert all(e.kind == "leave" for e in events)
    assert len(events) == N - 2  # min_live spared even at rate 1.0
    assert churn.events(4, live, {}, frozenset()) == ()  # past deadline
    assert churn.last_churn_round == 3


def test_seeded_churn_labels_first_joins_and_rejoins():
    churn = SeededChurn(0.0, join_rate=1.0, seed=0, deadline=2,
                        initially_absent=[5])
    events = churn.events(1, [0, 1, 2, 3], {4: 1, 5: 0}, frozenset())
    assert {(e.pid, e.kind) for e in events} == {(4, "rejoin"), (5, "join")}


def test_burst_churn_fires_on_period_multiples():
    churn = BurstChurn(period=3, fraction=0.5, seed=1, deadline=6,
                       min_live=2)
    live = list(range(N))
    assert churn.events(1, live, {}, frozenset()) == ()
    assert churn.events(2, live, {}, frozenset()) == ()
    burst = churn.events(3, live, {}, frozenset())
    assert sum(1 for e in burst if e.kind == "leave") == N // 2
    # A departed pid rejoins before the next burst's departures sample.
    burst6 = churn.events(6, [0, 1, 2], {3: 3, 4: 3, 5: 3}, frozenset())
    rejoins = [e.pid for e in burst6 if e.kind != "leave"]
    assert rejoins == [3, 4, 5]
    assert churn.events(9, live, {}, frozenset()) == ()  # past deadline


def test_informed_minority_churn_evicts_decided_minority():
    churn = InformedMinorityChurn(k=1, deadline=5, rejoin_delay=2)
    live = list(range(N))
    # Nobody decided: nothing to evict.
    assert churn.events(1, live, {}, frozenset()) == ()
    # A decided minority loses its lowest pid.
    events = churn.events(2, live, {}, frozenset({2, 4}))
    assert [(e.pid, e.kind) for e in events] == [(2, "leave")]
    # A decided majority is safe (evicting it can't stall progress).
    assert churn.events(3, live, {}, frozenset({0, 1, 2, 4})) == ()
    # Evictees rejoin after the delay, even past the deadline.
    events = churn.events(6, live[1:], {2: 4}, frozenset())
    assert [(e.pid, e.kind) for e in events] == [(2, "rejoin")]
    assert churn.last_churn_round == 7


# ----------------------------------------------------------------------
# Engine semantics under churn
# ----------------------------------------------------------------------
def _counting_algorithm(rounds: int = ROUNDS) -> Algorithm:
    """Each process broadcasts its round-within-incarnation counter."""

    def spawn(i):
        return ScriptedProcess([f"p{i}r{r}" for r in range(rounds)])

    return Algorithm(spawn, anonymous=False)


def _senders(result):
    """Per-round sets of broadcast message strings (FULL records)."""
    return [
        {str(m) for m in record.messages.values() if m is not None}
        for record in result.records
    ]


def _run_with_churn(churn, *, algorithm=None, loss=None, crash=None,
                    max_rounds=ROUNDS, policy=RecordPolicy.FULL,
                    use_array_kernel=None):
    env = Environment(
        indices=tuple(range(N)),
        detector=ZERO_OAC.make(),
        contention=NoContentionManager(),
        loss=loss or ReliableDelivery(),
        crash=crash or ScheduledCrashes({}),
        churn=churn,
    )
    return run_algorithm(
        env, algorithm or _counting_algorithm(), max_rounds=max_rounds,
        until_all_decided=False, record_policy=policy,
        use_array_kernel=use_array_kernel,
    )


def test_departed_process_leaves_sender_and_receiver_sets():
    churn = ScheduledChurn.at(leaves={3: [2]}, joins={6: [2]})
    result = _run_with_churn(churn, max_rounds=8)
    # after_send=True: the round-3 broadcast goes out, rounds 4-5 are
    # silent, and the fresh incarnation broadcasts again from round 6 —
    # restarting its script from the top (fresh state).
    senders = _senders(result)
    assert "p2r2" in senders[2]
    assert all("p2" not in m for m in senders[3])
    assert all("p2" not in m for m in senders[4])
    assert "p2r0" in senders[5]
    assert result.rejoin_counts == {2: 1}
    assert result.leave_rounds == {}  # rejoined: no longer departed
    assert result.present_indices() == tuple(range(N))


def test_before_send_leave_silences_the_final_round():
    churn = ScheduledChurn({2: [ChurnEvent(1, "leave", after_send=False)]})
    result = _run_with_churn(churn, max_rounds=4)
    senders = _senders(result)
    assert "p1r0" in senders[0]
    assert all("p1" not in m for m in senders[1])  # silenced in round 2
    assert result.leave_rounds == {1: 2}


def test_initially_absent_pid_joins_with_its_initial_state():
    churn = ScheduledChurn.at(joins={4: [5]}, initially_absent=[5])
    result = _run_with_churn(churn, max_rounds=6)
    senders = _senders(result)
    for r in range(3):
        assert all("p5" not in m for m in senders[r])
    assert "p5r0" in senders[3]  # joined at round 4, script from the top
    # A first join counts as a (re-)entry but needs no factory: the
    # initial instance never stepped, so it already is fresh state.
    assert result.rejoin_counts == {5: 1}
    assert result.leave_rounds == {}


def test_initially_absent_pid_never_joining_is_reported():
    churn = ScheduledChurn({}, initially_absent=[0])
    result = _run_with_churn(churn, max_rounds=3)
    assert result.leave_rounds == {0: 0}
    assert result.present_indices() == (1, 2, 3, 4, 5)
    assert result.churned


def test_initially_absent_must_be_subset_of_indices():
    churn = ScheduledChurn({}, initially_absent=[99])
    with pytest.raises(ConfigurationError):
        _run_with_churn(churn, max_rounds=2)


def test_crash_beats_same_round_leave_and_is_absorbing():
    churn = ScheduledChurn.at(leaves={3: [1]}, joins={5: [1]})
    crash = ScheduledCrashes.at({3: [1]})
    result = _run_with_churn(churn, crash=crash, max_rounds=6)
    # The crash wins: pid 1 is crashed, not departed, and the scheduled
    # rejoin is a no-op (crashes are permanent even under churn).
    assert result.crash_rounds[1] == 3
    assert all(
        result.crash_rounds[i] is None for i in range(N) if i != 1
    )
    assert result.leave_rounds == {}
    assert result.rejoin_counts == {}
    senders = _senders(result)
    assert all("p1" not in m for m in senders[4])


class _DecideOnce(ScriptedProcess):
    """Decides a fixed value after its second transition."""

    def __init__(self, script, value) -> None:
        super().__init__(script)
        self._value = value

    def transition(self, received, cd_advice, cm_advice) -> None:
        super().transition(received, cd_advice, cm_advice)
        if len(self.observations) == 2:
            self.decide(self._value)


def test_ghost_decisions_surface_system_level_disagreement():
    # pid 0 decides "a" by round 2, departs at 3, rejoins at 5 with
    # fresh state and decides "b" — the *current* decisions agree, but
    # the execution as a whole violated agreement.
    def spawn(i):
        value = "a" if len(spawned) == 0 and i == 0 else "b"
        spawned.append(i)
        return _DecideOnce([f"m{i}"] * ROUNDS, value if i == 0 else "b")

    spawned = []
    churn = ScheduledChurn.at(leaves={3: [0]}, joins={5: [0]})
    result = _run_with_churn(
        churn, algorithm=Algorithm(spawn, anonymous=False), max_rounds=8
    )
    assert result.departed_decisions == ((0, "a", 3),)
    assert result.decisions[0] == "b"
    assert set(result.all_decided_values()) == {"a", "b"}
    assert result.churned


def test_execution_survives_an_empty_live_set_until_rejoin():
    churn = ScheduledChurn.at(
        leaves={1: list(range(N))}, joins={3: list(range(N))}
    )
    result = _run_with_churn(churn, max_rounds=5)
    # Round 2 is fully silent, everyone rejoins at 3 and broadcasts.
    senders = _senders(result)
    assert senders[1] == set()
    assert len(senders[2]) == N
    assert result.present_indices() == tuple(range(N))
    assert all(count == 1 for count in result.rejoin_counts.values())


# ----------------------------------------------------------------------
# Determinism and the kernel fallback gate
# ----------------------------------------------------------------------
def _consensus_under_churn(use_array_kernel=None, seed=5,
                           policy=RecordPolicy.FULL):
    values = list(range(8))
    env = Environment(
        indices=tuple(range(N)),
        detector=ZERO_OAC.make(),
        contention=WakeUpService(stabilization_round=2),
        loss=IIDLoss(0.3, seed=seed),
        churn=SeededChurn(0.25, seed=seed + 101, deadline=5),
    )
    assignment = {i: values[(i * 3) % len(values)] for i in env.indices}
    return run_consensus(
        env, algorithm_2(values), assignment, max_rounds=30,
        record_policy=policy, use_array_kernel=use_array_kernel,
    )


def _identical(a, b, policy=RecordPolicy.FULL):
    assert a.decisions == b.decisions
    assert a.decision_rounds == b.decision_rounds
    assert a.crash_rounds == b.crash_rounds
    assert a.leave_rounds == b.leave_rounds
    assert a.rejoin_counts == b.rejoin_counts
    assert a.departed_decisions == b.departed_decisions
    assert a.rounds == b.rounds
    if policy is RecordPolicy.FULL:
        assert a.records == b.records
    elif policy is RecordPolicy.SUMMARY:
        assert a.summaries == b.summaries


def test_same_seed_and_schedule_replay_byte_identical_executions():
    _identical(_consensus_under_churn(), _consensus_under_churn())


@pytest.mark.parametrize(
    "policy", (RecordPolicy.FULL, RecordPolicy.SUMMARY, RecordPolicy.NONE)
)
def test_churned_executions_identical_kernel_on_and_off(policy):
    vec = _consensus_under_churn(
        True if array_kernel_module() else None, policy=policy
    )
    ref = _consensus_under_churn(False, policy=policy)
    _identical(vec, ref, policy)
    assert vec.churned and ref.churned


@needs_numpy
def test_kernel_runs_every_churned_round():
    """Churn events never leave the kernel: draws are pure functions of
    (seed, round, receiver, sender) and the loss adversary is consulted
    over the full index set on both paths, so neither an event nor an
    absence can shift the execution between them."""

    def engine_for(churn):
        env = Environment(
            indices=tuple(range(N)),
            detector=ZERO_OAC.make(),
            contention=NoContentionManager(),
            loss=IIDLoss(0.3, seed=4),
            churn=churn,
        )
        env.reset()
        algorithm = _counting_algorithm()
        return ExecutionEngine(
            env, algorithm.spawn_all(env.indices),
            record_policy=RecordPolicy.NONE,
            process_factory=algorithm.spawn, use_array_kernel=True,
        )

    # Static membership.
    engine = engine_for(NoChurn())
    engine.run(8, until_all_decided=False)
    assert engine.kernel_rounds == 8

    # A departure at round 4, never rejoined: the event round too.
    engine = engine_for(ScheduledChurn.at(leaves={4: [0]}))
    engine.run(8, until_all_decided=False)
    assert engine.kernel_rounds == 8

    # Leave then rejoin: both event rounds and the absent round between.
    engine = engine_for(
        ScheduledChurn.at(leaves={3: [0]}, joins={5: [0]})
    )
    engine.run(8, until_all_decided=False)
    assert engine.kernel_rounds == 8


# ----------------------------------------------------------------------
# The ring overlay and flood metrics
# ----------------------------------------------------------------------
def test_plain_ring_shape():
    ring = MultihopNetwork.ring(8, successors=1, fingers=False)
    assert ring.n == 8
    assert ring.diameter == 4
    assert ring.neighbors(0) == {1, 7}
    assert ring.neighbors(3) == {2, 4}


def test_successor_list_widens_the_neighbourhood():
    ring = MultihopNetwork.ring(8, successors=2, fingers=False)
    assert ring.neighbors(0) == {1, 2, 6, 7}
    assert ring.diameter == 2


def test_finger_tables_shrink_the_diameter():
    plain = MultihopNetwork.ring(32, successors=1, fingers=False)
    chord = MultihopNetwork.ring(32, successors=1, fingers=True)
    assert plain.diameter == 16
    assert chord.diameter <= 5  # O(log n) routing
    # Fingers at powers of two (undirected, so mirrored too).
    assert {1, 2, 4, 8, 16} <= chord.neighbors(0)


def test_ring_validation():
    with pytest.raises(ConfigurationError):
        MultihopNetwork.ring(1)
    with pytest.raises(ConfigurationError):
        MultihopNetwork.ring(4, successors=0)
    with pytest.raises(ConfigurationError):
        MultihopNetwork.ring(4, successors=4)


def test_flood_reports_hops_and_stabilization():
    ring = MultihopNetwork.ring(16, successors=1, fingers=False)
    result = flood(ring, 0, strategy="blind", channel="capture", seed=1)
    assert result.completed
    assert result.informed_round[0] == 0
    assert set(result.informed_round) == set(ring.indices)
    assert result.max_hops == result.completed_round
    assert result.mean_hops is not None and result.mean_hops > 0
    assert result.stabilization == result.completed_round / ring.diameter
    assert result.stabilization >= 1.0  # one hop per round is optimal


def test_partial_flood_has_no_completion_metrics():
    line = MultihopNetwork.line(6)
    result = flood(line, 0, strategy="blind", max_rounds=2, seed=0)
    assert not result.completed
    assert result.max_hops is None
    assert result.stabilization is None
    assert 0 < len(result.informed_round) < 6


# ----------------------------------------------------------------------
# E19: the churn sweep cell and campaign resume byte-equality
# ----------------------------------------------------------------------
def test_churn_sweep_cell_payload_shape():
    params = dict(n=4, detector="0-OAC", loss_rate=0.1, churn_rate=0.25,
                  topology="ring", trial=0, values=8,
                  record_policy="summary")
    output = churn_sweep_cell(params, 42)
    payload = output.payload
    assert set(payload) == {
        "present", "decided", "decision_rate", "agreement",
        "distinct_values", "termination_round", "rounds", "churned",
        "rejoins", "ghost_decisions",
    }
    assert payload["churned"]
    assert payload["present"] >= 2
    # The store gets one row per round.
    assert [row[0] for row in output.rounds] == list(
        range(1, payload["rounds"] + 1)
    )
    # Byte-determinism: the cell is a pure function of (params, seed).
    assert output == churn_sweep_cell(dict(params), 42)


def test_churn_sweep_cell_rejects_unknown_topology():
    with pytest.raises(ConfigurationError):
        churn_sweep_cell({"topology": "torus"}, 0)


def test_static_churn_cell_matches_paper_model():
    payload = churn_sweep_cell(
        dict(n=4, churn_rate=0.0, topology="clique", values=8), 3
    ).payload
    assert not payload["churned"]
    assert payload["rejoins"] == 0
    assert payload["decision_rate"] == 1.0
    assert payload["agreement"]


def test_e19_interrupted_campaign_resumes_byte_identically(tmp_path):
    axes = dict(
        n=[4], detector=["0-OAC"], loss_rate=[0.1],
        churn_rate=[0.0, 0.25], topology=["clique", "ring"],
        trial=[0], values=[8], record_policy=["summary"],
    )

    def make(db):
        return CampaignRunner(
            churn_sweep_cell, db_path=db, base_seed=0, in_process=True,
        )

    interrupted_db = str(tmp_path / "interrupted.db")
    with make(interrupted_db) as runner:
        assert len(runner.resume(max_cells=2, **axes)) == 2  # interrupt
    with make(interrupted_db) as runner:
        outcomes = runner.resume(**axes)  # resume to completion
        assert len(outcomes) == 4
        resumed_report = runner.report(**axes)

    clean_db = str(tmp_path / "clean.db")
    with make(clean_db) as runner:
        runner.resume(**axes)
        clean_report = runner.report(**axes)

    assert resumed_report == clean_report
