"""The campaign layer: sqlite round/cell store and the resumable runner.

Covers the PR's durability contract end to end:

* ``SqliteSink`` round-trips a cell's round summaries (write with the
  cell's checkpoint, reopen, read back ordered by round, keyed on the
  cell's tag), and a re-checkpoint replaces them;
* ``JsonlSink`` opens lazily, so a cell that raises before round 1
  leaves nothing on disk (the ``consensus_sweep_cell`` exception path);
* ``CampaignRunner.resume`` is idempotent — the parity suite interrupts
  after any prefix under every dispatcher configuration ({1, 4} workers
  x {no timeout, timeout}) and each resumed report is byte-identical to
  the in-process serial reference;
* per-cell timeouts checkpoint ``timed_out`` instead of killing the
  grid — enforced by the unified dispatcher pool at any width (overrun
  workers are replaced, SIGTERM-ignoring cells cannot hang the grid, a
  worker dying mid-cell checkpoints ``failed``, and a 4-wide pool beats
  a one-worker pool by >= 2x on sleepy grids);
* worker reuse is universal: a grid larger than the pool runs on at
  most ``processes`` distinct worker pids, with or without a timeout,
  and back-to-back resumes reuse the parked pool;
* teardown is deterministic: every test asserts no leaked child
  processes afterwards (an autouse fixture), and ``close()`` — not GC
  timing — reaps the pool;
* a killed or failed attempt leaves zero rows in ``round_summaries``,
  and every cell of a grid with a literal ``seed`` axis keeps its own
  rounds (the store verifies clean);
* a store written by the ``(cell_seed, round)``-keyed schema migrates
  in place and reports like a fresh run;
* ``failed`` cells are retried on resume only within the
  ``max_retries`` budget (``attempts`` is migrated into pre-existing
  stores in place); a store created under a different base_seed is
  rejected loudly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import time

import pytest

from repro.adversary.loss import DRAWS
from repro.core.errors import ConfigurationError
from repro.core.records import (
    JsonlSink,
    RecordPolicy,
    RoundSummary,
    SqliteSink,
    round_row,
)
from repro.experiments.campaign import CampaignRunner, cell_tag
from repro.experiments.dispatch import CampaignDispatcher, CellOutput
from repro.experiments.harness import (
    SweepRunner,
    cell_seed,
    consensus_sweep_cell,
)
from repro.experiments.verify import verify_campaign_store


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Satellite invariant: no campaign test may leak a child process.

    Autouse, so it is set up before (and finalized after) the
    ``make_runner`` teardown — by the time this assertion runs, every
    runner the test created has been closed.
    """
    yield
    children = multiprocessing.active_children()
    assert children == [], f"leaked worker processes: {children}"


@pytest.fixture
def make_runner():
    """Factory for runners that are always closed at teardown."""
    runners = []

    def make(*args, **kwargs):
        runner = CampaignRunner(*args, **kwargs)
        runners.append(runner)
        return runner

    yield make
    for runner in runners:
        runner.close()


def _summary(r: int, bc: int = 2, crashed=(), decided=None) -> RoundSummary:
    return RoundSummary(
        round=r,
        broadcast_count=bc,
        crashed_during=frozenset(crashed),
        decided_during=dict(decided or {}),
    )


# ----------------------------------------------------------------------
# SqliteSink: a cell's checkpoint and its rounds
# ----------------------------------------------------------------------
def _record(sink: SqliteSink, tag: str, summaries, status="done") -> None:
    sink.record_cell(
        tag=tag, seed=1, index=0, params_text="{}", status=status,
        payload_text="{}", rounds=[round_row(s) for s in summaries],
    )


def test_sqlite_sink_roundtrip_ordered_by_round(tmp_path):
    db = str(tmp_path / "campaign.db")
    with SqliteSink(db) as sink:
        # Out-of-order rows must still read back ordered by round.
        _record(sink, "t=11", [
            _summary(r, bc=r, crashed={r}, decided={0: r * 10})
            for r in (3, 1, 2)
        ])
    with SqliteSink(db) as sink:
        rows = sink.read_summaries("t=11")
    assert [s.round for s in rows] == [1, 2, 3]
    assert [s.broadcast_count for s in rows] == [1, 2, 3]
    assert rows[0].crashed_during == frozenset({1})
    assert rows[2].decided_during == {0: 30}
    # A different cell's keyspace is empty.
    with SqliteSink(db) as sink:
        assert sink.read_summaries("t=999") == []


def test_sqlite_sink_write_is_idempotent_per_round(tmp_path):
    db = str(tmp_path / "campaign.db")
    with SqliteSink(db) as sink:
        _record(sink, "t=5", [_summary(1, bc=1), _summary(2, bc=1)])
        # A re-checkpoint replaces every row of the cell, no dup key ...
        _record(sink, "t=5", [_summary(1, bc=4)])
        assert [s.broadcast_count for s in sink.read_summaries("t=5")] \
            == [4]
        # ... and a non-done checkpoint leaves the cell none at all.
        _record(sink, "t=5", [], status="failed")
        assert sink.read_summaries("t=5") == []


def test_sqlite_sink_streams_from_engine(tmp_path, make_runner):
    """A NONE-policy cell still hands every round to the store: the
    engine calls observers under every record policy."""
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=77, in_process=True,
    )
    (outcome,) = runner.resume(n=[3], values=[4], record_policy=["none"])
    with SqliteSink(db) as sink:
        rows = sink.read_summaries(cell_tag(outcome.cell))
    rounds = outcome.payload["rounds"]
    assert len(rows) == rounds
    assert [s.round for s in rows] == list(range(1, rounds + 1))


def test_sqlite_sink_rejects_after_close(tmp_path):
    sink = SqliteSink(str(tmp_path / "campaign.db"))
    sink.close()
    with pytest.raises(ConfigurationError, match="closed"):
        _record(sink, "t=1", [_summary(1)])


# ----------------------------------------------------------------------
# Lazy sinks: the consensus_sweep_cell exception path
# ----------------------------------------------------------------------
def test_jsonl_sink_opens_lazily(tmp_path):
    path = tmp_path / "rounds.jsonl"
    sink = JsonlSink(str(path))
    assert not path.exists()          # nothing on disk until round 1
    sink(_summary(1))
    assert path.exists()
    sink.close()


def test_sweep_cell_failure_before_round_one_leaves_no_sink_file(
    tmp_path, monkeypatch
):
    import repro.core.execution as execution

    def boom(*args, **kwargs):
        raise RuntimeError("engine refused to start")

    monkeypatch.setattr(execution, "run_consensus", boom)
    with pytest.raises(RuntimeError, match="refused to start"):
        consensus_sweep_cell(
            {"n": 3, "values": 4, "sink_dir": str(tmp_path / "sinks")},
            seed=9,
        )
    sink_dir = tmp_path / "sinks"
    assert not sink_dir.exists() or list(sink_dir.iterdir()) == []


# ----------------------------------------------------------------------
# CampaignRunner: resume determinism
# ----------------------------------------------------------------------
AXES = dict(
    n=[3, 4], detector=["0-OAC"], loss_rate=[0.1, 0.3], trial=[0, 1],
    values=[8], record_policy=["summary"],
)


def _serial_runner(db: str, base_seed: int = 3, **kwargs) -> CampaignRunner:
    """The in-process serial reference every other configuration must
    match byte-for-byte (``in_process=True`` spawns no workers)."""
    return CampaignRunner(
        consensus_sweep_cell, db_path=db, base_seed=base_seed,
        in_process=True, **kwargs,
    )


@pytest.fixture(scope="module")
def serial_reference_report(tmp_path_factory):
    """The AXES grid's report bytes from one clean in-process pass."""
    db = str(tmp_path_factory.mktemp("parity") / "serial.db")
    runner = _serial_runner(db)
    outcomes = runner.resume(**AXES)
    assert all(o.status == "done" for o in outcomes)
    return runner.report(**AXES)


@pytest.mark.parametrize("prefix", [1, 3, 7])
def test_resume_after_any_prefix_is_byte_identical(
    tmp_path, prefix, serial_reference_report
):
    interrupted = _serial_runner(str(tmp_path / "interrupted.db"))
    first = interrupted.resume(max_cells=prefix, **AXES)
    assert len(first) == prefix
    assert all(o.status == "done" for o in first)
    second = interrupted.resume(**AXES)
    assert len(second) == 8

    assert interrupted.report(**AXES) == serial_reference_report
    # Resuming a complete campaign is a no-op with the same bytes.
    third = interrupted.resume(**AXES)
    assert [o.status for o in third] == [o.status for o in second]
    assert interrupted.report(**AXES) == serial_reference_report


# The dispatcher parity suite: one fixed grid, every dispatcher
# configuration x every interruption point, all byte-identical to the
# serial reference.  This is the refactor's acceptance bar — pool
# width, deadlines, and interrupt/resume scheduling must be invisible
# in the report.
@pytest.mark.parametrize("prefix", [1, 3, 7])
@pytest.mark.parametrize("cell_timeout", [None, 60.0],
                         ids=["no-timeout", "timeout"])
@pytest.mark.parametrize("processes", [1, 4])
def test_unified_loop_parity_under_interrupt_and_resume(
    tmp_path, make_runner, serial_reference_report,
    processes, cell_timeout, prefix,
):
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=processes, cell_timeout=cell_timeout,
    )
    first = runner.resume(max_cells=prefix, **AXES)
    assert len(first) == prefix
    assert all(o.status == "done" for o in first)
    resumed = runner.resume(**AXES)
    assert len(resumed) == 8
    assert all(o.status == "done" for o in resumed)
    assert runner.report(**AXES) == serial_reference_report


def test_outcomes_payloads_survive_the_json_roundtrip(tmp_path):
    runner = _serial_runner(str(tmp_path / "campaign.db"))
    outcomes = runner.resume(**AXES)
    fresh = consensus_sweep_cell(
        outcomes[0].params, outcomes[0].cell.seed
    ).payload
    # Stored payloads are the canonical-JSON round-trip of fresh ones.
    assert outcomes[0].payload == json.loads(
        json.dumps(fresh, sort_keys=True, default=str)
    )


def test_store_with_different_base_seed_is_rejected(tmp_path):
    db = str(tmp_path / "campaign.db")
    _serial_runner(db, base_seed=3).resume(max_cells=2, **AXES)
    with pytest.raises(ConfigurationError, match="different base_seed"):
        _serial_runner(db, base_seed=4).resume(**AXES)
    # The read-only paths reject the mismatch too — a report must never
    # attribute stored payloads to seeds they were not produced under.
    with pytest.raises(ConfigurationError, match="different base_seed"):
        _serial_runner(db, base_seed=4).report(**AXES)
    with pytest.raises(ConfigurationError, match="different base_seed"):
        _serial_runner(db, base_seed=4).outcomes(**AXES)


def test_rerun_clears_stale_rounds_from_a_dead_attempt(tmp_path):
    db = str(tmp_path / "campaign.db")
    runner = _serial_runner(db)
    # Simulate a dead earlier attempt: 40 orphan rounds filed under a
    # pending cell's tag, with no cells row checkpointed.
    victim = runner.cells(**AXES)[0]
    with SqliteSink(db) as sink:
        conn = sink._connect()
        conn.executemany(
            "INSERT INTO round_summaries VALUES (?, ?, 9, '[]', '{}')",
            [(cell_tag(victim), r) for r in range(1, 41)],
        )
        conn.commit()
    outcomes = runner.resume(**AXES)
    (outcome,) = [o for o in outcomes if o.cell.seed == victim.seed]
    with SqliteSink(db) as sink:
        rows = sink.read_summaries(cell_tag(victim))
    # No stale rows past the real attempt's final round.
    assert len(rows) == outcome.payload["rounds"] < 40
    assert all(s.broadcast_count != 9 for s in rows)


def test_campaign_streams_round_summaries_into_the_same_db(tmp_path):
    db = str(tmp_path / "campaign.db")
    runner = _serial_runner(db, extra_params={"label": "infra-only"})
    outcomes = runner.resume(max_cells=2, **AXES)
    with SqliteSink(db) as sink:
        for outcome in outcomes:
            rows = sink.read_summaries(cell_tag(outcome.cell))
            assert len(rows) == outcome.payload["rounds"]
    # extra_params stay out of cell identity: tags only hold grid coords.
    assert "infra-only" not in cell_tag(outcomes[0].cell)
    assert "infra-only" not in runner.report(**AXES)


@pytest.mark.parametrize("in_process", [True, False],
                         ids=["in-process", "pooled"])
def test_seed_axis_cells_keep_their_own_rounds(
    tmp_path, make_runner, in_process
):
    """A literal ``seed`` axis gives every cell the same run seed; each
    cell must still own exactly its own rounds, show them in the table
    report, and leave a store that verifies clean."""
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=0, processes=2,
        in_process=in_process,
    )
    axes = dict(n=[4, 8], seed=[5])
    outcomes = runner.resume(**axes)
    assert [o.status for o in outcomes] == ["done", "done"]
    rows = runner.report_table(**axes).splitlines()[2:-2]
    with SqliteSink(db) as store:
        for outcome, row in zip(outcomes, rows):
            rounds = outcome.payload["rounds"]
            assert len(store.read_summaries(cell_tag(outcome.cell))) \
                == rounds
            assert row.split()[3] == str(rounds)
    assert verify_campaign_store(db)["ok"]


# ----------------------------------------------------------------------
# CampaignRunner: timeouts and failure isolation
# ----------------------------------------------------------------------
def _sleepy_cell(params, seed):
    if params["trial"] == 1:
        time.sleep(60)
    return {"seed": seed, "trial": params["trial"]}


def _flaky_cell(params, seed):
    if not os.path.exists(params["flag"]):
        raise ValueError(f"flag missing for trial {params['trial']}")
    return {"seed": seed}


def test_cell_timeout_marks_timed_out_without_killing_the_grid(
    tmp_path, make_runner
):
    runner = make_runner(
        _sleepy_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, cell_timeout=1.0,
    )
    outcomes = runner.resume(trial=[0, 1, 2])
    assert [o.status for o in outcomes] == ["done", "timed_out", "done"]
    assert outcomes[1].payload is None
    # Resume skips the timed-out cell rather than hanging on it again.
    start = time.monotonic()
    again = runner.resume(trial=[0, 1, 2])
    assert time.monotonic() - start < 30
    assert [o.status for o in again] == ["done", "timed_out", "done"]


def test_failed_cells_are_checkpointed_and_retried_on_resume(
    tmp_path, make_runner
):
    flag = str(tmp_path / "flag")
    runner = make_runner(
        _flaky_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=0, extra_params={"flag": flag},
    )
    outcomes = runner.resume(trial=[0, 1])
    assert [o.status for o in outcomes] == ["failed", "failed"]
    assert "flag missing" in outcomes[0].error
    open(flag, "w").close()
    outcomes = runner.resume(trial=[0, 1])
    assert [o.status for o in outcomes] == ["done", "done"]


# ----------------------------------------------------------------------
# The unified dispatcher pool: fan-out, deadlines, worker lifecycle
# ----------------------------------------------------------------------
def _stubborn_cell(params, seed):
    """Trial 1 ignores SIGTERM and sleeps far past any deadline."""
    if params["trial"] == 1:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(120)
    return {"seed": seed, "trial": params["trial"]}


def _napping_cell(params, seed):
    """Every cell sleeps a fixed beat — wall-clock is pure dispatch."""
    time.sleep(0.4)
    return {"seed": seed, "trial": params["trial"]}


def _streaming_cell(params, seed):
    """Collects five rounds, then (by trial) returns, hangs, or raises."""
    rounds = [round_row(_summary(r, bc=7)) for r in range(1, 6)]
    if params["trial"] == 1:
        time.sleep(120)
    if params["trial"] == 2:
        raise RuntimeError("deterministic crash after streaming")
    return CellOutput({"seed": seed, "trial": params["trial"]}, rounds)


def test_deadline_pool_times_out_cells_in_parallel(tmp_path, make_runner):
    """Two sleepers on a 3-wide pool: both overrun concurrently, both
    workers are replaced, and the grid keeps moving."""
    runner = make_runner(
        _sleepy_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=3, cell_timeout=1.0,
    )
    start = time.monotonic()
    outcomes = runner.resume(trial=[0, 1, 2])
    elapsed = time.monotonic() - start
    assert [o.status for o in outcomes] == ["done", "timed_out", "done"]
    # The sleeper burned its budget concurrently with the other cells,
    # not serially after them.
    assert elapsed < 30
    # Resume skips the timed-out cell rather than hanging on it again.
    again = runner.resume(trial=[0, 1, 2])
    assert [o.status for o in again] == ["done", "timed_out", "done"]


def test_sigterm_ignoring_cell_cannot_hang_the_pool(tmp_path, make_runner):
    """terminate→kill escalation: a cell that ignores SIGTERM is still
    evicted, its worker replaced, and every other cell completes."""
    runner = make_runner(
        _stubborn_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=2, cell_timeout=1.0,
    )
    start = time.monotonic()
    outcomes = runner.resume(trial=[0, 1, 2, 3])
    elapsed = time.monotonic() - start
    assert [o.status for o in outcomes] == [
        "done", "timed_out", "done", "done"
    ]
    assert elapsed < 60
    # The replacement worker (not the killed one) ran the later cells.
    assert outcomes[2].payload["trial"] == 2
    assert outcomes[3].payload["trial"] == 3


def test_wide_pool_beats_one_worker_pool(tmp_path, make_runner):
    """8 napping cells: 4 pooled workers must finish the grid at least
    2x faster than the same loop at width 1."""
    trials = list(range(8))
    serial = make_runner(
        _napping_cell, db_path=str(tmp_path / "serial.db"),
        base_seed=0, processes=1, cell_timeout=30.0,
    )
    start = time.monotonic()
    serial.resume(trial=trials)
    serial_elapsed = time.monotonic() - start

    pooled = make_runner(
        _napping_cell, db_path=str(tmp_path / "pooled.db"),
        base_seed=0, processes=4, cell_timeout=30.0,
    )
    start = time.monotonic()
    pooled.resume(trial=trials)
    pooled_elapsed = time.monotonic() - start

    assert pooled.report(trial=trials) == serial.report(trial=trials)
    assert pooled_elapsed * 2 <= serial_elapsed, (
        f"pooled {pooled_elapsed:.2f}s vs serial {serial_elapsed:.2f}s"
    )


def _worker_pid_cell(params, seed):
    """Reports which pool worker process ran it."""
    return {"worker_pid": os.getpid(), "trial": params["trial"]}


def _suicidal_cell(params, seed):
    """Trial 1 hard-kills its own worker mid-cell (no reply, no EOF
    courtesy) — the OOM-kill / hard-crash stand-in."""
    if params["trial"] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"seed": seed, "trial": params["trial"]}


@pytest.mark.parametrize("cell_timeout", [None, 30.0],
                         ids=["no-timeout", "timeout"])
def test_worker_reuse_is_universal(tmp_path, make_runner, cell_timeout):
    """Acceptance bar: a grid larger than the pool runs on at most
    ``processes`` distinct worker pids — with and without a timeout."""
    runner = make_runner(
        _worker_pid_cell, db_path=str(tmp_path / "c.db"),
        base_seed=2, processes=2, cell_timeout=cell_timeout,
    )
    outcomes = runner.resume(trial=list(range(8)))
    assert all(o.status == "done" for o in outcomes)
    pids = {o.payload["worker_pid"] for o in outcomes}
    assert 1 <= len(pids) <= 2
    # The runner publishes the same accounting for the benchmarks.
    stats = runner.last_dispatch_stats
    assert stats["cells"] == 8
    assert stats["distinct_worker_pids"] == len(pids)
    assert stats["in_process"] is False


@pytest.mark.parametrize("cell_timeout", [None, 30.0],
                         ids=["no-timeout", "timeout"])
def test_worker_death_mid_cell_checkpoints_failed(
    tmp_path, make_runner, cell_timeout
):
    """A worker dying mid-cell (SIGKILL — no reply ever comes) must
    checkpoint the cell ``failed`` and keep the grid moving, on both
    the timeout and no-timeout configurations (the no-timeout loop
    blocks on the pipes indefinitely, so the EOF is its only wake-up)."""
    runner = make_runner(
        _suicidal_cell, db_path=str(tmp_path / "c.db"),
        base_seed=0, processes=2, cell_timeout=cell_timeout,
        max_retries=0,
    )
    outcomes = runner.resume(trial=[0, 1, 2, 3])
    assert [o.status for o in outcomes] == [
        "done", "failed", "done", "done"
    ]
    assert "worker died without a result" in outcomes[1].error


def test_pool_workers_survive_across_resumes(tmp_path):
    """Two back-to-back resumes on one runner reuse the same pool
    workers: the second pass's cells run on the pids the first pass
    spawned, and only close() tears the pool down."""
    runner = CampaignRunner(
        _worker_pid_cell, db_path=str(tmp_path / "c.db"),
        base_seed=2, processes=2, cell_timeout=30.0,
    )
    try:
        first = runner.resume(trial=[0, 1])
        pool_pids_after_first = set(runner.dispatcher.worker_pids())
        second = runner.resume(trial=[0, 1, 2, 3])
    finally:
        procs = [w.proc for w in runner.dispatcher._workers]
        runner.close()
    first_pids = {o.payload["worker_pid"] for o in first}
    assert len(pool_pids_after_first) == 2
    assert first_pids <= pool_pids_after_first
    # The second pass ran only the two new cells — on the same workers.
    new_pids = {
        o.payload["worker_pid"]
        for o in second if o.params["trial"] in (2, 3)
    }
    assert new_pids <= pool_pids_after_first
    assert {p.pid for p in procs} == pool_pids_after_first
    # close() really shut the pool down (idempotently).
    for proc in procs:
        proc.join(5.0)
        assert not proc.is_alive()
    runner.close()
    assert runner.dispatcher.worker_pids() == []


def test_campaign_runner_context_manager_closes_pool(tmp_path):
    with CampaignRunner(
        _worker_pid_cell, db_path=str(tmp_path / "c.db"),
        base_seed=2, processes=2, cell_timeout=30.0,
    ) as runner:
        runner.resume(trial=[0, 1])
        procs = [w.proc for w in runner.dispatcher._workers]
        assert procs  # the pool outlived the pass
    for proc in procs:
        proc.join(5.0)
        assert not proc.is_alive()


def test_dispatcher_pulls_cell_source_lazily():
    """The cell source is an iterator seam: the loop pulls a cell only
    when a worker slot frees up, never more than ``width`` ahead of the
    completions (what a distributed shard feed relies on)."""
    cells = SweepRunner(_trivial_cell, base_seed=0).cells(
        trial=list(range(6))
    )
    pulled = []

    def source():
        for cell in cells:
            pulled.append(cell.index)
            yield cell

    completed = []

    def on_result(cell, result):
        assert result.status == "done"
        # At delivery time the source is never more than one pull per
        # in-flight slot ahead of the completions.
        assert len(pulled) <= len(completed) + 2
        completed.append(cell.index)

    with CampaignDispatcher(_trivial_cell, processes=2) as dispatcher:
        count = dispatcher.run(source(), on_result)
    assert count == 6
    assert sorted(completed) == list(range(6))
    assert pulled == list(range(6))  # pulled in grid order


@pytest.mark.parametrize("in_process", [True, False],
                         ids=["in-process", "pooled"])
def test_idle_hook_fires_after_every_completion(
    tmp_path, make_runner, in_process
):
    """The idle hook (the live-analytics seam) runs in the parent after
    each completed cell, in every dispatch mode."""
    ticks = []
    runner = make_runner(
        _trivial_cell, db_path=str(tmp_path / "c.db"), base_seed=0,
        processes=1, in_process=in_process,
        idle_hook=lambda: ticks.append(len(ticks)),
    )
    outcomes = runner.resume(trial=[0, 1, 2])
    assert all(o.status == "done" for o in outcomes)
    assert len(ticks) == 3


@pytest.mark.parametrize("processes", [0, 4])
def test_dead_attempts_leave_zero_round_rows(tmp_path, make_runner, processes):
    """A timed-out or failed attempt contributes nothing to
    round_summaries — a dead attempt never delivers its rounds to the
    parent, the store's only writer."""
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        _streaming_cell, db_path=db, base_seed=0, processes=processes,
        cell_timeout=1.5,
    )
    outcomes = runner.resume(trial=[0, 1, 2])
    assert [o.status for o in outcomes] == ["done", "timed_out", "failed"]
    with SqliteSink(db) as sink:
        done, hung, crashed = (cell_tag(o.cell) for o in outcomes)
        # The completed attempt's rounds survive ...
        assert len(sink.read_summaries(done)) == 5
        # ... while killed and failed attempts leave zero rows.
        assert sink.read_summaries(hung) == []
        assert sink.read_summaries(crashed) == []


# ----------------------------------------------------------------------
# Retry budgets and the attempts migration
# ----------------------------------------------------------------------
def _counting_crash_cell(params, seed):
    """Deterministically crashes, leaving one marker file per run."""
    marker_dir = params["marker_dir"]
    os.makedirs(marker_dir, exist_ok=True)
    run = len(os.listdir(marker_dir))
    open(os.path.join(marker_dir, f"run-{run}"), "w").close()
    raise RuntimeError("always fails")


def _trivial_cell(params, seed):
    return {"seed": seed, "trial": params["trial"]}


def test_retry_budget_makes_resume_converge(tmp_path, make_runner):
    marker_dir = str(tmp_path / "runs")
    runner = make_runner(
        _counting_crash_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=0, max_retries=1,
        extra_params={"marker_dir": marker_dir},
    )
    (first,) = runner.resume(trial=[0])
    assert first.status == "failed" and first.attempts == 1
    (second,) = runner.resume(trial=[0])
    assert second.status == "failed" and second.attempts == 2
    # Budget exhausted (1 + max_retries runs): the cell stays failed
    # permanently and further resumes do no work at all.
    for _ in range(3):
        (done,) = runner.resume(trial=[0])
        assert done.status == "failed" and done.attempts == 2
    assert len(os.listdir(marker_dir)) == 2
    assert "always fails" in done.error
    # The report surfaces the attempt count.
    report = json.loads(runner.report(trial=[0]))
    assert report["cells"][0]["attempts"] == 2
    assert report["cells"][0]["status"] == "failed"


def test_attempts_within_budget_still_retry_to_success(tmp_path, make_runner):
    flag = str(tmp_path / "flag")
    runner = make_runner(
        _flaky_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=0, max_retries=2,
        extra_params={"flag": flag},
    )
    assert [o.attempts for o in runner.resume(trial=[0])] == [1]
    open(flag, "w").close()
    (outcome,) = runner.resume(trial=[0])
    assert outcome.status == "done" and outcome.attempts == 2


_PRE_ATTEMPTS_SCHEMA = """
CREATE TABLE cells (
    cell_tag   TEXT PRIMARY KEY,
    cell_seed  INTEGER NOT NULL,
    cell_index INTEGER NOT NULL,
    params     TEXT NOT NULL,
    status     TEXT NOT NULL,
    payload    TEXT,
    error      TEXT,
    elapsed    REAL
);
CREATE TABLE round_summaries (
    cell_seed       INTEGER NOT NULL,
    round           INTEGER NOT NULL,
    broadcast_count INTEGER NOT NULL,
    crashed_during  TEXT NOT NULL,
    decided_during  TEXT NOT NULL,
    PRIMARY KEY (cell_seed, round)
);
"""


def test_pre_attempts_store_is_migrated_in_place(tmp_path, make_runner):
    """A store written by the pre-`attempts` schema is readable: the
    column is added in place and old rows backfill to attempts=1."""
    db = str(tmp_path / "old.db")
    runner = make_runner(
        _trivial_cell, db_path=db, base_seed=0, processes=0,
    )
    done_cell, pending_cell = runner.cells(trial=[0, 1])
    conn = sqlite3.connect(db)
    conn.executescript(_PRE_ATTEMPTS_SCHEMA)
    conn.execute(
        "INSERT INTO cells (cell_tag, cell_seed, cell_index, params, "
        "status, payload, error, elapsed) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (cell_tag(done_cell), done_cell.seed, done_cell.index,
         json.dumps(done_cell.as_dict()),
         "done",
         json.dumps({"seed": done_cell.seed, "trial": 0}, sort_keys=True),
         None, 0.1),
    )
    conn.commit()
    conn.close()

    with SqliteSink(db) as store:
        rows = store.get_cells()
        # The schema migration is under test here, not the draws stamp
        # (an unstamped store that holds cells is refused on resume).
        store.set_meta("draws", DRAWS)
    assert rows[cell_tag(done_cell)]["attempts"] == 1

    # Resume reads the migrated store: the old cell is skipped, the
    # missing one runs, and both carry attempt counts.
    outcomes = runner.resume(trial=[0, 1])
    assert [o.status for o in outcomes] == ["done", "done"]
    assert [o.attempts for o in outcomes] == [1, 1]
    assert outcomes[0].payload == {"seed": done_cell.seed, "trial": 0}


_SEED_KEYED_SCHEMA = """
CREATE TABLE cells (
    cell_tag   TEXT PRIMARY KEY,
    cell_seed  INTEGER NOT NULL,
    cell_index INTEGER NOT NULL,
    params     TEXT NOT NULL,
    status     TEXT NOT NULL,
    payload    TEXT,
    error      TEXT,
    elapsed    REAL,
    attempts   INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE round_summaries (
    cell_seed       INTEGER NOT NULL,
    round           INTEGER NOT NULL,
    broadcast_count INTEGER NOT NULL,
    crashed_during  TEXT NOT NULL,
    decided_during  TEXT NOT NULL,
    PRIMARY KEY (cell_seed, round)
);
CREATE TABLE campaign_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Two coordinates whose derived seeds collide under base_seed 3, so
#: rounds filed under that seed in a seed-keyed store have two owners.
_COLLIDING_TRIALS = (14280, 15158)


def test_seed_keyed_store_is_migrated_in_place(tmp_path):
    """A store whose rounds are keyed on ``(cell_seed, round)`` is
    re-keyed on first open: rows under a seed exactly one done cell
    carries move to that cell's tag; an orphan row and a row under a
    seed two cells share are dropped.  The result verifies clean and
    reports byte-identically to a fresh run."""
    axes = dict(n=[3, 4], detector=["0-OAC"], loss_rate=[0.1],
                trial=[0, 1], values=[8], record_policy=["summary"])
    fresh_db = str(tmp_path / "fresh.db")
    fresh = _serial_runner(fresh_db)
    fresh.resume(**axes)
    with SqliteSink(fresh_db) as store:
        fresh_rows = {
            tag: store.read_summaries(tag) for tag in store.get_cells()
        }
    src = sqlite3.connect(fresh_db)
    cells = src.execute("SELECT * FROM cells").fetchall()
    meta = src.execute("SELECT * FROM campaign_meta").fetchall()
    rounds = src.execute(
        "SELECT c.cell_seed, r.round, r.broadcast_count, "
        "r.crashed_during, r.decided_during FROM round_summaries r "
        "JOIN cells c USING (cell_tag)"
    ).fetchall()
    src.close()

    legacy_db = str(tmp_path / "legacy.db")
    conn = sqlite3.connect(legacy_db)
    conn.executescript(_SEED_KEYED_SCHEMA)
    conn.executemany(
        "INSERT INTO cells VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", cells
    )
    conn.executemany("INSERT INTO campaign_meta VALUES (?, ?)", meta)
    conn.executemany(
        "INSERT INTO round_summaries VALUES (?, ?, ?, ?, ?)", rounds
    )
    shared = cell_seed(3, trial=_COLLIDING_TRIALS[0])
    assert cell_seed(3, trial=_COLLIDING_TRIALS[1]) == shared
    for index, trial in enumerate(_COLLIDING_TRIALS):
        conn.execute(
            "INSERT INTO cells VALUES (?, ?, ?, ?, 'done', '{}', NULL, "
            "0.0, 1)",
            (f"trial={trial}", shared, index, json.dumps({"trial": trial})),
        )
    conn.execute(
        "INSERT INTO round_summaries VALUES (?, 1, 3, '[]', '{}')",
        (shared,),
    )
    conn.execute(
        "INSERT INTO round_summaries VALUES (999999, 1, 2, '[]', '{}')"
    )
    conn.commit()
    conn.close()

    with SqliteSink(legacy_db) as store:
        for tag, summaries in fresh_rows.items():
            assert store.read_summaries(tag) == summaries
        for trial in _COLLIDING_TRIALS:
            assert store.read_summaries(f"trial={trial}") == []
        total = store._connect().execute(
            "SELECT COUNT(*) FROM round_summaries"
        ).fetchone()[0]
    assert total == len(rounds)
    assert verify_campaign_store(legacy_db)["ok"]
    migrated = _serial_runner(legacy_db)
    assert migrated.report(**axes) == fresh.report(**axes)
    assert migrated.report_table(**axes) == fresh.report_table(**axes)


# ----------------------------------------------------------------------
# Report portability across machines
# ----------------------------------------------------------------------
def test_report_is_independent_of_sink_dir(tmp_path, make_runner):
    """Two sink_dir-streaming campaigns in different directories must
    produce identical report() bytes — payloads record the sink file's
    basename, never the absolute path."""
    small = dict(n=[3], detector=["0-OAC"], loss_rate=[0.1], trial=[0, 1],
                 values=[8], record_policy=["summary"])
    reports = []
    for name in ("alpha", "beta"):
        sink_dir = str(tmp_path / f"sinks_{name}")
        runner = make_runner(
            consensus_sweep_cell, db_path=str(tmp_path / f"{name}.db"),
            base_seed=3, processes=0, extra_params={"sink_dir": sink_dir},
        )
        runner.resume(**small)
        reports.append(runner.report(**small))
        assert f"sinks_{name}" not in reports[-1]
    assert reports[0] == reports[1]
    assert '"sink_file"' in reports[0]


# ----------------------------------------------------------------------
# E18 and the CLI subcommand
# ----------------------------------------------------------------------
def test_run_campaign_matrix_resumes_from_its_db(tmp_path):
    from repro.experiments.matrix import run_campaign_matrix

    db = str(tmp_path / "campaign.db")
    kwargs = dict(
        db_path=db, ns=(3,), detectors=("0-OAC",), loss_rates=(0.1,),
        seeds=(0, 1), processes=0,
    )
    partial = run_campaign_matrix(max_cells=1, **kwargs)
    assert partial[0].column("cells") == [1]
    tables = run_campaign_matrix(**kwargs)
    (row,) = tables[0].rows
    assert row["cells"] == 2 and row["done"] == 2
    assert row["solved"] == "2/2"


def test_cli_campaign_subcommand_launches_and_reports(tmp_path, capsys):
    from repro.__main__ import main

    db = str(tmp_path / "campaign.db")
    base = ["campaign", "--db", db, "--quick", "--seeds", "1",
            "--in-process"]
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "E18" in out and "campaign.db" in out
    assert main(base + ["--report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["cells"]) == 4
    assert all(c["status"] == "done" for c in report["cells"])


def test_cli_campaign_quick_rejects_explicit_grid_flags(tmp_path, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--db", str(tmp_path / "c.db"), "--quick",
              "--n", "16"])
    assert excinfo.value.code == 2
    assert "--quick fixes the grid" in capsys.readouterr().err


def test_report_table_aggregates_rounds_per_cell(tmp_path, make_runner):
    """The table view reads per-cell round counts and mean broadcast
    counts straight out of round_summaries, in grid order, with aligned
    columns."""
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=0,
    )
    axes = dict(
        n=[3], detector=["0-OAC"], loss_rate=[0.1, 0.3], trial=[0],
        values=[8], record_policy=["summary"],
    )
    outcomes = runner.run(**axes)
    table = runner.report_table(**axes)
    lines = table.splitlines()
    header, rule, *rows = lines[:-2]
    footer_rule, footer = lines[-2:]
    assert header.split() == [
        "cell", "status", "attempts", "rounds", "mean_bcast"
    ]
    assert set(rule) <= {"-", " "}
    assert set(footer_rule) <= {"-", " "}
    assert footer == "2 cells: 2 done, 0 failed, 0 timed_out; 2 attempts"
    assert len(rows) == len(outcomes) == 2
    with SqliteSink(db) as store:
        aggregates = store.round_aggregates()
    for row, outcome in zip(rows, outcomes):
        cols = row.split()
        assert cols[0] == cell_tag(outcome.cell)
        assert cols[1] == "done"
        rounds, mean = aggregates[cell_tag(outcome.cell)]
        assert cols[3] == str(rounds)
        assert cols[4] == f"{mean:.2f}"
    # Every header starts at a consistent column (alignment).
    assert header.index("status") <= rows[0].index("done")


def test_cli_campaign_report_table_subcommand(tmp_path, capsys):
    from repro.__main__ import main

    db = str(tmp_path / "campaign.db")
    base = ["campaign", "--db", db, "--quick", "--seeds", "1",
            "--processes", "0"]
    assert main(base) == 0
    capsys.readouterr()
    assert main(["campaign", "report", "--table", "--db", db,
                 "--quick", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split()[:2] == ["cell", "status"]
    # header + rule + one row per quick cell + footer rule + footer
    assert len(lines) == 2 + 4 + 2
    assert all("done" in line for line in lines[2:-2])
    assert lines[-1] == "4 cells: 4 done, 0 failed, 0 timed_out; 4 attempts"
    # --table without report mode is a usage error, not silence.
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--db", db, "--quick", "--table"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# The respawn-storm breaker
# ----------------------------------------------------------------------
def _exit_cell(params, seed):
    """Kills its worker outright — no result ever crosses the pipe."""
    os._exit(1)


def _exit_on_odd_trial_cell(params, seed):
    """Completes even trials, kills the worker on odd ones."""
    if params["trial"] % 2:
        os._exit(1)
    return {"trial": params["trial"]}


def test_spawn_death_storm_aborts_loudly():
    """K fresh spawns dying in a row abort the campaign with
    WorkerPoolError instead of respawning forever."""
    from repro.experiments.dispatch import WorkerPoolError

    cells = list(SweepRunner(_exit_cell, base_seed=0).cells(
        trial=list(range(10))
    ))
    delivered = []
    with CampaignDispatcher(
        _exit_cell, processes=1, max_spawn_deaths=3,
        respawn_backoff=0.001,
    ) as dispatcher:
        with pytest.raises(WorkerPoolError, match="3 freshly-spawned"):
            dispatcher.run(
                iter(cells), lambda cell, res: delivered.append(res)
            )
    # Each doomed spawn still checkpointed its cell as failed before
    # the breaker tripped.
    assert len(delivered) == 3
    assert all(r.status == "failed" for r in delivered)


def test_established_worker_death_does_not_trip_breaker():
    """A worker that already delivered results dying mid-cell is an
    isolated casualty: the cell fails, a replacement spawns, and the
    breaker (even at its tightest setting) never fires."""
    cells = list(SweepRunner(
        _exit_on_odd_trial_cell, base_seed=0
    ).cells(trial=[0, 1, 2, 3, 4]))
    results = {}
    with CampaignDispatcher(
        _exit_on_odd_trial_cell, processes=1, max_spawn_deaths=1,
        respawn_backoff=0.0,
    ) as dispatcher:
        count = dispatcher.run(
            iter(cells),
            lambda cell, res: results.__setitem__(
                cell.as_dict()["trial"], res.status
            ),
        )
    assert count == 5
    assert results == {
        0: "done", 1: "failed", 2: "done", 3: "failed", 4: "done",
    }


def test_delivered_result_resets_spawn_death_streak():
    """The streak counts *consecutive* fresh-spawn deaths: any
    delivered result resets it, so sporadic deaths below the threshold
    never accumulate into an abort."""
    # Worker 1 dies fresh (streak 1); worker 2 completes trial 1
    # (streak 0) then dies on trial 2 as an established worker (no
    # count); worker 3 completes the rest.  max_spawn_deaths=2 would
    # trip on two consecutive fresh deaths — which never happen here.
    def statuses():
        return [results[t] for t in sorted(results)]

    cells = list(SweepRunner(
        _exit_on_odd_trial_cell, base_seed=0
    ).cells(trial=[1, 0, 3, 2]))
    results = {}
    with CampaignDispatcher(
        _exit_on_odd_trial_cell, processes=1, max_spawn_deaths=2,
        respawn_backoff=0.0,
    ) as dispatcher:
        count = dispatcher.run(
            iter(cells),
            lambda cell, res: results.__setitem__(
                cell.as_dict()["trial"], res.status
            ),
        )
    assert count == 4
    assert statuses() == ["done", "failed", "done", "failed"]
