"""Checkpointing campaign runner: resumable sweep grids over sqlite.

:class:`~repro.experiments.harness.SweepRunner` fans a grid across
workers, but a large campaign run through it is all-or-nothing — a
crash, timeout, or CI cancellation throws away every completed cell.
:class:`CampaignRunner` wraps the same cell functions and seeding with
durable, cell-granular checkpoints in a single ``campaign.db``
(see :class:`~repro.core.records.SqliteSink`):

* **Checkpointing** — every finished cell is committed to the ``cells``
  table the moment it completes (in completion order, not submission
  order, under the pooled paths), keyed on its canonical coordinate tag,
  together with the per-round rows it returned (a
  :class:`~repro.experiments.dispatch.CellOutput`) in one transaction.
  This runner is the store's only writer: a cell never touches the
  store itself, so a timed-out, failed or killed attempt delivers no
  rounds, and ``round_summaries`` holds rows only for ``done`` cells.
  Killing the campaign at any point loses at most the cells still in
  flight on the workers.
* **Resume** — :meth:`CampaignRunner.resume` queries the store first and
  only runs cells that are not already checkpointed (``failed`` cells
  are retried while their attempt count is within the ``max_retries``
  budget; ``done`` and ``timed_out`` cells — and ``failed`` cells whose
  budget is exhausted — are skipped).  Resume is *idempotent*: with the
  same ``base_seed`` and the same grid, the merged outcomes — and the
  byte content of :meth:`report` — are identical whether the grid ran
  in one pass or across N interrupted passes, because every payload is
  canonically JSON-serialised on the way into the store and all merging
  reads back out of the store.
* **One dispatcher** — every configuration routes through
  :class:`~repro.experiments.dispatch.CampaignDispatcher`: a persistent
  pool of worker processes driven by a selector event loop over the
  worker pipes.  ``processes`` sets the pool width (``None`` = CPU
  count; ``0``/``1`` = a one-worker pool — still worker reuse, still
  deadlines, just no parallelism) and ``cell_timeout`` optionally arms
  one parent-tracked wall-clock deadline per in-flight cell.  A cell
  that exceeds its budget has its worker terminated (terminate→kill
  escalation, so a SIGTERM-ignoring cell cannot hang the grid) and
  **replaced**, keeping the pool at full width while the cell is
  checkpointed ``timed_out`` and the grid keeps moving; a worker that
  dies mid-cell checkpoints its cell ``failed`` the same way.  The pool
  is *persistent within one runner lifetime*: workers park on their
  pipes between ``resume()`` calls and are reused by the next pass
  (asserted by a worker-pid test), so a campaign loop does not pay a
  pool spin-up per pass.  Call :meth:`CampaignRunner.close` (or use
  the runner as a context manager) for the deterministic teardown;
  ``in_process=True`` is the debugger escape hatch that skips workers
  entirely (and cannot enforce timeouts).
* **Failure isolation** — a cell that raises is checkpointed as
  ``failed`` (with the exception's repr) and the campaign moves on;
  unlike ``SweepRunner.run``, one bad cell never aborts the grid.
  Each run increments the cell's ``attempts`` count; once a failed
  cell has been run ``1 + max_retries`` times it is left permanently
  ``failed`` — resume converges instead of re-crashing it forever.
* **Distributed sharding** — one grid, many hosts: :func:`shard_of`
  deterministically assigns every cell to one of K shards (SHA-256 of
  its canonical coordinate tag, mod K), :func:`shard_cells` streams a
  shard lazily into the dispatcher's iterator seam, and a runner
  constructed with ``shard_index``/``shard_count`` runs exactly its
  shard into its own WAL store with resume/retry/timeout semantics
  unchanged.  :func:`merge_campaign_stores` folds the K shard stores
  into one store whose :meth:`CampaignRunner.report` bytes equal an
  uninterrupted single-host run — and rejects mismatched base_seeds,
  overlapping shards, and missing shards loudly.  ``python -m repro
  campaign shard --index i --of k`` / ``campaign merge`` are the CLI
  face; ``docs/campaigns.md`` is the operator guide.

Seeds come from :func:`~repro.experiments.harness.cell_seed` over the
grid coordinates only.  Infrastructure parameters that must not perturb
seeding or cell identity (a sink directory) go in
``extra_params``: they are merged into the cell function's ``params`` at
execution time but excluded from the tag, the seed, and the report's
``params``, so two campaigns over the same grid agree cell-for-cell
even when their sink directories differ.  Byte-stable reports
additionally need the *payload* to be a deterministic function of
``(grid params, seed)`` — ``consensus_sweep_cell`` satisfies this under
``sink_dir`` (the payload records only the sink file's basename, never
the absolute path, so reports agree across machines).

Example::

    runner = CampaignRunner(
        consensus_sweep_cell, db_path="campaign.db", base_seed=7,
        processes=4, cell_timeout=30.0,
    )
    outcomes = runner.resume(
        n=[4, 16], detector=["0-OAC", "maj-OAC"], loss_rate=[0.1, 0.3],
        trial=range(5),
    )                       # first call: runs everything, 4 cells at a time
    outcomes = runner.resume(
        n=[4, 16], detector=["0-OAC", "maj-OAC"], loss_rate=[0.1, 0.3],
        trial=range(5),
    )                       # second call: all cells checkpointed, no work
    print(runner.report(n=[4, 16], ...))   # canonical JSON, byte-stable
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..adversary.loss import DRAWS
from ..core.errors import ConfigurationError
from ..core.records import SqliteSink
from ..testing import faultline
from .dispatch import CampaignDispatcher, CellResult
from .harness import SweepCell, SweepRunner, _canonical

#: Cell statuses a resume does not re-run.
SKIP_STATUSES: Tuple[str, ...] = ("done", "timed_out")

#: Cell statuses a resume retries (subject to the ``max_retries`` budget).
RETRY_STATUSES: Tuple[str, ...] = ("failed",)


def _check_draws(path: str, store: SqliteSink) -> Optional[int]:
    """Refuse a store whose cells came from another seeded-draw definition.

    ``campaign_meta`` key ``draws`` records the
    :data:`~repro.adversary.loss.DRAWS` version a store's cells were
    drawn under.  A store stamped with another version — or unstamped
    but already holding cells, which predate the key and so came from
    the old per-backend streams — would mix two executions of one seed.
    Returns the stored stamp (``None`` for an empty unstamped store).
    """
    stored = store.get_meta("draws")
    if stored == DRAWS or (stored is None and not store.cell_count()):
        return stored
    raise ConfigurationError(
        f"campaign db {path!r} has campaign_meta draws={stored!r}, but "
        f"this build draws seeded losses under draws={DRAWS} — its cells "
        "came from other random draws than the ones a resume would add; "
        "rerun the campaign into a fresh store"
    )


def cell_tag(cell: SweepCell) -> str:
    """The canonical, cross-run-stable identity of one grid cell.

    Built from the cell's sorted coordinates via the same value-based
    encoding that seeds it, so the tag is independent of grid order,
    worker scheduling, and which pass of a resumed campaign ran it.
    """
    return "|".join(f"{k}={_canonical(v)}" for k, v in cell.params)


def shard_of(tag: str, shard_count: int) -> int:
    """Which of ``shard_count`` hosts owns the cell with this tag.

    The stable hash of the cell's canonical coordinate tag, mod K —
    SHA-256, like :func:`~repro.experiments.harness.cell_seed`, so the
    assignment is identical in every process, on every platform, in
    every run (no ``PYTHONHASHSEED`` dependence), and independent of
    grid order.  Because the tag excludes ``extra_params`` (infra
    paths), the same cell maps to the same shard no matter where each
    host keeps its database.
    """
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}"
        )
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % shard_count


def shard_cells(
    cells: Iterable[SweepCell], shard_index: int, shard_count: int
) -> Iterator[SweepCell]:
    """Lazily yield the cells of one shard, in grid order.

    A generator, not a list: it plugs straight into
    :meth:`~repro.experiments.dispatch.CampaignDispatcher.run`'s lazy
    cell-source seam, so a shard host never materialises the other
    hosts' share of a multi-million-cell grid.  The K shards partition
    the grid — every cell appears in exactly one shard — which is what
    makes the merged store's :meth:`CampaignRunner.report` bytes equal
    a single-host run.
    """
    _validate_shard(shard_index, shard_count)
    for cell in cells:
        if shard_of(cell_tag(cell), shard_count) == shard_index:
            yield cell


def _validate_shard(shard_index: int, shard_count: int) -> None:
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}"
        )
    if not 0 <= shard_index < shard_count:
        raise ConfigurationError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )


def _payload_text(payload: Any) -> str:
    """Canonical JSON for a cell payload (sorted keys, str fallback)."""
    return json.dumps(payload, sort_keys=True, default=str)


def _params_text(cell: SweepCell) -> str:
    return json.dumps(dict(cell.params), sort_keys=True, default=str)


@dataclasses.dataclass(frozen=True)
class CampaignOutcome:
    """One checkpointed cell read back from the campaign store.

    ``payload`` is the JSON round-trip of what the cell function
    returned (``None`` unless ``status == "done"``): int dict keys
    become strings, tuples become lists — identical whether the cell ran
    in this pass or a previous one, which is what makes resumed reports
    byte-stable.  ``attempts`` counts how many times the cell has run
    in total (retries included).
    """

    cell: SweepCell
    status: str
    payload: Any = None
    error: Optional[str] = None
    attempts: int = 1

    @property
    def params(self) -> Dict[str, Any]:
        return self.cell.as_dict()


class CampaignRunner:
    """A resumable, checkpointing wrapper around the sweep machinery.

    Parameters
    ----------
    cell_fn:
        A picklable top-level callable ``fn(params, seed) -> payload``
        (the same contract as :class:`SweepRunner`); the payload must be
        JSON-serialisable up to ``str`` fallback.
    db_path:
        The campaign's sqlite store.  One database is one campaign:
        reusing a database with a different ``base_seed`` or a
        conflicting grid raises instead of silently mixing results.
    base_seed:
        Folded into every cell's deterministic seed.
    processes:
        Dispatcher pool width (``None`` picks the CPU count; ``0``/``1``
        mean a *one-worker pool*, not in-process execution — worker
        reuse and deadline enforcement are universal).  Fewer workers
        are spawned when the grid never keeps the full width busy.
    cell_timeout:
        Per-cell wall-clock budget in seconds, enforced at every pool
        width.  Overrunning cells have their worker terminated
        (terminate→kill escalation) and *replaced* while the cell is
        checkpointed ``timed_out`` and the grid keeps moving.  When
        worker processes are unavailable (sandboxed platforms), cells
        run in-process with a warning and the timeout is not enforced.
    in_process:
        Debug escape hatch (CLI ``--in-process``): run cells serially
        inside this process — no workers, no pickling, timeouts
        unenforced.  Reports are byte-identical to any pooled
        configuration of the same grid; this is the serial reference
        the parity suite compares against.
    max_retries:
        How many times a ``failed`` cell may be *re*-run by later
        resumes (default 2, i.e. at most ``1 + max_retries`` total
        attempts).  A cell that exhausts the budget stays ``failed``
        permanently and is skipped, so resuming a campaign with a
        deterministically-crashing cell converges instead of busy-work
        retrying forever.
    extra_params:
        Non-coordinate parameters merged into ``params`` at execution
        time only — excluded from seeding, cell identity, and reports.
    idle_hook:
        Optional callback invoked after every completed cell (passed
        through to the dispatcher) — the seam for serving live queries
        while a campaign runs.
    fault_plan:
        Optional :class:`~repro.testing.faultline.FaultPlan` threaded
        through the dispatcher and every store the runner opens.
        ``None`` falls back to the process-installed plan or the
        ``REPRO_FAULTLINE`` environment variable; no plan anywhere is
        the (cheap) common case.
    stall_timeout:
        Optional dispatcher stall watchdog in seconds: a busy worker
        silent for this long (no heartbeat) is killed and replaced and
        its cell checkpoints ``failed`` — retryable on resume — even
        with ``cell_timeout`` unset.  Slow-but-heartbeating cells are
        never touched.
    shard_index, shard_count:
        Distributed sharding: this runner owns shard ``shard_index`` of
        a grid split deterministically across ``shard_count`` hosts
        (:func:`shard_of` over each cell's canonical coordinate tag).
        Every grid operation — resume, outcomes, report — is scoped to
        the shard's cells, fed lazily to the dispatcher by
        :func:`shard_cells`.  The default ``0``/``1`` *is* the
        single-host campaign (one shard owning everything), so sharding
        adds no fourth code path.  The store is stamped with the shard
        spec (and ``base_seed``) on first use and every reopen
        validates it, so a shard database can never silently absorb
        another shard's — or an unsharded run's — cells.
    """

    def __init__(
        self,
        cell_fn: Callable[[Dict[str, Any], int], Any],
        db_path: str,
        base_seed: int = 0,
        processes: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        max_retries: int = 2,
        extra_params: Optional[Mapping[str, Any]] = None,
        in_process: bool = False,
        idle_hook: Optional[Callable[[], None]] = None,
        shard_index: int = 0,
        shard_count: int = 1,
        fault_plan: Optional["faultline.FaultPlan"] = None,
        stall_timeout: Optional[float] = None,
    ) -> None:
        self.cell_fn = cell_fn
        self.db_path = str(db_path)
        self.base_seed = base_seed
        self.processes = processes
        self.cell_timeout = cell_timeout
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.max_retries = int(max_retries)
        _validate_shard(shard_index, shard_count)
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.extra_params = dict(extra_params or {})
        self._sweep = SweepRunner(cell_fn, processes=processes,
                                  base_seed=base_seed)
        # The one dispatcher every configuration routes through.  Its
        # pool is persistent across resume() passes within one runner
        # lifetime (spawning a worker costs a fork plus a pipe, so
        # back-to-back resumes — the normal campaign loop — must not
        # pay it per pass); close() is the deterministic teardown.
        self._dispatcher = CampaignDispatcher(
            cell_fn,
            extra_params=self.extra_params,
            processes=processes,
            cell_timeout=cell_timeout,
            in_process=in_process,
            idle_hook=idle_hook,
            fault_plan=fault_plan,
            stall_timeout=stall_timeout,
        )
        # The dispatcher already resolved kwarg > installed > env; reuse
        # its answer so the runner's stores consult the same plan.
        self.fault_plan = self._dispatcher.fault_plan
        self.stall_timeout = self._dispatcher.stall_timeout
        #: Worker-reuse accounting for the most recent pass that ran
        #: cells: ``{"cells", "distinct_worker_pids", "in_process"}``
        #: (``None`` until a pass dispatches work).  Benchmarks publish
        #: this so a regression to spawn-per-cell is visible.
        self.last_dispatch_stats: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @property
    def dispatcher(self) -> CampaignDispatcher:
        """The runner's persistent dispatcher (one per runner lifetime)."""
        return self._dispatcher

    def close(self) -> None:
        """Deterministically tear down the dispatcher pool (idempotent).

        Every parked worker gets the shutdown sentinel, pipes are
        closed, and processes are joined within the grace period —
        terminate→kill for stragglers.  The runner remains usable
        afterwards: the next pass simply respawns its workers.
        """
        self._dispatcher.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def cells(self, **axes: Iterable[Any]) -> List[SweepCell]:
        """The seeded grid, scoped to this runner's shard (grid order).

        Shard 0/1 — the default — is the whole grid.  Cell indices and
        seeds always come from *full-grid* enumeration (the shard filter
        runs over the lazily streamed grid afterwards), so a cell's
        identity — tag, seed, index — is identical on every host
        regardless of how many shards the grid is split into.
        """
        stream = self._sweep.iter_cells(**axes)
        if self.shard_count == 1:
            return list(stream)
        return list(shard_cells(stream, self.shard_index, self.shard_count))

    # ------------------------------------------------------------------
    def run(
        self, max_cells: Optional[int] = None, **axes: Iterable[Any]
    ) -> List[CampaignOutcome]:
        """Launch (or continue) the campaign — an alias of :meth:`resume`.

        Launching and resuming are the same idempotent operation: run
        whatever the store does not already hold.
        """
        return self.resume(max_cells=max_cells, **axes)

    def resume(
        self, max_cells: Optional[int] = None, **axes: Iterable[Any]
    ) -> List[CampaignOutcome]:
        """Run every cell not already checkpointed; return merged outcomes.

        ``max_cells`` bounds how many *pending* cells this pass runs
        (the deterministic interruption used by tests and the CI resume
        smoke); the merged outcome list covers every cell present in the
        store after the pass, in grid order.
        """
        cells = self.cells(**axes)
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            existing = store.get_cells()
            pending = []
            prior_attempts: Dict[int, int] = {}
            for cell in cells:
                tag = cell_tag(cell)
                row = existing.get(tag)
                if row is not None:
                    if row["cell_seed"] != cell.seed:
                        raise ConfigurationError(
                            f"campaign db {self.db_path!r} holds cell "
                            f"{tag!r} with seed {row['cell_seed']}, but "
                            f"this grid derives seed {cell.seed} — the "
                            "store belongs to a different base_seed/grid"
                        )
                    if row["status"] in SKIP_STATUSES:
                        continue
                    if (row["status"] in RETRY_STATUSES
                            and row["attempts"] > self.max_retries):
                        # Retry budget exhausted: 1 + max_retries runs
                        # already happened; the cell stays failed
                        # permanently and resume converges.
                        continue
                    prior_attempts[cell.index] = row["attempts"]
                pending.append(cell)
            if max_cells is not None:
                pending = pending[:max_cells]
            if pending:
                self._run_pending(store, pending, prior_attempts)
            return self._merge(store, cells)

    # ------------------------------------------------------------------
    def _check_store_identity(self, store: SqliteSink) -> None:
        """Stamp (first use) or validate (reopen) the store's identity.

        One database is one (campaign, shard): its ``base_seed`` and
        shard spec are written into ``campaign_meta`` the first time a
        runner touches it and must match exactly on every later open —
        a shard store can never silently absorb another shard's cells,
        and an unsharded resume can never backfill a shard store into a
        corrupt "almost full" grid.  Stores that predate the metadata
        (or were produced by :func:`merge_campaign_stores`, which stamps
        shard 0/1) are stamped with the current spec in place.  The
        ``draws`` key is stamped on first use too, but an unstamped store
        that already holds cells is refused (see :func:`_check_draws`).
        """
        stored_draws = _check_draws(self.db_path, store)
        stored_seed = store.get_meta("base_seed")
        if stored_seed is not None and stored_seed != self.base_seed:
            raise ConfigurationError(
                f"campaign db {self.db_path!r} was created with "
                f"base_seed {stored_seed}, but this runner uses a "
                f"different base_seed {self.base_seed} — one store is "
                "one campaign"
            )
        mine = {"count": self.shard_count, "index": self.shard_index}
        stored_shard = store.get_meta("shard")
        if stored_shard is not None and stored_shard != mine:
            raise ConfigurationError(
                f"campaign db {self.db_path!r} belongs to shard "
                f"{stored_shard['index']}/{stored_shard['count']}, but "
                f"this runner is shard {self.shard_index}/"
                f"{self.shard_count} — one store is one shard; use "
                "merge_campaign_stores to combine shards instead of "
                "resuming across specs"
            )
        if stored_seed is None:
            store.set_meta("base_seed", self.base_seed)
        if stored_shard is None:
            store.set_meta("shard", mine)
        if stored_draws is None:
            store.set_meta("draws", DRAWS)

    # ------------------------------------------------------------------
    def _run_pending(
        self,
        store: SqliteSink,
        pending: Sequence[SweepCell],
        prior_attempts: Mapping[int, int],
    ) -> None:
        """Dispatch every pending cell and checkpoint in completion order.

        All of it — serial or parallel, with or without deadlines — is
        one :meth:`CampaignDispatcher.run` call.  ``pre_fork`` points at
        ``store.disconnect``: the dispatcher invokes it immediately
        before *every* worker spawn (first fill and replacements alike),
        which is the single place the "never fork with a live sqlite
        connection" invariant is enforced — checkpointing between
        completions reopens the store lazily.
        """
        attempts = {
            cell.index: prior_attempts.get(cell.index, 0) + 1
            for cell in pending
        }
        pids = set()

        def checkpoint(cell: SweepCell, result: CellResult) -> None:
            done = result.status == "done"
            store.record_cell(
                tag=cell_tag(cell),
                seed=cell.seed,
                index=cell.index,
                params_text=_params_text(cell),
                status=result.status,
                payload_text=_payload_text(result.payload) if done else None,
                error=result.error,
                elapsed=result.elapsed,
                attempts=attempts[cell.index],
                rounds=result.rounds,
            )
            if result.worker_pid is not None:
                pids.add(result.worker_pid)

        self._dispatcher.run(pending, checkpoint,
                             pre_fork=store.disconnect)
        self.last_dispatch_stats = {
            "cells": len(pending),
            "distinct_worker_pids": len(pids),
            "in_process": self._dispatcher.in_process,
        }

    # ------------------------------------------------------------------
    def _merge(
        self,
        store: SqliteSink,
        cells: Sequence[SweepCell],
        corrupt: Optional[List[int]] = None,
    ) -> List[CampaignOutcome]:
        """Grid-ordered outcomes for every cell present in the store.

        Reads *everything* back out of the store — including cells that
        just ran — so a payload always arrives through the same JSON
        round-trip regardless of which pass produced it.

        A stored payload that no longer parses as JSON (torn write,
        disk corruption) raises :class:`ConfigurationError` pointing at
        ``campaign verify``; pass a list as ``corrupt`` to instead
        collect the offending cell indices and skip those cells (the
        ``report(allow_partial=True)`` path).
        """
        rows = store.get_cells()
        merged = []
        for cell in cells:
            row = rows.get(cell_tag(cell))
            if row is None:
                continue  # interrupted before this cell ran
            if row["cell_seed"] != cell.seed:
                # Guard the read path too: a report over a store built
                # under a different base_seed must never attribute its
                # payloads to this grid's seeds.
                raise ConfigurationError(
                    f"campaign db {self.db_path!r} holds cell "
                    f"{cell_tag(cell)!r} with seed {row['cell_seed']}, "
                    f"but this grid derives seed {cell.seed} — the "
                    "store belongs to a different base_seed/grid"
                )
            payload = None
            if row["payload"] is not None:
                try:
                    payload = json.loads(row["payload"])
                except ValueError as exc:
                    if corrupt is None:
                        raise ConfigurationError(
                            f"campaign db {self.db_path!r} holds a "
                            f"corrupt payload for cell "
                            f"{cell_tag(cell)!r} ({exc}) — run `python "
                            "-m repro campaign verify --db ...` "
                            "(--quarantine demotes it for retry on the "
                            "next resume), or report with "
                            "allow_partial to skip it"
                        ) from exc
                    corrupt.append(cell.index)
                    continue
            merged.append(CampaignOutcome(
                cell=cell,
                status=row["status"],
                payload=payload,
                error=row["error"],
                attempts=row["attempts"],
            ))
        return merged

    def outcomes(self, **axes: Iterable[Any]) -> List[CampaignOutcome]:
        """Merged outcomes currently in the store, without running anything."""
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            return self._merge(store, self.cells(**axes))

    def report(
        self, allow_partial: bool = False, **axes: Iterable[Any]
    ) -> str:
        """A canonical JSON report of the campaign's merged outcomes.

        Byte-identical across any interrupt/resume/fault schedule of
        the same grid, provided every cell completes
        (``done``/``timed_out``): cell order is grid order, every
        payload went through the same canonical serialisation, and
        wall-clock noise (elapsed times) is excluded.  ``attempts``
        appears only on *failed* cells — how many retries a cell needed
        before succeeding is infrastructure noise (a worker crash, a
        transient lock), so surfacing it for ``done`` cells would make
        the report depend on the fault history it is defined to be
        independent of; an exhausted retry budget, by contrast, is a
        result, and stays visible.

        ``allow_partial=True`` degrades gracefully over an incomplete
        or damaged store: cells missing from the store or holding a
        corrupt payload are skipped and listed under a ``"partial"``
        key (omitted when there are no gaps, so a complete store
        reports identical bytes either way) instead of the default
        :class:`ConfigurationError` on corruption.
        """
        cells = self.cells(**axes)
        corrupt: Optional[List[int]] = [] if allow_partial else None
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            merged = self._merge(store, cells, corrupt=corrupt)
        entries = []
        for o in merged:
            entry: Dict[str, Any] = {
                "index": o.cell.index,
                "seed": o.cell.seed,
                "params": o.params,
                "status": o.status,
                "payload": o.payload,
                "error": o.error,
            }
            if o.status == "failed":
                entry["attempts"] = o.attempts
            entries.append(entry)
        doc: Dict[str, Any] = {
            "base_seed": self.base_seed,
            "cells": entries,
        }
        if allow_partial:
            present = {o.cell.index for o in merged}
            skipped = set(corrupt or ())
            missing = [
                c.index for c in cells
                if c.index not in present and c.index not in skipped
            ]
            if missing or corrupt:
                doc["partial"] = {
                    "missing": missing,
                    "corrupt": sorted(corrupt or ()),
                }
        return json.dumps(doc, sort_keys=True, default=str, indent=1)

    def report_table(self, **axes: Iterable[Any]) -> str:
        """An aligned-column table over the store's ``round_summaries``.

        One row per checkpointed cell, in grid order: the cell's
        canonical tag, status, attempt count, how many rounds the store
        holds for it, and the mean per-round broadcast count — the
        campaign-analytics view in its minimal useful form.  The
        per-cell aggregation happens inside sqlite
        (:meth:`~repro.core.records.SqliteSink.round_aggregates`), so
        the table costs one query however many rounds the store holds.
        Cells with no stored rounds — every non-``done`` cell, and
        ``done`` cells whose function returned no
        :class:`~repro.experiments.dispatch.CellOutput` — show ``-`` in
        both round columns (the engine calls observers under every
        record policy, so ``NONE``-policy cells keep their rounds).  A
        footer below a closing rule totals the cell counts per status
        and the attempts spent, so a glance at the last line answers
        "how did the campaign go" without scanning the rows.
        """
        cells = self.cells(**axes)
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            merged = self._merge(store, cells)
            aggregates = store.round_aggregates()
        headers = ("cell", "status", "attempts", "rounds", "mean_bcast")
        rows = []
        for outcome in merged:
            agg = aggregates.get(cell_tag(outcome.cell))
            rows.append((
                cell_tag(outcome.cell),
                outcome.status,
                str(outcome.attempts),
                str(agg[0]) if agg is not None else "-",
                f"{agg[1]:.2f}" if agg is not None else "-",
            ))
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in rows))
            if rows else len(headers[col])
            for col in range(len(headers))
        ]

        def fmt(row: Tuple[str, ...]) -> str:
            # The tag column is left-aligned prose; numbers and statuses
            # right-align so columns scan vertically.
            first = row[0].ljust(widths[0])
            rest = "  ".join(
                cell.rjust(widths[col + 1])
                for col, cell in enumerate(row[1:])
            )
            return f"{first}  {rest}".rstrip()

        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(row) for row in rows)
        counts = {}
        for outcome in merged:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        lines.append(fmt(tuple("-" * w for w in widths)))
        lines.append(
            f"{len(merged)} cells: {counts.get('done', 0)} done, "
            f"{counts.get('failed', 0)} failed, "
            f"{counts.get('timed_out', 0)} timed_out; "
            f"{sum(o.attempts for o in merged)} attempts"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shard merging: K shard stores -> one single-host-equivalent store
# ----------------------------------------------------------------------
def merge_campaign_stores(
    out_path: str,
    shard_paths: Sequence[str],
    force: bool = False,
) -> Dict[str, Any]:
    """Fold K shard stores into one store equal to a single-host run.

    Validates before copying a single row, and loudly — every rejection
    is a :class:`~repro.core.errors.ConfigurationError` naming exactly
    what disagrees:

    * every input must be a stamped campaign store (``base_seed`` plus
      shard spec in ``campaign_meta``) whose ``draws`` stamp is this
      build's :data:`~repro.adversary.loss.DRAWS` (an unstamped shard
      must hold no cells);
    * all shards must share one ``base_seed`` (different seeds are
      different campaigns whose cells merely look alike);
    * all shards must share one shard count K, carry indices inside
      ``[0, K)``, and cover **exactly** the set ``{0, …, K-1}`` — a
      duplicated index is an overlapping shard, an absent one a missing
      shard, and either would make the merged report silently diverge
      from the single-host truth;
    * row-level overlap (the same cell tag or ``(cell_tag, round)``
      key in two stores) aborts inside sqlite via
      :meth:`~repro.core.records.SqliteSink.merge_from`'s plain-INSERT
      discipline, as a belt-and-braces guard under the metadata checks.

    The merged store is stamped as shard ``0/1`` (plus a
    ``merged_from`` provenance key): it *is* a single-host store from
    that point on — :meth:`CampaignRunner.report` over it is
    byte-identical to an uninterrupted single-host run of the same
    grid, because every payload was canonically serialised on its way
    into its shard and cell identity (tag, seed, index) is derived from
    full-grid enumeration on every host.

    The merge is **atomic at the filesystem level**: rows are folded
    into a ``<out_path>.tmp`` sidecar, the WAL is checkpointed into it
    so it is one self-contained file, and only then does a single
    ``os.replace`` publish it as ``out_path``.  A merge killed at any
    instant — SIGKILL included — therefore leaves either no target at
    all or the complete merged store, never a half-written database;
    the deterministic sidecar name lets the next run (and this one's
    cleanup) sweep any stray ``.tmp`` remnants.

    ``out_path`` must not already exist unless ``force`` is set (the
    stale target plus its WAL sidecars are then removed first).
    Returns a summary dict (``base_seed``, ``shards``, ``cells``,
    ``path``).
    """
    if not shard_paths:
        raise ConfigurationError(
            "merge needs at least one shard store to fold"
        )
    if os.path.exists(out_path):
        if not force:
            raise ConfigurationError(
                f"merge target {out_path!r} already exists — merging "
                "into a live store would mix campaigns; pass "
                "force=True (CLI --force) to replace it"
            )
        for suffix in ("", "-wal", "-shm"):
            stale = out_path + suffix
            if os.path.exists(stale):
                os.remove(stale)

    infos: List[Dict[str, Any]] = []
    for path in shard_paths:
        if not os.path.exists(path):
            raise ConfigurationError(
                f"shard store {path!r} does not exist"
            )
        # Opening through SqliteSink also migrates legacy schemas in
        # place, so merge_from's column-for-column copy always sees the
        # current shape.
        with SqliteSink(path) as store:
            _check_draws(path, store)
            base_seed = store.get_meta("base_seed")
            shard = store.get_meta("shard")
            cells = store.cell_count()
        if base_seed is None or shard is None:
            raise ConfigurationError(
                f"{path!r} carries no campaign identity metadata — it "
                "is not a (post-sharding) campaign store; resume it "
                "once so it is stamped, then merge"
            )
        infos.append({
            "path": path, "base_seed": base_seed,
            "index": shard["index"], "count": shard["count"],
            "cells": cells,
        })

    base_seeds = sorted({info["base_seed"] for info in infos})
    if len(base_seeds) > 1:
        raise ConfigurationError(
            f"shard stores disagree on base_seed ({base_seeds}) — they "
            "are shards of different campaigns and must not be merged"
        )
    counts = sorted({info["count"] for info in infos})
    if len(counts) > 1:
        raise ConfigurationError(
            f"shard stores disagree on the shard count ({counts}) — "
            "a K-way merge needs K stores from one K-way split"
        )
    k = counts[0]
    owners: Dict[int, List[str]] = {}
    for info in infos:
        owners.setdefault(info["index"], []).append(info["path"])
    bad = sorted(i for i in owners if not 0 <= i < k)
    if bad:
        raise ConfigurationError(
            f"shard indices {bad} are outside [0, {k}) — the stores' "
            "metadata is inconsistent with their shard count"
        )
    overlapping = {i: paths for i, paths in owners.items()
                   if len(paths) > 1}
    if overlapping:
        raise ConfigurationError(
            f"overlapping shards: {overlapping} — the same shard index "
            "appears in more than one store, so their cells would "
            "collide (or worse, silently double)"
        )
    missing = sorted(set(range(k)) - set(owners))
    if missing:
        raise ConfigurationError(
            f"missing shard(s) {missing} of {k} — a merge over an "
            "incomplete shard set would report a partial grid as if it "
            "were the whole campaign"
        )

    total = 0
    plan = faultline.resolve(None)
    tmp_path = out_path + ".tmp"
    # A merge killed mid-flight leaves its sidecar behind under this
    # deterministic name; sweep any such remnant (WAL sidecars too)
    # before starting, so reruns never trip over a dead merge.
    for suffix in ("", "-wal", "-shm"):
        stale = tmp_path + suffix
        if os.path.exists(stale):
            os.remove(stale)
    try:
        with SqliteSink(tmp_path) as out:
            for info in sorted(infos, key=lambda i: i["index"]):
                if plan is not None:
                    action = plan.fire("merge", f"shard:{info['index']}")
                    if action is not None:
                        kind = action.get("kind")
                        if kind == "sleep":
                            time.sleep(
                                float(action.get("seconds", 0.05))
                            )
                        elif kind == "error":
                            raise ConfigurationError(
                                "injected merge failure at shard "
                                f"{info['index']}"
                            )
                total += out.merge_from(info["path"])
            out.set_meta("base_seed", base_seeds[0])
            out.set_meta("shard", {"count": 1, "index": 0})
            out.set_meta("merged_from", k)
            out.set_meta("draws", DRAWS)
            # Fold the WAL so the rename moves one complete database,
            # not a main file whose recent history lives in sidecars
            # os.replace would leave behind.
            out.fold_wal()
        os.replace(tmp_path, out_path)
    finally:
        for suffix in ("", "-wal", "-shm"):
            stray = tmp_path + suffix
            if os.path.exists(stray):
                os.remove(stray)
    return {
        "base_seed": base_seeds[0], "shards": k, "cells": total,
        "path": out_path,
    }
