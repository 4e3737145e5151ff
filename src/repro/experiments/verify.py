"""Self-healing campaign stores: integrity audit plus quarantine.

A campaign store is the durable half of the resume contract — if its
rows rot (torn writes, disk faults, a stray editor), resume and report
inherit the rot.  :func:`verify_campaign_store` audits one store from
first principles and, with ``quarantine=True``, demotes or removes the
damage so that a subsequent ``resume`` + ``report`` converges back to
the clean reference bytes:

* ``PRAGMA integrity_check`` — the database file itself;
* schema validation — the three campaign tables with the exact column
  sets the current code writes;
* metadata validation — the ``base_seed`` stamp and shard spec shape;
* per-cell validation — a legal status, a parseable payload for every
  ``done`` cell, a sane attempts count, and **re-derived identity**:
  the row's coordinate tag and seed are recomputed from its stored
  params (via the same canonical encoding and SHA-256 derivation that
  created them) and must match the row exactly;
* round hygiene — ``round_summaries`` rows filed under a tag that is
  not a ``done`` cell (the campaign runner writes rounds only with a
  ``done`` checkpoint, so such rows are orphans).

Quarantine actions are deliberately conservative:

* a cell whose *content* is damaged (bad status, missing or corrupt
  payload, bad attempts) is **demoted** to ``failed`` with
  ``attempts=0`` and its rounds cleared — the next resume re-runs it
  as if it had simply failed, and because the re-run is attempt 1, the
  eventual report is byte-identical to a never-corrupted run;
* a cell whose *identity* is damaged (tag/seed/params disagree) cannot
  be trusted at all and is **deleted** outright — the next resume sees
  a gap and fills it;
* orphaned rounds are deleted.

The CLI face is ``python -m repro campaign verify --db PATH
[--quarantine]`` (exit 0 when the store is clean, 1 when findings were
reported).  ``docs/failure-modes.md`` maps each finding to its operator
action.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, List, Optional

from ..core.errors import ConfigurationError
from .harness import _canonical, cell_seed as derive_cell_seed

#: The only statuses the campaign layer ever writes.
VALID_STATUSES = ("done", "failed", "timed_out")

#: table -> required columns, matching ``_CAMPAIGN_SCHEMA``.
_REQUIRED_SCHEMA: Dict[str, tuple] = {
    "cells": (
        "cell_tag", "cell_seed", "cell_index", "params", "status",
        "payload", "error", "elapsed", "attempts",
    ),
    "round_summaries": (
        "cell_tag", "round", "broadcast_count", "crashed_during",
        "decided_during",
    ),
    "campaign_meta": ("key", "value"),
}

#: Error text stamped on demoted cells (deterministic — it can reach a
#: report only while the cell is still failed, and a resume overwrites
#: it either way).
_QUARANTINE_ERROR = "quarantined by campaign verify"


def _tag_from_params(params: Dict[str, Any]) -> str:
    return "|".join(
        f"{k}={_canonical(v)}" for k, v in sorted(params.items())
    )


def verify_campaign_store(
    db_path: str, quarantine: bool = False
) -> Dict[str, Any]:
    """Audit one campaign store; optionally quarantine what is broken.

    Returns a summary dict::

        {
            "path": db_path,
            "cells": <row count>,
            "ok": <no findings>,
            "findings": [
                {"kind": ..., "cell_tag": ..., "detail": ...,
                 "action": <quarantine action or "report-only">},
                ...
            ],
            "quarantined": <number of actions applied>,
        }

    Findings are detected in full before any quarantine action runs, so
    the finding list is identical with and without ``quarantine`` on
    the same store.  The connection is opened raw — *not* through
    :class:`~repro.core.records.SqliteSink` — because the sink's lazy
    schema bootstrap would silently repair exactly the damage this
    function exists to report.
    """
    if not os.path.exists(db_path):
        raise ConfigurationError(
            f"campaign store {db_path!r} does not exist — nothing to "
            "verify"
        )
    findings: List[Dict[str, Any]] = []
    conn = sqlite3.connect(db_path)
    try:
        try:
            integrity = conn.execute(
                "PRAGMA integrity_check"
            ).fetchone()[0]
        except sqlite3.DatabaseError as exc:
            findings.append({
                "kind": "integrity",
                "detail": f"not a database: {exc}",
                "action": "report-only",
            })
            return _summary(db_path, 0, findings, 0)
        if integrity != "ok":
            findings.append({
                "kind": "integrity",
                "detail": integrity,
                "action": "report-only",
            })
            return _summary(db_path, 0, findings, 0)

        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        schema_ok = True
        for table, columns in _REQUIRED_SCHEMA.items():
            if table not in tables:
                schema_ok = False
                findings.append({
                    "kind": "schema",
                    "detail": f"missing table {table!r}",
                    "action": "report-only",
                })
                continue
            present = {
                row[1] for row in conn.execute(
                    f"PRAGMA table_info({table})"
                )
            }
            absent = [c for c in columns if c not in present]
            if absent:
                schema_ok = False
                findings.append({
                    "kind": "schema",
                    "detail": f"table {table!r} lacks columns {absent}",
                    "action": "report-only",
                })
        if not schema_ok:
            # Row-level checks against a wrong shape would themselves
            # error; schema damage is strictly report-only.
            return _summary(db_path, 0, findings, 0)

        base_seed = _read_meta(conn, "base_seed")
        if base_seed is None:
            findings.append({
                "kind": "meta",
                "detail": (
                    "no base_seed stamp — the store is unstamped or its "
                    "campaign_meta was lost; cell seeds cannot be "
                    "re-derived"
                ),
                "action": "report-only",
            })
        shard = _read_meta(conn, "shard")
        if shard is not None and (
            not isinstance(shard, dict)
            or not isinstance(shard.get("count"), int)
            or not isinstance(shard.get("index"), int)
        ):
            findings.append({
                "kind": "meta",
                "detail": f"malformed shard spec {shard!r}",
                "action": "report-only",
            })

        rows = conn.execute(
            "SELECT cell_tag, cell_seed, cell_index, params, status, "
            "payload, attempts FROM cells"
        ).fetchall()
        demote: List[str] = []   # tags
        delete: List[str] = []   # tags
        for tag, seed, index, params_text, status, payload, attempts \
                in rows:
            cell_findings: List[Dict[str, Any]] = []
            identity_bad = False
            try:
                params = json.loads(params_text)
                if not isinstance(params, dict):
                    raise ValueError("params is not a JSON object")
            except ValueError as exc:
                identity_bad = True
                cell_findings.append({
                    "kind": "cell-identity",
                    "cell_tag": tag,
                    "detail": f"unparseable params ({exc})",
                })
            else:
                derived_tag = _tag_from_params(params)
                if derived_tag != tag:
                    identity_bad = True
                    cell_findings.append({
                        "kind": "cell-identity",
                        "cell_tag": tag,
                        "detail": (
                            "stored tag does not match its params "
                            f"(re-derived {derived_tag!r})"
                        ),
                    })
                elif base_seed is not None:
                    derived_seed = derive_cell_seed(base_seed, **params)
                    if derived_seed != seed:
                        identity_bad = True
                        cell_findings.append({
                            "kind": "cell-identity",
                            "cell_tag": tag,
                            "detail": (
                                f"stored seed {seed} does not match "
                                f"re-derived seed {derived_seed}"
                            ),
                        })
            if status not in VALID_STATUSES:
                cell_findings.append({
                    "kind": "cell-status",
                    "cell_tag": tag,
                    "detail": (
                        f"illegal status {status!r} (expected one of "
                        f"{list(VALID_STATUSES)})"
                    ),
                })
            elif status == "done":
                if payload is None:
                    cell_findings.append({
                        "kind": "cell-payload",
                        "cell_tag": tag,
                        "detail": "done cell with no payload",
                    })
                else:
                    try:
                        json.loads(payload)
                    except ValueError as exc:
                        cell_findings.append({
                            "kind": "cell-payload",
                            "cell_tag": tag,
                            "detail": f"corrupt payload ({exc})",
                        })
            if not isinstance(attempts, int) or attempts < 0:
                cell_findings.append({
                    "kind": "cell-attempts",
                    "cell_tag": tag,
                    "detail": f"illegal attempts count {attempts!r}",
                })
            if not cell_findings:
                continue
            action = "delete-cell" if identity_bad else "demote-cell"
            for finding in cell_findings:
                finding["action"] = (
                    action if quarantine else "report-only"
                )
                findings.append(finding)
            (delete if identity_bad else demote).append(tag)

        orphan_tags = [
            row[0] for row in conn.execute(
                "SELECT DISTINCT cell_tag FROM round_summaries "
                "WHERE cell_tag NOT IN "
                "(SELECT cell_tag FROM cells WHERE status = 'done') "
                "ORDER BY cell_tag"
            )
        ]
        for tag in orphan_tags:
            findings.append({
                "kind": "orphan-rounds",
                "cell_tag": tag,
                "detail": (
                    "round_summaries rows filed under a tag that is not "
                    "a done cell"
                ),
                "action": "delete-rounds" if quarantine
                else "report-only",
            })

        quarantined = 0
        if quarantine:
            for tag in demote:
                conn.execute(
                    "UPDATE cells SET status='failed', payload=NULL, "
                    "error=?, attempts=0 WHERE cell_tag=?",
                    (_QUARANTINE_ERROR, tag),
                )
            for tag in delete:
                conn.execute(
                    "DELETE FROM cells WHERE cell_tag=?", (tag,)
                )
            # Demoted and deleted cells are no longer done, so this one
            # statement clears their rounds along with the orphans.
            conn.execute(
                "DELETE FROM round_summaries WHERE cell_tag NOT IN "
                "(SELECT cell_tag FROM cells WHERE status = 'done')"
            )
            quarantined = len(demote) + len(delete) + len(orphan_tags)
            conn.commit()
        return _summary(db_path, len(rows), findings, quarantined)
    finally:
        conn.close()


def _read_meta(conn: sqlite3.Connection, key: str) -> Any:
    row = conn.execute(
        "SELECT value FROM campaign_meta WHERE key=?", (key,)
    ).fetchone()
    if row is None:
        return None
    try:
        return json.loads(row[0])
    except ValueError:
        return None


def _summary(
    path: str,
    cells: int,
    findings: List[Dict[str, Any]],
    quarantined: int,
) -> Dict[str, Any]:
    return {
        "path": path,
        "cells": cells,
        "ok": not findings,
        "findings": findings,
        "quarantined": quarantined,
    }


def format_findings(summary: Dict[str, Any]) -> str:
    """Human-readable, deterministic rendering of a verify summary."""
    lines = [
        f"verify {summary['path']}: {summary['cells']} cells, "
        f"{len(summary['findings'])} finding(s), "
        f"{summary['quarantined']} quarantined"
    ]
    for finding in summary["findings"]:
        where = finding.get("cell_tag", "-")
        lines.append(
            f"  [{finding['kind']}] {where}: {finding['detail']} "
            f"-> {finding['action']}"
        )
    if summary["ok"]:
        lines.append("  store is clean")
    return "\n".join(lines)
