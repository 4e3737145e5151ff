#!/usr/bin/env python3
"""The repository's benchmark: campaigns and the paper's algorithms, end
to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload e18-campaign --seed 7 --trace 0

One invocation measures one workload for ``--seconds`` (by default
``run_seconds`` of ``BENCHMARK.json``); ``baseline.py`` runs every
workload.  Workload and metric names and units are those of
``BENCHMARK.json``.

Workloads (``README.md`` lists grids, weights and reasons):

* ``e18-campaign`` -- the E18 consensus matrix through ``CampaignRunner``
  on the default pool (one worker per CPU) with per-round sqlite
  streaming, from a fresh store to ``report()`` + ``report_table()``;
* ``paper-engine`` -- Algorithms 1, 2 and 3 under their hypothesis
  bundles at n=64/256, |V|=1024, CST=40, in-process via ``run_consensus``;
* ``e19-churn`` -- the E19 churn grid with the same pool and store.

Every repetition starts a fresh interpreter (``child.py``), so set-up
time includes imports, planning, store open and pool spawn, as a CLI
invocation does.  Repetitions run back to back until ``--seconds`` is
used (at least three), and each end-to-end metric is their median.

``--trace 0`` reports the end-to-end metrics of untraced runs.
``--trace 1`` alternates an untraced run, a counting run and a traced
run (``tracer.py``), reports the per-layer metrics as medians over the
traced runs, and fails unless all three produce the same output digest
and the counting and traced runs the same ``kernel_rounds``.  The gap
between traced and untraced wall time is reported as
``trace.overhead_frac``.  The result line of a traced run carries every
per-layer metric; those the workload does not exercise
(``metrics.NOT_EXERCISED``) read 0 and are left out of the printed table.

Every repetition checks its outputs (see ``workloads.py``); a failed
check counts toward ``failed``, that repetition's timings are not used,
and the exit code is 1.  The same seed must give the same digest in every
repetition.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from metrics import exercised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_REPS = 3
#: A repetition that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT = 150.0


class RepFailed(Exception):
    """A repetition crashed, timed out or wrote no result."""


def run_child(workload: str, seed: int, mode: str, work: Path,
              tag: str) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and read its result."""
    rep = work / tag
    rep.mkdir()
    out = rep / "result.json"
    env = dict(os.environ, TMPDIR=str(rep), SQLITE_TMPDIR=str(rep))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work", str(rep),
           "--out", str(out)]
    launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} {mode} run exceeded {CHILD_TIMEOUT}s")
    finally:
        # Pool workers share the child's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.exists():
        raise RepFailed(
            f"{workload} {mode} run exited {proc.returncode}:\n"
            + stderr.decode(errors="replace")[-4000:]
        )
    result = json.loads(out.read_text())
    shutil.rmtree(rep, ignore_errors=True)
    result["mode"] = mode
    if mode != "warmup":
        result["setup_s"] = result["first_start"] - launch
        result["wall_s"] = result["end"] - launch
    return result


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> Dict[str, Any]:
    """Repeat one workload until ``seconds`` are used; aggregate."""
    run_child(workload, seed, "warmup", work, "warmup")
    cycle = ("plain", "count", "trace") if trace else ("plain",)
    deadline = time.monotonic() + seconds
    reps: List[Dict[str, Any]] = []
    longest = 0.0
    problems: List[str] = []
    while True:
        for mode in cycle:
            began = time.monotonic()
            try:
                rep = run_child(workload, seed, mode, work, f"rep-{len(reps)}")
            except RepFailed as exc:
                problems.append(str(exc))
                break
            longest = max(longest, time.monotonic() - began)
            reps.append(rep)
        if problems:
            break
        if (len(reps) >= MIN_REPS
                and time.monotonic() + longest * len(cycle) > deadline):
            break

    attempted = sum(r["attempted"] for r in reps) or 1
    failed = sum(r["failed"] for r in reps) + (attempted if problems else 0)
    for r in reps:
        problems.extend(r["problems"])
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"seed {seed} gave {len(digests)} different "
                        "output digests across repetitions")
        failed = attempted
    kernel = {r["kernel_rounds"] for r in reps if "kernel_rounds" in r}
    if len(kernel) > 1:
        problems.append(f"traced and counting runs disagree on "
                        f"kernel_rounds: {sorted(kernel)}")
        failed = attempted
    failed = min(failed, attempted)
    good = [r for r in reps if not r["failed"]]

    if trace:
        plain = [r for r in good if r["mode"] == "plain"]
        traced = [r for r in good if r["mode"] == "trace"]
        base = median([r["wall_s"] for r in plain])
        metrics = {}
        for name in PER_LAYER:
            if not exercised(workload, name):
                metrics[name] = 0.0
            elif name == "import.repro_s":
                metrics[name] = median([r["import_s"] for r in good])
            elif name == "trace.overhead_frac":
                metrics[name] = (median([r["wall_s"] for r in traced])
                                 / base - 1.0 if base else 0.0)
            elif name.startswith("algorithms.alg"):
                metrics[name] = median([r["per_algorithm"][name]
                                        for r in plain])
            else:
                metrics[name] = median([r["layers"][name] for r in traced])
        units = PER_LAYER
    else:
        metrics = {name: median([r[name] for r in good])
                   for name in END_TO_END}
        units = END_TO_END
    first = reps[0] if reps else {}
    return {
        "workload": workload,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "reps": len(reps),
        "digest": first.get("digest"),
        "kernel_rounds": next(iter(kernel), None),
        "host": {
            "python": platform.python_version(),
            "numpy": first.get("numpy"),
            "repro_pure_python": bool(os.environ.get("REPRO_PURE_PYTHON")),
            "nproc": os.cpu_count(),
            "pool_width": first.get("width"),
            "seed": seed,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    name = res["workload"]
    print(f"{name}: host {json.dumps(res['host'], sort_keys=True)}")
    print(f"{name}: {res['reps']} repetitions, digest {res['digest']}, "
          f"kernel_rounds {res['kernel_rounds']}")
    print(f"{name}: failed_frac = {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']}/{res['attempted']})")
    for metric, m in res["metrics"].items():
        if exercised(name, metric):
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    for problem in res["problems"]:
        print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
