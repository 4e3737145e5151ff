"""Layer spans for the benchmark, attached from outside the program.

The tracer never edits, subclasses or patches a class of the program.
It rebinds one module attribute, ``repro.core.execution.ExecutionEngine``,
to a factory that builds the genuine engine (``run_consensus`` looks the
name up at call time), and then shadows *bound methods on instances*:
the engine's ``step``/``run`` and the environment's adversaries,
contention manager and detector.  Class-level gates such as
``type(self).advise is ...`` and ``_trusted_transition_array`` see the
unmodified classes, so the array kernel takes exactly the rounds it
takes untraced -- the benchmark checks this by comparing
``kernel_rounds`` and the output digest against an untraced run.

Modes:

* ``count`` registers engines only, to read ``rounds`` and
  ``kernel_rounds`` after each execution (no spans);
* ``trace`` also records the phase spans of every round.

Phases are the engine's documented steps, in step order.  Six are
method calls on environment objects and are timed directly; two are
inline loops of ``step()`` and are timed as the interval between the
calls around them:

* ``algorithms.message`` -- from the end of ``contention.advise`` to the
  start of ``adversary.loss.resolve`` (every ``msg_A`` call);
* ``algorithms.transition`` -- from the end of ``detectors.advise`` to
  the start of ``contention.observe`` (per-process or batched
  transitions, crash and departure commits).

``core.execution.self`` is step time outside every phase: receive
multisets, message interning, loss validation, round records.  Only the
outermost span is recorded when wrapped calls nest (a multihop layer is
both loss adversary and detector), so phase times never overlap.
``core.records.observer`` times the per-round observer that
``ExecutionEngine.run`` calls after each step; when it is a
``SqliteSink`` the same calls also count as ``core.records.round_write``.

Pooled campaigns run :func:`traced_cell` as their cell function.  It
reads its settings from the ``perfbench.trace`` entry of
``extra_params`` (excluded from cell identity, seeds and reports), runs
the real cell function, returns its payload untouched and appends one
JSON line per cell to ``worker-<pid>.jsonl`` in the trace directory.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional

import repro.core.execution as _execution
from repro.core.records import SqliteSink

from metrics import PHASES

_REAL_ENGINE = _execution.ExecutionEngine

#: (environment attribute, method name, phase) for the timed calls.
_CALLS = (
    ("churn", "events", "adversary.churn.events"),
    ("crash", "crashes", "adversary.crash.crashes"),
    ("contention", "advise", "contention.advise"),
    ("loss", "losses_for_round", "adversary.loss.resolve"),
    ("detector", "advise_array", "detectors.advise"),
    ("detector", "advise", "detectors.advise"),
    ("contention", "observe", "contention.observe"),
)

_clock = time.perf_counter


class Tracer:
    """Collects engine counts (and, in ``trace`` mode, phase spans)."""

    def __init__(self, mode: str) -> None:
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self._engines: List[Any] = []
        self._active: Optional[str] = None
        # Start/end of each timed call in the current step.
        self._marks: Dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything harvested so far."""
        self.rounds = 0
        self.kernel_rounds = 0
        self.span_s: Dict[str, float] = defaultdict(float)
        self.span_calls: Dict[str, int] = defaultdict(int)
        self.step_s: List[float] = []
        self.write_s = 0.0
        self.writes = 0

    # -- installation --------------------------------------------------
    def install(self) -> None:
        _execution.ExecutionEngine = self._make_engine

    def uninstall(self) -> None:
        _execution.ExecutionEngine = _REAL_ENGINE

    def _make_engine(self, environment, processes, *args, **kwargs):
        engine = _REAL_ENGINE(environment, processes, *args, **kwargs)
        self._engines.append(engine)
        if self.mode == "trace":
            self._attach(engine)
        return engine

    def harvest(self) -> None:
        """Fold the counters of finished engines into the totals."""
        for engine in self._engines:
            self.rounds += engine.round
            self.kernel_rounds += engine.kernel_rounds
        self._engines.clear()

    # -- spans -----------------------------------------------------------
    def _attach(self, engine) -> None:
        env = engine.environment
        for role, method, phase in _CALLS:
            self._wrap_call(getattr(env, role), method, phase)
        self._wrap_step(engine)
        self._wrap_run(engine)

    def _wrap_call(self, obj, method: str, phase: str) -> None:
        if method in vars(obj):
            return  # this instance is already traced
        inner = getattr(obj, method)
        marks = self._marks

        def span(*args, **kwargs):
            if self._active is not None:
                return inner(*args, **kwargs)
            self._active = phase
            start = _clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = _clock()
                self._active = None
                self.span_s[phase] += end - start
                self.span_calls[phase] += 1
                marks[phase + ".start"] = start
                marks[phase + ".end"] = end

        setattr(obj, method, span)

    def _wrap_step(self, engine) -> None:
        inner = engine.step
        marks = self._marks

        def step():
            marks.clear()
            start = _clock()
            artifact = inner()
            self.step_s.append(_clock() - start)
            self._gap("algorithms.message", "contention.advise.end",
                      "adversary.loss.resolve.start")
            self._gap("algorithms.transition", "detectors.advise.end",
                      "contention.observe.start")
            return artifact

        engine.step = step

    def _gap(self, phase: str, after: str, before: str) -> None:
        start = self._marks.get(after)
        end = self._marks.get(before)
        if start is not None and end is not None:
            self.span_s[phase] += end - start
            self.span_calls[phase] += 1

    def _wrap_run(self, engine) -> None:
        inner = engine.run

        def run(max_rounds, until_all_decided=True, observer=None):
            if observer is not None:
                observer = self._timed_observer(observer)
            return inner(max_rounds, until_all_decided=until_all_decided,
                         observer=observer)

        engine.run = run

    def _timed_observer(self, observer):
        is_store = isinstance(observer, SqliteSink)
        phase = "core.records.observer"

        def observe(artifact):
            start = _clock()
            observer(artifact)
            elapsed = _clock() - start
            self.span_s[phase] += elapsed
            self.span_calls[phase] += 1
            if is_store:
                self.write_s += elapsed
                self.writes += 1

        return observe

    # -- export ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything harvested so far, as a JSON-ready dict."""
        self.harvest()
        return {
            "rounds": self.rounds,
            "kernel_rounds": self.kernel_rounds,
            "spans": {p: [self.span_s[p], self.span_calls[p]]
                      for p in PHASES if self.span_calls[p]},
            "step_s": list(self.step_s),
            "write_s": self.write_s,
            "writes": self.writes,
        }


def merge_snapshots(snapshots) -> Dict[str, Any]:
    """Sum a sequence of :meth:`Tracer.snapshot` dicts into one."""
    total: Dict[str, Any] = {
        "rounds": 0, "kernel_rounds": 0, "spans": {},
        "step_s": [], "write_s": 0.0, "writes": 0,
    }
    for snap in snapshots:
        for key in ("rounds", "kernel_rounds", "write_s", "writes"):
            total[key] += snap[key]
        total["step_s"].extend(snap["step_s"])
        for phase, (seconds, calls) in snap["spans"].items():
            acc = total["spans"].setdefault(phase, [0.0, 0])
            acc[0] += seconds
            acc[1] += calls
    return total


# -- pooled campaigns --------------------------------------------------------
#: The worker process's tracer.  The dispatcher calls a cell function
#: with ``(params, seed)`` only, so the tracer that must outlive one
#: cell lives here, one per worker process.
_worker_tracer: Optional[Tracer] = None


def traced_cell(params: Dict[str, Any], seed: int) -> Any:
    """Cell function for traced or counted campaign runs.

    ``params["perfbench.trace"]`` holds ``{"cell": "module:function",
    "mode": "count"|"trace", "dir": <trace directory>}``.  The entry is
    removed before the real cell function sees ``params``, so the cell
    runs on exactly the parameters an untraced campaign passes it.
    """
    global _worker_tracer
    params = dict(params)
    settings = params.pop("perfbench.trace")
    module, name = settings["cell"].split(":")
    cell_fn = getattr(importlib.import_module(module), name)
    if _worker_tracer is None:
        _worker_tracer = Tracer(settings["mode"])
        _worker_tracer.install()
    tracer = _worker_tracer
    tracer.reset()
    start = time.monotonic()
    payload = cell_fn(params, seed)
    end = time.monotonic()
    record = tracer.snapshot()
    record.update(pid=os.getpid(), start=start, end=end)
    path = os.path.join(settings["dir"], f"worker-{os.getpid()}.jsonl")
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return payload
