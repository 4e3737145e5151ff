"""The gated-numpy capability probe shared by every vectorised fast path.

The reproduction runs everywhere Python runs: numpy is an *optional*
accelerator, never a dependency.  Every vectorised branch in the code
base — ``IIDLoss``/``CaptureEffectLoss`` whole-round resolution, the
engine's array round kernel, array detector advice — gates on the same
probe defined here, so "is the fast path active?" has exactly one
answer per process:

* numpy importable and ``REPRO_PURE_PYTHON`` unset (or ``0``/``false``)
  → the probe returns the numpy module and every fast path is eligible;
* numpy missing, or ``REPRO_PURE_PYTHON`` set to a truthy value in the
  environment *before the interpreter starts* → the probe returns
  ``None`` and every consumer runs its pure-python reference path.

The environment variable exists so the pure-python reference paths can
be exercised on machines that *do* have numpy installed (CI runs a
dedicated no-numpy leg, but a local ``REPRO_PURE_PYTHON=1 pytest`` run
reproduces it without a second virtualenv).  It is read once, at import
time, so one process never runs half its paths on each backend.  The
seeded loss adversaries draw the same words on both backends, so the
choice changes speed, never an execution.

Tests that need to flip backends at runtime monkeypatch the consumer's
module-level ``_np`` binding instead (the convention established by
``repro.adversary.loss``), which scopes the flip to one consumer and
one test.
"""

from __future__ import annotations

import os

try:  # Optional acceleration; the pure-python paths are the reference.
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy is present in dev/CI
    _numpy = None

#: Truthy spellings accepted for ``REPRO_PURE_PYTHON``.
_TRUTHY = ("1", "true", "yes", "on")

_FORCED_PURE = os.environ.get("REPRO_PURE_PYTHON", "").strip().lower() in _TRUTHY


def numpy_or_none():
    """The numpy module every fast path should use, or ``None``.

    ``None`` means "run the pure-python reference path": either numpy is
    not importable, or the operator exported ``REPRO_PURE_PYTHON=1``
    before starting the process.
    """
    if _FORCED_PURE:
        return None
    return _numpy


class MessageInterner:
    """Per-execution payload -> small int code table.

    The array round kernel cannot put arbitrary hashable message
    payloads into int arrays, so it interns them: the first time a
    payload is seen it is assigned the next code, and the code stays
    stable for the rest of the execution.  ``payloads[code]`` recovers
    the payload.  Codes are dense (0..size-1), so a round's message
    histogram is one ``bincount`` over the senders' code array and a
    receiver's surviving multiset is one row of a (receivers x codes)
    count matrix.

    Payloads must be hashable — the same requirement :class:`Multiset`
    already imposes — and the table is append-only: an execution never
    un-interns, so codes from earlier rounds remain valid.
    """

    __slots__ = ("_codes", "payloads")

    def __init__(self) -> None:
        self._codes: dict = {}
        #: Code -> payload, in interning order (``payloads[c]`` is the
        #: payload assigned code ``c``).
        self.payloads: list = []

    def __len__(self) -> int:
        return len(self.payloads)

    def code(self, payload) -> int:
        """The (stable) code for ``payload``, interning it if new."""
        c = self._codes.get(payload)
        if c is None:
            c = self._codes[payload] = len(self.payloads)
            self.payloads.append(payload)
        return c

    def codes(self, payloads) -> list:
        """Bulk :meth:`code`: one int per element of ``payloads``."""
        get = self._codes.get
        table = self._codes
        pool = self.payloads
        out = []
        append = out.append
        for p in payloads:
            c = get(p)
            if c is None:
                c = table[p] = len(pool)
                pool.append(p)
            append(c)
        return out
