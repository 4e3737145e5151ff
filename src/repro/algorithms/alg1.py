"""Algorithm 1: anonymous consensus with ECF and a maj-OAC detector (§7.1).

Two alternating phases:

* **proposal** (odd rounds) — every CM-``active`` process broadcasts its
  estimate; a listener that hears no collision and at least one value
  adopts the minimum value received;
* **veto** (even rounds) — any process that saw a collision or more than
  one distinct value in the proposal round broadcasts ``veto``; a process
  decides its estimate iff the veto round is completely quiet (no message,
  no collision) *and* it received exactly one distinct value in the
  proposal round.

Safety rests on majority completeness: no collision notification means a
strict majority of the proposal messages arrived, and majority sets
intersect, so a quiet veto round certifies a unique live estimate
(Lemma 5).  Termination is ``CST + 2`` (Theorem 1).  Deciding does not
halt a process: it keeps proposing its (now final) estimate whenever the
contention manager makes it active.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..core.multiset import Multiset
from ..core.process import Process
from ..core.algorithm import ConsensusAlgorithm
from ..core.types import (
    ACTIVE,
    COLLISION,
    CollisionAdvice,
    ContentionAdvice,
    Message,
    Value,
)
from .encoding import canonical_order
from .markers import VETO

PROPOSAL = "proposal"
VETO_PHASE = "veto"


class Alg1Process(Process):
    """One process of Algorithm 1 (the pseudocode, line for line).

    The pseudocode's per-round locals (``messages_i``, ``CD-advice_i``)
    persist across the phase pair, so the veto round can consult the
    preceding proposal round's observations; we keep them as instance
    attributes written in the proposal transition.
    """

    def __init__(self, initial_value: Value) -> None:
        super().__init__()
        self.estimate: Value = initial_value
        self.phase = PROPOSAL
        # Observations of the most recent proposal round (lines 8-9).
        self._proposal_values: FrozenSet = frozenset()
        self._proposal_cd: CollisionAdvice = CollisionAdvice.NULL

    # ------------------------------------------------------------------
    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        if self.phase == PROPOSAL:
            # Line 6-7: only CM-active processes propose.
            return self.estimate if cm_advice is ACTIVE else None
        # Line 14-15: veto regardless of CM advice.
        saw_trouble = (
            self._proposal_cd is COLLISION or len(self._proposal_values) > 1
        )
        return VETO if saw_trouble else None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        if self.phase == PROPOSAL:
            values = received.support()
            # Lines 10-11: adopt the minimum on a clean, non-empty round.
            if cd_advice is not COLLISION and values:
                self.estimate = canonical_order(values)[0]
            self._proposal_values = values
            self._proposal_cd = cd_advice
            self.phase = VETO_PHASE
        else:
            # Line 18: quiet veto round + unique proposal value => decide.
            # A decided process keeps running: Property 2 promises one
            # active process per round, not one *undecided* one, so the
            # wake-up service may keep choosing it, and Theorem 1's
            # CST + 2 needs it to propose when chosen.
            if (
                received.is_empty()
                and cd_advice is not COLLISION
                and len(self._proposal_values) == 1
            ):
                self.decide(self.estimate)
            self.phase = PROPOSAL


def algorithm_1() -> ConsensusAlgorithm:
    """The anonymous (E(maj-OAC, WS), V, ECF)-consensus algorithm."""
    return ConsensusAlgorithm.anonymous(Alg1Process, name="algorithm-1")


def termination_bound(cst: int) -> int:
    """Theorem 1's termination round: ``CST + 2``."""
    return cst + 2
