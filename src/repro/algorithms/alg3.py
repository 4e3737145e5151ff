"""Algorithm 3: anonymous consensus with a 0-AC detector, no contention
manager, and no ECF guarantee (§7.4).

Even when messages are *never* guaranteed to get through, collision
notifications still leak one bit per round: with zero completeness,
"somebody broadcast" is always visible (message or ``±``), and with
accuracy, "nobody broadcast" is too (Lemma 14 — all-or-nothing rounds).
Algorithm 3 spends four rounds per iteration navigating a balanced BST of
the value space on this one-bit channel:

* **vote-val**   — broadcast iff my initial value sits at the current node;
* **vote-left**  — broadcast iff my initial value is in the left subtree;
* **vote-right** — symmetric for the right subtree;
* **recurse**    — no broadcast; decide the node's value if vote-val was
  noisy, else descend toward a voting subtree (left first), else ascend.

All correct processes see identical navigation advice (Lemma 15) and so
move through the tree in lockstep (Lemma 16).  Termination is at most
``8·⌈lg|V|⌉`` rounds after failures cease (Theorem 3); a crash can strand
the group deep in the tree and force a full re-ascent, which the failure
benchmarks exercise.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.algorithm import ConsensusAlgorithm
from ..core.errors import ConfigurationError
from ..core.multiset import Multiset
from ..core.process import Process
from ..core.types import (
    COLLISION,
    CollisionAdvice,
    ContentionAdvice,
    Message,
    Value,
)
from .markers import VOTE
from .valuetree import TreeNode, ValueTree

VOTE_VAL = "vote-val"
VOTE_LEFT = "vote-left"
VOTE_RIGHT = "vote-right"
RECURSE = "recurse"

#: The four-phase cycle, in order.
PHASES: Tuple[str, ...] = (VOTE_VAL, VOTE_LEFT, VOTE_RIGHT, RECURSE)


class Alg3Process(Process):
    """One process of Algorithm 3.

    The phase schedule is a pure function of the local round count, so all
    processes cycle in lockstep.  ``nav`` accumulates the three vote
    rounds' observations — the paper's navigation advice (Definition 21).
    """

    def __init__(self, initial_value: Value, tree: ValueTree) -> None:
        super().__init__()
        self.tree = tree
        self.initial_value = initial_value
        # -1 for a value outside V, which then never votes.
        self._rank = tree.rank(initial_value)
        self.curr: TreeNode = tree.root
        self._phase_index = 0
        self._nav: List[bool] = [False, False, False]

    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        return PHASES[self._phase_index]

    def _votes_now(self) -> bool:
        """Does this process vote in the current phase (lines 7, 13, 19)?

        The current node's subtree holds ranks ``[lo, hi)`` and its own
        value has rank ``mid``.
        """
        rank, curr = self._rank, self.curr
        if self._phase_index == 0:  # vote-val
            return rank == curr.mid
        if self._phase_index == 1:  # vote-left
            return curr.lo <= rank < curr.mid
        if self._phase_index == 2:  # vote-right
            return curr.mid < rank < curr.hi
        return False

    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        # Algorithm 3 ignores contention advice entirely: it is designed
        # for NoCM environments (Section 7.4's discussion).
        return VOTE if self._votes_now() else None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        if self.phase != RECURSE:
            # Record msgs(j) / CD(j) for the recurse decision.
            heard = len(received) > 0 or cd_advice is COLLISION
            self._nav[self._phase_index] = heard
            self._phase_index += 1
            return

        # Recurse phase (lines 25-33).
        val_vote, left_vote, right_vote = self._nav
        if val_vote:
            self.decide(self.curr.value)
            self.halt()
        elif left_vote and self.curr.left is not None:
            self.curr = self.curr.left
        elif right_vote and self.curr.right is not None:
            self.curr = self.curr.right
        else:
            # No votes at all (possible only after a crash): ascend.  The
            # root's parent is itself, so this is total.
            self.curr = self.curr.parent
        self._nav = [False, False, False]
        self._phase_index = 0


def algorithm_3(values: Iterable[Value]) -> ConsensusAlgorithm:
    """The anonymous (E(0-AC, NoCM), V, NOCF)-consensus algorithm."""
    tree = ValueTree(values)
    return ConsensusAlgorithm.anonymous(
        lambda v: Alg3Process(v, tree), name="algorithm-3"
    )


def termination_bound(value_count: int, after_round: int = 0) -> int:
    """Theorem 3's bound: ``8·⌈lg|V|⌉`` rounds after failures cease.

    ``after_round`` anchors "failures cease"; with no crashes it is 0.
    The bound floors at one full 4-round cycle so the trivial ``|V| = 1``
    and ``|V| = 2`` cases stay meaningful.
    """
    if value_count < 1:
        raise ConfigurationError("value set must be non-empty")
    # The midpoint tree over |V| values has height floor(lg|V|).
    height = max(1, value_count.bit_length() - 1)
    return after_round + 8 * height + 4
