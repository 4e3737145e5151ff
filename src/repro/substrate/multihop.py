"""A multihop extension of the model (the conclusion's future work).

The paper's model is single-hop; its conclusion announces the plan to
"extend our formal model to describe a multihop network" and revisit
problems like reliable broadcast there.  This module provides that
extension as a substrate:

* :class:`MultihopNetwork` — an undirected connectivity graph (built on
  :mod:`networkx`); processes hear only graph neighbours;
* :class:`MultihopLayer` — one object serving both engine roles, like
  the physical layer: as a loss adversary it drops every message from a
  non-neighbour (plus an optional inner adversary within the
  neighbourhood); as a collision detector it applies the completeness /
  accuracy obligations *per neighbourhood* — ``c_i`` is the number of
  broadcasting neighbours of ``i`` (self included), which is the natural
  multihop reading of Definition 6;
* :func:`flood` — the broadcast problem (Bar-Yehuda et al. [7], the
  paper's flagship related problem): a source floods a message; we
  measure rounds until full coverage under two relay strategies, showing
  the contention collapse of blind flooding and the recovery via
  randomized backoff — the behaviour that motivates the whole
  total-collision-model critique of Section 1.2.
"""

from __future__ import annotations

import dataclasses
import random
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Set

import networkx as nx

from ..adversary.loss import ArrayRoundLosses, LossAdversary, as_round_losses
from ..core.arrays import numpy_or_none
from ..core.errors import ConfigurationError
from ..core.types import CollisionAdvice, ProcessId
from ..detectors.detector import CollisionDetector
from ..detectors.policy import BenignPolicy, DetectorPolicy
from ..detectors.properties import (
    AccuracyMode,
    Completeness,
    accuracy_active,
    must_report_collision,
    must_report_null,
)

_np = numpy_or_none()


class MultihopNetwork:
    """An undirected connectivity graph over process indices."""

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("the network needs at least one node")
        if not nx.is_connected(graph):
            raise ConfigurationError("the network must be connected")
        self.graph = graph

    # -- canned topologies ------------------------------------------------
    @classmethod
    def line(cls, n: int) -> "MultihopNetwork":
        """A path of ``n`` nodes: diameter ``n - 1``."""
        return cls(nx.path_graph(n))

    @classmethod
    def grid(cls, width: int, height: int) -> "MultihopNetwork":
        """A ``width x height`` grid, relabelled to integer indices."""
        grid = nx.grid_2d_graph(width, height)
        return cls(nx.convert_node_labels_to_integers(grid))

    @classmethod
    def clique_chain(cls, cliques: int, size: int) -> "MultihopNetwork":
        """A chain of single-hop cliques bridged by shared nodes."""
        graph = nx.Graph()
        for c in range(cliques):
            members = range(c * (size - 1), c * (size - 1) + size)
            for a in members:
                for b in members:
                    if a < b:
                        graph.add_edge(a, b)
        return cls(graph)

    @classmethod
    def ring(
        cls, n: int, successors: int = 1, fingers: bool = True
    ) -> "MultihopNetwork":
        """A Chord-style ring overlay: successor lists plus finger tables.

        Every node ``i`` is linked to its ``successors`` clockwise
        neighbours ``i+1 .. i+s (mod n)`` — the successor list that keeps
        the ring connected under churn — and, when ``fingers`` is true,
        to the power-of-two fingers ``i + 2^k (mod n)`` for ``2^k < n``,
        which cut the diameter from ``O(n)`` to ``O(log n)``.  The graph
        is undirected, so predecessor links come for free.
        """
        if n < 2:
            raise ConfigurationError("a ring needs at least two nodes")
        if not 1 <= successors < n:
            raise ConfigurationError(
                f"successors must be in [1, n); got {successors} for n={n}"
            )
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        for i in range(n):
            for s in range(1, successors + 1):
                graph.add_edge(i, (i + s) % n)
            if fingers:
                span = 2
                while span < n:
                    graph.add_edge(i, (i + span) % n)
                    span *= 2
        return cls(graph)

    @classmethod
    def random_geometric(
        cls, n: int, radius: float, seed: int = 0
    ) -> "MultihopNetwork":
        """A random geometric graph, regenerated until connected."""
        for attempt in range(100):
            graph = nx.random_geometric_graph(
                n, radius, seed=seed + attempt
            )
            if nx.is_connected(graph):
                return cls(graph)
        raise ConfigurationError(
            f"no connected geometric graph at n={n}, radius={radius}"
        )

    # -- queries -----------------------------------------------------------
    @property
    def indices(self) -> Sequence[ProcessId]:
        return tuple(sorted(self.graph.nodes))

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def diameter(self) -> int:
        return nx.diameter(self.graph)

    def neighbors(self, pid: ProcessId) -> Set[ProcessId]:
        return set(self.graph.neighbors(pid))

    def closed_neighborhood(self, pid: ProcessId) -> Set[ProcessId]:
        return self.neighbors(pid) | {pid}


def _group_sets(
    groups: Dict[tuple, List[ProcessId]],
    inner_maps: Dict[tuple, ArrayRoundLosses],
    senders_fs: frozenset,
) -> Dict[ProcessId, AbstractSet[ProcessId]]:
    """Drop sets of one round: each group's cross set plus its inner drops."""
    out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
    for local, members in groups.items():
        cross = senders_fs - frozenset(local)
        inner_map = inner_maps.get(local)
        for pid in members:
            inner_lost = inner_map[pid] if inner_map is not None else None
            out[pid] = cross | inner_lost if inner_lost else cross
    return out


class MultihopLayer(LossAdversary, CollisionDetector):
    """Topology-aware loss plus neighbourhood-local collision detection.

    The same object must be installed as both the environment's loss
    adversary and its detector: the detector needs this round's sender
    set (recorded by the loss path) to compute per-neighbourhood counts.
    """

    def __init__(
        self,
        network: MultihopNetwork,
        inner: Optional[LossAdversary] = None,
        completeness: Completeness = Completeness.FULL,
        accuracy: AccuracyMode = AccuracyMode.ALWAYS,
        r_acc: Optional[int] = None,
        policy: Optional[DetectorPolicy] = None,
    ) -> None:
        self.network = network
        self.inner = inner
        self.completeness = completeness
        self.accuracy = accuracy
        self.r_acc = r_acc
        self.policy = policy or BenignPolicy()
        self._senders_by_round: Dict[int, Sequence[ProcessId]] = {}
        # Closed-neighbourhood incidence matrix + index positions, built
        # lazily per index tuple for the array advice path.
        self._nbhd_cache: Optional[tuple] = None

    # -- LossAdversary ------------------------------------------------------
    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        """Whole-round resolution: one inner delegation per neighbourhood.

        Receivers whose closed neighbourhoods see the *same* local sender
        list share both the cross-neighbourhood drop set (``senders``
        minus the local ones — receiver-independent, so one frozenset per
        group) and a single batched call into the inner adversary.  On
        uniform topologies (cliques, dense grids) this collapses the
        per-receiver work to a handful of group-level resolutions per
        round.

        Per-receiver drop counts come from the group sizes (``|cross|``
        plus the inner adversary's own drop counts), so an inner
        ``IIDLoss`` contributes counts without ever materialising a
        python set; the drop sets and dropped pairs resolve only on
        demand.
        """
        self._senders_by_round[round_index] = list(senders)
        network = self.network
        groups: Dict[tuple, List[ProcessId]] = {}
        for pid in receivers:
            neighborhood = network.closed_neighborhood(pid)
            local = tuple(s for s in senders if s in neighborhood)
            groups.setdefault(local, []).append(pid)
        inner = self.inner
        inner_maps: Dict[tuple, ArrayRoundLosses] = {}
        if inner is not None:
            for local, members in groups.items():
                inner_maps[local] = as_round_losses(
                    inner.losses_for_round(round_index, list(local), members),
                    local, members,
                )
        receivers_t = (
            receivers if type(receivers) is tuple else tuple(receivers)
        )
        rpos = {pid: k for k, pid in enumerate(receivers_t)}
        drop_counts = [0] * len(receivers_t)
        for local, members in groups.items():
            cross_count = len(senders) - len(local)
            inner_map = inner_maps.get(local)
            extras = (
                [0] * len(members) if inner_map is None
                else inner_map.counts_list()
            )
            for pid, extra in zip(members, extras):
                drop_counts[rpos[pid]] = cross_count + extra
        senders_fs = frozenset(senders)
        return ArrayRoundLosses(
            receivers_t, senders, drop_counts,
            lambda: _group_sets(groups, inner_maps, senders_fs),
        )

    # -- CollisionDetector ----------------------------------------------------
    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        senders = self._senders_by_round.get(round_index, [])
        advice: Dict[ProcessId, CollisionAdvice] = {}
        for pid, t in received_counts.items():
            neighborhood = self.network.closed_neighborhood(pid)
            c_local = sum(1 for s in senders if s in neighborhood)
            if must_report_collision(self.completeness, c_local, t):
                advice[pid] = CollisionAdvice.COLLISION
            elif must_report_null(
                self.accuracy, round_index, self.r_acc, c_local, t
            ):
                advice[pid] = CollisionAdvice.NULL
            else:
                advice[pid] = self.policy.free_choice(
                    round_index, pid, c_local, t
                )
        return advice

    def _neighborhood_arrays(self, indices: Sequence[ProcessId]):
        """Closed-neighbourhood incidence matrix + positions for ``indices``.

        Cached per index tuple (the engine passes the same tuple every
        round), so the graph is scanned once per execution.
        """
        cached = self._nbhd_cache
        if cached is not None and cached[0] is indices:
            return cached[1], cached[2]
        pos = {pid: k for k, pid in enumerate(indices)}
        mat = _np.zeros((len(indices), len(indices)), dtype=_np.int64)
        graph = self.network.graph
        for k, pid in enumerate(indices):
            mat[k, k] = 1
            for s in graph.neighbors(pid):
                j = pos.get(s)
                if j is not None:
                    mat[k, j] = 1
        self._nbhd_cache = (indices, mat, pos)
        return mat, pos

    def advise_array(
        self,
        round_index: int,
        broadcasters: int,
        counts,
        indices: Sequence[ProcessId],
    ) -> List[CollisionAdvice]:
        """Vectorised neighbourhood-local advice for the array kernel.

        The per-receiver local broadcaster counts ``c_i`` are one
        incidence-matrix product; the Properties 4-9 obligations then
        resolve elementwise with *per-element* ``c`` (unlike the
        single-hop detectors, every receiver has its own broadcaster
        count).  Free choices go to the policy per unconstrained process
        in index order — exactly the calls dict :meth:`advise` makes —
        so seeded policies consume their streams identically on both
        paths.
        """
        if _np is None:  # pragma: no cover - engine gates on numpy first
            return super().advise_array(
                round_index, broadcasters, counts, indices
            )
        senders = self._senders_by_round.get(round_index, [])
        mat, pos = self._neighborhood_arrays(indices)
        sender_mask = _np.zeros(len(indices), dtype=_np.int64)
        for s in senders:
            k = pos.get(s)
            if k is not None:
                sender_mask[k] = 1
        c_local = mat @ sender_mask
        over = counts > c_local
        if over.any():
            k = int(over.argmax())
            # Mirror must_report_collision's own validation, first
            # offender in index order like the dict path.
            raise ValueError(
                f"invalid transmission data c={int(c_local[k])}, "
                f"t={int(counts[k])}"
            )
        level = self.completeness
        if level is Completeness.FULL:
            obliged = counts < c_local
        elif level is Completeness.MAJORITY:
            obliged = (c_local > 0) & (2 * counts <= c_local)
        elif level is Completeness.HALF:
            obliged = (c_local > 0) & (2 * counts < c_local)
        elif level is Completeness.ZERO:
            obliged = (c_local > 0) & (counts == 0)
        else:
            obliged = _np.zeros(len(indices), dtype=bool)
        if accuracy_active(self.accuracy, round_index, self.r_acc):
            null_mask = (counts == c_local) & ~obliged
        else:
            null_mask = _np.zeros(len(indices), dtype=bool)
        free_choice = self.policy.free_choice
        ob_list = obliged.tolist()
        null_list = null_mask.tolist()
        c_list = c_local.tolist()
        t_list = counts.tolist()
        out: List[CollisionAdvice] = []
        append = out.append
        for k, pid in enumerate(indices):
            if ob_list[k]:
                append(CollisionAdvice.COLLISION)
            elif null_list[k]:
                append(CollisionAdvice.NULL)
            else:
                append(free_choice(round_index, pid, c_list[k], t_list[k]))
        return out

    def reset(self) -> None:
        self._senders_by_round = {}
        self._nbhd_cache = None
        if self.inner is not None:
            self.inner.reset()
        self.policy.reset()


# ----------------------------------------------------------------------
# The broadcast problem over the multihop substrate
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FloodResult:
    """Outcome of one flood: coverage trajectory and completion round."""

    covered_by_round: List[int]
    completed_round: Optional[int]
    n: int
    diameter: int
    informed_round: Dict[ProcessId, int] = dataclasses.field(
        default_factory=dict
    )

    @property
    def completed(self) -> bool:
        return self.completed_round is not None

    # -- hops / stabilization metrics ----------------------------------
    @property
    def max_hops(self) -> Optional[int]:
        """Rounds until the last node was informed (``None`` if partial).

        On a contention-free flood this equals the source's graph
        eccentricity; the excess over it is pure contention delay.
        """
        if not self.completed:
            return None
        return max(self.informed_round.values())

    @property
    def mean_hops(self) -> Optional[float]:
        """Mean informing round over all reached nodes but the source."""
        reached = [r for r in self.informed_round.values() if r > 0]
        if not reached:
            return None
        return sum(reached) / len(reached)

    @property
    def stabilization(self) -> Optional[float]:
        """Completion round over diameter — the flood's stretch factor.

        ``1.0`` means the flood advanced one hop per round, the best any
        relay strategy can do; larger values quantify how much the
        channel and the relay policy slowed the frontier down.
        """
        if not self.completed or self.diameter == 0:
            return None
        return self.completed_round / self.diameter


def flood(
    network: MultihopNetwork,
    source: ProcessId,
    strategy: str = "backoff",
    channel: str = "capture",
    relay_probability: float = 0.35,
    capture_limit: int = 1,
    max_rounds: int = 400,
    seed: int = 0,
) -> FloodResult:
    """Flood a message from ``source`` and measure coverage per round.

    Per round, every informed node decides whether to relay:

    * ``blind``   — always relay (the naive flood: heavy contention);
    * ``backoff`` — relay with ``relay_probability`` (simple randomized
      backoff, the standard contention fix).

    Reception semantics per receiver, given its ``talking`` neighbours:

    * ``channel='total'``   — the total collision model of Section 1.2:
      decode iff *exactly one* neighbour talks; two or more jam each
      other completely.  Blind flooding deadlocks on any topology where
      frontier nodes permanently hear several informed relays (e.g. the
      grid's diagonal frontier) — the behaviour that motivates backoff;
    * ``channel='capture'`` — the paper's realistic alternative: up to
      ``capture_limit`` of the talking neighbours are decoded, chosen at
      random per receiver (arbitrary-subset loss, localised).
    """
    if strategy not in ("blind", "backoff"):
        raise ConfigurationError("strategy must be 'blind' or 'backoff'")
    if channel not in ("capture", "total"):
        raise ConfigurationError("channel must be 'capture' or 'total'")
    if source not in set(network.indices):
        raise ConfigurationError(f"source {source} is not in the network")
    rng = random.Random(seed)
    informed: Set[ProcessId] = {source}
    informed_round: Dict[ProcessId, int] = {source: 0}
    trajectory: List[int] = []
    completed: Optional[int] = None
    for round_index in range(1, max_rounds + 1):
        if strategy == "blind":
            relays = set(informed)
        else:
            relays = {
                pid for pid in informed
                if rng.random() < relay_probability
            }
            if not relays and informed != set(network.indices):
                relays = {rng.choice(sorted(informed))}
        newly: Set[ProcessId] = set()
        for pid in network.indices:
            if pid in informed:
                continue
            talking = [r for r in relays if r in network.neighbors(pid)]
            if not talking:
                continue
            if channel == "total":
                if len(talking) == 1:
                    newly.add(pid)
            else:
                decoded = rng.sample(
                    talking, min(capture_limit, len(talking))
                )
                if decoded:
                    newly.add(pid)
        informed |= newly
        for pid in newly:
            informed_round[pid] = round_index
        trajectory.append(len(informed))
        if len(informed) == network.n:
            completed = round_index
            break
    return FloodResult(
        covered_by_round=trajectory,
        completed_round=completed,
        n=network.n,
        diameter=network.diameter,
        informed_round=informed_round,
    )
