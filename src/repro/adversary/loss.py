"""Message-loss adversaries (Definition 11, constraint 4 / Property 1).

The model allows any process to lose any subset of the messages broadcast
by *other* processes in any round (broadcasters always receive their own
message — constraint 5, which the engine enforces regardless of what an
adversary says).  A loss adversary answers one question per (round,
receiver): *which senders' messages are dropped here?*

Answers can be non-uniform across receivers, which is how adversaries
create the receive sets the paper motivates with the capture effect
(Section 1.1): two listeners within range of the same two broadcasters
may receive different messages.

One loss method per adversary
-----------------------------

The engine asks one question per *round*:
:meth:`LossAdversary.losses_for_round` resolves every receiver at once,
and it is the one method every built-in implements.  The per-receiver
:meth:`LossAdversary.losses` is a view in the base class — row
``receiver`` of a one-receiver round — so its answer equals the batched
row by construction.  A third-party adversary may implement
:meth:`~LossAdversary.losses` instead; the base class then resolves
rounds by looping over it.  Overriding neither is a ``TypeError`` when
the subclass is defined.

One round type
--------------

Every built-in answers with an :class:`ArrayRoundLosses`: the receivers
tuple and each receiver's *drop count* (an int64 array with numpy, a
list without), with the drop sets and the dropped (receiver, sender)
pairs resolved lazily.  Counts are what the collision detector sees
(Definition 6), so single-message rounds never need the sets at all.
A third-party adversary may still return any mapping of receiver ->
dropped senders; :func:`as_round_losses` turns it into the round type
once per round — list values count each sender once, non-senders are
ignored, the receiver's own message is exempt (constraint 5), and an
omitted receiver raises :class:`~repro.core.errors.ModelViolation`.  It
is the only reader of raw drop sets.

Determinism
-----------

One rule: every seeded draw is a pure function of ``(seed, round,
receiver, sender)``, and building the drop sets consumes nothing.  The
seeded adversaries (:class:`IIDLoss`, :class:`CaptureEffectLoss`) hold
no random state; each reads 32-bit words from one counter hash (a
murmur3 ``fmix32`` chain keyed by SHA-256 of the seed, in the spirit of
Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
The hash has two evaluators that return the same words — numpy,
vectorised over the receivers x senders grid, and a pure-python loop —
so one seed gives one execution on every backend, whatever order or
grouping callers enumerate receivers in, and whether or not anyone
materialises the sets.  :data:`DRAWS` versions this definition.

:class:`EventualCollisionFreedom` is the Property 1 wrapper: it delegates
to an inner adversary until ``r_cf`` and thereafter forces delivery in
single-broadcaster rounds (multi-broadcaster rounds stay at the inner
adversary's mercy — ECF promises nothing about them).
"""

from __future__ import annotations

import abc
import hashlib
from collections.abc import Mapping as _MappingABC
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.arrays import numpy_or_none
from ..core.errors import ConfigurationError, ModelViolation
from ..core.types import ProcessId

#: Optional acceleration for whole-round loss resolution.  Shared gating
#: via :func:`repro.core.arrays.numpy_or_none` (numpy importable and
#: ``REPRO_PURE_PYTHON`` unset); tests monkeypatch this binding to pin
#: one backend.
_np = numpy_or_none()

#: The empty drop set, shared to avoid churn in the hot path.
_NO_LOSS: FrozenSet[ProcessId] = frozenset()


# ----------------------------------------------------------------------
# The seeded draw: one counter hash, two evaluators
# ----------------------------------------------------------------------
#: Version of the seeded draw definition below.  Campaign stores stamp
#: it (``campaign_meta`` key ``draws``) and refuse cells drawn under
#: another definition.
DRAWS = 1

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
#: 2^32: a word is below ``int(p * _SPAN)`` with probability ``p``.
_SPAN = 1 << 32
_C1 = 0x85EBCA6B
_C2 = 0xC2B2AE35


def _fmix32(h: int) -> int:
    """murmur3's 32-bit finaliser: a bijective avalanche mix of ``h``."""
    h ^= h >> 16
    h = (h * _C1) & _M32
    h ^= h >> 13
    h = (h * _C2) & _M32
    return h ^ (h >> 16)


def _fmix32_np(h):
    """:func:`_fmix32` over a uint32 array, in place.

    uint32 products wrap modulo 2^32, which is exactly the ``& _M32`` of
    the pure-python evaluator.
    """
    h ^= h >> 16
    h *= _C1
    h ^= h >> 13
    h *= _C2
    h ^= h >> 16
    return h


def draw_key(seed: object) -> int:
    """The 32-bit hash key of an adversary seed (SHA-256 of ``str(seed)``)."""
    digest = hashlib.sha256(str(seed).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def row_word(key: int, round_index: int, receiver: ProcessId) -> int:
    """The word of one (round, receiver): ``fmix32(fmix32(key ^ x) ^ r)``.

    The inner ``fmix32(key ^ x)`` is constant within an execution, so
    the numpy evaluator caches it as the receivers' column.
    """
    return _fmix32(_fmix32(key ^ (receiver & _M32)) ^ (round_index & _M32))


def pair_words(row: int, senders: Sequence[ProcessId]) -> List[int]:
    """The pair words ``fmix32(row ^ s)`` of one row, in sender order."""
    words = []
    append = words.append
    for s in senders:
        h = row ^ (s & _M32)
        h ^= h >> 16
        h = (h * _C1) & _M32
        h ^= h >> 13
        h = (h * _C2) & _M32
        append(h ^ (h >> 16))
    return words


#: Rounds whose row words the numpy evaluator computes in one go.
_ROUND_BLOCK = 32

#: Grids of at most this many (receiver, sender) cells take the loop
#: evaluator even when numpy is present: below it, numpy's fixed cost
#: per call exceeds the whole loop.  Both evaluators read the same words.
_SMALL_GRID = 9


def _as_u32(pids: Sequence[ProcessId]):
    """Process ids as a uint32 array (two's complement, like ``& _M32``)."""
    return _np.array(pids, dtype=_np.int64).astype(_np.uint32)


def _as_tuple(pids: Sequence[ProcessId]) -> Tuple[ProcessId, ...]:
    return pids if type(pids) is tuple else tuple(pids)


class ArrayRoundLosses(_MappingABC):
    """One round's losses, counts first: receiver -> dropped senders.

    :attr:`drop_counts` holds, aligned with :attr:`receivers`, how many
    of this round's :attr:`senders` each receiver loses — an int64 array
    with numpy, a list without.  The drop sets behind them are
    materialised lazily, all at once, on first mapping access, and
    :meth:`drop_pairs` lazily names the same drops as position pairs.
    Construction-side contract: receiver ``i``'s drop set is a subset of
    the senders that excludes the receiver itself (self-delivery is
    unconditional), and ``drop_counts[i]`` is its size.  The engine
    checks the counts against each receiver's budget and the sets or
    pairs it reads against the counts.  Materialising consumes no
    randomness: every draw is a pure function of ``(seed, round,
    receiver, sender)``.

    ``materialise`` returns the drop-set dict; ``pairs``, when given,
    returns :meth:`drop_pairs` directly instead of deriving it from the
    sets.  :meth:`from_sets` wraps sets that are already built.
    """

    __slots__ = (
        "receivers", "senders", "drop_counts", "_sets", "_materialise",
        "_pairs", "_pairs_fn",
    )

    def __init__(
        self,
        receivers: Tuple[ProcessId, ...],
        senders: Sequence[ProcessId],
        drop_counts,
        materialise: Callable[[], Dict[ProcessId, AbstractSet[ProcessId]]],
        pairs: Optional[Callable[[], Tuple]] = None,
    ) -> None:
        if _np is not None and type(drop_counts) is list:
            drop_counts = _np.array(drop_counts, dtype=_np.int64)
        self.receivers = receivers
        self.senders = senders
        self.drop_counts = drop_counts
        self._sets: Optional[Dict[ProcessId, AbstractSet[ProcessId]]] = None
        self._materialise = materialise
        self._pairs: Optional[Tuple] = None
        self._pairs_fn = pairs

    @classmethod
    def from_sets(
        cls,
        receivers: Sequence[ProcessId],
        senders: Sequence[ProcessId],
        sets: Dict[ProcessId, AbstractSet[ProcessId]],
    ) -> "ArrayRoundLosses":
        """The round type over drop sets that already keep the contract."""
        receivers = _as_tuple(receivers)
        return cls(
            receivers, senders, [len(sets[pid]) for pid in receivers],
            lambda: sets,
        )

    def drop_pairs(self) -> Tuple:
        """``(rows, cols)`` positions of every dropped pair.

        ``rows[k]`` is the *receiver's* position in :attr:`receivers` and
        ``cols[k]`` the dropped *sender's* position in :attr:`senders`,
        one entry per dropped (receiver, sender) pair in any order (intp
        arrays with numpy).  Lazy and memoised; read off the drop sets
        unless the producer gave a ``pairs`` function.
        """
        if self._pairs is None:
            if self._pairs_fn is not None:
                self._pairs = self._pairs_fn()
                self._pairs_fn = None
            else:
                spos = {s: j for j, s in enumerate(self.senders)}
                sets = self._ensure()
                rows: list = []
                cols: list = []
                for k, pid in enumerate(self.receivers):
                    for s in sets[pid]:
                        rows.append(k)
                        cols.append(spos[s])
                if _np is not None:
                    rows = _np.array(rows, dtype=_np.intp)
                    cols = _np.array(cols, dtype=_np.intp)
                self._pairs = (rows, cols)
        return self._pairs

    def counts_list(self) -> List[int]:
        """:attr:`drop_counts` as a list."""
        counts = self.drop_counts
        return counts if type(counts) is list else counts.tolist()

    def _ensure(self) -> Dict[ProcessId, AbstractSet[ProcessId]]:
        sets = self._sets
        if sets is None:
            sets = self._sets = self._materialise()
            self._materialise = None  # type: ignore[assignment]
        return sets

    def __getitem__(self, pid: ProcessId) -> AbstractSet[ProcessId]:
        return self._ensure()[pid]

    def __iter__(self):
        return iter(self.receivers)

    def __len__(self) -> int:
        return len(self.receivers)

    def __contains__(self, pid: object) -> bool:
        return pid in self._ensure()

    def get(self, pid: ProcessId, default=None):
        return self._ensure().get(pid, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialised" if self._sets is not None else "lazy"
        return (
            f"ArrayRoundLosses({len(self.receivers)} receivers, {state})"
        )


def as_round_losses(
    lost_map: Mapping[ProcessId, Iterable[ProcessId]],
    senders: Sequence[ProcessId],
    receivers: Sequence[ProcessId],
) -> ArrayRoundLosses:
    """One round's answer as an :class:`ArrayRoundLosses`.

    An :class:`ArrayRoundLosses` over exactly ``receivers`` passes
    through.  Anything else is read as a raw receiver -> dropped senders
    mapping, once: each value counts every sender once, non-senders are
    ignored and the receiver's own message is exempt.  A receiver the
    mapping omits (or maps to ``None``) raises
    :class:`~repro.core.errors.ModelViolation`.
    """
    receivers = _as_tuple(receivers)
    if type(lost_map) is ArrayRoundLosses and (
        lost_map.receivers is receivers or lost_map.receivers == receivers
    ):
        return lost_map
    sender_set = frozenset(senders)
    sets: Dict[ProcessId, AbstractSet[ProcessId]] = {}
    for pid in receivers:
        lost = lost_map.get(pid)
        if lost is None:
            raise ModelViolation(
                f"loss adversary omitted receiver {pid} from its round "
                "resolution"
            )
        lost = sender_set.intersection(lost)
        if pid in lost:
            lost = lost - {pid}
        sets[pid] = lost if lost else _NO_LOSS
    return ArrayRoundLosses.from_sets(receivers, senders, sets)


def _no_losses(
    senders: Sequence[ProcessId], receivers: Sequence[ProcessId]
) -> ArrayRoundLosses:
    """Every receiver gets every message."""
    receivers = _as_tuple(receivers)
    return ArrayRoundLosses(
        receivers, senders, [0] * len(receivers),
        lambda: dict.fromkeys(receivers, _NO_LOSS), pairs=lambda: ((), ()),
    )


def _lose_all(
    senders: Sequence[ProcessId], receivers: Sequence[ProcessId]
) -> ArrayRoundLosses:
    """Every receiver loses every message but its own."""
    receivers = _as_tuple(receivers)
    everyone = frozenset(senders)
    n_senders = len(senders)

    def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
        return {
            pid: everyone - {pid} if pid in everyone else everyone
            for pid in receivers
        }

    return ArrayRoundLosses(
        receivers, senders,
        [n_senders - (pid in everyone) for pid in receivers], materialise,
    )


class LossAdversary(abc.ABC):
    """Chooses, per round and receiver, which senders' messages are lost.

    Subclasses implement :meth:`losses_for_round` (every built-in does)
    or :meth:`losses`; each method's default is defined through the
    other, so overriding neither is rejected when the subclass is
    defined.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if (cls.losses is LossAdversary.losses
                and cls.losses_for_round is LossAdversary.losses_for_round):
            raise TypeError(
                f"{cls.__name__} must override losses_for_round (or "
                "losses): each default is defined through the other"
            )

    def losses(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receiver: ProcessId,
    ) -> AbstractSet[ProcessId]:
        """Senders whose message ``receiver`` loses in ``round_index``.

        ``senders`` lists every process that broadcast this round.  The
        default is a view: row ``receiver`` of a one-receiver
        :meth:`losses_for_round`, which never names ``receiver`` itself
        (self-delivery is unconditional).
        """
        return as_round_losses(
            self.losses_for_round(round_index, senders, (receiver,)),
            senders, (receiver,),
        )[receiver]

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> Mapping[ProcessId, AbstractSet[ProcessId]]:
        """Resolve the whole round at once: receiver -> dropped senders.

        Built-ins return an :class:`ArrayRoundLosses`; the default loops
        over :meth:`losses`, for adversaries written against the
        per-receiver interface, and normalises the answers with
        :func:`as_round_losses`.
        """
        losses = self.losses
        return as_round_losses(
            {pid: losses(round_index, senders, pid) for pid in receivers},
            senders, receivers,
        )

    def reset(self) -> None:
        """Forget internal state before a fresh execution (default: none)."""

    @property
    def r_cf(self) -> Optional[int]:
        """The round from which Property 1 (ECF) holds, if promised."""
        return None


class ReliableDelivery(LossAdversary):
    """No loss at all: every receiver gets every message.

    Trivially satisfies ECF with ``r_cf = 1``.
    """

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        return _no_losses(senders, receivers)

    @property
    def r_cf(self) -> int:
        return 1


class SilenceLoss(LossAdversary):
    """Total loss: every receiver loses every other process's message.

    This is the harshest legal behaviour (only self-delivery survives) and
    the backdrop of Theorem 9's ``NOCF`` setting.
    """

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        return _lose_all(senders, receivers)


class _RowWords:
    """A seed's hash key and the receivers' cached row words.

    Holds no random state — only the key and a cache of what the numpy
    evaluator can compute ahead within an execution: the receivers'
    positions, their ``fmix32(key ^ x)`` column, and the row words of a
    block of :data:`_ROUND_BLOCK` rounds, keyed by the receivers tuple's
    *identity* (the engine passes the same tuple every round; holding it
    in the cache keeps the identity stable).
    """

    __slots__ = ("key", "_column", "_block")

    def __init__(self, seed: object) -> None:
        self.key = draw_key(seed)
        self._column: Optional[tuple] = None
        self._block: Optional[tuple] = None

    def numpy(self, round_index: int, receivers: Tuple[ProcessId, ...]):
        """``(positions, pids, row words)`` of one round's receivers.

        ``positions`` maps pid -> row and ``pids`` is the receivers as a
        uint32 array (numpy evaluator).  The row words may be a view
        into the cached block: callers must not write to them.  A block
        is computed only once the same receivers come back, so callers
        that pass fresh receiver lists pay for one round at a time.
        """
        cached = self._column
        if cached is None or cached[0] is not receivers:
            pids = _as_u32(receivers)
            column = _fmix32_np(pids ^ self.key)
            self._column = (
                receivers, {pid: k for k, pid in enumerate(receivers)},
                pids, column,
            )
            self._block = None
            return (
                self._column[1], pids,
                _fmix32_np(column ^ (round_index & _M32)),
            )
        block = self._block
        if block is None or not 0 <= round_index - block[0] < _ROUND_BLOCK:
            rounds = _as_u32(range(round_index, round_index + _ROUND_BLOCK))
            block = self._block = (
                round_index, _fmix32_np(cached[3] ^ rounds[:, None]),
            )
        return cached[1], cached[2], block[1][round_index - block[0]]


def _sets_from_cells(
    receivers: Tuple[ProcessId, ...],
    senders: Sequence[ProcessId],
    rows,
    cols,
) -> Dict[ProcessId, AbstractSet[ProcessId]]:
    """Drop sets from row-sorted ``(receiver, sender)`` position arrays."""
    out: Dict[ProcessId, AbstractSet[ProcessId]] = dict.fromkeys(
        receivers, _NO_LOSS
    )
    if not len(rows):
        return out
    senders_l = list(senders)
    lost = [senders_l[j] for j in cols.tolist()]
    bounds = _np.searchsorted(rows, _np.arange(len(receivers) + 1)).tolist()
    for i, pid in enumerate(receivers):
        a = bounds[i]
        b = bounds[i + 1]
        if a != b:
            out[pid] = set(lost[a:b])
    return out


class IIDLoss(LossAdversary):
    """Independent per-(receiver, sender) loss with probability ``p``.

    Models the 20-50% loss regime the empirical studies in Section 1.1
    report.  The pair ``(receiver, sender)`` loses its message in round
    ``r`` iff its pair word is below ``floor(p * 2^32)`` — a pure
    function of ``(seed, r, receiver, sender)``; building the drop sets
    consumes nothing, and both backends read the same words.
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"loss probability must be in [0,1]: {p}")
        self.p = p
        self.seed = seed
        self._words = _RowWords(seed)

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        p = self.p
        if p <= 0.0 or not senders:
            return _no_losses(senders, receivers)
        if p >= 1.0:
            return _lose_all(senders, receivers)
        cut = int(p * _SPAN)
        if _np is not None and len(senders) * len(receivers) > _SMALL_GRID:
            return self._losses_for_round_np(
                round_index, senders, receivers, cut
            )
        key = self._words.key
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers:
            words = pair_words(row_word(key, round_index, pid), senders)
            lost = {
                s for s, w in zip(senders, words) if w < cut and s != pid
            }
            out[pid] = lost if lost else _NO_LOSS
        return ArrayRoundLosses.from_sets(receivers, senders, out)

    def _losses_for_round_np(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
        cut: int,
    ) -> "ArrayRoundLosses":
        """The numpy evaluator: the whole (receiver x sender) grid at once.

        Drop counts are row sums of the hit grid (self cells cleared —
        self-delivery is unconditional); the drop sets and dropped pairs
        are read lazily off the same grid.
        """
        receivers_t = _as_tuple(receivers)
        _, pids, rows = self._words.numpy(round_index, receivers_t)
        sender_ids = _as_u32(senders)
        hits = _fmix32_np(rows[:, None] ^ sender_ids) < cut
        hits &= pids[:, None] != sender_ids
        drop_counts = hits.sum(axis=1, dtype=_np.int64)

        def pairs() -> Tuple:
            return _np.nonzero(hits)

        def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            cell_rows, cell_cols = _np.nonzero(hits)
            return _sets_from_cells(
                receivers_t, senders, cell_rows, cell_cols
            )

        return ArrayRoundLosses(
            receivers_t, senders, drop_counts, materialise, pairs=pairs
        )


class CaptureEffectLoss(LossAdversary):
    """Capture-effect loss: under contention, each receiver decodes at most
    ``capture_limit`` of the competing messages, chosen per receiver.

    With a single broadcaster the message is delivered (subject to
    ``p_single_loss`` ambient loss, default 0).  With several broadcasters
    each receiver independently "captures" a random subset of size at most
    ``capture_limit`` — reproducing the A/B/C/D example of Section 1.1
    where listeners within range of the same two senders end up with
    different receive sets.

    Every draw is a pure function of ``(seed, round, receiver, sender)``
    (see the module docstring); building the drop sets consumes nothing:

    * **count** — receiver ``x`` with ``m`` competitors decodes
      ``(row_word * (L + 1)) >> 32`` of them, ``L = min(capture_limit,
      m)``: uniform on ``{0..L}`` up to a multiply-shift bias of at most
      ``(L + 1) / 2^32`` per value;
    * **subset** — the decoded competitors are the ``count`` with the
      smallest pair words, ties broken by sender position (a uniform
      ``count``-subset); every other competitor is lost;
    * **single broadcaster** — the message is lost iff its pair word is
      below ``floor(p_single_loss * 2^32)``.

    The numpy leg computes the counts eagerly from the receivers' row
    words alone and the pair-word grid only when the sets or dropped
    pairs are asked for.
    """

    def __init__(
        self,
        capture_limit: int = 1,
        p_single_loss: float = 0.0,
        seed: int = 0,
    ) -> None:
        if capture_limit < 0:
            raise ConfigurationError("capture_limit must be >= 0")
        if not 0.0 <= p_single_loss <= 1.0:
            raise ConfigurationError("p_single_loss must be in [0,1]")
        self.capture_limit = capture_limit
        self.p_single_loss = p_single_loss
        self.seed = seed
        self._words = _RowWords(seed)

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        if not senders:
            return _no_losses(senders, receivers)
        if _np is not None:
            return self._losses_for_round_np(round_index, senders, receivers)
        key = self._words.key
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        if len(senders) == 1:
            cut = int(self.p_single_loss * _SPAN)
            only = frozenset(senders)
            for pid in receivers:
                lost = (
                    pid not in only and pair_words(
                        row_word(key, round_index, pid), senders
                    )[0] < cut
                )
                out[pid] = only if lost else _NO_LOSS
            return ArrayRoundLosses.from_sets(receivers, senders, out)
        limit = self.capture_limit
        for pid in receivers:
            others = [j for j, s in enumerate(senders) if s != pid]
            m = len(others)
            row = row_word(key, round_index, pid)
            count = (row * (min(limit, m) + 1)) >> 32
            if count >= m:
                out[pid] = _NO_LOSS
                continue
            if count:
                # Stable sort: ties keep sender order.
                others.sort(key=pair_words(row, senders).__getitem__)
            out[pid] = {senders[j] for j in others[count:]}
        return ArrayRoundLosses.from_sets(receivers, senders, out)

    def _losses_for_round_np(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> "ArrayRoundLosses":
        """The numpy evaluator of the same words, as an array resolution."""
        receivers_t = _as_tuple(receivers)
        n_senders = len(senders)
        rpos, _, rows = self._words.numpy(round_index, receivers_t)
        if n_senders == 1:
            (sole,) = senders
            words = _fmix32_np(rows ^ _as_u32(senders))
            lose = words.astype(_np.int64) < int(
                self.p_single_loss * _SPAN
            )
            k = rpos.get(sole)
            if k is not None:
                lose[k] = False  # self-delivery: the sender keeps its own
            drop_counts = lose.astype(_np.int64)

            def materialise_single() -> Dict[ProcessId, AbstractSet[ProcessId]]:
                only = frozenset((sole,))
                return {
                    pid: (only if flag else _NO_LOSS)
                    for pid, flag in zip(receivers_t, lose.tolist())
                }

            return ArrayRoundLosses(
                receivers_t, senders, drop_counts, materialise_single
            )
        # Grid cells where a receiver hears itself.
        self_rows: List[int] = []
        self_cols: List[int] = []
        for j, s in enumerate(senders):
            k = rpos.get(s)
            if k is not None:
                self_rows.append(k)
                self_cols.append(j)
        m = _np.full(len(receivers_t), n_senders, dtype=_np.int64)
        if self_rows:
            m[self_rows] -= 1
        span = (_np.minimum(self.capture_limit, m) + 1).astype(_np.uint64)
        captured = (
            (rows.astype(_np.uint64) * span) >> _np.uint64(32)
        ).astype(_np.int64)
        drop_counts = m - captured

        # The dropped pairs are memoised so the drop sets and the drop
        # pairs (either may be asked first, or both) share one grid.
        pairs_cell: List = []

        def pairs_multi() -> Tuple:
            if not pairs_cell:
                # Rank keys: the pair word, ties broken by sender
                # position; a receiver's own column ranks last.
                keys = _fmix32_np(
                    rows[:, None] ^ _as_u32(senders)
                ).astype(_np.uint64) << _np.uint64(32)
                keys |= _np.arange(n_senders, dtype=_np.uint64)
                lost = _np.ones(keys.shape, dtype=bool)
                if self_rows:
                    keys[self_rows, self_cols] = _np.uint64(_M64)
                    lost[self_rows, self_cols] = False
                top = int(captured.max())
                if top:
                    # The ``top`` smallest keys per row, in rank order;
                    # row i decodes the first captured[i] of them.
                    first = _np.argpartition(keys, range(top), axis=1)
                    cell_rows, rank = _np.nonzero(
                        _np.arange(top) < captured[:, None]
                    )
                    lost[cell_rows, first[cell_rows, rank]] = False
                pairs_cell.append(_np.nonzero(lost))
            return pairs_cell[0]

        def materialise_multi() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            cell_rows, cell_cols = pairs_multi()
            return _sets_from_cells(
                receivers_t, senders, cell_rows, cell_cols
            )

        return ArrayRoundLosses(
            receivers_t, senders, drop_counts, materialise_multi,
            pairs=pairs_multi,
        )


class PartitionLoss(LossAdversary):
    """Split the index set into groups; messages never cross groups.

    Within a group, delivery follows ``intra`` (default: reliable).  This is
    the workhorse of the impossibility constructions (Theorems 4, 8 and the
    Lemma 23 compositions): two groups evolve side by side without ever
    hearing each other.

    ``until_round`` bounds the partition: from the next round on, no loss
    (used by Theorem 4's γ execution, which must satisfy ECF).
    """

    def __init__(
        self,
        groups: Sequence[Iterable[ProcessId]],
        intra: Optional[LossAdversary] = None,
        until_round: Optional[int] = None,
    ) -> None:
        self._group_of: Dict[ProcessId, int] = {}
        for g, members in enumerate(groups):
            for pid in members:
                if pid in self._group_of:
                    raise ConfigurationError(
                        f"process {pid} appears in two partition groups"
                    )
                self._group_of[pid] = g
        self.intra = intra or ReliableDelivery()
        self.until_round = until_round

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        if self.until_round is not None and round_index > self.until_round:
            return _no_losses(senders, receivers)
        group_of = self._group_of
        by_group: Dict[Optional[int], List[ProcessId]] = {}
        for pid in receivers:
            by_group.setdefault(group_of.get(pid), []).append(pid)
        # One delegated intra resolution per group instead of one per
        # receiver; a member's count is every other group's senders
        # plus its intra drops.
        counts: Dict[ProcessId, int] = {}
        intra_maps: Dict[Optional[int], ArrayRoundLosses] = {}
        for group, members in by_group.items():
            same_group = [
                s for s in senders if group_of.get(s) == group
            ]
            intra_map = intra_maps[group] = as_round_losses(
                self.intra.losses_for_round(
                    round_index, same_group, members
                ),
                same_group, members,
            )
            cross = len(senders) - len(same_group)
            counts.update(zip(
                members, [cross + c for c in intra_map.counts_list()]
            ))

        def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            # One cross-group set per group, shared by its members (a
            # receiver's own group is its own, so it never holds the
            # receiver).
            out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
            for group, intra_map in intra_maps.items():
                cross = frozenset(
                    s for s in senders if group_of.get(s) != group
                )
                for pid in by_group[group]:
                    intra_lost = intra_map[pid]
                    out[pid] = cross | intra_lost if intra_lost else cross
            return out

        receivers = _as_tuple(receivers)
        return ArrayRoundLosses(
            receivers, senders, [counts[pid] for pid in receivers],
            materialise,
        )

    def reset(self) -> None:
        self.intra.reset()

    @property
    def r_cf(self) -> Optional[int]:
        if self.until_round is None:
            return None
        return self.until_round + 1


class AlphaLoss(LossAdversary):
    """The alpha-execution delivery rule (Definition 24, rule 3).

    * exactly one broadcaster  -> everyone receives the message;
    * two or more broadcasters -> every receiver keeps only its own
      message, all others are lost.

    Satisfies ECF from round 1 by construction.
    """

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        if len(senders) <= 1:
            return _no_losses(senders, receivers)
        # Contention: everyone keeps only its own message.
        return _lose_all(senders, receivers)

    @property
    def r_cf(self) -> int:
        return 1


class ScriptedLoss(LossAdversary):
    """Loss driven by an explicit callable — the fully general adversary.

    ``fn(round_index, senders, receiver)`` returns the senders dropped at
    ``receiver``.  Lower-bound constructions use this to realise exactly
    the receive behaviour their proofs prescribe.

    ``round_fn(round_index, senders, receivers)``, if given instead, is
    the batched analogue: it returns the whole round's receiver -> drop
    set mapping in one call.  Exactly one of the two must be provided.
    """

    def __init__(
        self,
        fn: Optional[
            Callable[[int, Sequence[ProcessId], ProcessId], AbstractSet[ProcessId]]
        ] = None,
        r_cf: Optional[int] = None,
        round_fn: Optional[
            Callable[
                [int, Sequence[ProcessId], Sequence[ProcessId]],
                Mapping[ProcessId, AbstractSet[ProcessId]],
            ]
        ] = None,
    ) -> None:
        if (fn is None) == (round_fn is None):
            raise ConfigurationError(
                "ScriptedLoss needs exactly one of fn / round_fn"
            )
        self._fn = fn
        self._round_fn = round_fn
        self._r_cf = r_cf

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        if self._round_fn is not None:
            lost_map = self._round_fn(round_index, senders, receivers)
        else:
            fn = self._fn
            lost_map = {
                pid: fn(round_index, senders, pid) for pid in receivers
            }
        return as_round_losses(lost_map, senders, receivers)

    @property
    def r_cf(self) -> Optional[int]:
        return self._r_cf


class ComposedLoss(LossAdversary):
    """Union of several adversaries' drop sets: a message survives only if
    *every* component delivers it.  Useful to stack ambient IID loss on top
    of a structural pattern."""

    def __init__(self, components: Sequence[LossAdversary]) -> None:
        if not components:
            raise ConfigurationError("ComposedLoss needs at least one component")
        self.components = list(components)

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        # Delegate once per component per round, then union per receiver.
        maps = [
            as_round_losses(
                c.losses_for_round(round_index, senders, receivers),
                senders, receivers,
            )
            for c in self.components
        ]
        if len(maps) == 1:
            return maps[0]
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers:
            lost: AbstractSet[ProcessId] = _NO_LOSS
            for m in maps:
                more = m[pid]
                if more:
                    lost = lost | more if lost else more
            out[pid] = lost
        return ArrayRoundLosses.from_sets(receivers, senders, out)

    def reset(self) -> None:
        for component in self.components:
            component.reset()


class EventualCollisionFreedom(LossAdversary):
    """Property 1: single-broadcaster rounds deliver from ``r_cf`` on.

    Wraps an arbitrary inner adversary.  Before ``r_cf`` the inner
    adversary is unconstrained; from ``r_cf`` on, rounds with exactly one
    broadcaster deliver to everyone, while multi-broadcaster rounds still
    defer to the inner adversary (ECF says nothing about them).
    """

    def __init__(self, inner: LossAdversary, r_cf: int = 1) -> None:
        if r_cf < 1:
            raise ConfigurationError("r_cf must be >= 1")
        self.inner = inner
        self._r_cf = r_cf

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> ArrayRoundLosses:
        if round_index >= self._r_cf and len(senders) == 1:
            return _no_losses(senders, receivers)
        return as_round_losses(
            self.inner.losses_for_round(round_index, senders, receivers),
            senders, receivers,
        )

    def reset(self) -> None:
        self.inner.reset()

    @property
    def r_cf(self) -> int:
        return self._r_cf


def satisfies_ecf(
    transmission_trace: Sequence,
    received: Sequence[Mapping[ProcessId, int]],
    r_cf: int,
) -> bool:
    """Check Property 1 over a finished execution's transmission data.

    ``transmission_trace`` holds per-round ``(c, T)`` entries (any object
    with ``broadcasters``); ``received`` the per-round ``T`` maps.  True
    when every round ``r >= r_cf`` with exactly one broadcaster delivered
    to every process.
    """
    for idx, entry in enumerate(transmission_trace):
        round_index = idx + 1
        if round_index < r_cf or entry.broadcasters != 1:
            continue
        if any(t != 1 for t in received[idx].values()):
            return False
    return True
