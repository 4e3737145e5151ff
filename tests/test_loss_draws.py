"""One seed, one execution: the seeded loss draws and the one loss method.

* ``IIDLoss`` and ``CaptureEffectLoss`` draw every loss as a pure
  function of (seed, round, receiver, sender), so their numpy and
  pure-python evaluators give the same drop sets, drop counts and
  dropped pairs;
* every built-in's per-receiver ``losses(r, senders, x)`` equals row
  ``x`` of its ``losses_for_round`` (minus ``x`` itself, which the
  engine exempts anyway);
* a ``LossAdversary`` subclass that overrides neither loss method is
  rejected when it is defined.
"""

from __future__ import annotations

import pytest

import repro.adversary.loss as loss_mod
import repro.substrate.device as device_mod
import repro.substrate.multihop as multihop_mod
from repro.adversary.loss import (
    AlphaLoss,
    CaptureEffectLoss,
    ComposedLoss,
    EventualCollisionFreedom,
    IIDLoss,
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    ScriptedLoss,
    SilenceLoss,
)
from repro.substrate.device import PhysicalLayer
from repro.substrate.multihop import MultihopLayer, MultihopNetwork

try:
    import numpy
except ImportError:  # pragma: no cover - the no-numpy CI leg
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="needs numpy")


def use_backend(monkeypatch, backend: str) -> None:
    """Pin every loss producer to one evaluator for this test."""
    if backend == "numpy" and numpy is None:
        pytest.skip("needs numpy")
    value = numpy if backend == "numpy" else None
    for module in (loss_mod, device_mod, multihop_mod):
        monkeypatch.setattr(module, "_np", value)


# ----------------------------------------------------------------------
# (a) numpy and pure python read the same words
# ----------------------------------------------------------------------
SEEDED = {
    "iid_0.1": lambda seed: IIDLoss(0.1, seed=seed),
    "iid_0.3": lambda seed: IIDLoss(0.3, seed=seed),
    "iid_0.5": lambda seed: IIDLoss(0.5, seed=seed),
    "capture_1": lambda seed: CaptureEffectLoss(1, seed=seed),
    "capture_2": lambda seed: CaptureEffectLoss(2, seed=seed),
    "capture_1_ambient": lambda seed: CaptureEffectLoss(1, 0.3, seed=seed),
    "capture_2_ambient": lambda seed: CaptureEffectLoss(2, 0.3, seed=seed),
}


def sender_lists(n):
    full = list(range(n))
    # Full, partial, a single broadcaster, and a pair.
    return [full, full[::3], [n - 1], [1, n - 1]]


def receiver_lists(n):
    # Every process, and a subset (group-delegating wrappers resolve
    # receiver subsets, some of them not broadcasting).
    return [tuple(range(n)), tuple(range(1, n, 2))]


@needs_numpy
@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_numpy_and_pure_python_draw_the_same_losses(name, n, monkeypatch):
    factory = SEEDED[name]
    small_grid = loss_mod._SMALL_GRID
    for seed in (0, 7, 2024):
        for senders in sender_lists(n):
            for receivers in receiver_lists(n):
                for r in (1, 2, 17):
                    monkeypatch.setattr(loss_mod, "_np", None)
                    ref = factory(seed).losses_for_round(
                        r, senders, receivers
                    )
                    expected = {
                        pid: set(ref[pid]) - {pid} for pid in receivers
                    }
                    # The numpy leg with and without the loop evaluator
                    # for small grids.
                    monkeypatch.setattr(loss_mod, "_np", numpy)
                    for threshold in (0, small_grid):
                        monkeypatch.setattr(
                            loss_mod, "_SMALL_GRID", threshold
                        )
                        fast = factory(seed).losses_for_round(
                            r, senders, receivers
                        )
                        assert {
                            pid: set(fast[pid]) for pid in receivers
                        } == expected, (seed, senders, receivers, r)
                        assert fast.drop_counts.tolist() == [
                            len(expected[pid]) for pid in receivers
                        ]
                        pairs = fast.drop_pairs()
                        if pairs is not None:
                            from_pairs = {pid: set() for pid in receivers}
                            rows, cols = pairs
                            for i, j in zip(rows.tolist(), cols.tolist()):
                                from_pairs[receivers[i]].add(senders[j])
                            assert from_pairs == expected


@needs_numpy
@pytest.mark.parametrize("name", ["iid_0.3", "capture_2_ambient"])
def test_cached_round_blocks_match_the_loop(name, monkeypatch):
    """The engine passes one receivers tuple every round, so the numpy
    leg serves row words from blocks of rounds; any round order must
    read the same words as the loop."""
    receivers = tuple(range(12))
    senders = list(range(0, 12, 2))
    rounds = list(range(1, 70)) + [5, 300, 3, 301]
    monkeypatch.setattr(loss_mod, "_np", numpy)
    adv = SEEDED[name](9)
    fast = [
        {pid: set(m[pid]) for pid in receivers}
        for m in (adv.losses_for_round(r, senders, receivers)
                  for r in rounds)
    ]
    monkeypatch.setattr(loss_mod, "_np", None)
    ref = SEEDED[name](9)
    assert fast == [
        {pid: set(m[pid]) - {pid} for pid in receivers}
        for m in (ref.losses_for_round(r, senders, receivers)
                  for r in rounds)
    ]


# ----------------------------------------------------------------------
# (b) the per-receiver view equals the batched row
# ----------------------------------------------------------------------
HALVES = [range(0, 4), range(4, 8)]

BUILTINS = {
    "reliable": ReliableDelivery,
    "silence": SilenceLoss,
    "alpha": AlphaLoss,
    "iid": lambda: IIDLoss(0.4, seed=5),
    "capture": lambda: CaptureEffectLoss(2, 0.3, seed=5),
    "partition_iid": lambda: PartitionLoss(
        HALVES, intra=IIDLoss(0.4, seed=6)
    ),
    "partition_capture": lambda: PartitionLoss(
        HALVES, intra=CaptureEffectLoss(1, seed=6), until_round=4
    ),
    "composed": lambda: ComposedLoss([
        PartitionLoss(HALVES), IIDLoss(0.2, seed=1),
        CaptureEffectLoss(1, seed=2),
    ]),
    "ecf": lambda: EventualCollisionFreedom(IIDLoss(0.3, seed=3), r_cf=3),
    "scripted_fn": lambda: ScriptedLoss(
        lambda r, s, x: [y for y in s if (x + y + r) % 3 == 0]
    ),
    "scripted_round_fn": lambda: ScriptedLoss(
        round_fn=lambda r, s, xs: {
            x: frozenset(y for y in s if (x * y + r) % 4 == 0) for x in xs
        }
    ),
    "physical": lambda: PhysicalLayer(tuple(range(8)), seed=4),
    "multihop_iid": lambda: MultihopLayer(
        MultihopNetwork.line(8), inner=IIDLoss(0.4, seed=7)
    ),
    "multihop_capture": lambda: MultihopLayer(
        MultihopNetwork.grid(4, 2), inner=CaptureEffectLoss(1, seed=8)
    ),
}


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_per_receiver_losses_equal_the_batched_row(
    name, backend, monkeypatch
):
    use_backend(monkeypatch, backend)
    receivers = tuple(range(8))
    for r in range(1, 7):
        for senders in (list(range(8)), [1, 4, 6], [5]):
            adv = BUILTINS[name]()
            batched = adv.losses_for_round(r, senders, receivers)
            for pid in receivers:
                row = set(batched[pid]) - {pid}
                assert set(adv.losses(r, senders, pid)) == row, (
                    r, senders, pid
                )


def test_overriding_neither_loss_method_fails_at_definition():
    with pytest.raises(TypeError, match="losses_for_round"):
        class Neither(LossAdversary):
            def reset(self) -> None:
                pass

