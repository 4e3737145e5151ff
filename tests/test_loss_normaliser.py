"""Third-party loss mappings go through one normaliser.

A loss adversary written outside the package may answer
``losses_for_round`` with any mapping of receiver -> dropped senders.
:func:`repro.adversary.loss.as_round_losses` turns it into the engine's
counts-first round type once per round, with fixed semantics: list
values count each sender once, non-senders are ignored, the receiver's
own message is exempt (self-delivery is unconditional), and an omitted
receiver raises :class:`~repro.core.errors.ModelViolation`.

The digests below were recorded from executions of these adversaries
before the normaliser existed, when the engine resolved plain mappings
in its scalar loop; both engine paths must keep reproducing them.
"""

import hashlib

import pytest

from repro.adversary.loss import (
    ComposedLoss,
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    ScriptedLoss,
)
from repro.contention.services import NoContentionManager
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment, array_kernel_module
from repro.core.errors import ModelViolation
from repro.core.execution import ExecutionEngine, run_algorithm
from repro.core.process import ScriptedProcess
from repro.core.records import RecordPolicy
from repro.detectors.classes import MAJ_OAC

ROUNDS = 10

#: Kernel-off everywhere; kernel forced on where numpy is present.
KERNEL_MODES = [False] + ([True] if array_kernel_module() else [])


class ThirdParty(LossAdversary):
    """A plain-mapping adversary whose drop sets break every shape rule
    a built-in keeps: ``style`` picks the breach."""

    def __init__(self, style):
        self.style = style

    def losses_for_round(self, round_index, senders, receivers):
        picked = [s for s in senders if (s + round_index) % 3 != 1]
        if self.style == "lists":
            # Lists with every sender named twice.
            return {pid: picked + picked for pid in receivers}
        if self.style == "non_senders":
            # Every index and a pid outside the system.
            return {
                pid: set(receivers) | {999} if pid % 2 else {999}
                for pid in receivers
            }
        if self.style == "receiver":
            # The receiver names itself next to the picked senders.
            return {pid: set(picked) | {pid} for pid in receivers}
        # "alias": one set object shared by every receiver.
        shared = set(picked) | set(receivers[:2])
        return dict.fromkeys(receivers, shared)


class PerReceiver(LossAdversary):
    """Answers per receiver only; the base class batches the round."""

    def losses(self, round_index, senders, receiver):
        return [s for s in senders if (s * receiver + round_index) % 4 == 0]


ADVERSARIES = {
    "lists": lambda: ThirdParty("lists"),
    "non_senders": lambda: ThirdParty("non_senders"),
    "receiver": lambda: ThirdParty("receiver"),
    "alias": lambda: ThirdParty("alias"),
    "per_receiver": PerReceiver,
    "scripted_lists": lambda: ScriptedLoss(
        lambda r, senders, pid: [s for s in senders if s != r % 5] * 2
    ),
    "scripted_round_fn": lambda: ScriptedLoss(
        round_fn=lambda r, senders, receivers: {
            pid: [pid, 999] + list(senders[: r % 3]) for pid in receivers
        }
    ),
    "composed": lambda: ComposedLoss(
        [ThirdParty("alias"), ThirdParty("lists")]
    ),
    "partition_intra": lambda: PartitionLoss(
        [range(0, 9), range(9, 18)], intra=ThirdParty("receiver")
    ),
}

EXPECTED_DIGESTS = {
    ('alias', 6): '5b20b9a25f66ddb9',
    ('alias', 18): '8042867f2d3c1d2c',
    ('composed', 6): '5b20b9a25f66ddb9',
    ('composed', 18): '8042867f2d3c1d2c',
    ('lists', 6): 'e8b8da08ef7d8dcf',
    ('lists', 18): '4b482bd64756fab2',
    ('non_senders', 6): 'b64b82fc957b955f',
    ('non_senders', 18): '5abab835785f94a4',
    ('partition_intra', 6): 'e8b8da08ef7d8dcf',
    ('partition_intra', 18): 'ae8e824994aa2158',
    ('per_receiver', 6): 'ef11ec2a81b47d61',
    ('per_receiver', 18): '392e773652a3d214',
    ('receiver', 6): 'e8b8da08ef7d8dcf',
    ('receiver', 18): '4b482bd64756fab2',
    ('scripted_lists', 6): 'd511635278760d9d',
    ('scripted_lists', 18): '22cc15a93c537ce1',
    ('scripted_round_fn', 6): 'cd8196ab7df45985',
    ('scripted_round_fn', 18): 'acc179bd05340b4e',
}


def varied_algorithm(rounds=ROUNDS):
    """Distinct payloads, a shared payload and silent rounds."""

    def spawn(i):
        script = []
        for r in range(rounds):
            if (r + i) % 5 == 4:
                script.append(None)
            elif r % 3 == 0:
                script.append("m")
            else:
                script.append(f"m{i % 4}")
        return ScriptedProcess(script)

    return Algorithm(spawn, anonymous=False)


def digest(n, factory, use_array_kernel):
    env = Environment(
        indices=tuple(range(n)),
        detector=MAJ_OAC.make(r_acc=3),
        contention=NoContentionManager(),
        loss=factory(),
    )
    result = run_algorithm(
        env, varied_algorithm(), max_rounds=ROUNDS,
        until_all_decided=False, record_policy=RecordPolicy.FULL,
        use_array_kernel=use_array_kernel,
    )
    rounds = [
        [
            (
                pid,
                sorted(record.received[pid].items()),
                record.cd_advice[pid].name,
            )
            for pid in env.indices
        ]
        for record in result.records
    ]
    return hashlib.sha256(repr(rounds).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n", [6, 18])
@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_third_party_mappings_match_recorded_digests(name, n):
    expected = EXPECTED_DIGESTS[(name, n)]
    for use_array_kernel in KERNEL_MODES:
        assert digest(n, ADVERSARIES[name], use_array_kernel) == expected


class Omitting(LossAdversary):
    """Leaves the last receiver out of its round resolution."""

    def losses_for_round(self, round_index, senders, receivers):
        return {pid: set() for pid in list(receivers)[:-1]}


@pytest.mark.parametrize("use_array_kernel", KERNEL_MODES)
@pytest.mark.parametrize("loss_factory", [
    Omitting,
    lambda: ComposedLoss([ReliableDelivery(), Omitting()]),
], ids=["direct", "composed"])
def test_omitted_receiver_raises_from_the_normaliser(
    loss_factory, use_array_kernel
):
    env = Environment(
        indices=(0, 1, 2),
        detector=MAJ_OAC.make(r_acc=3),
        contention=NoContentionManager(),
        loss=loss_factory(),
    )
    env.reset()
    engine = ExecutionEngine(
        env, varied_algorithm().spawn_all(env.indices),
        use_array_kernel=use_array_kernel,
    )
    with pytest.raises(ModelViolation, match="omitted receiver 2"):
        engine.step()
