"""Adversaries controlling the model's nondeterminism.

The formal model leaves three choices open each round: which messages are
lost at which receivers (Definition 11, constraint 4), which processes
crash (constraint 2), and what unconstrained detector/CM advice looks like
(handled inside :mod:`repro.detectors` and :mod:`repro.contention`).  This
package owns the first two:

* :mod:`repro.adversary.loss`  — message-loss adversaries, including the
  eventual-collision-freedom wrapper (Property 1) and the scripted
  partition/alpha adversaries the lower bounds use;
* :mod:`repro.adversary.crash` — crash schedules;
* :mod:`repro.adversary.churn` — dynamic-membership schedules (leaves,
  joins, fresh-state rejoins);
* :mod:`repro.adversary.scenarios` — canned environment bundles used by the
  experiments and examples.
"""

from .churn import (
    BurstChurn,
    ChurnAdversary,
    ChurnEvent,
    InformedMinorityChurn,
    NoChurn,
    ScheduledChurn,
    SeededChurn,
)
from .crash import (
    CrashAdversary,
    CrashEvent,
    NoCrashes,
    ScheduledCrashes,
    SeededRandomCrashes,
)
from .loss import (
    AlphaLoss,
    ArrayRoundLosses,
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

__all__ = [
    "LossAdversary",
    "ArrayRoundLosses",
    "ReliableDelivery",
    "SilenceLoss",
    "IIDLoss",
    "CaptureEffectLoss",
    "PartitionLoss",
    "AlphaLoss",
    "ScriptedLoss",
    "ComposedLoss",
    "EventualCollisionFreedom",
    "CrashAdversary",
    "CrashEvent",
    "NoCrashes",
    "ScheduledCrashes",
    "SeededRandomCrashes",
    "ChurnAdversary",
    "ChurnEvent",
    "NoChurn",
    "ScheduledChurn",
    "SeededChurn",
    "BurstChurn",
    "InformedMinorityChurn",
]
