"""Serving-pool rollouts, distribution-aware, + continual drafter zoo.

The subsystem that closes the last ROADMAP loop: an online
:class:`LengthPredictor` estimates each prompt family's response
length from observed rollouts; a :class:`RolloutScheduler` — the
serving-pool rollout backend, FIFO whole-group submission being one of
its modes — decomposes GRPO groups and admits members tail-first,
pipelining the next batch's short requests into slots the current
batch's stragglers free, while delivering every batch group-complete
with byte-identical outputs; and a :class:`DrafterZoo` keeps
per-segment specialist drafters behind an ε-greedy bandit, refreshed
continually from spot snapshots and published through per-worker
rolling hot swaps.

predictor → scheduler → zoo: lengths feed admission order, segments
feed drafter choice, and the serving pool underneath never sees
anything but ordinary (reordered, tagged) requests.
"""

from repro.longtail.predictor import (
    FamilyEstimate,
    LengthPredictor,
    PredictorCalibration,
)
from repro.longtail.scheduler import (
    RolloutScheduler,
    SchedulerMode,
    SchedulerStats,
    group_tags,
    run_pipelined_steps,
)
from repro.longtail.zoo import DrafterZoo

__all__ = [
    "FamilyEstimate",
    "LengthPredictor",
    "PredictorCalibration",
    "RolloutScheduler",
    "SchedulerMode",
    "SchedulerStats",
    "group_tags",
    "run_pipelined_steps",
    "DrafterZoo",
]
