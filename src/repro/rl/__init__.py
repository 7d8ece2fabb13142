"""Reasoning-RL algorithms (paper §2.1, Figure 4).

GRPO and its cousins share one training workflow — rollout, inference
(policy + frozen reference logprobs, rule-based reward), policy update —
differing only in advantage construction and KL regularisation.  This
package implements that workflow over the TinyLM substrate with real
policy-gradient updates:

* :mod:`repro.rl.kl` — the k1/k2/k3 KL estimators (Schulman);
* :mod:`repro.rl.algorithms` — GRPO / RLOO / REINFORCE / REINFORCE++ /
  DAPO advantage estimators;
* :mod:`repro.rl.rollout_backends` — vanilla vs speculative rollout (the
  seam where TLT plugs in losslessly; one speculative backend covers
  static and adaptive SD);
* :mod:`repro.rl.serving_backend` — the closed serving ↔ RL loop over
  the shared online serving pool, whose rollout backend is
  :class:`~repro.longtail.scheduler.RolloutScheduler`;
* :mod:`repro.rl.trainer` — the end-to-end RL training loop.
"""

from repro.rl.algorithms import (
    AdvantageEstimator,
    DapoAdvantages,
    GrpoAdvantages,
    ReinforceAdvantages,
    ReinforcePlusPlusAdvantages,
    RlooAdvantages,
)
from repro.rl.kl import kl_estimate, kl_grad_coef
from repro.rl.rollout_backends import (
    RolloutBackend,
    RolloutResult,
    SpeculativeRollout,
    VanillaRollout,
)
from repro.rl.serving_backend import ColocatedLoop
from repro.rl.trainer import RlConfig, RlStepReport, RlTrainer

__all__ = [
    "AdvantageEstimator",
    "GrpoAdvantages",
    "RlooAdvantages",
    "ReinforceAdvantages",
    "ReinforcePlusPlusAdvantages",
    "DapoAdvantages",
    "kl_estimate",
    "kl_grad_coef",
    "RolloutBackend",
    "RolloutResult",
    "VanillaRollout",
    "SpeculativeRollout",
    "ColocatedLoop",
    "RlConfig",
    "RlStepReport",
    "RlTrainer",
]
