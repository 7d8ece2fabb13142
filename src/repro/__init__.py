"""TLT: Taming the Long-Tail — ASPLOS 2026 reproduction.

A laptop-scale but complete reproduction of *"Taming the Long-Tail:
Efficient Reasoning RL Training with Adaptive Drafter"*: lossless
speculative decoding (linear + tree) over a real numpy LM substrate,
EAGLE/HASS/EAGLE-3 drafter training, the BEG-MAB strategy tuner, the spot
trainer (DataBuffer, packing, selective async checkpointing, worker
coordinator), GRPO-family RL, and a roofline-calibrated cluster simulator
that regenerates every table and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import (TinyLM, TinyLMConfig, EagleDrafter,
                       EagleDrafterConfig, SdStrategy,
                       speculative_generate)

    rng = np.random.default_rng(0)
    target = TinyLM(TinyLMConfig(), rng)
    drafter = EagleDrafter(target, EagleDrafterConfig(), rng)
    out = speculative_generate(
        target, drafter, [[5, 6, 7]], max_new_tokens=64,
        temperature=0.9, rng=rng,
        strategy=SdStrategy(draft_depth=4, topk=2, tokens_to_verify=8),
    )
    print(out.metrics.mean_accept_length)
"""

from repro.drafter import (
    DrafterTrainer,
    DrafterTrainingConfig,
    EagleDrafter,
    EagleDrafterConfig,
    NgramDrafter,
    NgramDrafterConfig,
    TrainingStrategy,
)
from repro.llm import TinyLM, TinyLMConfig, Vocabulary, generate
from repro.rl import (
    ColocatedLoop,
    RlConfig,
    RlTrainer,
    SpeculativeRollout,
    VanillaRollout,
)
from repro.autoscale import (
    Autoscaler,
    HysteresisPolicy,
    PressureSnapshot,
    ScaleDecision,
    ScaleEvent,
    ScalingPolicy,
    SignalAggregator,
)
from repro.cache import KVCacheManager, PrefixIndex
from repro.fleet import (
    ConsistentHashRing,
    FleetEngine,
    FleetLeastLoaded,
    FleetReport,
    FleetRoundRobin,
    PrefixHashRouting,
    ReplicaState,
    RoutingPolicy,
    StaticRouting,
)
from repro.serving import (
    RequestIdAllocator,
    ServingEngine,
    ServingRequest,
    SloClass,
    poisson_trace,
)
from repro.specdec import (
    FifoAdmission,
    PrefixAwareAdmission,
    SdStrategy,
    default_strategy_pool,
    speculative_generate,
)
from repro.tuner import BegMabSelector

__version__ = "1.0.0"

__all__ = [
    "TinyLM",
    "TinyLMConfig",
    "Vocabulary",
    "generate",
    "EagleDrafter",
    "EagleDrafterConfig",
    "NgramDrafter",
    "NgramDrafterConfig",
    "DrafterTrainer",
    "DrafterTrainingConfig",
    "TrainingStrategy",
    "SdStrategy",
    "default_strategy_pool",
    "speculative_generate",
    "BegMabSelector",
    "RlTrainer",
    "RlConfig",
    "VanillaRollout",
    "SpeculativeRollout",
    "ColocatedLoop",
    "ServingEngine",
    "ServingRequest",
    "SloClass",
    "RequestIdAllocator",
    "poisson_trace",
    "KVCacheManager",
    "PrefixIndex",
    "FleetEngine",
    "FleetReport",
    "RoutingPolicy",
    "FleetRoundRobin",
    "FleetLeastLoaded",
    "Autoscaler",
    "HysteresisPolicy",
    "PressureSnapshot",
    "ScaleDecision",
    "ScaleEvent",
    "ScalingPolicy",
    "SignalAggregator",
    "PrefixHashRouting",
    "StaticRouting",
    "ConsistentHashRing",
    "ReplicaState",
    "FifoAdmission",
    "PrefixAwareAdmission",
    "__version__",
]
