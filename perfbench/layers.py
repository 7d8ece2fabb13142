"""The layer boundaries the traced run times, and the metrics it reports.

Each layer is a ``repro`` subpackage; each boundary is a public
function or method of it, named as it is bound where its callers look
it up (``build_draft_trees`` as imported into
``repro.specdec.batch_engine``, ``steal_work`` into
``repro.serving.frontend``, ``build_training_batch`` into
``repro.spot.trainer``).  A boundary that no longer exists reads 0
calls and is listed as absent in the run's record.
"""

from __future__ import annotations

from typing import List

from spans import Boundary

BOUNDARIES: List[Boundary] = [
    # specdec
    Boundary("specdec", "repro.specdec.batch_engine:build_draft_trees"),
    Boundary("specdec", "repro.specdec.batch_engine:verify_trees"),
    Boundary(
        "specdec",
        "repro.specdec.batch_engine:BatchedSpecDecodeEngine.step",
    ),
    # drafter
    Boundary("drafter", "repro.drafter.eagle:EagleDrafter.begin_batch"),
    Boundary("drafter", "repro.drafter.eagle:EagleDrafter.propose_batch"),
    Boundary("drafter", "repro.drafter.eagle:EagleDrafter.extend_batch"),
    Boundary("drafter", "repro.drafter.training:DrafterTrainer.train_step"),
    # llm
    Boundary("llm", "repro.llm.model:TinyLM.step"),
    Boundary("llm", "repro.llm.model:TinyLM.forward"),
    Boundary("llm", "repro.llm.model:TinyLM.backward"),
    Boundary("llm", "repro.llm.optim:Adam.step"),
    # cache
    Boundary("cache", "repro.cache.manager:KVCacheManager.plan_admission"),
    Boundary("cache", "repro.cache.manager:KVCacheManager.insert_chain"),
    Boundary("cache", "repro.cache.manager:KVCacheManager.acquire"),
    Boundary("cache", "repro.cache.manager:KVCacheManager.release"),
    # serving
    Boundary("serving", "repro.serving.frontend:ServingEngine.tick"),
    Boundary(
        "serving",
        "repro.serving.dispatch:LeastLoadedDispatch.choose",
        request_arg=1,
    ),
    Boundary(
        "serving",
        "repro.serving.dispatch:PrefixAffinityDispatch.choose",
        request_arg=1,
    ),
    Boundary("serving", "repro.serving.frontend:steal_work"),
    # fleet
    Boundary("fleet", "repro.fleet.engine:FleetEngine.tick"),
    Boundary(
        "fleet",
        "repro.fleet.router:PrefixHashRouting.choose",
        request_arg=1,
    ),
    # autoscale
    Boundary("autoscale", "repro.autoscale.controller:Autoscaler.on_tick"),
    Boundary(
        "autoscale", "repro.autoscale.signals:SignalAggregator.observe"
    ),
    Boundary("autoscale", "repro.autoscale.policy:HysteresisPolicy.decide"),
    # rollout
    Boundary(
        "rollout", "repro.rollout.adaptive:AdaptiveSdManager.select_strategy"
    ),
    Boundary("rollout", "repro.rollout.adaptive:AdaptiveSdManager.record"),
    # longtail
    Boundary(
        "longtail", "repro.longtail.scheduler:RolloutScheduler.submit_batch"
    ),
    Boundary("longtail", "repro.longtail.scheduler:RolloutScheduler.pump"),
    Boundary("longtail", "repro.longtail.scheduler:RolloutScheduler.collect"),
    Boundary("longtail", "repro.longtail.predictor:LengthPredictor.predict"),
    Boundary("longtail", "repro.longtail.predictor:LengthPredictor.observe"),
    # rl
    Boundary("rl", "repro.rl.trainer:RlTrainer.step"),
    Boundary(
        "rl", "repro.workload.prompts:SuccessorChainTask.reward_batch"
    ),
    # spot
    Boundary("spot", "repro.spot.trainer:SpotTrainer.train_slice"),
    Boundary("spot", "repro.spot.trainer:SpotTrainer.snapshot_drafter"),
    Boundary("spot", "repro.drafter.training:collect_training_sequences"),
    Boundary("spot", "repro.spot.trainer:build_training_batch"),
]

#: Counts and ratios measured where the work happens: name -> (unit,
#: better).  METRICS.md says what each should move, on which workload.
RATIOS = {
    "specdec.accepted_per_drafted": ("ratio", "higher"),
    "specdec.verify_rows_per_token": ("ratio", "lower"),
    "specdec.sd_cycle_share": ("ratio", "higher"),
    "drafter.launches": ("count", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.prefill_tokens_saved_frac": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "serving.queue_wait_ticks_p50": ("ticks", "lower"),
    "serving.queue_wait_ticks_p99": ("ticks", "lower"),
    "serving.preemptions": ("count", "lower"),
    "serving.stolen": ("count", "lower"),
    "fleet.spills": ("count", "lower"),
    "fleet.migrations": ("count", "lower"),
    "fleet.ring_moves": ("count", "lower"),
    "autoscale.scale_events": ("count", "lower"),
    "autoscale.drains": ("count", "lower"),
    "rollout.sd_cycles": ("count", "higher"),
    "rollout.vanilla_cycles": ("count", "lower"),
    "longtail.predictor_hit_rate": ("ratio", "higher"),
    "spot.updates": ("count", "higher"),
    "rl.reward_mean": ("reward", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    metrics = {}
    for boundary in BOUNDARIES:
        metrics[f"{boundary.name}.calls"] = ("count", "lower")
        metrics[f"{boundary.name}.self_ms"] = ("ms", "lower")
    metrics.update(RATIOS)
    return metrics
